//===- tests/trace/TraceIOTest.cpp - Trace serialization tests ------------===//

#include "trace/TraceIO.h"

#include "support/Random.h"
#include "trace/MappedTrace.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>

using namespace ccsim;

namespace {

Trace sampleTrace() {
  Trace T;
  T.Name = "roundtrip";
  T.Blocks.resize(4);
  for (size_t I = 0; I < 4; ++I)
    T.Blocks[I].SizeBytes = static_cast<uint32_t>(40 + I * 13);
  T.Blocks[0].OutEdges = {1, 2};
  T.Blocks[3].OutEdges = {3};
  T.Accesses = {0, 1, 2, 3, 0, 3, 3};
  return T;
}

bool tracesEqual(const Trace &A, const Trace &B) {
  if (A.Name != B.Name || A.Accesses != B.Accesses ||
      A.Blocks.size() != B.Blocks.size())
    return false;
  for (size_t I = 0; I < A.Blocks.size(); ++I)
    if (A.Blocks[I].SizeBytes != B.Blocks[I].SizeBytes ||
        A.Blocks[I].OutEdges != B.Blocks[I].OutEdges)
      return false;
  return true;
}

} // namespace

TEST(TraceIOTest, MemoryRoundTrip) {
  const Trace T = sampleTrace();
  auto Restored = deserializeTrace(serializeTrace(T));
  ASSERT_TRUE(Restored.has_value());
  EXPECT_TRUE(tracesEqual(T, *Restored));
}

TEST(TraceIOTest, FileRoundTrip) {
  const std::string Path = ::testing::TempDir() + "/ccsim_trace_test.cct";
  const Trace T = sampleTrace();
  ASSERT_TRUE(writeTrace(T, Path));
  auto Restored = readTrace(Path);
  ASSERT_TRUE(Restored.has_value());
  EXPECT_TRUE(tracesEqual(T, *Restored));
  std::remove(Path.c_str());
}

TEST(TraceIOTest, MissingFileFails) {
  EXPECT_FALSE(readTrace("/definitely/not/here.cct").has_value());
}

TEST(TraceIOTest, BadMagicRejected) {
  auto Bytes = serializeTrace(sampleTrace());
  Bytes[0] ^= 0xff;
  EXPECT_FALSE(deserializeTrace(Bytes).has_value());
}

TEST(TraceIOTest, BadVersionRejected) {
  auto Bytes = serializeTrace(sampleTrace());
  Bytes[4] = 99; // Version field.
  EXPECT_FALSE(deserializeTrace(Bytes).has_value());
}

TEST(TraceIOTest, TruncationRejected) {
  auto Bytes = serializeTrace(sampleTrace());
  for (size_t Cut : {Bytes.size() / 4, Bytes.size() / 2, Bytes.size() - 1}) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(deserializeTrace(Short).has_value()) << "cut " << Cut;
  }
}

TEST(TraceIOTest, InvalidPayloadRejected) {
  Trace T = sampleTrace();
  T.Blocks[0].OutEdges = {200}; // Out-of-range edge.
  EXPECT_FALSE(deserializeTrace(serializeTrace(T)).has_value());
}

TEST(TraceIOTest, EmptyTraceRoundTrips) {
  Trace T;
  T.Name = "empty";
  auto Restored = deserializeTrace(serializeTrace(T));
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(Restored->Name, "empty");
  EXPECT_TRUE(Restored->Blocks.empty());
}

TEST(TraceIOTest, GeneratedBenchmarkRoundTrips) {
  const WorkloadModel Model = scaledWorkload(*findWorkload("gzip"), 0.2);
  const Trace T = TraceGenerator::generateBenchmark(Model, 99);
  auto Restored = deserializeTrace(serializeTrace(T));
  ASSERT_TRUE(Restored.has_value());
  EXPECT_TRUE(tracesEqual(T, *Restored));
}

TEST(TraceIOTest, HugeBlockCountIsRejected) {
  // Magic, version 1, an empty name and 2^32 - 1 blocks: 16 bytes that
  // claim a 160 GiB block table. The count is refused before any of it
  // is allocated.
  const std::string Path =
      std::string(CCSIM_TRACE_FIXTURE_DIR) + "/huge_block_count.cct";
  const auto Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes.has_value());
  std::vector<uint8_t> Header = serializeTrace(Trace());
  Header.resize(12);
  Header.insert(Header.end(), 4, 0xff);
  ASSERT_EQ(*Bytes, Header);
  EXPECT_FALSE(deserializeTrace(*Bytes).has_value());
  EXPECT_FALSE(readTrace(Path).has_value());
}

// --- Seeded fuzz: a hostile input file must fail cleanly, never crash --

namespace {

/// Bytes of a realistic (non-toy) serialized trace for corruption fuzzing.
const std::vector<uint8_t> &fuzzBaseline() {
  static const std::vector<uint8_t> Bytes = serializeTrace(
      TraceGenerator::generateBenchmark(
          scaledWorkload(*findWorkload("vpr"), 0.05), 1234));
  return Bytes;
}

/// The file readers must give \p Bytes the verdict deserializeTrace()
/// gave it (\p InMemory): readTrace() and MappedTrace::open() on the
/// mapped and on the fallback path read it back from a file, and when
/// they accept, all of them return the same trace.
void expectFileReadersAgree(const std::vector<uint8_t> &Bytes,
                            const std::optional<Trace> &InMemory) {
  const std::string Test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string Path = ::testing::TempDir() + "/ccsim_" + Test + ".cct";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    ASSERT_TRUE(Out.good());
  }
  const std::optional<Trace> Read = readTrace(Path);
  const auto Mapped = trace::MappedTrace::open(Path);
  const auto Fallback = trace::MappedTrace::open(Path, /*ForceFallback=*/true);
  std::remove(Path.c_str());
  ASSERT_EQ(Read.has_value(), InMemory.has_value());
  ASSERT_EQ(Mapped.has_value(), InMemory.has_value());
  ASSERT_EQ(Fallback.has_value(), InMemory.has_value());
  if (!InMemory)
    return;
  EXPECT_TRUE(tracesEqual(*InMemory, *Read));
  EXPECT_TRUE(tracesEqual(*InMemory, Mapped->toTrace()));
  EXPECT_TRUE(tracesEqual(*InMemory, Fallback->toTrace()));
}

} // namespace

TEST(TraceIOFuzzTest, RandomByteFlipsNeverCrash) {
  const std::vector<uint8_t> &Base = fuzzBaseline();
  Rng R(0xF00D);
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<uint8_t> Mutated = Base;
    const size_t Flips = 1 + R.nextBelow(8);
    for (size_t F = 0; F < Flips; ++F) {
      const size_t At = R.nextBelow(Mutated.size());
      Mutated[At] ^= static_cast<uint8_t>(1 + R.nextBelow(255));
    }
    // Either the corruption is detected (nullopt) or it survived the
    // checks, in which case the result must still be a coherent trace.
    const auto Restored = deserializeTrace(Mutated);
    if (Restored.has_value()) {
      EXPECT_TRUE(Restored->validate()) << "round " << Round;
    }
    SCOPED_TRACE("round " + std::to_string(Round));
    expectFileReadersAgree(Mutated, Restored);
  }
}

TEST(TraceIOFuzzTest, RandomTruncationNeverCrashes) {
  const std::vector<uint8_t> &Base = fuzzBaseline();
  Rng R(0xCAFE);
  for (int Round = 0; Round < 200; ++Round) {
    const size_t Cut = R.nextBelow(Base.size());
    std::vector<uint8_t> Short(Base.begin(),
                               Base.begin() + static_cast<long>(Cut));
    EXPECT_FALSE(deserializeTrace(Short).has_value()) << "cut " << Cut;
    SCOPED_TRACE("cut " + std::to_string(Cut));
    expectFileReadersAgree(Short, std::nullopt);
  }
}

TEST(TraceIOFuzzTest, RandomGarbageRejected) {
  Rng R(0xBEEF);
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<uint8_t> Garbage(R.nextBelow(4096));
    for (auto &B : Garbage)
      B = static_cast<uint8_t>(R.nextBelow(256));
    const auto Restored = deserializeTrace(Garbage);
    // All-random bytes essentially never form a valid header; if one ever
    // does, it must at least produce a coherent trace.
    if (Restored.has_value()) {
      EXPECT_TRUE(Restored->validate()) << "round " << Round;
    }
    SCOPED_TRACE("round " + std::to_string(Round));
    expectFileReadersAgree(Garbage, Restored);
  }
}

TEST(TraceIOFuzzTest, AppendedTrailingBytesRejected) {
  std::vector<uint8_t> Padded = fuzzBaseline();
  Padded.push_back(0);
  // A trace file with trailing junk is corrupt, not "close enough".
  EXPECT_FALSE(deserializeTrace(Padded).has_value());
  expectFileReadersAgree(Padded, std::nullopt);
}
