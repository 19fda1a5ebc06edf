//===- tests/trace/MappedTraceTest.cpp - Zero-copy trace mapping tests ----===//

#include "trace/MappedTrace.h"

#include "trace/TraceIO.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace ccsim;

namespace {

Trace sampleTrace() {
  Trace T;
  T.Name = "mapped-roundtrip";
  T.Blocks.resize(5);
  for (size_t I = 0; I < 5; ++I)
    T.Blocks[I].SizeBytes = static_cast<uint32_t>(32 + I * 17);
  T.Blocks[0].OutEdges = {1, 4};
  T.Blocks[2].OutEdges = {2};
  T.Accesses = {0, 1, 2, 3, 4, 0, 2, 2, 4, 1};
  return T;
}

std::string writeTempTrace(const Trace &T, const char *File) {
  const std::string Path = ::testing::TempDir() + File;
  EXPECT_TRUE(writeTrace(T, Path));
  return Path;
}

std::string writeTempBytes(const std::vector<uint8_t> &Bytes,
                           const char *File) {
  const std::string Path = ::testing::TempDir() + File;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  EXPECT_TRUE(Out.good());
  return Path;
}

void expectMatchesTrace(const trace::MappedTrace &M, const Trace &T) {
  EXPECT_EQ(M.name(), T.Name);
  EXPECT_EQ(M.numSuperblocks(), T.numSuperblocks());
  EXPECT_EQ(M.numAccesses(), T.numAccesses());
  EXPECT_EQ(M.maxCacheBytes(), T.maxCacheBytes());
  for (size_t I = 0; I < T.numAccesses(); ++I)
    EXPECT_EQ(M.idAt(I), T.Accesses[I]) << "access " << I;
  for (SuperblockId Id = 0; Id < T.numSuperblocks(); ++Id) {
    const SuperblockRecord Want = T.recordFor(Id);
    const SuperblockRecord Got = M.recordFor(Id);
    EXPECT_EQ(Got.Id, Want.Id);
    EXPECT_EQ(Got.SizeBytes, Want.SizeBytes);
    ASSERT_EQ(Got.OutEdges.size(), Want.OutEdges.size());
    for (size_t E = 0; E < Want.OutEdges.size(); ++E)
      EXPECT_EQ(Got.OutEdges[E], Want.OutEdges[E]);
  }
}

} // namespace

TEST(MappedTraceTest, MmapRoundTripMatchesWrittenTrace) {
  const Trace T = sampleTrace();
  const std::string Path = writeTempTrace(T, "/mapped_roundtrip.cct");

  auto M = trace::MappedTrace::open(Path);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->isMapped());
  expectMatchesTrace(*M, T);

  // Materializing back to an owning Trace is a full round trip.
  const Trace Back = M->toTrace();
  EXPECT_EQ(Back.Name, T.Name);
  EXPECT_EQ(Back.Accesses, T.Accesses);
  ASSERT_EQ(Back.Blocks.size(), T.Blocks.size());
  for (size_t I = 0; I < T.Blocks.size(); ++I) {
    EXPECT_EQ(Back.Blocks[I].SizeBytes, T.Blocks[I].SizeBytes);
    EXPECT_EQ(Back.Blocks[I].OutEdges, T.Blocks[I].OutEdges);
  }
  std::remove(Path.c_str());
}

TEST(MappedTraceTest, FallbackBufferServesIdenticalData) {
  const Trace T = sampleTrace();
  const std::string Path = writeTempTrace(T, "/mapped_fallback.cct");

  auto M = trace::MappedTrace::open(Path, /*ForceFallback=*/true);
  ASSERT_TRUE(M.has_value());
  EXPECT_FALSE(M->isMapped());
  expectMatchesTrace(*M, T);
  std::remove(Path.c_str());
}

TEST(MappedTraceTest, MoveTransfersTheMapping) {
  const Trace T = sampleTrace();
  const std::string Path = writeTempTrace(T, "/mapped_move.cct");

  auto M = trace::MappedTrace::open(Path);
  ASSERT_TRUE(M.has_value());
  trace::MappedTrace Moved = std::move(*M);
  expectMatchesTrace(Moved, T);
  std::remove(Path.c_str());
}

TEST(MappedTraceTest, MissingFileIsRejected) {
  EXPECT_FALSE(trace::MappedTrace::open("/definitely/not/here.cct"));
  EXPECT_FALSE(
      trace::MappedTrace::open("/definitely/not/here.cct", true));
}

TEST(MappedTraceTest, BadMagicIsRejected) {
  auto Bytes = serializeTrace(sampleTrace());
  Bytes[0] ^= 0xff;
  const std::string Path = writeTempBytes(Bytes, "/mapped_badmagic.cct");
  EXPECT_FALSE(trace::MappedTrace::open(Path));
  EXPECT_FALSE(trace::MappedTrace::open(Path, true));
  std::remove(Path.c_str());
}

TEST(MappedTraceTest, TruncatedFileIsRejected) {
  // Validation must be exactly as strict as readTrace(): chop the file at
  // every prefix length and require either rejection or (full length)
  // acceptance, in both the mmap and fallback paths.
  const auto Bytes = serializeTrace(sampleTrace());
  for (const size_t Len :
       {size_t(0), size_t(3), size_t(8), Bytes.size() / 2,
        Bytes.size() - 1}) {
    const std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    const std::string Path = writeTempBytes(Cut, "/mapped_truncated.cct");
    EXPECT_FALSE(trace::MappedTrace::open(Path)) << "prefix " << Len;
    EXPECT_FALSE(trace::MappedTrace::open(Path, true)) << "prefix " << Len;
    std::remove(Path.c_str());
  }
}

TEST(MappedTraceTest, TrailingGarbageIsRejected) {
  auto Bytes = serializeTrace(sampleTrace());
  Bytes.push_back(0xab);
  const std::string Path = writeTempBytes(Bytes, "/mapped_trailing.cct");
  EXPECT_FALSE(trace::MappedTrace::open(Path));
  EXPECT_FALSE(trace::MappedTrace::open(Path, true));
  std::remove(Path.c_str());
}

TEST(MappedTraceTest, HugeBlockCountIsRejected) {
  // 2^32 - 1 blocks claimed by a 16-byte file: refused on both paths
  // before the block table is allocated.
  const std::string Path =
      std::string(CCSIM_TRACE_FIXTURE_DIR) + "/huge_block_count.cct";
  EXPECT_FALSE(trace::MappedTrace::open(Path));
  EXPECT_FALSE(trace::MappedTrace::open(Path, /*ForceFallback=*/true));
}
