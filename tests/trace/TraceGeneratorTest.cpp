//===- tests/trace/TraceGeneratorTest.cpp - Trace synthesis tests ---------===//

#include "trace/TraceGenerator.h"

#include "support/Statistics.h"
#include "gtest/gtest.h"

using namespace ccsim;

namespace {

WorkloadModel testModel(uint32_t Blocks = 200) {
  WorkloadModel M = scaledWorkload(*findWorkload("crafty"), 1.0);
  M.NumSuperblocks = Blocks;
  M.Name = "test";
  return M;
}

} // namespace

TEST(TraceGeneratorTest, GeneratedTraceValidates) {
  TraceGenerator Gen(1);
  const Trace T = Gen.generate(testModel());
  EXPECT_TRUE(T.validate());
  EXPECT_EQ(T.Name, "test");
}

TEST(TraceGeneratorTest, ExactBlockCount) {
  TraceGenerator Gen(2);
  EXPECT_EQ(Gen.generate(testModel(137)).numSuperblocks(), 137u);
}

TEST(TraceGeneratorTest, DeterministicForSeed) {
  TraceGenerator A(7), B(7);
  const Trace TA = A.generate(testModel());
  const Trace TB = B.generate(testModel());
  EXPECT_EQ(TA.Accesses, TB.Accesses);
  ASSERT_EQ(TA.Blocks.size(), TB.Blocks.size());
  for (size_t I = 0; I < TA.Blocks.size(); ++I) {
    EXPECT_EQ(TA.Blocks[I].SizeBytes, TB.Blocks[I].SizeBytes);
    EXPECT_EQ(TA.Blocks[I].OutEdges, TB.Blocks[I].OutEdges);
  }
}

TEST(TraceGeneratorTest, DifferentSeedsDiffer) {
  TraceGenerator A(7), B(8);
  EXPECT_NE(A.generate(testModel()).Accesses,
            B.generate(testModel()).Accesses);
}

TEST(TraceGeneratorTest, MedianSizeNearModel) {
  WorkloadModel M = testModel(2000);
  TraceGenerator Gen(11);
  const Trace T = Gen.generate(M);
  const double Median = median(T.sizesAsDoubles());
  EXPECT_NEAR(Median / M.MedianBlockBytes, 1.0, 0.15);
}

TEST(TraceGeneratorTest, MeanSizeNearModel) {
  WorkloadModel M = testModel(4000);
  M.MaxBlockBytes = 1 << 20; // Avoid clamping bias for this check.
  TraceGenerator Gen(13);
  const Trace T = Gen.generate(M);
  const double Mean = mean(T.sizesAsDoubles());
  EXPECT_NEAR(Mean / M.MeanBlockBytes, 1.0, 0.15);
}

TEST(TraceGeneratorTest, SizesWithinClampBounds) {
  WorkloadModel M = testModel(1000);
  TraceGenerator Gen(17);
  const Trace T = Gen.generate(M);
  for (const SuperblockDef &B : T.Blocks) {
    EXPECT_GE(B.SizeBytes, M.MinBlockBytes);
    EXPECT_LE(B.SizeBytes, M.MaxBlockBytes);
  }
}

TEST(TraceGeneratorTest, MeanOutDegreeNearModel) {
  WorkloadModel M = testModel(3000);
  TraceGenerator Gen(19);
  const Trace T = Gen.generate(M);
  EXPECT_NEAR(T.meanOutDegree(), M.MeanOutDegree, 0.25);
}

TEST(TraceGeneratorTest, SelfLoopFractionNearModel) {
  WorkloadModel M = testModel(3000);
  TraceGenerator Gen(23);
  const Trace T = Gen.generate(M);
  size_t SelfLoops = 0;
  for (SuperblockId Id = 0; Id < T.Blocks.size(); ++Id)
    for (SuperblockId Edge : T.Blocks[Id].OutEdges)
      if (Edge == Id)
        ++SelfLoops;
  const double Fraction =
      static_cast<double>(SelfLoops) / static_cast<double>(T.Blocks.size());
  EXPECT_NEAR(Fraction, M.SelfLoopFraction, 0.05);
}

TEST(TraceGeneratorTest, DiscoveryOrderMatchesIds) {
  // Ids are assigned in discovery order: the first access to id K must
  // happen before the first access to any id > K.
  TraceGenerator Gen(29);
  const Trace T = Gen.generate(testModel(500));
  SuperblockId MaxSeen = 0;
  std::vector<bool> Seen(T.Blocks.size(), false);
  for (SuperblockId Id : T.Accesses) {
    if (!Seen[Id]) {
      EXPECT_GE(Id + 1, MaxSeen + 1 > 1 ? MaxSeen : 0);
      // A newly discovered id must be exactly MaxSeen (the next in
      // order) or 0 for the very first.
      if (Id > MaxSeen) {
        EXPECT_EQ(Id, MaxSeen + 1);
      }
      Seen[Id] = true;
      MaxSeen = std::max(MaxSeen, Id);
    }
  }
}

TEST(TraceGeneratorTest, AccessCountNearBudget) {
  WorkloadModel M = testModel(400);
  TraceGenerator Gen(31);
  const Trace T = Gen.generate(M);
  const double Budget = static_cast<double>(M.effectiveNumAccesses());
  EXPECT_GT(static_cast<double>(T.numAccesses()), 0.9 * Budget);
  EXPECT_LT(static_cast<double>(T.numAccesses()), 1.3 * Budget);
}

TEST(TraceGeneratorTest, AllTable1ModelsGenerateValidScaledTraces) {
  for (const WorkloadModel &M : table1Workloads()) {
    const WorkloadModel Scaled = scaledWorkload(M, 0.05);
    const Trace T = TraceGenerator::generateBenchmark(Scaled, 42);
    EXPECT_TRUE(T.validate()) << M.Name;
    EXPECT_EQ(T.numSuperblocks(), Scaled.NumSuperblocks) << M.Name;
  }
}

TEST(TraceGeneratorTest, BenchmarkSeedStableAcrossOrder) {
  const WorkloadModel A = scaledWorkload(*findWorkload("gzip"), 0.2);
  const WorkloadModel B = scaledWorkload(*findWorkload("mcf"), 0.2);
  const Trace T1 = TraceGenerator::generateBenchmark(A, 5);
  (void)TraceGenerator::generateBenchmark(B, 5);
  const Trace T2 = TraceGenerator::generateBenchmark(A, 5);
  EXPECT_EQ(T1.Accesses, T2.Accesses);
}

TEST(TraceGeneratorTest, FullSizeGzipMatchesPaperMaxCache) {
  // The full-size gzip model must land near the paper's 171 KB maxCache.
  const Trace T =
      TraceGenerator::generateBenchmark(*findWorkload("gzip"), 42);
  EXPECT_EQ(T.numSuperblocks(), 301u);
  EXPECT_NEAR(static_cast<double>(T.maxCacheBytes()) / (171.0 * 1024.0),
              1.0, 0.25);
}

namespace {

/// FNV-1a over every field the generator draws: each block's size and
/// out-edges, then the access stream, each list prefixed by its length.
class TraceDigest {
public:
  void add(const Trace &T) {
    word(T.Blocks.size());
    for (const SuperblockDef &B : T.Blocks) {
      word(B.SizeBytes);
      word(B.OutEdges.size());
      for (SuperblockId To : B.OutEdges)
        word(To);
    }
    word(T.Accesses.size());
    for (SuperblockId Id : T.Accesses)
      word(Id);
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 1469598103934665603ULL;
  void word(uint64_t Value) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Value >> (8 * Byte)) & 0xFF;
      Hash *= 1099511628211ULL;
    }
  }
};

/// Digest of the Table 1 suite at \p Scale (workloadAtScale), generated
/// one benchmark after another in suite order.
uint64_t suiteDigest(double Scale, uint64_t Seed) {
  TraceDigest D;
  for (const WorkloadModel &M : table1Workloads())
    D.add(TraceGenerator::generateBenchmark(workloadAtScale(M, Scale), Seed));
  return D.value();
}

constexpr uint64_t SuiteSeed = 0xCC512004ULL; // DefaultSuiteSeed.

} // namespace

// The generator's bit-identity contract (DESIGN §2): these digests were
// computed before the geometric sampler and the inline draws replaced
// Rng::nextGeometric, and every later change to synthesis must keep them.
TEST(TraceGeneratorTest, SuiteDigestPinnedAtSmallScales) {
  struct Pin {
    double Scale;
    uint64_t Seed;
    uint64_t Digest;
  };
  const Pin Pins[] = {
      {0.02, SuiteSeed, 0xbb9b861e1f42445bULL},
      {0.1, SuiteSeed, 0x6556b4016d5d647bULL},
      {0.02, 42, 0xe8a3559e8e21edf5ULL},
      {0.1, 42, 0xe0245f801a5e3e6aULL},
  };
  for (const Pin &P : Pins)
    EXPECT_EQ(suiteDigest(P.Scale, P.Seed), P.Digest)
        << "scale " << P.Scale << " seed " << P.Seed << ": digest 0x"
        << std::hex << suiteDigest(P.Scale, P.Seed);
}

TEST(TraceGeneratorTest, FullScaleBenchmarkDigestPinned) {
  // word is the largest Table 1 model (18043 blocks, 2.2 M accesses).
  const WorkloadModel &Word = *findWorkload("word");
  const std::pair<uint64_t, uint64_t> Pins[] = {{SuiteSeed, 0x204709802cefb944ULL},
                                                {42, 0x28fdbccc448dee1aULL}};
  for (const auto &[Seed, Digest] : Pins) {
    TraceDigest D;
    D.add(TraceGenerator::generateBenchmark(Word, Seed));
    EXPECT_EQ(D.value(), Digest)
        << "seed " << Seed << ": digest 0x" << std::hex << D.value();
  }
}
