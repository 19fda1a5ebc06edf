//===- tests/core/CacheManagerTest.cpp - Cache manager tests ---------------===//

#include "core/CacheEngine.h"

#include "support/Random.h"
#include "gtest/gtest.h"

using namespace ccsim;

namespace {

SuperblockRecord rec(SuperblockId Id, uint32_t Size,
                     const std::vector<SuperblockId> &Edges = {}) {
  SuperblockRecord R;
  R.Id = Id;
  R.SizeBytes = Size;
  R.OutEdges = std::span<const SuperblockId>(Edges);
  return R;
}

CacheEngine makeManager(uint64_t Capacity, GranularitySpec Spec,
                        bool Chaining = true) {
  CacheEngineConfig Config;
  Config.CapacityBytes = Capacity;
  Config.EnableChaining = Chaining;
  return CacheEngine(Config, makePolicy(Spec));
}

} // namespace

TEST(CacheManagerTest, HitAndMissCounting) {
  CacheEngine M = makeManager(1000, GranularitySpec::fine());
  EXPECT_EQ(M.access(rec(0, 100)), AccessKind::Miss);
  EXPECT_EQ(M.access(rec(0, 100)), AccessKind::Hit);
  EXPECT_EQ(M.access(rec(1, 100)), AccessKind::Miss);
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.Accesses, 3u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_DOUBLE_EQ(S.missRate(), 2.0 / 3.0);
}

TEST(CacheManagerTest, ColdVersusCapacityMisses) {
  CacheEngine M = makeManager(200, GranularitySpec::fine());
  M.access(rec(0, 100));
  M.access(rec(1, 100));
  M.access(rec(2, 100)); // Evicts 0.
  M.access(rec(0, 100)); // Capacity miss.
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.ColdMisses, 3u);
  EXPECT_EQ(S.CapacityMisses, 1u);
  EXPECT_EQ(S.Misses, 4u);
}

TEST(CacheManagerTest, MissOverheadUsesEquation3) {
  CacheEngine M = makeManager(1000, GranularitySpec::fine());
  M.access(rec(0, 230));
  EXPECT_NEAR(M.stats().MissOverhead, 19264.0, 0.01);
  M.access(rec(0, 230)); // Hit: no extra charge.
  EXPECT_NEAR(M.stats().MissOverhead, 19264.0, 0.01);
}

TEST(CacheManagerTest, EvictionOverheadUsesEquation2) {
  CacheEngine M = makeManager(200, GranularitySpec::fine());
  M.access(rec(0, 100));
  M.access(rec(1, 100));
  M.access(rec(2, 150)); // One invocation evicting both (250 bytes... 200).
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.EvictionInvocations, 1u);
  EXPECT_EQ(S.EvictedBlocks, 2u);
  EXPECT_EQ(S.EvictedBytes, 200u);
  EXPECT_NEAR(S.EvictionOverhead, 2.77 * 200 + 3055, 0.01);
}

TEST(CacheManagerTest, FlushPolicyChargesNoUnlinking) {
  CacheEngine M = makeManager(300, GranularitySpec::flush());
  M.access(rec(0, 100, {1}));
  M.access(rec(1, 100, {0}));
  M.access(rec(2, 100));
  EXPECT_EQ(M.stats().LinksCreated, 2u);
  M.access(rec(3, 100)); // Full flush.
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.EvictionInvocations, 1u);
  EXPECT_EQ(S.EvictedBlocks, 3u);
  EXPECT_DOUBLE_EQ(S.UnlinkOverhead, 0.0);
  EXPECT_EQ(S.UnlinkedLinks, 0u);
  // FLUSH needs no back-pointer table, so no memory is accounted.
  EXPECT_EQ(S.BackPointerBytesPeak, 0u);
}

TEST(CacheManagerTest, FineFifoChargesUnlinking) {
  CacheEngine M = makeManager(300, GranularitySpec::fine());
  M.access(rec(0, 100));
  M.access(rec(1, 100, {0}));
  M.access(rec(2, 100, {0}));
  // Block 0 has two incoming links; evicting it must charge Eq. 4 with
  // numLinks = 2.
  M.access(rec(3, 100));
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.UnlinkOperations, 1u);
  EXPECT_EQ(S.UnlinkedLinks, 2u);
  EXPECT_NEAR(S.UnlinkOverhead, 296.5 * 2 + 95.7, 0.01);
}

TEST(CacheManagerTest, BackPointerMemoryTracked) {
  CacheEngine M = makeManager(1000, GranularitySpec::units(4));
  M.access(rec(0, 100));
  M.access(rec(1, 100, {0}));
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.BackPointerBytesPeak, 16u);
  EXPECT_GT(S.backPointerBytesAvg(), 0.0);
}

TEST(CacheManagerTest, ChainingDisabledTracksNoLinks) {
  CacheEngine M = makeManager(300, GranularitySpec::fine(), /*Chaining=*/false);
  M.access(rec(0, 100, {1}));
  M.access(rec(1, 100, {0}));
  M.access(rec(2, 100));
  M.access(rec(3, 100));
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.LinksCreated, 0u);
  EXPECT_DOUBLE_EQ(S.UnlinkOverhead, 0.0);
  EXPECT_EQ(M.links().numLinks(), 0u);
}

TEST(CacheManagerTest, TooBigBlockIsMissNotCached) {
  CacheEngine M = makeManager(100, GranularitySpec::fine());
  EXPECT_EQ(M.access(rec(0, 200)), AccessKind::MissTooBig);
  EXPECT_FALSE(M.cache().contains(0));
  EXPECT_EQ(M.stats().Misses, 1u);
  // Still charged for regeneration.
  EXPECT_GT(M.stats().MissOverhead, 0.0);
}

TEST(CacheManagerTest, TotalOverheadSelectsLinkTerm) {
  CacheEngine M = makeManager(300, GranularitySpec::fine());
  M.access(rec(0, 100));
  M.access(rec(1, 100, {0}));
  M.access(rec(2, 100));
  M.access(rec(3, 100)); // Evicts 0 with one dangling link.
  const CacheStats &S = M.stats();
  EXPECT_GT(S.UnlinkOverhead, 0.0);
  EXPECT_DOUBLE_EQ(S.totalOverhead(true),
                   S.totalOverhead(false) + S.UnlinkOverhead);
}

TEST(CacheManagerTest, ManualFlushEntireCache) {
  CacheEngine M = makeManager(1000, GranularitySpec::units(4));
  M.access(rec(0, 100));
  M.access(rec(1, 100));
  M.flushEntireCache();
  EXPECT_TRUE(M.cache().empty());
  EXPECT_EQ(M.stats().EvictedBlocks, 2u);
  EXPECT_EQ(M.stats().EvictionInvocations, 1u);
  // Flushing an empty cache is a no-op.
  M.flushEntireCache();
  EXPECT_EQ(M.stats().EvictionInvocations, 1u);
}

TEST(CacheManagerTest, PreemptivePolicyFlushesOnPhaseChange) {
  PreemptiveFlushPolicy::Options Opts;
  Opts.WindowAccesses = 32;
  Opts.SpikeMissRate = 0.5;
  Opts.MinAccessesBetweenFlushes = 0;
  CacheEngineConfig Config;
  Config.CapacityBytes = 1 << 20; // Huge: no capacity evictions.
  CacheEngine M(Config, std::make_unique<PreemptiveFlushPolicy>(Opts));
  // Warm phase.
  M.access(rec(0, 100));
  for (int I = 0; I < 200; ++I)
    M.access(rec(0, 100));
  EXPECT_EQ(M.stats().PreemptiveFlushes, 0u);
  // Phase change: a burst of brand-new blocks.
  for (SuperblockId Id = 10; Id < 80; ++Id)
    M.access(rec(Id, 100));
  EXPECT_GE(M.stats().PreemptiveFlushes, 1u);
}

TEST(CacheManagerTest, CurrentQuantumClamped) {
  CacheEngine M = makeManager(100, GranularitySpec::units(256));
  EXPECT_EQ(M.currentQuantum(), 1u); // 100/256 -> clamp to 1.
  CacheEngine M2 = makeManager(100, GranularitySpec::flush());
  EXPECT_EQ(M2.currentQuantum(), 100u);
}

TEST(CacheManagerTest, StatsMerge) {
  CacheStats A, B;
  A.Accesses = 10;
  A.Misses = 2;
  A.MissOverhead = 100.0;
  A.BackPointerBytesPeak = 64;
  B.Accesses = 30;
  B.Misses = 3;
  B.MissOverhead = 50.0;
  B.BackPointerBytesPeak = 32;
  A.merge(B);
  EXPECT_EQ(A.Accesses, 40u);
  EXPECT_EQ(A.Misses, 5u);
  EXPECT_DOUBLE_EQ(A.MissOverhead, 150.0);
  EXPECT_EQ(A.BackPointerBytesPeak, 64u); // Max, not sum.
  EXPECT_DOUBLE_EQ(A.missRate(), 0.125);
}

TEST(CacheManagerTest, InterUnitFractionStat) {
  CacheStats S;
  EXPECT_DOUBLE_EQ(S.interUnitLinkFraction(), 0.0);
  S.LinksCreated = 4;
  S.InterUnitLinksCreated = 1;
  EXPECT_DOUBLE_EQ(S.interUnitLinkFraction(), 0.25);
}

// Randomized cross-check of manager invariants across all granularities.
class CacheManagerProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheManagerProperty, RandomStreamKeepsInvariants) {
  const auto Sweep = standardGranularitySweep();
  const GranularitySpec Spec = Sweep[static_cast<size_t>(GetParam())];
  Rng R(1234 + GetParam());
  CacheEngine M = makeManager(4096, Spec);

  std::vector<std::vector<SuperblockId>> Edges(120);
  std::vector<uint32_t> Sizes(120);
  for (size_t Id = 0; Id < 120; ++Id) {
    Sizes[Id] = static_cast<uint32_t>(R.nextRange(16, 700));
    const uint64_t Degree = R.nextPoisson(1.7);
    for (uint64_t E = 0; E < Degree; ++E)
      Edges[Id].push_back(static_cast<SuperblockId>(R.nextBelow(120)));
  }

  for (int Step = 0; Step < 6000; ++Step) {
    const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(120));
    SuperblockRecord Rec;
    Rec.Id = Id;
    Rec.SizeBytes = Sizes[Id];
    Rec.OutEdges = std::span<const SuperblockId>(Edges[Id]);
    M.access(Rec);
    if (Step % 256 == 0) {
      ASSERT_TRUE(M.checkInvariants()) << Spec.label() << " @" << Step;
    }
  }
  ASSERT_TRUE(M.checkInvariants());
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.Accesses, 6000u);
  EXPECT_EQ(S.Hits + S.Misses, S.Accesses);
  EXPECT_EQ(S.ColdMisses + S.CapacityMisses, S.Misses);
  EXPECT_GT(S.EvictionInvocations, 0u);
  // Conservation: every evicted block was inserted by a miss first.
  EXPECT_LE(S.EvictedBlocks, S.Misses);
}

INSTANTIATE_TEST_SUITE_P(AllGranularities, CacheManagerProperty,
                         ::testing::Range(0, 10));
