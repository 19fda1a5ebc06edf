//===- tests/core/CacheEngineTest.cpp - Payload-callback engine tests -----===//
//
// The engine-specific surface on top of what CacheManagerTest already
// covers through access(): the install() front
// door used by execution-driven owners, and the OnEvictPayload /
// OnUnlinkPayload teardown hooks with their ordering contract -- evict
// payload first (before the engine touches counters or links), unlink
// payload after the link graph repaired the batch.
//
//===----------------------------------------------------------------------===//

#include "core/CacheEngine.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

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

/// Journal of every payload callback, in firing order.
struct PayloadLog {
  struct Batch {
    std::string Kind; ///< "evict" or "unlink".
    std::vector<SuperblockId> Victims;
    std::vector<uint32_t> Dangling; ///< Unlink batches only.
  };
  std::vector<Batch> Batches;

  void wire(CacheEngineConfig &Config) {
    Config.OnEvictPayload =
        [this](std::span<const CodeCache::Resident> Victims) {
          Batch B;
          B.Kind = "evict";
          for (const CodeCache::Resident &V : Victims)
            B.Victims.push_back(V.Id);
          Batches.push_back(std::move(B));
        };
    Config.OnUnlinkPayload =
        [this](std::span<const CodeCache::Resident> Victims,
               std::span<const uint32_t> Dangling) {
          Batch B;
          B.Kind = "unlink";
          for (const CodeCache::Resident &V : Victims)
            B.Victims.push_back(V.Id);
          B.Dangling.assign(Dangling.begin(), Dangling.end());
          Batches.push_back(std::move(B));
        };
  }
};

CacheEngine makeEngine(CacheEngineConfig Config, GranularitySpec Spec) {
  return CacheEngine(Config, makePolicy(Spec));
}

} // namespace

TEST(CacheEngineTest, OwningRecordSurvivesBindingToALocal) {
  // rec(Id, Size, {braced edges}) must be consumed inside the full
  // expression -- the braced temporary dies at the semicolon, so binding
  // the plain record to a local dangles its edge span. The owning record
  // is the sanctioned way to hold one across statements; this pins that
  // the edges stay alive and intact through copies and moves.
  OwningSuperblockRecord Held(0, 100, {1, 2, 3});
  OwningSuperblockRecord Copy = Held;
  OwningSuperblockRecord Moved = std::move(Copy);

  ASSERT_EQ(Moved.record().OutEdges.size(), 3u);
  EXPECT_EQ(Moved.record().OutEdges[1], 2u);
  // The span must point into the owning record's own storage, not the
  // source it was copied or moved from.
  EXPECT_EQ(Held.record().OutEdges.size(), 3u);
  EXPECT_NE(Held.record().OutEdges.data(), Moved.record().OutEdges.data());

  CacheEngineConfig Config;
  Config.CapacityBytes = 1000;
  CacheEngine E = makeEngine(Config, GranularitySpec::fine());
  EXPECT_TRUE(E.install(rec(1, 100)));
  EXPECT_TRUE(E.install(rec(2, 100)));
  EXPECT_TRUE(E.install(rec(3, 100)));
  // The held record converts implicitly where a SuperblockRecord is
  // expected, edges included: all three out-edges chain on install.
  EXPECT_TRUE(E.install(Held));
  EXPECT_EQ(E.stats().LinksCreated, 3u);
}

TEST(CacheEngineTest, InstallIsTheMissHalfOfAccess) {
  CacheEngineConfig Config;
  Config.CapacityBytes = 1000;
  CacheEngine E = makeEngine(Config, GranularitySpec::fine());

  EXPECT_TRUE(E.install(rec(0, 100)));
  EXPECT_TRUE(E.cache().contains(0));
  const CacheStats &S = E.stats();
  EXPECT_EQ(S.Accesses, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.ColdMisses, 1u);
  EXPECT_EQ(S.Inserts, 1u);
  EXPECT_GT(S.MissOverhead, 0.0); // Eq. 3 regeneration charged.

  // The same block through access() is now a hit; the two front doors
  // share one accounting stream.
  EXPECT_EQ(E.access(rec(0, 100)), AccessKind::Hit);
  EXPECT_EQ(E.stats().Accesses, 2u);
  EXPECT_EQ(E.stats().Hits, 1u);
}

TEST(CacheEngineTest, InstallTooBigIsRejectedButCharged) {
  CacheEngineConfig Config;
  Config.CapacityBytes = 100;
  CacheEngine E = makeEngine(Config, GranularitySpec::fine());
  EXPECT_FALSE(E.install(rec(0, 200)));
  EXPECT_FALSE(E.cache().contains(0));
  EXPECT_EQ(E.stats().TooBigMisses, 1u);
  EXPECT_GT(E.stats().MissOverhead, 0.0);
}

TEST(CacheEngineTest, EvictPayloadFiresBeforeUnlinkPayload) {
  PayloadLog Log;
  CacheEngineConfig Config;
  Config.CapacityBytes = 300;
  Log.wire(Config);
  CacheEngine E = makeEngine(Config, GranularitySpec::fine());

  E.install(rec(0, 100));
  E.install(rec(1, 100, {0}));
  E.install(rec(2, 100, {0}));
  EXPECT_TRUE(Log.Batches.empty()); // No evictions yet, no callbacks.

  // Evicts block 0, which holds two dangling incoming links.
  E.install(rec(3, 100));
  ASSERT_EQ(Log.Batches.size(), 2u);
  EXPECT_EQ(Log.Batches[0].Kind, "evict");
  EXPECT_EQ(Log.Batches[1].Kind, "unlink");
  EXPECT_EQ(Log.Batches[0].Victims, std::vector<SuperblockId>{0});
  EXPECT_EQ(Log.Batches[1].Victims, std::vector<SuperblockId>{0});
  EXPECT_EQ(Log.Batches[1].Dangling, std::vector<uint32_t>{2});
  EXPECT_EQ(E.stats().UnlinkedLinks, 2u);
}

TEST(CacheEngineTest, FlushEvictionReportsZeroDangling) {
  PayloadLog Log;
  CacheEngineConfig Config;
  Config.CapacityBytes = 300;
  Log.wire(Config);
  CacheEngine E = makeEngine(Config, GranularitySpec::flush());

  E.install(rec(0, 100));
  E.install(rec(1, 100, {0}));
  E.install(rec(2, 100, {0}));
  E.install(rec(3, 100)); // Full flush: everything goes at once.

  ASSERT_EQ(Log.Batches.size(), 2u);
  EXPECT_EQ(Log.Batches[0].Kind, "evict");
  EXPECT_EQ(Log.Batches[0].Victims,
            (std::vector<SuperblockId>{0, 1, 2}));
  // FLUSH leaves no survivors, so no incoming link dangles and Eq. 4 is
  // never charged -- the unlink payload still reports the (all-zero)
  // per-victim counts so owners can assert the same thing.
  EXPECT_EQ(Log.Batches[1].Dangling, (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_EQ(E.stats().UnlinkedLinks, 0u);
  EXPECT_DOUBLE_EQ(E.stats().UnlinkOverhead, 0.0);
}

TEST(CacheEngineTest, ChainingOffSkipsUnlinkPayload) {
  PayloadLog Log;
  CacheEngineConfig Config;
  Config.CapacityBytes = 300;
  Config.EnableChaining = false;
  Log.wire(Config);
  CacheEngine E = makeEngine(Config, GranularitySpec::fine());

  E.install(rec(0, 100, {1}));
  E.install(rec(1, 100, {0}));
  E.install(rec(2, 100));
  E.install(rec(3, 100)); // Evicts 0.
  ASSERT_EQ(Log.Batches.size(), 1u);
  EXPECT_EQ(Log.Batches[0].Kind, "evict");
}

TEST(CacheEngineTest, AccessPathFiresTheSamePayloads) {
  PayloadLog Log;
  CacheEngineConfig Config;
  Config.CapacityBytes = 200;
  Log.wire(Config);
  CacheEngine E = makeEngine(Config, GranularitySpec::fine());

  EXPECT_EQ(E.access(rec(0, 100)), AccessKind::Miss);
  EXPECT_EQ(E.access(rec(1, 100)), AccessKind::Miss);
  EXPECT_EQ(E.access(rec(2, 100)), AccessKind::Miss); // Evicts 0.
  ASSERT_EQ(Log.Batches.size(), 2u);
  EXPECT_EQ(Log.Batches[0].Victims, std::vector<SuperblockId>{0});
}

TEST(CacheEngineTest, MixedFrontDoorsKeepConservationIdentities) {
  PayloadLog Log;
  CacheEngineConfig Config;
  Config.CapacityBytes = 500;
  Log.wire(Config);
  CacheEngine E = makeEngine(Config, GranularitySpec::units(2));

  for (SuperblockId Id = 0; Id < 40; ++Id)
    E.access(rec(Id % 12, 90, {(Id + 1) % 12}));
  for (SuperblockId Id = 100; Id < 110; ++Id)
    EXPECT_TRUE(E.install(rec(Id, 90)));

  const CacheStats &S = E.stats();
  EXPECT_EQ(S.Hits + S.Misses, S.Accesses);
  EXPECT_EQ(S.ColdMisses + S.CapacityMisses, S.Misses);
  EXPECT_EQ(S.Inserts, S.EvictedBlocks + E.cache().residentCount());
  EXPECT_EQ(S.InsertedBytes, S.EvictedBytes + E.cache().occupiedBytes());
  EXPECT_TRUE(E.checkInvariants());

  // Every eviction batch produced exactly one evict payload (and one
  // unlink payload, since chaining is on).
  size_t EvictBatches = 0;
  for (const PayloadLog::Batch &B : Log.Batches)
    if (B.Kind == "evict")
      ++EvictBatches;
  EXPECT_EQ(EvictBatches, S.EvictionInvocations);
  EXPECT_EQ(Log.Batches.size(), 2 * EvictBatches);
}
