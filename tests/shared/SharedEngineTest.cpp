//===- tests/shared/SharedEngineTest.cpp - Thread-shared engine tests -----===//
//
// The SharedCacheEngine contract on one thread, where every outcome is
// deterministic: one guest through runShared (Exact mode, the serial
// simulator) matches a plain CacheEngine, the engine settles to the same
// stats for access-stateless policies, the install/probe front doors keep
// the residency index and the owner's payload hooks in lockstep, and
// quiesce() exposes a state the structural auditor accepts. The
// multi-threaded schedules live in SharedStressTest.cpp; this file pins
// the semantics those runs rely on.
//
//===----------------------------------------------------------------------===//

#include "core/SharedCacheEngine.h"

#include "check/CacheAuditor.h"
#include "concurrent/SharedEngineRunner.h"
#include "telemetry/MetricsRegistry.h"

#include "gtest/gtest.h"

#include <set>
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

/// A deterministic access stream that overflows the cache several times:
/// a working set walked round-robin with a hot block revisited between
/// strides.
std::vector<SuperblockId> strideStream(SuperblockId Blocks, size_t Rounds) {
  std::vector<SuperblockId> Ids;
  for (size_t Round = 0; Round < Rounds; ++Round)
    for (SuperblockId Id = 0; Id < Blocks; ++Id) {
      Ids.push_back(Id);
      if (Id % 7 == 0)
        Ids.push_back(0); // Hot block between strides.
    }
  return Ids;
}

void expectStatsEqual(const CacheStats &A, const CacheStats &B) {
  EXPECT_EQ(A.Accesses, B.Accesses);
  EXPECT_EQ(A.Hits, B.Hits);
  EXPECT_EQ(A.Misses, B.Misses);
  EXPECT_EQ(A.ColdMisses, B.ColdMisses);
  EXPECT_EQ(A.CapacityMisses, B.CapacityMisses);
  EXPECT_EQ(A.TooBigMisses, B.TooBigMisses);
  EXPECT_EQ(A.Inserts, B.Inserts);
  EXPECT_EQ(A.InsertedBytes, B.InsertedBytes);
  EXPECT_EQ(A.EvictionInvocations, B.EvictionInvocations);
  EXPECT_EQ(A.EvictedBlocks, B.EvictedBlocks);
  EXPECT_EQ(A.EvictedBytes, B.EvictedBytes);
  EXPECT_EQ(A.LinksCreated, B.LinksCreated);
  EXPECT_EQ(A.LinksDestroyed, B.LinksDestroyed);
  EXPECT_EQ(A.UnlinkedLinks, B.UnlinkedLinks);
  EXPECT_EQ(A.UnlinkOperations, B.UnlinkOperations);
  EXPECT_DOUBLE_EQ(A.MissOverhead, B.MissOverhead);
  EXPECT_DOUBLE_EQ(A.EvictionOverhead, B.EvictionOverhead);
  EXPECT_DOUBLE_EQ(A.UnlinkOverhead, B.UnlinkOverhead);
  EXPECT_EQ(A.BackPointerBytesPeak, B.BackPointerBytesPeak);
}

} // namespace

TEST(SharedEngineTest, PreferredModePicksExactForOneGuestOrStatefulPolicy) {
  const auto UnitFifo = makePolicy(GranularitySpec::units(8));
  const auto Fine = makePolicy(GranularitySpec::fine());
  EXPECT_EQ(SharedCacheEngine::preferredMode(1, *UnitFifo),
            ShareMode::Exact);
  EXPECT_EQ(SharedCacheEngine::preferredMode(4, *UnitFifo),
            ShareMode::Concurrent);
  EXPECT_EQ(SharedCacheEngine::preferredMode(8, *Fine),
            ShareMode::Concurrent);

  AdaptiveGranularityPolicy::Options Opts;
  AdaptiveGranularityPolicy Adaptive(Opts);
  EXPECT_FALSE(Adaptive.isAccessStateless());
  EXPECT_EQ(SharedCacheEngine::preferredMode(4, Adaptive), ShareMode::Exact);
}

TEST(SharedEngineTest, ExactModeMatchesPlainEngineStats) {
  const std::vector<SuperblockId> Stream = strideStream(64, 5);
  Trace T;
  T.Name = "stride";
  for (SuperblockId Id = 0; Id < 64; ++Id) {
    SuperblockDef Def;
    Def.SizeBytes = 40 + Id % 13;
    Def.OutEdges = {(Id + 1) % 64};
    T.Blocks.push_back(Def);
  }
  T.Accesses = Stream;

  CacheEngineConfig Plain;
  Plain.CapacityBytes = 1500;
  CacheEngine Reference(Plain, makePolicy(GranularitySpec::units(4)));
  for (SuperblockId Id : Stream)
    Reference.access(T.recordFor(Id));

  concurrent::SharedRunConfig RC;
  RC.GuestThreads = 1;
  RC.ExplicitCapacityBytes = 1500;
  const concurrent::SharedRunResult Got =
      concurrent::runShared(T, GranularitySpec::units(4), RC);
  EXPECT_EQ(Got.Mode, ShareMode::Exact);
  expectStatsEqual(Got.Stats, Reference.stats());
}

TEST(SharedEngineTest, ConcurrentModeSettlesToSerialStats) {
  // One thread driving Concurrent mode is a degenerate schedule; after
  // settle() the stats must be indistinguishable from the serial run for
  // an access-stateless policy.
  const std::vector<SuperblockId> Stream = strideStream(48, 6);

  CacheEngineConfig Plain;
  Plain.CapacityBytes = 1200;
  CacheEngine Reference(Plain, makePolicy(GranularitySpec::units(8)));

  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 1200;
  SharedCacheEngine Shared(SC, makePolicy(GranularitySpec::units(8)));

  for (SuperblockId Id : Stream) {
    const std::vector<SuperblockId> Edges = {(Id + 3) % 48};
    const SuperblockRecord R = rec(Id, 30 + Id % 11, Edges);
    Reference.access(R);
    Shared.access(R);
  }
  Shared.settle(Stream.size());
  expectStatsEqual(Shared.stats(), Reference.stats());

  const ContentionCounters C = Shared.contention();
  EXPECT_EQ(C.FastHits, Reference.stats().Hits);
}

TEST(SharedEngineTest, ProbeAndInstallFrontDoors) {
  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 1000;
  SharedCacheEngine E(SC, makePolicy(GranularitySpec::fine()));

  EXPECT_FALSE(E.probe(5));
  EXPECT_TRUE(E.install(rec(5, 100)));
  EXPECT_TRUE(E.probe(5));

  // A second install of the same block is the losing half of an install
  // race: counted, rejected, nothing double-inserted.
  EXPECT_FALSE(E.install(rec(5, 100)));
  EXPECT_EQ(E.contention().InstallRaces, 1u);

  // A block larger than the cache is rejected without becoming resident.
  EXPECT_FALSE(E.install(rec(6, 2000)));
  EXPECT_FALSE(E.probe(6));

  E.quiesce([](const SharedCacheEngine &Q) {
    EXPECT_TRUE(Q.engineForAudit().cache().contains(5));
  });
}

TEST(SharedEngineTest, InstallAndEvictPayloadsStayInLockstep) {
  // The dispatch-table contract: OnInstallPayload registers every block
  // that becomes resident, the eviction payload hook tears down every
  // victim, so at any quiesce point the payload set equals the resident
  // set exactly.
  std::set<SuperblockId> Payloads;
  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 600;
  SC.OnInstallPayload = [&Payloads](const SuperblockRecord &R) {
    EXPECT_TRUE(Payloads.insert(R.Id).second) << "double install " << R.Id;
  };
  SC.Engine.OnEvictPayload =
      [&Payloads](std::span<const CodeCache::Resident> Victims) {
        for (const CodeCache::Resident &V : Victims)
          EXPECT_EQ(Payloads.erase(V.Id), 1u) << "untracked victim " << V.Id;
      };
  SharedCacheEngine E(SC, makePolicy(GranularitySpec::units(4)));

  for (SuperblockId Id = 0; Id < 200; ++Id)
    E.install(rec(Id, 40 + Id % 17));

  E.quiesce([&Payloads](const SharedCacheEngine &Q) {
    size_t Resident = 0;
    for (SuperblockId Id = 0; Id < 200; ++Id)
      if (Q.engineForAudit().cache().contains(Id)) {
        ++Resident;
        EXPECT_EQ(Payloads.count(Id), 1u) << "resident but no payload";
      }
    EXPECT_EQ(Payloads.size(), Resident);
  });
}

TEST(SharedEngineTest, QuiesceExposesAuditCleanStateAndSortedIndex) {
  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 900;
  SC.Shards = 8;
  SC.Fences = 4;
  SharedCacheEngine E(SC, makePolicy(GranularitySpec::units(8)));

  const std::vector<SuperblockId> Stream = strideStream(40, 4);
  for (SuperblockId Id : Stream)
    E.access(rec(Id, 25 + Id % 9, {(Id + 1) % 40}));

  E.quiesce([](const SharedCacheEngine &Q) {
    const check::AuditReport Report = check::auditSharedEngine(Q);
    EXPECT_TRUE(Report.clean()) << Report.render();

    const SharedIndexState Index = Q.indexSnapshot();
    EXPECT_EQ(Index.Shards, Q.shardCount());
    EXPECT_EQ(Index.Fences, Q.fenceCount());
    for (size_t I = 1; I < Index.Entries.size(); ++I)
      EXPECT_LT(Index.Entries[I - 1].Id, Index.Entries[I].Id);
    size_t Resident = 0;
    for (SuperblockId Id = 0; Id < 40; ++Id)
      Resident += Q.engineForAudit().cache().contains(Id) ? 1 : 0;
    EXPECT_EQ(Index.Entries.size(), Resident);
  });

  EXPECT_EQ(E.contention().QuiescePoints, 1u);
}

TEST(SharedEngineTest, PublishContentionEmitsSharedMetrics) {
  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 800;
  SharedCacheEngine E(SC, makePolicy(GranularitySpec::units(8)));
  for (SuperblockId Id = 0; Id < 60; ++Id)
    E.access(rec(Id, 30));
  E.settle(60);

  telemetry::MetricsRegistry Metrics;
  const telemetry::MetricLabels Labels = {{"policy", "8-unit"}};
  E.publishContention(Metrics, Labels);
  EXPECT_GT(Metrics.size(), 0u);
  EXPECT_TRUE(Metrics.has("shared.fast_hits", Labels));
  EXPECT_TRUE(Metrics.has("shared.install_races", Labels));
  EXPECT_TRUE(Metrics.has("shared.quiesce_points", Labels));
  EXPECT_EQ(Metrics.counterValue("shared.fast_hits", Labels),
            E.contention().FastHits);
}
