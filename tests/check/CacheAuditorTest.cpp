//===- tests/check/CacheAuditorTest.cpp - Deep auditor tests --------------===//
//
// Two halves: live captures from correctly-maintained structures must be
// clean, and seeded corruption — forged snapshots with one invariant
// broken — must report exactly the expected rule id. The snapshot split
// exists for the second half: no encapsulation has to be violated to test
// that every detector actually fires.
//
//===----------------------------------------------------------------------===//

#include "check/CacheAuditor.h"

#include "isa/ProgramGenerator.h"
#include "runtime/Translator.h"
#include "support/Random.h"
#include "gtest/gtest.h"

using namespace ccsim;
using namespace ccsim::check;

namespace {

SuperblockRecord rec(SuperblockId Id, uint32_t Size,
                     const std::vector<SuperblockId> &Edges = {}) {
  SuperblockRecord R;
  R.Id = Id;
  R.SizeBytes = Size;
  R.OutEdges = std::span<const SuperblockId>(Edges);
  return R;
}

/// Three residents tiling [0, 450) of a 1000-byte cache, FIFO == lookup.
CodeCacheState cleanCache() {
  CodeCacheState State;
  State.Capacity = 1000;
  State.OccupiedBytes = 450;
  State.Fifo = {{0, 0, 100}, {1, 100, 200}, {2, 300, 150}};
  State.Lookup = State.Fifo;
  return State;
}

AuditReport auditOf(const CodeCacheState &State) {
  AuditReport Report;
  checkCodeCache(State, Report);
  return Report;
}

/// Residents 0,1,2; materialized links 0->1 and 2->0 with mirrored
/// back-pointers; 0 also has a static edge to absent 3, indexed in wants.
struct LinkFixture {
  CodeCacheState Cache = cleanCache();
  LinkGraphState Links;

  LinkFixture() {
    Links.LiveLinkCount = 2;
    Links.Nodes.resize(4);
    for (SuperblockId Id = 0; Id < 4; ++Id)
      Links.Nodes[Id].Id = Id;
    Links.Nodes[0].StaticEdges = {1, 3};
    Links.Nodes[0].Out = {1};
    Links.Nodes[0].In = {2};
    Links.Nodes[1].In = {0};
    Links.Nodes[2].StaticEdges = {0};
    Links.Nodes[2].Out = {0};
    Links.Nodes[3].Wants = {0};
  }

  AuditReport audit() const {
    AuditReport Report;
    checkLinkGraph(Links, Cache, Report);
    return Report;
  }
};

/// 1000-byte arena: allocs [0,100) and [100,300), one hole [300,1000).
FreeListState cleanArena() {
  FreeListState State;
  State.Capacity = 1000;
  State.OccupiedBytes = 300;
  State.Allocs = {{0, 0, 100}, {1, 100, 200}};
  State.Free = {{300, 700}};
  State.LruOrder = {0, 1};
  return State;
}

AuditReport auditOf(const FreeListState &State) {
  AuditReport Report;
  checkFreeList(State, Report);
  return Report;
}

/// Counters consistent with 2 residents / 200 occupied bytes / 1 live link.
StatsState cleanStats() {
  StatsState State;
  CacheStats &S = State.Stats;
  S.Accesses = 10;
  S.Hits = 4;
  S.Misses = 6;
  S.ColdMisses = 3;
  S.CapacityMisses = 3;
  S.Inserts = 6;
  S.InsertedBytes = 600;
  S.TooBigMisses = 0;
  S.EvictionInvocations = 2;
  S.EvictedBlocks = 4;
  S.EvictedBytes = 400;
  S.LinksCreated = 5;
  S.InterUnitLinksCreated = 2;
  S.SelfLinksCreated = 1;
  S.LinksDestroyed = 4;
  S.UnlinkOperations = 1;
  S.UnlinkedLinks = 2;
  S.BackPointerBytesPeak = 32;
  State.ResidentCount = 2;
  State.OccupiedBytes = 200;
  State.LiveLinks = 1;
  State.BackPointerBytes = 16;
  State.ChainingEnabled = true;
  State.UsesBackPointerTable = true;
  return State;
}

AuditReport auditOf(const StatsState &State) {
  AuditReport Report;
  checkStats(State, Report);
  return Report;
}

} // namespace

// --- Live structures audit clean -----------------------------------------

TEST(CacheAuditorTest, LiveManagerAuditsCleanUnderEveryGranularity) {
  for (const GranularitySpec &Spec :
       {GranularitySpec::flush(), GranularitySpec::units(8),
        GranularitySpec::fine()}) {
    CacheManagerConfig Config;
    Config.CapacityBytes = 4096;
    CacheManager Manager(Config, makePolicy(Spec));
    Rng R(0xa0d17u);
    std::vector<SuperblockId> Edges;
    for (int I = 0; I < 4000; ++I) {
      const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(200));
      Edges = {static_cast<SuperblockId>(R.nextBelow(200)),
               static_cast<SuperblockId>(R.nextBelow(200))};
      Manager.access(rec(Id, 64 + static_cast<uint32_t>(R.nextBelow(400)),
                         Edges));
      if (I % 500 == 0) {
        const AuditReport Report = CacheAuditor().auditManager(Manager);
        EXPECT_TRUE(Report.clean()) << Spec.label() << "\n"
                                    << Report.render();
      }
    }
    const AuditReport Final = CacheAuditor().auditManager(Manager);
    EXPECT_TRUE(Final.clean()) << Spec.label() << "\n" << Final.render();
  }
}

TEST(CacheAuditorTest, LiveFreeListAuditsClean) {
  for (const bool Compaction : {false, true}) {
    FreeListCache Cache(4096, Compaction);
    Rng R(0xf4ee);
    std::vector<SuperblockId> Evicted;
    for (int I = 0; I < 3000; ++I) {
      const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(100));
      if (Cache.contains(Id)) {
        Cache.touch(Id);
      } else {
        Evicted.clear();
        Cache.insert(Id, 64 + static_cast<uint32_t>(R.nextBelow(500)), 2.0,
                     Evicted);
      }
      if (I % 250 == 0) {
        const AuditReport Report = CacheAuditor().auditFreeList(Cache);
        EXPECT_TRUE(Report.clean()) << Report.render();
      }
    }
  }
}

TEST(CacheAuditorTest, LiveGenerationalAuditsClean) {
  GenerationalConfig Config;
  Config.CapacityBytes = 4096;
  GenerationalCacheManager Manager(Config);
  Rng R(0x9e4);
  for (int I = 0; I < 3000; ++I) {
    Manager.access(rec(static_cast<SuperblockId>(R.nextBelow(120)),
                       64 + static_cast<uint32_t>(R.nextBelow(300))));
    if (I % 250 == 0) {
      const AuditReport Report = CacheAuditor().auditGenerational(Manager);
      EXPECT_TRUE(Report.clean()) << Report.render();
    }
  }
}

TEST(CacheAuditorTest, CapturesMirrorLiveState) {
  CacheManagerConfig Config;
  Config.CapacityBytes = 2048;
  CacheManager Manager(Config, makePolicy(GranularitySpec::units(4)));
  for (SuperblockId Id = 0; Id < 20; ++Id)
    Manager.access(rec(Id, 200, {static_cast<SuperblockId>((Id + 1) % 20)}));

  const CodeCacheState Cache = captureCodeCache(Manager.cache());
  EXPECT_EQ(Cache.Capacity, 2048u);
  EXPECT_EQ(Cache.Fifo.size(), Manager.cache().residentCount());
  EXPECT_EQ(Cache.Lookup.size(), Cache.Fifo.size());
  EXPECT_EQ(Cache.OccupiedBytes, Manager.cache().occupiedBytes());

  const LinkGraphState Links =
      captureLinkGraph(Manager.links(), Manager.cache());
  EXPECT_EQ(Links.LiveLinkCount, Manager.links().numLinks());
  // The learned graph outlives residency: an evicted block keeps its
  // edge and reverse-index entry but owns no link view.
  ASSERT_FALSE(Manager.cache().contains(0));
  EXPECT_EQ(Links.Nodes[0].LearnedEdges, std::vector<SuperblockId>{1});
  EXPECT_EQ(Links.Nodes[1].LearnedSources, std::vector<SuperblockId>{0});
  EXPECT_TRUE(Links.Nodes[0].StaticEdges.empty());
  EXPECT_TRUE(Links.Nodes[0].Out.empty());

  const StatsState Stats = captureStats(Manager);
  EXPECT_EQ(Stats.ResidentCount, Manager.cache().residentCount());
  EXPECT_TRUE(Stats.ChainingEnabled);
}

// --- Seeded corruption: CodeCache rules ----------------------------------

TEST(CacheAuditorCorruptionTest, CleanCacheBaseline) {
  EXPECT_TRUE(auditOf(cleanCache()).clean());
}

TEST(CacheAuditorCorruptionTest, FifoEntryNotFlagged) {
  CodeCacheState State = cleanCache();
  State.Lookup.pop_back(); // Block 2 vanishes from the flag view.
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheResidencyFlagMismatch));
}

TEST(CacheAuditorCorruptionTest, FlaggedButMissingFromFifo) {
  CodeCacheState State = cleanCache();
  State.Fifo.pop_back();
  State.OccupiedBytes = 300;
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheResidencyFlagMismatch));
}

TEST(CacheAuditorCorruptionTest, DuplicateFifoEntry) {
  CodeCacheState State = cleanCache();
  State.Fifo.push_back(State.Fifo.front());
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheResidencyFlagMismatch));
}

TEST(CacheAuditorCorruptionTest, StaleLookupPlacement) {
  CodeCacheState State = cleanCache();
  State.Lookup[1].Start += 8; // Lookup and FIFO now disagree.
  const AuditReport Report = auditOf(State);
  EXPECT_TRUE(Report.has(AuditRule::CacheLookupStale));
  EXPECT_EQ(Report.countOf(AuditRule::CacheLookupStale), 1u);
}

TEST(CacheAuditorCorruptionTest, BlockPastBufferEnd) {
  CodeCacheState State = cleanCache();
  State.Fifo[2].Start = 900; // [900, 1050) exceeds capacity 1000.
  State.Lookup[2].Start = 900;
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheBlockOutOfBounds));
}

TEST(CacheAuditorCorruptionTest, ZeroSizeBlock) {
  CodeCacheState State = cleanCache();
  State.Fifo[0].Size = 0;
  State.Lookup[0].Size = 0;
  State.OccupiedBytes = 350;
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheBlockOutOfBounds));
}

TEST(CacheAuditorCorruptionTest, OverlappingPlacements) {
  CodeCacheState State = cleanCache();
  State.Fifo[1].Start = 50; // [50, 250) overlaps [0, 100).
  State.Lookup[1].Start = 50;
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheBlockOverlap));
}

TEST(CacheAuditorCorruptionTest, OccupancyDrift) {
  CodeCacheState State = cleanCache();
  State.OccupiedBytes += 7;
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheOccupancyMismatch));
}

TEST(CacheAuditorCorruptionTest, OverCapacity) {
  CodeCacheState State = cleanCache();
  State.OccupiedBytes = 1200;
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheOverCapacity));
}

TEST(CacheAuditorCorruptionTest, FifoOrderDoubleWrap) {
  CodeCacheState State;
  State.Capacity = 1000;
  State.OccupiedBytes = 200;
  // Two descents in the start sequence: a circular buffer wraps at most
  // once, so this FIFO cannot be unit-order monotone.
  State.Fifo = {{0, 200, 50}, {1, 0, 50}, {2, 300, 50}, {3, 100, 50}};
  State.Lookup = State.Fifo;
  EXPECT_TRUE(auditOf(State).has(AuditRule::CacheFifoOrderBroken));
}

// --- Seeded corruption: LinkGraph rules ----------------------------------

TEST(CacheAuditorCorruptionTest, CleanLinkBaseline) {
  EXPECT_TRUE(LinkFixture().audit().clean()) << LinkFixture().audit().render();
}

TEST(CacheAuditorCorruptionTest, LinkIntoEvictedBlock) {
  LinkFixture F;
  // Evict block 1 from the cache but leave the 0->1 link materialized.
  F.Cache.Fifo.erase(F.Cache.Fifo.begin() + 1);
  F.Cache.Lookup = F.Cache.Fifo;
  F.Cache.OccupiedBytes = 250;
  const AuditReport Report = F.audit();
  EXPECT_TRUE(Report.has(AuditRule::LinkEndpointNotResident));
  EXPECT_TRUE(Report.has(AuditRule::LinkStateLeak)); // 1 still owns lists.
}

TEST(CacheAuditorCorruptionTest, BackPointerMissing) {
  LinkFixture F;
  F.Links.Nodes[1].In.clear(); // 0->1 exists, mirror gone.
  EXPECT_TRUE(F.audit().has(AuditRule::LinkBackPointerMissing));
}

TEST(CacheAuditorCorruptionTest, BackPointerStale) {
  LinkFixture F;
  // Out side of 2->0 removed; the back-pointer at 0 now dangles.
  F.Links.Nodes[2].Out.clear();
  F.Links.LiveLinkCount = 1;
  EXPECT_TRUE(F.audit().has(AuditRule::LinkBackPointerStale));
}

TEST(CacheAuditorCorruptionTest, LinkCountDrift) {
  LinkFixture F;
  F.Links.LiveLinkCount = 5;
  const AuditReport Report = F.audit();
  EXPECT_TRUE(Report.has(AuditRule::LinkCountMismatch));
  EXPECT_EQ(Report.size(), 1u); // Nothing else should fire.
}

TEST(CacheAuditorCorruptionTest, LinkWithoutStaticEdge) {
  LinkFixture F;
  F.Links.Nodes[2].StaticEdges.clear(); // 2->0 link has no edge behind it.
  EXPECT_TRUE(F.audit().has(AuditRule::LinkWithoutStaticEdge));
}

TEST(CacheAuditorCorruptionTest, ResidentStaticEdgeNotMaterialized) {
  LinkFixture F;
  // Drop the 0->1 link (both endpoints resident) but keep the edge.
  F.Links.Nodes[0].Out.clear();
  F.Links.Nodes[1].In.clear();
  F.Links.LiveLinkCount = 1;
  EXPECT_TRUE(F.audit().has(AuditRule::LinkStaticEdgeDropped));
}

TEST(CacheAuditorCorruptionTest, AbsentTargetMissingFromWants) {
  LinkFixture F;
  F.Links.Nodes[3].Wants.clear(); // Edge 0->3 no longer indexed.
  EXPECT_TRUE(F.audit().has(AuditRule::LinkStaticEdgeDropped));
}

TEST(CacheAuditorCorruptionTest, WantsEntryForResidentTarget) {
  LinkFixture F;
  F.Links.Nodes[1].Wants = {0}; // 1 is resident; wants must be drained.
  EXPECT_TRUE(F.audit().has(AuditRule::LinkWantsStale));
}

TEST(CacheAuditorCorruptionTest, WantsEntryFromNonResidentSource) {
  LinkFixture F;
  F.Links.Nodes[3].Wants = {0, 3}; // 3 is not resident.
  EXPECT_TRUE(F.audit().has(AuditRule::LinkWantsStale));
}

TEST(CacheAuditorCorruptionTest, EvictedBlockKeepsLinkState) {
  LinkFixture F;
  F.Links.Nodes[3].StaticEdges = {0}; // 3 was evicted; lists must be empty.
  EXPECT_TRUE(F.audit().has(AuditRule::LinkStateLeak));
}

TEST(CacheAuditorCorruptionTest, ReverseEdgeIndexMismatch) {
  LinkFixture F;
  // The learned graph behind the fixture's views (3 is known only as a
  // target): clean as given.
  F.Links.Nodes[0].LearnedEdges = {1, 3};
  F.Links.Nodes[2].LearnedEdges = {0};
  F.Links.Nodes[0].LearnedSources = {2};
  F.Links.Nodes[1].LearnedSources = {0};
  F.Links.Nodes[3].LearnedSources = {0};
  ASSERT_TRUE(F.audit().clean()) << F.audit().render();

  // Learned edge 0->3 missing from 3's reverse index.
  LinkFixture Missing = F;
  Missing.Links.Nodes[3].LearnedSources.clear();
  AuditReport Report = Missing.audit();
  EXPECT_TRUE(Report.has(AuditRule::LinkReverseEdgeMismatch));
  EXPECT_EQ(Report.size(), 1u) << Report.render();

  // Reverse entry 2->1 with no learned edge behind it.
  LinkFixture Extra = F;
  Extra.Links.Nodes[1].LearnedSources.push_back(2);
  Report = Extra.audit();
  EXPECT_TRUE(Report.has(AuditRule::LinkReverseEdgeMismatch));
  EXPECT_EQ(Report.size(), 1u) << Report.render();

  // Right pair, wrong multiplicity.
  LinkFixture Doubled = F;
  Doubled.Links.Nodes[0].LearnedSources = {2, 2};
  Report = Doubled.audit();
  EXPECT_EQ(Report.countOf(AuditRule::LinkReverseEdgeMismatch), 1u);
  EXPECT_EQ(Report.size(), 1u) << Report.render();
}

// --- Seeded corruption: FreeListCache rules ------------------------------

TEST(CacheAuditorCorruptionTest, CleanArenaBaseline) {
  EXPECT_TRUE(auditOf(cleanArena()).clean());
}

TEST(CacheAuditorCorruptionTest, FreeExtentOutOfBounds) {
  FreeListState State = cleanArena();
  State.Free = {{300, 800}}; // [300, 1100) exceeds the arena.
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListExtentInvalid));
}

TEST(CacheAuditorCorruptionTest, ZeroSizeAllocation) {
  FreeListState State = cleanArena();
  State.Allocs[0].Size = 0;
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListExtentInvalid));
}

TEST(CacheAuditorCorruptionTest, FreeListOrderBroken) {
  FreeListState State = cleanArena();
  State.Free = {{600, 400}, {300, 300}}; // Address order violated.
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListOutOfOrder));
}

TEST(CacheAuditorCorruptionTest, AdjacentHolesNotCoalesced) {
  FreeListState State = cleanArena();
  State.Free = {{300, 100}, {400, 600}}; // Should be one [300, 1000) hole.
  const AuditReport Report = auditOf(State);
  EXPECT_TRUE(Report.has(AuditRule::FreeListUncoalesced));
  EXPECT_FALSE(Report.has(AuditRule::FreeListArenaLeak));
}

TEST(CacheAuditorCorruptionTest, HoleOverlapsAllocation) {
  FreeListState State = cleanArena();
  State.Free = {{250, 750}}; // Covers the tail of allocation 1.
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListOverlap));
}

TEST(CacheAuditorCorruptionTest, ArenaBytesLeaked) {
  FreeListState State = cleanArena();
  State.Free = {{400, 600}}; // [300, 400) belongs to nobody.
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListArenaLeak));
}

TEST(CacheAuditorCorruptionTest, ArenaTailLeaked) {
  FreeListState State = cleanArena();
  State.Free = {{300, 650}}; // [950, 1000) unaccounted.
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListArenaLeak));
}

TEST(CacheAuditorCorruptionTest, FreeListOccupancyDrift) {
  FreeListState State = cleanArena();
  State.OccupiedBytes = 310;
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListOccupancyMismatch));
}

TEST(CacheAuditorCorruptionTest, LruMissingResident) {
  FreeListState State = cleanArena();
  State.LruOrder = {0};
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListLruMismatch));
}

TEST(CacheAuditorCorruptionTest, LruDuplicateEntry) {
  FreeListState State = cleanArena();
  State.LruOrder = {0, 1, 1};
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListLruMismatch));
}

TEST(CacheAuditorCorruptionTest, LruGhostEntry) {
  FreeListState State = cleanArena();
  State.LruOrder = {0, 1, 9};
  EXPECT_TRUE(auditOf(State).has(AuditRule::FreeListLruMismatch));
}

// --- Seeded corruption: generational rule --------------------------------

TEST(CacheAuditorCorruptionTest, DualResidency) {
  CodeCacheState Nursery = cleanCache();
  CodeCacheState Tenured;
  Tenured.Capacity = 1000;
  Tenured.OccupiedBytes = 100;
  Tenured.Fifo = {{2, 0, 100}}; // Block 2 also lives in the nursery.
  Tenured.Lookup = Tenured.Fifo;
  AuditReport Report;
  checkGenerational(Nursery, Tenured, Report);
  EXPECT_TRUE(Report.has(AuditRule::GenerationalDualResidency));
}

// --- Seeded corruption: stats reconciliation -----------------------------

TEST(CacheAuditorCorruptionTest, CleanStatsBaseline) {
  EXPECT_TRUE(auditOf(cleanStats()).clean()) << auditOf(cleanStats()).render();
}

TEST(CacheAuditorCorruptionTest, HitMissSplitBroken) {
  StatsState State = cleanStats();
  State.Stats.Hits = 5;
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsAccessSplitMismatch));
}

TEST(CacheAuditorCorruptionTest, ColdCapacitySplitBroken) {
  StatsState State = cleanStats();
  State.Stats.ColdMisses = 4;
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsAccessSplitMismatch));
}

TEST(CacheAuditorCorruptionTest, InsertSplitBroken) {
  StatsState State = cleanStats();
  State.Stats.TooBigMisses = 1; // Inserts + TooBig no longer == Misses.
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsAccessSplitMismatch));
}

TEST(CacheAuditorCorruptionTest, ResidencyReconciliationBroken) {
  StatsState State = cleanStats();
  State.ResidentCount = 3; // Inserts - evictions says 2.
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsResidencyMismatch));
}

TEST(CacheAuditorCorruptionTest, ByteAccountingBroken) {
  StatsState State = cleanStats();
  State.OccupiedBytes = 150; // Inserted - evicted bytes says 200.
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsByteAccountingMismatch));
}

TEST(CacheAuditorCorruptionTest, LinkAccountingBroken) {
  StatsState State = cleanStats();
  State.LiveLinks = 2; // Created - destroyed says 1.
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsLinkAccountingMismatch));
}

TEST(CacheAuditorCorruptionTest, EvictionAccountingBroken) {
  StatsState State = cleanStats();
  State.Stats.EvictionInvocations = 9; // More invocations than victims.
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsEvictionAccountingMismatch));
}

TEST(CacheAuditorCorruptionTest, RepairedLinksExceedDestroyed) {
  StatsState State = cleanStats();
  State.Stats.UnlinkedLinks = 9; // Only 4 links were ever destroyed.
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsEvictionAccountingMismatch));
}

TEST(CacheAuditorCorruptionTest, BackPointerPeakBelowLive) {
  StatsState State = cleanStats();
  State.BackPointerBytes = 64; // Peak on record is only 32.
  EXPECT_TRUE(auditOf(State).has(AuditRule::StatsBackPointerPeakLow));
}

TEST(CacheAuditorCorruptionTest, StatsRulesSkippedWithoutChaining) {
  StatsState State = cleanStats();
  State.ChainingEnabled = false;
  State.LiveLinks = 7; // Would trip link accounting if chaining were on.
  State.BackPointerBytes = 64;
  EXPECT_FALSE(auditOf(State).has(AuditRule::StatsLinkAccountingMismatch));
  EXPECT_FALSE(auditOf(State).has(AuditRule::StatsBackPointerPeakLow));
}

// --- Seeded corruption: DispatchTable rules ------------------------------

namespace {

/// Entries for cleanCache()'s residents 0,1,2 at their entry PCs; id 3 is
/// known (has an entry PC) but currently evicted.
DispatchTableState cleanDispatch() {
  DispatchTableState State;
  State.PCById = {0x100, 0x200, 0x300, 0x400};
  State.Entries = {{0x100, 0}, {0x200, 1}, {0x300, 2}};
  return State;
}

AuditReport auditOf(const DispatchTableState &State) {
  AuditReport Report;
  checkDispatchTable(State, cleanCache(), Report);
  return Report;
}

} // namespace

TEST(CacheAuditorCorruptionTest, CleanDispatchBaseline) {
  EXPECT_TRUE(auditOf(cleanDispatch()).clean())
      << auditOf(cleanDispatch()).render();
}

TEST(CacheAuditorCorruptionTest, DispatchEntryPointsAtEvictedFragment) {
  DispatchTableState State = cleanDispatch();
  State.Entries[0].Id = 3; // PC 0x100 now maps to the evicted fragment.
  EXPECT_TRUE(auditOf(State).has(AuditRule::DispatchEntryNotResident));
}

TEST(CacheAuditorCorruptionTest, DispatchEntryAtWrongPC) {
  DispatchTableState State = cleanDispatch();
  State.Entries[0].PC = 0x999; // Fragment 0's entry PC is 0x100.
  EXPECT_TRUE(auditOf(State).has(AuditRule::DispatchEntryStale));
}

TEST(CacheAuditorCorruptionTest, DispatchResidentWithoutEntry) {
  DispatchTableState State = cleanDispatch();
  State.Entries.pop_back(); // Resident 2 is no longer dispatchable.
  const AuditReport Report = auditOf(State);
  EXPECT_TRUE(Report.has(AuditRule::DispatchResidentUnreachable));
  EXPECT_TRUE(Report.has(AuditRule::DispatchSizeMismatch));
}

TEST(CacheAuditorCorruptionTest, DispatchDuplicateEntry) {
  DispatchTableState State = cleanDispatch();
  State.Entries.push_back(State.Entries.front());
  const AuditReport Report = auditOf(State);
  EXPECT_TRUE(Report.has(AuditRule::DispatchSizeMismatch));
  EXPECT_FALSE(Report.has(AuditRule::DispatchEntryNotResident));
  EXPECT_FALSE(Report.has(AuditRule::DispatchResidentUnreachable));
}

// --- Live translator audits ----------------------------------------------

TEST(CacheAuditorTest, LiveTranslatorAuditsCleanUnderEveryGranularity) {
  ProgramSpec Spec;
  Spec.NumFunctions = 12;
  Spec.OuterIterations = 300;
  Spec.MeanCallsPerFunction = 0.5;
  Spec.RareBranchProb = 0.1;
  Spec.Seed = 2004;
  const Program P = generateProgram(Spec);
  for (const GranularitySpec &G :
       {GranularitySpec::flush(), GranularitySpec::units(8),
        GranularitySpec::fine()}) {
    TranslatorConfig Config;
    Config.CacheBytes = 2048; // Small enough to churn both tiers.
    Config.BBCacheBytes = 1024;
    Config.Policy = G;
    Config.UseBasicBlockCache = true;
    Translator T(P, Config);
    T.run(1ULL << 40);
    const AuditReport Report = CacheAuditor().auditTranslator(T);
    EXPECT_TRUE(Report.clean()) << G.label() << "\n" << Report.render();
    EXPECT_GT(T.engine().stats().EvictedBlocks, 0u);
    EXPECT_GT(T.basicBlockEngine().stats().EvictedBlocks, 0u);
  }
}

TEST(CacheAuditorTest, DispatchCaptureMirrorsLiveTranslator) {
  ProgramSpec Spec;
  Spec.NumFunctions = 10;
  Spec.OuterIterations = 200;
  Spec.Seed = 7;
  const Program P = generateProgram(Spec);
  TranslatorConfig Config;
  Config.CacheBytes = 4096;
  Translator T(P, Config);
  T.run(1ULL << 40);

  const DispatchTableState State =
      captureDispatchTable(T, /*BasicBlockTier=*/false);
  EXPECT_EQ(State.Entries.size(), T.dispatchTable().size());
  EXPECT_EQ(State.Entries.size(), T.cache().residentCount());
  EXPECT_EQ(State.PCById.size(), T.numKnownEntryPCs());
  for (const DispatchTableState::Entry &E : State.Entries) {
    EXPECT_TRUE(T.cache().contains(E.Id));
    EXPECT_EQ(State.PCById[E.Id], E.PC);
  }
}
