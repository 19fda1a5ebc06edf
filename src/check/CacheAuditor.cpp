//===- check/CacheAuditor.cpp - Deep cross-structure invariant audits -----===//

#include "check/CacheAuditor.h"

#include "runtime/Translator.h"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace ccsim;
using namespace ccsim::check;

namespace {

using ULL = unsigned long long;

/// Ids involved in a finding, as the report's uint64_t vector.
std::vector<uint64_t> ids(std::initializer_list<uint64_t> Values) {
  return std::vector<uint64_t>(Values);
}

} // namespace

bool CodeCacheState::isResident(SuperblockId Id) const {
  return std::any_of(
      Lookup.begin(), Lookup.end(),
      [Id](const CodeCacheState::Slot &S) { return S.Id == Id; });
}

// --- Snapshot extraction -------------------------------------------------

CodeCacheState check::captureCodeCache(const CodeCache &Cache) {
  CodeCacheState State;
  State.Capacity = Cache.capacity();
  State.OccupiedBytes = Cache.occupiedBytes();
  State.Fifo.reserve(Cache.residentCount());
  Cache.forEachResident(
      [&](const CodeCache::Resident &R) { State.Fifo.push_back(R); });
  for (SuperblockId Id = 0; Id < Cache.idTableSize(); ++Id)
    if (Cache.contains(Id))
      State.Lookup.push_back({Id, Cache.startOf(Id)});
  return State;
}

LinkGraphState check::captureLinkGraph(const LinkGraph &Links,
                                       const CodeCache &Cache) {
  LinkGraphState State;
  State.LiveLinkCount = Links.numLinks();
  const LinkTopology &Learned = Links.topology();
  State.Nodes.resize(Learned.size());
  for (SuperblockId Id = 0; Id < Learned.size(); ++Id) {
    LinkGraphState::Node &N = State.Nodes[Id];
    N.Id = Id;
    const std::span<const SuperblockId> Edges = Learned.edgesOf(Id);
    const std::span<const SuperblockId> Sources = Learned.sourcesOf(Id);
    N.LearnedEdges.assign(Edges.begin(), Edges.end());
    N.LearnedSources.assign(Sources.begin(), Sources.end());
    // The views a list-keeping back-pointer table would hold: out-links
    // come from the learned edges, back-pointers and wants from the
    // reverse index, so the mirror rules cross-check the two.
    if (Cache.contains(Id)) {
      N.StaticEdges = N.LearnedEdges;
      for (SuperblockId To : Edges)
        if (Cache.contains(To))
          N.Out.push_back(To);
      for (SuperblockId From : Sources)
        if (Cache.contains(From))
          N.In.push_back(From);
    } else {
      for (SuperblockId From : Sources)
        if (Cache.contains(From))
          N.Wants.push_back(From);
    }
  }
  return State;
}

FreeListState check::captureFreeList(const FreeListCache &Cache) {
  FreeListState State;
  State.Capacity = Cache.capacity();
  State.OccupiedBytes = Cache.occupiedBytes();
  Cache.forEachFreeExtent([&](uint64_t Start, uint64_t Size) {
    State.Free.push_back(FreeListState::Extent{Start, Size});
  });
  for (SuperblockId Id = 0; Id < Cache.idTableSize(); ++Id)
    if (Cache.contains(Id))
      State.Allocs.push_back(
          FreeListState::Alloc{Id, Cache.startOf(Id), Cache.sizeOf(Id)});
  Cache.forEachLru(
      [&](SuperblockId Id) { State.LruOrder.push_back(Id); });
  return State;
}

StatsState check::captureStats(const CacheEngine &Manager) {
  StatsState State;
  State.Stats = Manager.stats();
  State.ResidentCount = Manager.cache().residentCount();
  State.OccupiedBytes = Manager.cache().occupiedBytes();
  State.LiveLinks = Manager.links().numLinks();
  State.BackPointerBytes = Manager.links().backPointerBytes();
  State.ChainingEnabled = Manager.config().EnableChaining;
  State.UsesBackPointerTable = Manager.keepsBackPointerTable();
  return State;
}

DispatchTableState check::captureDispatchTable(const Translator &T,
                                               bool BasicBlockTier) {
  DispatchTableState State;
  const DispatchTable &Table =
      BasicBlockTier ? T.basicBlockDispatchTable() : T.dispatchTable();
  State.Entries.reserve(Table.size());
  Table.forEachLive([&](uint32_t PC, int32_t Slot) {
    State.Entries.push_back(
        DispatchTableState::Entry{PC, T.fragmentIdAtSlot(Slot)});
  });
  State.PCById.reserve(T.numKnownEntryPCs());
  for (SuperblockId Id = 0; Id < T.numKnownEntryPCs(); ++Id)
    State.PCById.push_back(T.entryPCOf(Id));
  return State;
}

ContentIndexState check::captureContentIndex(const SharedContentIndex &Index) {
  ContentIndexState State;
  State.LiveLinks = Index.liveLinkCount();
  State.Entries.reserve(Index.entryCount());
  Index.forEachEntry(
      [&](uint64_t Key, const SharedContentIndex::Entry &E) {
        State.Entries.push_back(ContentIndexState::Entry{
            Key, E.Representative, E.SizeBytes, E.Owner, E.RefCount,
            E.Links});
      });
  return State;
}

// --- CodeCache rules -----------------------------------------------------

void check::checkCodeCache(const CodeCacheState &Cache,
                           AuditReport &Report) {
  // The FIFO and the flag/lookup tables must describe the same residents.
  std::unordered_map<SuperblockId, const CodeCache::Resident *> ByIdFifo;
  for (const CodeCache::Resident &R : Cache.Fifo) {
    if (!ByIdFifo.emplace(R.Id, &R).second)
      Report.add(AuditRule::CacheResidencyFlagMismatch, ids({R.Id}),
                 "block %llu appears more than once in the FIFO",
                 static_cast<ULL>(R.Id));
  }
  std::unordered_map<SuperblockId, uint64_t> ByIdLookup;
  for (const CodeCacheState::Slot &S : Cache.Lookup)
    ByIdLookup.emplace(S.Id, S.Start);

  for (const CodeCache::Resident &R : Cache.Fifo) {
    const auto It = ByIdLookup.find(R.Id);
    if (It == ByIdLookup.end()) {
      Report.add(AuditRule::CacheResidencyFlagMismatch, ids({R.Id}),
                 "block %llu is in the FIFO but not flagged resident",
                 static_cast<ULL>(R.Id));
      continue;
    }
    if (It->second != R.Start)
      Report.add(AuditRule::CacheLookupStale, ids({R.Id}),
                 "lookup places block %llu at %llu but the FIFO says %llu",
                 static_cast<ULL>(R.Id), static_cast<ULL>(It->second),
                 static_cast<ULL>(R.Start));
  }
  for (const CodeCacheState::Slot &R : Cache.Lookup)
    if (!ByIdFifo.count(R.Id))
      Report.add(AuditRule::CacheResidencyFlagMismatch, ids({R.Id}),
                 "block %llu is flagged resident but missing from the FIFO",
                 static_cast<ULL>(R.Id));

  // Placement bounds, occupancy, and pairwise overlap.
  uint64_t SumBytes = 0;
  std::vector<std::pair<uint64_t, const CodeCache::Resident *>> ByStart;
  ByStart.reserve(Cache.Fifo.size());
  for (const CodeCache::Resident &R : Cache.Fifo) {
    if (R.Size == 0 || R.end() > Cache.Capacity)
      Report.add(AuditRule::CacheBlockOutOfBounds, ids({R.Id}),
                 "block %llu spans [%llu, %llu) in a %llu-byte cache",
                 static_cast<ULL>(R.Id), static_cast<ULL>(R.Start),
                 static_cast<ULL>(R.end()), static_cast<ULL>(Cache.Capacity));
    SumBytes += R.Size;
    ByStart.emplace_back(R.Start, &R);
  }
  if (SumBytes != Cache.OccupiedBytes)
    Report.add(AuditRule::CacheOccupancyMismatch, {},
               "resident sizes sum to %llu bytes but Occupied is %llu",
               static_cast<ULL>(SumBytes),
               static_cast<ULL>(Cache.OccupiedBytes));
  if (Cache.OccupiedBytes > Cache.Capacity)
    Report.add(AuditRule::CacheOverCapacity, {},
               "occupied %llu bytes exceed capacity %llu",
               static_cast<ULL>(Cache.OccupiedBytes),
               static_cast<ULL>(Cache.Capacity));

  std::sort(ByStart.begin(), ByStart.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  for (size_t I = 1; I < ByStart.size(); ++I) {
    const CodeCache::Resident &Prev = *ByStart[I - 1].second;
    const CodeCache::Resident &Cur = *ByStart[I].second;
    if (Cur.Start < Prev.end())
      Report.add(AuditRule::CacheBlockOverlap, ids({Prev.Id, Cur.Id}),
                 "blocks %llu [%llu, %llu) and %llu [%llu, %llu) overlap",
                 static_cast<ULL>(Prev.Id), static_cast<ULL>(Prev.Start),
                 static_cast<ULL>(Prev.end()), static_cast<ULL>(Cur.Id),
                 static_cast<ULL>(Cur.Start), static_cast<ULL>(Cur.end()));
  }

  // FIFO order: start offsets must be cyclically monotone (at most one
  // wrap point), the unit-order invariant behind oldest-unit flushing.
  size_t Wraps = 0;
  for (size_t I = 1; I < Cache.Fifo.size(); ++I)
    if (Cache.Fifo[I].Start < Cache.Fifo[I - 1].Start)
      ++Wraps;
  if (Wraps > 1)
    Report.add(AuditRule::CacheFifoOrderBroken, {},
               "FIFO start offsets wrap %zu times (max 1 allowed)", Wraps);
}

// --- LinkGraph rules -----------------------------------------------------

void check::checkLinkGraph(const LinkGraphState &Links,
                           const CodeCacheState &Cache,
                           AuditReport &Report) {
  std::unordered_set<SuperblockId> Resident;
  for (const CodeCacheState::Slot &R : Cache.Lookup)
    Resident.insert(R.Id);

  uint64_t OutTotal = 0;
  // (From, To) -> out-entry count minus in-entry count; every key must
  // balance to zero, or the back-pointer table does not mirror the links.
  std::map<std::pair<SuperblockId, SuperblockId>, int64_t> Mirror;

  for (const LinkGraphState::Node &N : Links.Nodes) {
    const bool IsResident = Resident.count(N.Id) != 0;
    if (!IsResident && (!N.StaticEdges.empty() || !N.Out.empty() ||
                        !N.In.empty())) {
      Report.add(AuditRule::LinkStateLeak, ids({N.Id}),
                 "evicted block %llu still owns %zu static edges, %zu out "
                 "links, %zu in links",
                 static_cast<ULL>(N.Id), N.StaticEdges.size(), N.Out.size(),
                 N.In.size());
    }
    OutTotal += N.Out.size();
    for (SuperblockId To : N.Out) {
      ++Mirror[{N.Id, To}];
      if (IsResident && !Resident.count(To))
        Report.add(AuditRule::LinkEndpointNotResident, ids({N.Id, To}),
                   "link %llu->%llu targets an evicted superblock",
                   static_cast<ULL>(N.Id), static_cast<ULL>(To));
    }
    for (SuperblockId From : N.In) {
      --Mirror[{From, N.Id}];
      if (IsResident && !Resident.count(From))
        Report.add(AuditRule::LinkEndpointNotResident, ids({From, N.Id}),
                   "back-pointer at %llu names evicted source %llu",
                   static_cast<ULL>(N.Id), static_cast<ULL>(From));
    }
  }

  for (const auto &[Edge, Balance] : Mirror) {
    if (Balance > 0)
      Report.add(AuditRule::LinkBackPointerMissing, ids({Edge.first,
                                                         Edge.second}),
                 "out-link %llu->%llu has no back-pointer at the target "
                 "(imbalance %lld)",
                 static_cast<ULL>(Edge.first), static_cast<ULL>(Edge.second),
                 static_cast<long long>(Balance));
    else if (Balance < 0)
      Report.add(AuditRule::LinkBackPointerStale, ids({Edge.first,
                                                       Edge.second}),
                 "back-pointer %llu->%llu has no matching out-link "
                 "(imbalance %lld)",
                 static_cast<ULL>(Edge.first), static_cast<ULL>(Edge.second),
                 static_cast<long long>(Balance));
  }

  if (OutTotal != Links.LiveLinkCount)
    Report.add(AuditRule::LinkCountMismatch, {},
               "out-link lists hold %llu entries but the live count is %llu",
               static_cast<ULL>(OutTotal),
               static_cast<ULL>(Links.LiveLinkCount));

  const auto CountIn = [](const std::vector<SuperblockId> &List,
                          SuperblockId Value) {
    return static_cast<int64_t>(std::count(List.begin(), List.end(), Value));
  };

  // Static edges of residents: materialized when the target is resident,
  // indexed in wants when it is absent — with matching multiplicity.
  for (const LinkGraphState::Node &N : Links.Nodes) {
    if (!Resident.count(N.Id))
      continue;
    // Sorted unique targets: violation order must be deterministic, and
    // hash order is not (determinism.unordered-iteration).
    std::vector<SuperblockId> Targets(N.StaticEdges.begin(),
                                      N.StaticEdges.end());
    Targets.insert(Targets.end(), N.Out.begin(), N.Out.end());
    std::sort(Targets.begin(), Targets.end());
    Targets.erase(std::unique(Targets.begin(), Targets.end()), Targets.end());
    for (SuperblockId To : Targets) {
      const int64_t Edges = CountIn(N.StaticEdges, To);
      const int64_t Materialized = CountIn(N.Out, To);
      if (Resident.count(To)) {
        if (Materialized > Edges)
          Report.add(AuditRule::LinkWithoutStaticEdge, ids({N.Id, To}),
                     "%lld links %llu->%llu but only %lld static edges",
                     static_cast<long long>(Materialized),
                     static_cast<ULL>(N.Id), static_cast<ULL>(To),
                     static_cast<long long>(Edges));
        else if (Materialized < Edges)
          Report.add(AuditRule::LinkStaticEdgeDropped, ids({N.Id, To}),
                     "static edge %llu->%llu resident on both ends but "
                     "only %lld of %lld links materialized",
                     static_cast<ULL>(N.Id), static_cast<ULL>(To),
                     static_cast<long long>(Materialized),
                     static_cast<long long>(Edges));
      } else {
        if (Materialized > 0)
          Report.add(AuditRule::LinkEndpointNotResident, ids({N.Id, To}),
                     "link %llu->%llu targets an evicted superblock",
                     static_cast<ULL>(N.Id), static_cast<ULL>(To));
        const int64_t Waiting =
            To < Links.Nodes.size() ? CountIn(Links.Nodes[To].Wants, N.Id)
                                    : 0;
        if (Waiting < Edges)
          Report.add(AuditRule::LinkStaticEdgeDropped, ids({N.Id, To}),
                     "static edge %llu->%llu (absent target) has %lld of "
                     "%lld wants entries",
                     static_cast<ULL>(N.Id), static_cast<ULL>(To),
                     static_cast<long long>(Waiting),
                     static_cast<long long>(Edges));
      }
    }
  }

  // The learned graph behind the views: every learned edge S->T appears
  // in T's reverse index with the same multiplicity, and nothing else
  // does (std::map keeps the report order deterministic).
  std::map<std::pair<SuperblockId, SuperblockId>, int64_t> Learned;
  for (const LinkGraphState::Node &N : Links.Nodes) {
    for (SuperblockId To : N.LearnedEdges)
      ++Learned[{N.Id, To}];
    for (SuperblockId From : N.LearnedSources)
      --Learned[{From, N.Id}];
  }
  for (const auto &[Edge, Balance] : Learned) {
    if (Balance > 0)
      Report.add(AuditRule::LinkReverseEdgeMismatch,
                 ids({Edge.first, Edge.second}),
                 "learned edge %llu->%llu is missing from the reverse "
                 "index (imbalance %lld)",
                 static_cast<ULL>(Edge.first), static_cast<ULL>(Edge.second),
                 static_cast<long long>(Balance));
    else if (Balance < 0)
      Report.add(AuditRule::LinkReverseEdgeMismatch,
                 ids({Edge.first, Edge.second}),
                 "reverse index names %llu as a source of %llu without a "
                 "learned edge (imbalance %lld)",
                 static_cast<ULL>(Edge.first), static_cast<ULL>(Edge.second),
                 static_cast<long long>(Balance));
  }

  // Wants hygiene: entries only for absent targets, only from resident
  // sources backed by a static edge.
  for (const LinkGraphState::Node &N : Links.Nodes) {
    if (N.Wants.empty())
      continue;
    if (Resident.count(N.Id)) {
      Report.add(AuditRule::LinkWantsStale, ids({N.Id}),
                 "resident block %llu still has %zu undrained wants entries",
                 static_cast<ULL>(N.Id), N.Wants.size());
      continue;
    }
    for (SuperblockId Source : N.Wants) {
      if (!Resident.count(Source)) {
        Report.add(AuditRule::LinkWantsStale, ids({Source, N.Id}),
                   "wants entry for %llu names non-resident source %llu",
                   static_cast<ULL>(N.Id), static_cast<ULL>(Source));
        continue;
      }
      const int64_t Edges =
          Source < Links.Nodes.size()
              ? CountIn(Links.Nodes[Source].StaticEdges, N.Id)
              : 0;
      if (CountIn(N.Wants, Source) > Edges)
        Report.add(AuditRule::LinkWantsStale, ids({Source, N.Id}),
                   "wants entry %llu->%llu exceeds its static edge count",
                   static_cast<ULL>(Source), static_cast<ULL>(N.Id));
    }
  }
}

// --- FreeListCache rules -------------------------------------------------

void check::checkFreeList(const FreeListState &Arena, AuditReport &Report) {
  uint64_t FreeSum = 0;
  for (size_t I = 0; I < Arena.Free.size(); ++I) {
    const FreeListState::Extent &E = Arena.Free[I];
    if (E.Size == 0 || E.Start + E.Size > Arena.Capacity)
      Report.add(AuditRule::FreeListExtentInvalid, ids({E.Start}),
                 "free extent [%llu, +%llu) is empty or out of bounds "
                 "(capacity %llu)",
                 static_cast<ULL>(E.Start), static_cast<ULL>(E.Size),
                 static_cast<ULL>(Arena.Capacity));
    FreeSum += E.Size;
    if (I == 0)
      continue;
    const FreeListState::Extent &Prev = Arena.Free[I - 1];
    if (Prev.Start >= E.Start)
      Report.add(AuditRule::FreeListOutOfOrder, ids({Prev.Start, E.Start}),
                 "free list not address-ordered: [%llu, +%llu) before "
                 "[%llu, +%llu)",
                 static_cast<ULL>(Prev.Start), static_cast<ULL>(Prev.Size),
                 static_cast<ULL>(E.Start), static_cast<ULL>(E.Size));
    else if (Prev.Start + Prev.Size == E.Start)
      Report.add(AuditRule::FreeListUncoalesced, ids({Prev.Start, E.Start}),
                 "adjacent free extents [%llu, +%llu) and [%llu, +%llu) "
                 "not merged",
                 static_cast<ULL>(Prev.Start), static_cast<ULL>(Prev.Size),
                 static_cast<ULL>(E.Start), static_cast<ULL>(E.Size));
  }

  uint64_t AllocSum = 0;
  for (const FreeListState::Alloc &A : Arena.Allocs) {
    if (A.Size == 0 || A.Start + A.Size > Arena.Capacity)
      Report.add(AuditRule::FreeListExtentInvalid, ids({A.Id}),
                 "allocation for block %llu [%llu, +%llu) is empty or out "
                 "of bounds",
                 static_cast<ULL>(A.Id), static_cast<ULL>(A.Start),
                 static_cast<ULL>(A.Size));
    AllocSum += A.Size;
  }

  if (AllocSum != Arena.OccupiedBytes)
    Report.add(AuditRule::FreeListOccupancyMismatch, {},
               "allocations sum to %llu bytes but Occupied is %llu",
               static_cast<ULL>(AllocSum),
               static_cast<ULL>(Arena.OccupiedBytes));
  if (FreeSum + Arena.OccupiedBytes != Arena.Capacity)
    Report.add(AuditRule::FreeListOccupancyMismatch, {},
               "free %llu + occupied %llu != capacity %llu bytes",
               static_cast<ULL>(FreeSum),
               static_cast<ULL>(Arena.OccupiedBytes),
               static_cast<ULL>(Arena.Capacity));

  // Allocations and holes together must tile [0, Capacity) exactly: any
  // gap is leaked arena, any double-cover is overlap.
  struct Piece {
    uint64_t Start, End;
    uint64_t Tag; ///< Block id, or the extent start for holes.
    bool IsHole;
  };
  std::vector<Piece> Pieces;
  Pieces.reserve(Arena.Free.size() + Arena.Allocs.size());
  for (const FreeListState::Extent &E : Arena.Free)
    Pieces.push_back(Piece{E.Start, E.Start + E.Size, E.Start, true});
  for (const FreeListState::Alloc &A : Arena.Allocs)
    Pieces.push_back(Piece{A.Start, A.Start + A.Size, A.Id, false});
  std::sort(Pieces.begin(), Pieces.end(),
            [](const Piece &A, const Piece &B) {
              return A.Start != B.Start ? A.Start < B.Start : A.End < B.End;
            });
  uint64_t Cursor = 0;
  for (const Piece &P : Pieces) {
    if (P.Start < Cursor)
      Report.add(AuditRule::FreeListOverlap, ids({P.Tag}),
                 "%s [%llu, %llu) overlaps the previous extent ending at "
                 "%llu",
                 P.IsHole ? "free extent" : "allocation",
                 static_cast<ULL>(P.Start), static_cast<ULL>(P.End),
                 static_cast<ULL>(Cursor));
    else if (P.Start > Cursor)
      Report.add(AuditRule::FreeListArenaLeak, ids({Cursor}),
                 "arena bytes [%llu, %llu) belong to neither an allocation "
                 "nor a free extent",
                 static_cast<ULL>(Cursor), static_cast<ULL>(P.Start));
    Cursor = std::max(Cursor, P.End);
  }
  if (Cursor < Arena.Capacity)
    Report.add(AuditRule::FreeListArenaLeak, ids({Cursor}),
               "arena tail [%llu, %llu) belongs to neither an allocation "
               "nor a free extent",
               static_cast<ULL>(Cursor), static_cast<ULL>(Arena.Capacity));

  // LRU list must hold exactly the resident ids, once each.
  std::unordered_map<SuperblockId, size_t> LruCount;
  for (SuperblockId Id : Arena.LruOrder)
    ++LruCount[Id];
  std::unordered_set<SuperblockId> ResidentIds;
  for (const FreeListState::Alloc &A : Arena.Allocs) {
    ResidentIds.insert(A.Id);
    const auto It = LruCount.find(A.Id);
    if (It == LruCount.end())
      Report.add(AuditRule::FreeListLruMismatch, ids({A.Id}),
                 "resident block %llu is missing from the LRU list",
                 static_cast<ULL>(A.Id));
    else if (It->second != 1)
      Report.add(AuditRule::FreeListLruMismatch, ids({A.Id}),
                 "block %llu appears %zu times in the LRU list",
                 static_cast<ULL>(A.Id), It->second);
  }
  // Report stray LRU entries in sorted id order, not hash order: audit
  // reports feed golden tests (determinism.unordered-iteration).
  std::vector<SuperblockId> StrayLru;
  // ccsim-lint: allow(determinism.unordered-iteration) -- ids are
  // collected into StrayLru and sorted before any report is emitted
  for (const auto &[Id, Count] : LruCount)
    if (!ResidentIds.count(Id))
      StrayLru.push_back(Id);
  std::sort(StrayLru.begin(), StrayLru.end());
  for (SuperblockId Id : StrayLru)
    Report.add(AuditRule::FreeListLruMismatch, ids({Id}),
               "LRU entry %llu is not resident", static_cast<ULL>(Id));
}

// --- Generational rules --------------------------------------------------

void check::checkGenerational(const CodeCacheState &Nursery,
                              const CodeCacheState &Tenured,
                              AuditReport &Report) {
  checkCodeCache(Nursery, Report);
  checkCodeCache(Tenured, Report);
  std::unordered_set<SuperblockId> InNursery;
  for (const CodeCacheState::Slot &R : Nursery.Lookup)
    InNursery.insert(R.Id);
  for (const CodeCacheState::Slot &R : Tenured.Lookup)
    if (InNursery.count(R.Id))
      Report.add(AuditRule::GenerationalDualResidency, ids({R.Id}),
                 "block %llu is resident in both nursery and tenured",
                 static_cast<ULL>(R.Id));
}

// --- CacheStats reconciliation -------------------------------------------

void check::checkStats(const StatsState &State, AuditReport &Report) {
  const CacheStats &S = State.Stats;
  if (S.Hits + S.Misses != S.Accesses)
    Report.add(AuditRule::StatsAccessSplitMismatch, {},
               "hits %llu + misses %llu != accesses %llu",
               static_cast<ULL>(S.Hits), static_cast<ULL>(S.Misses),
               static_cast<ULL>(S.Accesses));
  if (S.ColdMisses + S.CapacityMisses != S.Misses)
    Report.add(AuditRule::StatsAccessSplitMismatch, {},
               "cold %llu + capacity %llu misses != misses %llu",
               static_cast<ULL>(S.ColdMisses),
               static_cast<ULL>(S.CapacityMisses),
               static_cast<ULL>(S.Misses));
  if (S.Inserts + S.TooBigMisses != S.Misses)
    Report.add(AuditRule::StatsAccessSplitMismatch, {},
               "inserts %llu + too-big %llu != misses %llu",
               static_cast<ULL>(S.Inserts),
               static_cast<ULL>(S.TooBigMisses),
               static_cast<ULL>(S.Misses));

  if (S.Inserts != S.EvictedBlocks + State.ResidentCount)
    Report.add(AuditRule::StatsResidencyMismatch, {},
               "inserts %llu != evicted %llu + resident %llu blocks",
               static_cast<ULL>(S.Inserts),
               static_cast<ULL>(S.EvictedBlocks),
               static_cast<ULL>(State.ResidentCount));
  if (S.InsertedBytes != S.EvictedBytes + State.OccupiedBytes)
    Report.add(AuditRule::StatsByteAccountingMismatch, {},
               "inserted %llu != evicted %llu + occupied %llu bytes",
               static_cast<ULL>(S.InsertedBytes),
               static_cast<ULL>(S.EvictedBytes),
               static_cast<ULL>(State.OccupiedBytes));

  if (S.EvictionInvocations > S.EvictedBlocks)
    Report.add(AuditRule::StatsEvictionAccountingMismatch, {},
               "%llu eviction invocations but only %llu evicted blocks",
               static_cast<ULL>(S.EvictionInvocations),
               static_cast<ULL>(S.EvictedBlocks));
  if (S.UnlinkOperations > S.EvictedBlocks)
    Report.add(AuditRule::StatsEvictionAccountingMismatch, {},
               "%llu unlink operations exceed %llu evicted blocks",
               static_cast<ULL>(S.UnlinkOperations),
               static_cast<ULL>(S.EvictedBlocks));
  if (S.UnlinkedLinks > S.LinksDestroyed)
    Report.add(AuditRule::StatsEvictionAccountingMismatch, {},
               "%llu repaired links exceed %llu destroyed links",
               static_cast<ULL>(S.UnlinkedLinks),
               static_cast<ULL>(S.LinksDestroyed));

  if (State.ChainingEnabled) {
    if (S.LinksCreated != S.LinksDestroyed + State.LiveLinks)
      Report.add(AuditRule::StatsLinkAccountingMismatch, {},
                 "created %llu != destroyed %llu + live %llu links",
                 static_cast<ULL>(S.LinksCreated),
                 static_cast<ULL>(S.LinksDestroyed),
                 static_cast<ULL>(State.LiveLinks));
    if (S.InterUnitLinksCreated > S.LinksCreated ||
        S.SelfLinksCreated > S.LinksCreated)
      Report.add(AuditRule::StatsLinkAccountingMismatch, {},
                 "inter-unit %llu / self %llu exceed created links %llu",
                 static_cast<ULL>(S.InterUnitLinksCreated),
                 static_cast<ULL>(S.SelfLinksCreated),
                 static_cast<ULL>(S.LinksCreated));
    if (State.UsesBackPointerTable &&
        State.BackPointerBytes > S.BackPointerBytesPeak)
      Report.add(AuditRule::StatsBackPointerPeakLow, {},
                 "live back-pointer table %llu bytes exceeds recorded peak "
                 "%llu",
                 static_cast<ULL>(State.BackPointerBytes),
                 static_cast<ULL>(S.BackPointerBytesPeak));
  }
}

// --- DispatchTable rules -------------------------------------------------

void check::checkDispatchTable(const DispatchTableState &Table,
                               const CodeCacheState &Cache,
                               AuditReport &Report) {
  std::unordered_set<SuperblockId> Reachable;
  for (const DispatchTableState::Entry &E : Table.Entries) {
    if (!Cache.isResident(E.Id)) {
      Report.add(AuditRule::DispatchEntryNotResident, ids({E.PC, E.Id}),
                 "table entry PC %llu -> fragment %llu, which is not "
                 "resident",
                 static_cast<ULL>(E.PC), static_cast<ULL>(E.Id));
      continue;
    }
    if (E.Id >= Table.PCById.size() || Table.PCById[E.Id] != E.PC) {
      Report.add(AuditRule::DispatchEntryStale, ids({E.PC, E.Id}),
                 "table entry PC %llu -> fragment %llu whose entry PC is "
                 "%llu",
                 static_cast<ULL>(E.PC), static_cast<ULL>(E.Id),
                 E.Id < Table.PCById.size()
                     ? static_cast<ULL>(Table.PCById[E.Id])
                     : static_cast<ULL>(0));
      continue;
    }
    Reachable.insert(E.Id);
  }
  for (const CodeCacheState::Slot &R : Cache.Lookup)
    if (!Reachable.count(R.Id))
      Report.add(AuditRule::DispatchResidentUnreachable, ids({R.Id}),
                 "resident fragment %llu has no table entry at its entry "
                 "PC %llu",
                 static_cast<ULL>(R.Id),
                 R.Id < Table.PCById.size()
                     ? static_cast<ULL>(Table.PCById[R.Id])
                     : static_cast<ULL>(0));
  if (Table.Entries.size() != Cache.Lookup.size())
    Report.add(AuditRule::DispatchSizeMismatch, {},
               "%zu live table entries for %zu resident fragments",
               Table.Entries.size(), Cache.Lookup.size());
}

void check::checkSharedIndex(const SharedIndexState &Index,
                             const CodeCacheState &Cache,
                             AuditReport &Report) {
  std::unordered_map<SuperblockId, uint64_t> StartById;
  for (const CodeCacheState::Slot &R : Cache.Lookup)
    StartById[R.Id] = R.Start;
  std::unordered_set<SuperblockId> Indexed;
  const uint64_t Width = std::max<uint64_t>(1, Index.FenceBytes);
  for (const SharedIndexEntry &E : Index.Entries) {
    Indexed.insert(E.Id);
    const auto It = StartById.find(E.Id);
    if (It == StartById.end()) {
      Report.add(AuditRule::SharedIndexStaleEntry, ids({E.Id, E.Region}),
                 "index entry for block %llu (region %llu), which is not "
                 "resident",
                 static_cast<ULL>(E.Id), static_cast<ULL>(E.Region));
      continue;
    }
    uint64_t Expected = It->second / Width;
    if (Index.Fences > 0 && Expected >= Index.Fences)
      Expected = Index.Fences - 1;
    if (E.Region != Expected)
      Report.add(AuditRule::SharedIndexRegionMismatch,
                 ids({E.Id, E.Region}),
                 "block %llu indexed in fence region %llu but placed at "
                 "offset %llu (region %llu)",
                 static_cast<ULL>(E.Id), static_cast<ULL>(E.Region),
                 static_cast<ULL>(It->second), static_cast<ULL>(Expected));
  }
  for (const CodeCacheState::Slot &R : Cache.Lookup)
    if (!Indexed.count(R.Id))
      Report.add(AuditRule::SharedIndexMissingEntry, ids({R.Id}),
                 "resident block %llu has no sharded-index entry (a "
                 "concurrent hit would miss spuriously)",
                 static_cast<ULL>(R.Id));
}

void check::checkContentIndex(const ContentIndexState &Index,
                              const std::vector<CodeCacheState> &Caches,
                              const CacheStats &Merged,
                              AuditReport &Report) {
  const auto ResidentAnywhere = [&Caches](SuperblockId Id) {
    return std::any_of(
        Caches.begin(), Caches.end(),
        [Id](const CodeCacheState &C) { return C.isResident(Id); });
  };
  uint64_t LinkSum = 0;
  for (const ContentIndexState::Entry &E : Index.Entries) {
    LinkSum += E.Links.size();
    if (E.RefCount != 1 + E.Links.size())
      Report.add(AuditRule::ShareRefCountMismatch,
                 ids({E.Key, E.Representative}),
                 "entry key %llu (representative %llu) holds refcount "
                 "%llu for %zu live links",
                 static_cast<ULL>(E.Key), static_cast<ULL>(E.Representative),
                 static_cast<ULL>(E.RefCount), E.Links.size());
    if (!ResidentAnywhere(E.Representative))
      Report.add(AuditRule::ShareOrphanEntry,
                 ids({E.Key, E.Representative}),
                 "representative %llu of key %llu is resident in none of "
                 "the %zu spanned caches (linked tenants would execute "
                 "freed code)",
                 static_cast<ULL>(E.Representative), static_cast<ULL>(E.Key),
                 Caches.size());
    for (const SharedContentIndex::Link &L : E.Links)
      if (ResidentAnywhere(L.Alias))
        Report.add(AuditRule::ShareAliasResident, ids({E.Key, L.Alias}),
                   "alias %llu (tenant %llu) of key %llu is itself "
                   "resident — a duplicate copy sharing should have "
                   "folded",
                   static_cast<ULL>(L.Alias), static_cast<ULL>(L.Tenant),
                   static_cast<ULL>(E.Key));
  }
  if (LinkSum != Index.LiveLinks)
    Report.add(AuditRule::ShareMirrorMismatch, {},
               "live-link counter says %llu but entry link sets hold %llu",
               static_cast<ULL>(Index.LiveLinks), static_cast<ULL>(LinkSum));
  // Conservation against the merged stats: every link ever created was a
  // shared install, every link ever drained an unshare unlink.
  if (Merged.SharingActive &&
      Merged.SharedInstalls != Merged.UnshareUnlinks + Index.LiveLinks)
    Report.add(AuditRule::ShareStatsConservation, {},
               "%llu shared installs - %llu unshare unlinks != %llu live "
               "links",
               static_cast<ULL>(Merged.SharedInstalls),
               static_cast<ULL>(Merged.UnshareUnlinks),
               static_cast<ULL>(Index.LiveLinks));
}

// --- Facade --------------------------------------------------------------

AuditReport CacheAuditor::auditCache(const CodeCache &Cache) const {
  AuditReport Report;
  checkCodeCache(captureCodeCache(Cache), Report);
  return Report;
}

AuditReport CacheAuditor::auditLinks(const LinkGraph &Links,
                                     const CodeCache &Cache) const {
  AuditReport Report;
  checkLinkGraph(captureLinkGraph(Links, Cache), captureCodeCache(Cache),
                 Report);
  return Report;
}

AuditReport CacheAuditor::auditFreeList(const FreeListCache &Cache) const {
  AuditReport Report;
  checkFreeList(captureFreeList(Cache), Report);
  return Report;
}

AuditReport
CacheAuditor::auditGenerational(const GenerationalCacheManager &Gen) const {
  AuditReport Report;
  checkGenerational(captureCodeCache(Gen.nursery()),
                    captureCodeCache(Gen.tenured()), Report);
  return Report;
}

AuditReport CacheAuditor::auditManager(const CacheEngine &Manager) const {
  AuditReport Report;
  const CodeCacheState Cache = captureCodeCache(Manager.cache());
  checkCodeCache(Cache, Report);
  if (Manager.config().EnableChaining)
    checkLinkGraph(captureLinkGraph(Manager.links(), Manager.cache()), Cache,
                   Report);
  checkStats(captureStats(Manager), Report);
  return Report;
}

AuditReport check::auditSharedEngine(const SharedCacheEngine &Engine) {
  AuditReport Report;
  const CacheEngine &Inner = Engine.engineForAudit();
  const CodeCacheState Cache = captureCodeCache(Inner.cache());
  checkCodeCache(Cache, Report);
  if (Inner.config().EnableChaining)
    checkLinkGraph(captureLinkGraph(Inner.links(), Inner.cache()), Cache,
                   Report);
  StatsState Stats = captureStats(Inner);
  if (Stats.Stats.Accesses == 0) {
    // Mid-run deferred accounting: Accesses/Hits live outside the engine
    // until settle(). Patch the snapshot to the provisional totals so
    // the access-split identity (Hits + Misses == Accesses) is checked
    // against what actually happened so far.
    Stats.Stats.Hits += Engine.provisionalHits();
    Stats.Stats.Accesses = Stats.Stats.Misses + Stats.Stats.Hits;
  }
  checkStats(Stats, Report);
  checkSharedIndex(Engine.indexSnapshot(), Cache, Report);
  return Report;
}

AuditReport CacheAuditor::auditTranslator(const Translator &T) const {
  AuditReport Report;
  // Superblock tier: full manager audit plus its dispatch table.
  const CodeCacheState Main = captureCodeCache(T.cache());
  checkCodeCache(Main, Report);
  if (T.config().EnableChaining)
    checkLinkGraph(captureLinkGraph(T.links(), T.cache()), Main, Report);
  checkStats(captureStats(T.engine()), Report);
  checkDispatchTable(captureDispatchTable(T, /*BasicBlockTier=*/false), Main,
                     Report);
  // Basic-block tier (all-zero and trivially clean when unused; chaining
  // is always off there).
  const CodeCacheState BB = captureCodeCache(T.basicBlockCache());
  checkCodeCache(BB, Report);
  checkStats(captureStats(T.basicBlockEngine()), Report);
  checkDispatchTable(captureDispatchTable(T, /*BasicBlockTier=*/true), BB,
                     Report);
  return Report;
}
