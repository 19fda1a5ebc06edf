//===- check/CacheAuditor.h - Deep cross-structure invariant audits -------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive consistency validation of the cache data structures. Where
/// the in-class checkInvariants() predicates answer yes/no, the auditor
/// explains: every broken invariant becomes an AuditViolation with a
/// stable rule id, offending ids, and a fix hint.
///
/// The auditor is split into two layers so corruption can be tested
/// without mutating encapsulated live structures:
///
///   capture*()  extract a plain-data snapshot (State struct) from a live
///               structure through its public introspection API;
///   check*()    run the rules over a snapshot (tests forge corrupted
///               snapshots and assert the exact rule id reported).
///
/// audit*() composes the two for live structures, and auditManager() adds
/// the cross-structure reconciliation: links against residency (section
/// 4.3 back-pointer mirroring), and CacheStats counters against observed
/// structure (inserts - evictions = residents, byte accounting exact).
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CHECK_CACHEAUDITOR_H
#define CCSIM_CHECK_CACHEAUDITOR_H

#include "check/AuditReport.h"
#include "core/CacheEngine.h"
#include "core/CodeCache.h"
#include "core/FreeListCache.h"
#include "core/GenerationalCache.h"
#include "core/LinkGraph.h"
#include "core/SharedCacheEngine.h"
#include "core/SharedContentIndex.h"

#include <cstdint>
#include <vector>

namespace ccsim {
class Translator;
} // namespace ccsim

namespace ccsim::check {

/// Snapshot of a CodeCache: the FIFO view and the per-id lookup view are
/// captured separately so the auditor can cross-check them.
struct CodeCacheState {
  /// A per-id slot: an id the slot table calls resident, at its start.
  struct Slot {
    SuperblockId Id = 0;
    uint64_t Start = 0;
  };

  uint64_t Capacity = 0;
  uint64_t OccupiedBytes = 0;
  std::vector<CodeCache::Resident> Fifo; ///< Oldest-first placement log.
  std::vector<Slot> Lookup;              ///< Slot-resident ids, by id.

  bool isResident(SuperblockId Id) const;
};

/// Snapshot of a LinkGraph: the learned graph it stores, the per-id
/// back-pointer views that graph implies under the cache's residency, and
/// the live count.
struct LinkGraphState {
  uint64_t LiveLinkCount = 0;
  struct Node {
    SuperblockId Id = 0;
    /// Views: static edges of a resident block, its out-links and
    /// back-pointers, and for an absent block the resident sources whose
    /// edges wait for it.
    std::vector<SuperblockId> StaticEdges;
    std::vector<SuperblockId> Out;
    std::vector<SuperblockId> In;
    std::vector<SuperblockId> Wants; ///< Sources waiting for Id.
    /// The learned graph, resident or not: Id's out-edges and the
    /// reverse-edge index entries naming Id as a target.
    std::vector<SuperblockId> LearnedEdges;
    std::vector<SuperblockId> LearnedSources;
  };
  std::vector<Node> Nodes; ///< One entry per id in the dense tables.
};

/// Snapshot of a FreeListCache arena.
struct FreeListState {
  uint64_t Capacity = 0;
  uint64_t OccupiedBytes = 0;
  struct Extent {
    uint64_t Start = 0;
    uint64_t Size = 0;
  };
  struct Alloc {
    SuperblockId Id = 0;
    uint64_t Start = 0;
    uint32_t Size = 0;
  };
  std::vector<Extent> Free;   ///< In free-list order.
  std::vector<Alloc> Allocs;  ///< Resident slots, by id.
  std::vector<SuperblockId> LruOrder; ///< Least recently used first.
};

/// Snapshot of a DispatchTable (runtime tier) plus the PC-per-id map it
/// must agree with. Entries are resolved to fragment ids at capture time
/// so the rules need no access to the translator's slot pool.
struct DispatchTableState {
  struct Entry {
    uint32_t PC = 0;
    SuperblockId Id = 0;
  };
  std::vector<Entry> Entries;   ///< Live entries, in slot order.
  std::vector<uint32_t> PCById; ///< Entry PC per fragment id.
};

/// Snapshot of a SharedContentIndex (cross-tenant content sharing). One
/// index may span several caches, so the share.* rules take a vector of
/// CodeCacheState — residency questions are "resident anywhere".
struct ContentIndexState {
  struct Entry {
    uint64_t Key = 0;
    SuperblockId Representative = InvalidSuperblockId;
    uint32_t SizeBytes = 0;
    TenantId Owner = 0;
    uint64_t RefCount = 0;
    std::vector<SharedContentIndex::Link> Links;
  };
  std::vector<Entry> Entries; ///< Key-ascending.
  uint64_t LiveLinks = 0;     ///< The index's running link counter.
};

/// CacheStats counters paired with the structure observations they must
/// reconcile against.
struct StatsState {
  CacheStats Stats;
  uint64_t ResidentCount = 0;
  uint64_t OccupiedBytes = 0;
  uint64_t LiveLinks = 0;
  uint64_t BackPointerBytes = 0;
  bool ChainingEnabled = false;
  bool UsesBackPointerTable = false;
};

// --- Snapshot extraction from live structures ---------------------------

CodeCacheState captureCodeCache(const CodeCache &Cache);
LinkGraphState captureLinkGraph(const LinkGraph &Links,
                                const CodeCache &Cache);
FreeListState captureFreeList(const FreeListCache &Cache);
StatsState captureStats(const CacheEngine &Manager);
DispatchTableState captureDispatchTable(const Translator &T,
                                        bool BasicBlockTier);
ContentIndexState captureContentIndex(const SharedContentIndex &Index);

// --- Rule evaluation over snapshots -------------------------------------

void checkCodeCache(const CodeCacheState &Cache, AuditReport &Report);
void checkLinkGraph(const LinkGraphState &Links, const CodeCacheState &Cache,
                    AuditReport &Report);
void checkFreeList(const FreeListState &Arena, AuditReport &Report);
void checkGenerational(const CodeCacheState &Nursery,
                       const CodeCacheState &Tenured, AuditReport &Report);
void checkStats(const StatsState &State, AuditReport &Report);
void checkDispatchTable(const DispatchTableState &Table,
                        const CodeCacheState &Cache, AuditReport &Report);
void checkSharedIndex(const SharedIndexState &Index,
                      const CodeCacheState &Cache, AuditReport &Report);

/// The share.* family: the content index against every cache it spans
/// plus the merged stats of those caches. \p Merged must have
/// SharingActive set for the stats-conservation rule to apply (the other
/// rules are structural and always run).
void checkContentIndex(const ContentIndexState &Index,
                       const std::vector<CodeCacheState> &Caches,
                       const CacheStats &Merged, AuditReport &Report);

/// Full cross-structure audit of a quiescent SharedCacheEngine: the
/// auditManager rule set over the inner engine -- with the deferred
/// Accesses/Hits counters patched to their provisional totals so the
/// conservation identities hold mid-run -- plus the shared.* family
/// tying the sharded residency index to CodeCache placement. Only sound
/// inside SharedCacheEngine::quiesce() (every lock held, no access in
/// flight); the runners call it exactly there.
AuditReport auditSharedEngine(const SharedCacheEngine &Engine);

/// Facade running capture + check over live structures. Stateless; the
/// free functions above are its building blocks and the testing surface.
class CacheAuditor {
public:
  /// Placement invariants of one circular-buffer cache.
  AuditReport auditCache(const CodeCache &Cache) const;

  /// Chaining invariants of \p Links against residency in \p Cache:
  /// back-pointer mirroring, no link into evicted blocks, wants index
  /// completeness, reverse-edge index mirroring (paper section 4.3 /
  /// Figure 13).
  AuditReport auditLinks(const LinkGraph &Links,
                         const CodeCache &Cache) const;

  /// Arena invariants of the section 3.3 free-list cache: extents tile
  /// the arena with no overlap or leak, address order, coalescing, LRU
  /// list matches residency.
  AuditReport auditFreeList(const FreeListCache &Cache) const;

  /// Generation exclusivity plus per-generation placement invariants.
  AuditReport auditGenerational(const GenerationalCacheManager &Gen) const;

  /// Full cross-structure audit of a CacheEngine: placement, chaining,
  /// and stats reconciliation (inserts - evictions = residents, byte
  /// accounting exact, link creation/destruction balance).
  AuditReport auditManager(const CacheEngine &Manager) const;

  /// Full cross-structure audit of a running Translator: auditManager
  /// over both tier engines plus the dispatch.* family tying each
  /// DispatchTable to its tier's residency (Figure 1's hash table must
  /// mirror the code cache exactly).
  AuditReport auditTranslator(const Translator &T) const;
};

} // namespace ccsim::check

#endif // CCSIM_CHECK_CACHEAUDITOR_H
