//===- core/LinkGraph.h - Superblock chaining and back-pointer table -----===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Superblock chaining state (Section 3.1 of the paper). Each superblock
/// carries static outbound control-flow edges; when both endpoints of an
/// edge are resident in the code cache, the edge is *materialized* as a
/// patched link. Evicting a superblock that has incoming links from
/// surviving superblocks leaves dangling pointers unless those links are
/// found (via a back-pointer table) and removed — the cost the paper
/// models with Equation 4.
///
/// The graph rests on one invariant: a link S -> T exists exactly when S
/// and T are both resident and T is among S's static edges (with
/// multiplicity). So it stores no per-link state, only what residency
/// cannot tell:
///   - each block's learned out-edges (the list it was last inserted
///     with; kept across evictions),
///   - a reverse-edge index (target -> learned sources), filled on a
///     block's first insert and re-learned only when a re-translated
///     block arrives with a different edge list,
///   - the live-link counter, and
///   - the eviction epoch that marks one batch's victims.
/// Links created, their intra/inter-unit classification, per-victim
/// dangling counts and links destroyed are all computed from
/// CodeCache::contains/startOf; no list is edited on eviction.
///
/// Links are classified intra-unit or inter-unit at materialization time
/// using the eviction quantum in force (Figure 13). A whole-cache flush
/// destroys every link with no survivors, so no unlink work is charged —
/// exactly the paper's observation that FLUSH needs no back-pointer table.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_LINKGRAPH_H
#define CCSIM_CORE_LINKGRAPH_H

#include "core/CacheStats.h"
#include "core/CodeCache.h"
#include "core/Superblock.h"

#include <cstdint>
#include <span>
#include <vector>

namespace ccsim {

/// Chaining state for the blocks resident in one CodeCache.
class LinkGraph {
public:
  /// Bytes of back-pointer table memory per materialized link: an 8-byte
  /// pointer plus an 8-byte list link (paper, Section 5.1 footnote).
  static constexpr uint64_t BytesPerBackPointer = 16;

  /// Registers newly resident \p Id with its static \p Edges (re-learning
  /// the reverse index if they differ from the last insert's), counts the
  /// links that now exist in both directions against residents of
  /// \p Cache, classifies them under \p Quantum, and updates \p Stats link
  /// counters. Must be called after the block is committed to the cache.
  void onInsert(const CodeCache &Cache, uint64_t Quantum, SuperblockId Id,
                std::span<const SuperblockId> Edges, CacheStats &Stats);

  /// Processes a batch of just-evicted blocks (already removed from
  /// \p Cache). For each victim, appends to \p DanglingCounts the number
  /// of incoming links from *surviving* blocks — the dangling pointers a
  /// back-pointer table must repair (Equation 4's numLinks). Links whose
  /// endpoints both died are destroyed for free.
  void onEvict(const CodeCache &Cache,
               std::span<const CodeCache::Resident> Victims,
               std::vector<uint32_t> &DanglingCounts);

  /// Number of currently materialized links.
  uint64_t numLinks() const { return LinkCount; }

  /// Current back-pointer table footprint in bytes.
  uint64_t backPointerBytes() const {
    return LinkCount * BytesPerBackPointer;
  }

  /// Materialized out-degree / in-degree of a block against residency in
  /// \p Cache (0 if not resident).
  size_t outDegree(const CodeCache &Cache, SuperblockId Id) const;
  size_t inDegree(const CodeCache &Cache, SuperblockId Id) const;

  /// True if a materialized link From -> To exists in \p Cache.
  bool hasLink(const CodeCache &Cache, SuperblockId From,
               SuperblockId To) const;

  /// Auditor introspection: size of the dense per-id tables (ids at or
  /// beyond this were never inserted or named as an edge target).
  size_t idTableSize() const { return Edges.size(); }

  /// Auditor introspection: learned out-edges of \p Id and the learned
  /// sources naming \p Id as a target, resident or not. Empty span for
  /// ids outside the tables. The spans alias internal storage and are
  /// invalidated by any mutation.
  std::span<const SuperblockId> edgesOf(SuperblockId Id) const {
    return listOrEmpty(Edges, Id);
  }
  std::span<const SuperblockId> sourcesOf(SuperblockId Id) const {
    return listOrEmpty(Sources, Id);
  }

  /// Exhaustive consistency check against \p Cache for tests: the reverse
  /// index mirrors the learned edges with matching multiplicity, and the
  /// live-link counter equals the links residency implies.
  bool checkInvariants(const CodeCache &Cache) const;

private:
  // Dense per-id state; index by SuperblockId.
  std::vector<std::vector<SuperblockId>> Edges;   // Source -> targets.
  std::vector<std::vector<SuperblockId>> Sources; // Target -> sources.
  std::vector<uint32_t> EvictEpoch; // Batch-membership marks.
  uint32_t CurrentEpoch = 0;
  uint64_t LinkCount = 0;

  static std::span<const SuperblockId>
  listOrEmpty(const std::vector<std::vector<SuperblockId>> &Table,
              SuperblockId Id) {
    if (Id >= Table.size())
      return {};
    return Table[Id];
  }

  void growTables(SuperblockId Id);
  void learn(SuperblockId Id, std::span<const SuperblockId> NewEdges);
};

} // namespace ccsim

#endif // CCSIM_CORE_LINKGRAPH_H
