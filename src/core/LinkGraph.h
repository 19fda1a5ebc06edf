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
/// cannot tell, split in two:
///   - a LinkTopology: each block's out-edges and the reverse-edge index
///     (target -> sources). A trace fixes every block's shape, so a
///     trace-driven engine reads a read-only topology built once from the
///     trace's block table (LinkTopology::fromBlocks). A graph given none
///     owns a learning topology that records each block's edges on insert
///     and re-learns them when a re-translated block arrives with a
///     different list (the mini-DBT);
///   - per graph, the live-link counter and the eviction epoch marks that
///     flag one batch's victims.
/// Links created, their intra/inter-unit classification, per-victim
/// dangling counts and links destroyed are all counted from
/// CodeCache::slotOf without branches; no list is edited on eviction.
///
/// A read-only topology is never written after it is built, so any number
/// of graphs on any threads may share one (the one-pass lattice gives all
/// its engines one per trace).
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
#include <iterator>
#include <memory>
#include <span>
#include <vector>

namespace ccsim {

/// The chaining graph of one trace: per-id out-edges and the reverse-edge
/// index, in one of two forms.
///
///  - Read-only (fromBlocks): built once from a block table as flat
///    offsets-plus-ids arrays and never written again, so graphs on any
///    number of threads may share it. (Learning every block into the
///    per-id lists below instead made the one-pass lattice about 6%
///    slower; DESIGN §15.)
///  - Learning (default-constructed): empty until a graph that owns it
///    records each inserted block's edges. Owned by exactly one graph.
class LinkTopology {
public:
  /// An empty learning topology.
  LinkTopology() = default;

  /// The read-only topology of \p Blocks, indexed by id: anything whose
  /// elements carry an OutEdges range (a Trace's block table). Every edge
  /// must name an id below the block count.
  template <typename BlockTable>
  static LinkTopology fromBlocks(const BlockTable &Blocks) {
    LinkTopology T;
    T.ReadOnly = true;
    T.EdgeBegin.reserve(std::size(Blocks) + 1); // Holds the leading 0.
    for (const auto &B : Blocks) {
      T.EdgeIds.insert(T.EdgeIds.end(), B.OutEdges.begin(), B.OutEdges.end());
      T.EdgeBegin.push_back(static_cast<uint32_t>(T.EdgeIds.size()));
    }
    T.indexSources();
    return T;
  }

  /// True for a topology built by fromBlocks().
  bool readOnly() const { return ReadOnly; }

  /// Size of the dense per-id tables (ids at or beyond this have no edges
  /// and no sources).
  size_t size() const {
    return ReadOnly ? EdgeBegin.size() - 1 : Edges.size();
  }

  /// Out-edges of \p Id and the sources naming \p Id as a target. Empty
  /// span for ids outside the tables. The spans alias internal storage; a
  /// learning topology invalidates them on its next insert.
  std::span<const SuperblockId> edgesOf(SuperblockId Id) const {
    return ReadOnly ? flatList(EdgeBegin, EdgeIds, Id)
                    : listOrEmpty(Edges, Id);
  }
  std::span<const SuperblockId> sourcesOf(SuperblockId Id) const {
    return ReadOnly ? flatList(SourceBegin, SourceIds, Id)
                    : listOrEmpty(Sources, Id);
  }

  /// True when the reverse index mirrors the edges with matching
  /// multiplicity (tests).
  bool checkMirror() const;

private:
  friend class LinkGraph;

  bool ReadOnly = false;

  // Read-only form: Id's edges are EdgeIds[EdgeBegin[Id], EdgeBegin[Id+1])
  // and its sources SourceIds[SourceBegin[Id], SourceBegin[Id+1]).
  std::vector<uint32_t> EdgeBegin{0}, SourceBegin{0};
  std::vector<SuperblockId> EdgeIds, SourceIds;

  // Learning form, indexed by SuperblockId.
  std::vector<std::vector<SuperblockId>> Edges;   // Source -> targets.
  std::vector<std::vector<SuperblockId>> Sources; // Target -> sources.

  static std::span<const SuperblockId>
  listOrEmpty(const std::vector<std::vector<SuperblockId>> &Table,
              SuperblockId Id) {
    if (Id >= Table.size())
      return {};
    return Table[Id];
  }
  static std::span<const SuperblockId>
  flatList(const std::vector<uint32_t> &Begin,
           const std::vector<SuperblockId> &Ids, SuperblockId Id) {
    if (size_t{Id} + 1 >= Begin.size())
      return {};
    return {Ids.data() + Begin[Id], Ids.data() + Begin[Id + 1]};
  }

  /// Builds the read-only reverse index from EdgeBegin/EdgeIds.
  void indexSources();

  /// Learning form: makes \p Id a valid index into every per-id table.
  void grow(SuperblockId Id) {
    if (Id >= Edges.size()) [[unlikely]]
      growTo(Id);
  }
  void growTo(SuperblockId Id);

  /// Learning form: records \p NewEdges as \p Id's out-edges, moving its
  /// reverse-index entries when the shape changed.
  void learn(SuperblockId Id, std::span<const SuperblockId> NewEdges);
};

/// Chaining state for the blocks resident in one CodeCache.
class LinkGraph {
public:
  /// Bytes of back-pointer table memory per materialized link: an 8-byte
  /// pointer plus an 8-byte list link (paper, Section 5.1 footnote).
  static constexpr uint64_t BytesPerBackPointer = 16;

  /// A graph over the read-only \p Shared topology, or over a private
  /// learning one when null. A shared topology must outlive the graph.
  explicit LinkGraph(const LinkTopology *Shared = nullptr);

  /// Registers newly resident \p Id, counts the links that now exist in
  /// both directions against residents of \p Cache, classifies them
  /// under \p Quantum, and updates \p Stats link counters. A learning
  /// graph first records \p Edges as Id's shape; a read-only topology
  /// already holds them (they must be its edges of Id, asserted in
  /// paranoid builds, and Id must lie inside it, always asserted). Must
  /// be called after the block is committed to the cache.
  void onInsert(const CodeCache &Cache, uint64_t Quantum, SuperblockId Id,
                std::span<const SuperblockId> Edges, CacheStats &Stats);

  /// Processes a batch of just-evicted blocks (already removed from
  /// \p Cache). For each victim, appends to \p DanglingCounts the number
  /// of incoming links from *surviving* blocks — the dangling pointers a
  /// back-pointer table must repair (Equation 4's numLinks). Links whose
  /// endpoints both died are destroyed for free. A batch that empties the
  /// cache has no survivors: every count is zero and every live link dies.
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

  /// The topology this cache's links derive from (shared or private);
  /// auditors read the edges and sources here.
  const LinkTopology &topology() const { return *Topo; }

  /// Exhaustive consistency check against \p Cache for tests: the reverse
  /// index mirrors the learned edges with matching multiplicity, and the
  /// live-link counter equals the links residency implies.
  bool checkInvariants(const CodeCache &Cache) const;

private:
  std::unique_ptr<LinkTopology> Owned; // Learning; null when shared.
  const LinkTopology *Topo;
  uint64_t LinkCount = 0;
  // Batch-membership marks, one byte per topology id: a victim of the
  // batch being processed carries CurrentEpoch. A byte keeps the table a
  // quarter of a 32-bit one; it is cleared once every 255 batches.
  std::vector<uint8_t> EvictEpoch;
  uint8_t CurrentEpoch = 0;

  /// Starts a new eviction batch: returns the epoch its victims carry.
  uint8_t nextEpoch();
};

} // namespace ccsim

#endif // CCSIM_CORE_LINKGRAPH_H
