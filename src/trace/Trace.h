//===- trace/Trace.h - Superblock dispatch traces -------------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace format consumed by the trace-driven simulator. A trace is the
/// stand-in for the paper's DynamoRIO verbose logs (Section 4.1): it
/// records, per hot superblock, the translated size in bytes and the
/// static outbound control-flow edges (potential chain links), plus the
/// stream of superblock dispatch events in execution order. Superblock ids
/// are dense and numbered in discovery order.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TRACE_TRACE_H
#define CCSIM_TRACE_TRACE_H

#include "core/Superblock.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ccsim {

/// Static description of one hot superblock.
struct SuperblockDef {
  uint32_t SizeBytes = 0;
  std::vector<SuperblockId> OutEdges;

  /// Content identity for cross-tenant sharing: blocks carrying the same
  /// nonzero tag are "the same translated code" across traces by
  /// construction (the overlap workload tags its shared pool this way).
  /// 0 — the default — means "derive identity from the trace name and
  /// block shape instead" (see concurrent/MultiTenantSimulator). In-memory
  /// only: the .cct file format does not carry tags, so traces that go
  /// through TraceIO lose them and fall back to derived identity.
  uint64_t ContentTag = 0;
};

/// A full benchmark trace: superblock definitions plus the dispatch
/// stream. This is what the paper saved and replayed "to allow for
/// repeatability in the experiments".
struct Trace {
  std::string Name;
  std::vector<SuperblockDef> Blocks;
  std::vector<SuperblockId> Accesses;

  size_t numSuperblocks() const { return Blocks.size(); }
  size_t numAccesses() const { return Accesses.size(); }

  // The read interface trace::MappedTrace shares, so a replay loop is
  // written once over either source.
  const std::string &name() const { return Name; }
  const std::vector<SuperblockDef> &blocks() const { return Blocks; }
  SuperblockId idAt(size_t I) const { return Accesses[I]; }

  /// Total translated bytes: the size an unbounded code cache would reach
  /// (the paper's maxCache term, Section 4.2).
  uint64_t maxCacheBytes() const;

  /// Builds the per-access record for superblock \p Id. The returned
  /// record's edge span aliases this trace and must not outlive it.
  SuperblockRecord recordFor(SuperblockId Id) const;

  /// Superblock sizes as doubles, for the statistics helpers.
  std::vector<double> sizesAsDoubles() const;

  /// Mean static out-degree across superblocks (Figure 12).
  double meanOutDegree() const;

  /// Structural validity: every access and edge names a defined
  /// superblock, every block has a positive size, and every block is
  /// accessed at least once (validTrace below).
  bool validate() const;
};

/// The rules Trace::validate() names, over any block table and any
/// access source with numAccesses() and idAt() (a Trace, or a `.cct`
/// image's access stream checked in place by decodeTrace()).
template <typename AccessSource>
bool validTrace(const std::vector<SuperblockDef> &Blocks,
                const AccessSource &Accesses) {
  for (const SuperblockDef &B : Blocks) {
    if (B.SizeBytes == 0)
      return false;
    for (SuperblockId Edge : B.OutEdges)
      if (Edge >= Blocks.size())
        return false;
  }
  std::vector<uint8_t> Touched(Blocks.size(), 0);
  const size_t N = Accesses.numAccesses();
  for (size_t I = 0; I < N; ++I) {
    const SuperblockId Id = Accesses.idAt(I);
    if (Id >= Blocks.size())
      return false;
    Touched[Id] = 1;
  }
  for (uint8_t T : Touched)
    if (!T)
      return false; // Table 1 counts *hot* superblocks: all are executed.
  return true;
}

} // namespace ccsim

#endif // CCSIM_TRACE_TRACE_H
