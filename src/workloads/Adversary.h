//===- workloads/Adversary.h - Adversarial workload generators ------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized adversarial workload generators. The statistical
/// trace::WorkloadModel inherits the paper's benign SPEC-derived behavior;
/// nothing there can produce the worst-case streams where granularity
/// choices actually diverge. Each generator here emits an ordinary
/// trace::Trace engineered against one aspect of the eviction machinery
/// (Eq. 2-4 costs, unit flush boundaries, back-pointer unlinking, phase
/// turnover, cross-tenant sharing, retranslation garbage), so the whole
/// simulator stack — replay, sweeps, one-pass lattices, the async service
/// — consumes them unchanged. DESIGN.md section 16 derives why each
/// pattern is worst-case for its target granularity.
///
/// Everything is deterministic: the same (spec, seed) pair always yields
/// the same trace, which is what lets the differential test harness and
/// the golden degradation pins replay exact streams.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_WORKLOADS_ADVERSARY_H
#define CCSIM_WORKLOADS_ADVERSARY_H

#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ccsim::workloads {

/// The attack family a spec belongs to. Each kind interprets the shared
/// geometry knobs (Blocks, BlockBytes, Accesses) plus its own shape knobs.
enum class AdversaryKind : uint8_t {
  ConflictChain, ///< Cyclic FIFO conflict chain one unit over capacity.
  ThrashLoop,    ///< Hot loop near capacity under one-shot churn.
  LinkClique,    ///< Fully cross-linked cliques cycled over capacity.
  PhaseShift,    ///< Disjoint working sets with abrupt switches.
  TenantOverlap, ///< Interleaved tenants sharing a hot pool.
  SelfModifying, ///< Periodic retranslation strands dead versions.
};

/// Stable lower-case name of \p Kind ("conflict-chain", ...).
const char *adversaryKindName(AdversaryKind Kind);

/// Full description of one adversarial workload. A spec is a pure value:
/// validate() says whether it is generatable, tunedCapacityBytes() names
/// the cache size the pattern is engineered to defeat, and
/// generateAdversarial() turns it into a trace.
struct AdversarySpec {
  std::string Name;    ///< Catalog key; also the generated Trace::Name.
  std::string Summary; ///< One-line catalog/README description.
  AdversaryKind Kind = AdversaryKind::ConflictChain;

  // Shared geometry. Blocks is the base working-set size; its exact
  // meaning is per kind (chain length, hot-loop blocks, blocks per
  // tenant, logical blocks before versioning, ...). All superblocks are
  // uniform BlockBytes so the capacity math below is exact.
  uint32_t Blocks = 256;
  uint32_t BlockBytes = 256;
  uint64_t Accesses = 0; ///< 0 = derivedAccesses().

  /// The eviction granularity under attack; sizes the "one unit" excess
  /// of the chain/clique/phase patterns.
  uint32_t TargetUnits = 8;

  // ThrashLoop shape: the hot loop occupies HotFraction of the tuned
  // capacity, and every lap inserts ceil(Blocks * ChurnPerLap) one-shot
  // transient blocks that force continuous eviction.
  double HotFraction = 0.75;
  double ChurnPerLap = 0.25;

  uint32_t Phases = 8;     ///< PhaseShift: number of disjoint working sets.
  uint32_t CliqueSize = 8; ///< LinkClique: blocks per all-to-all clique.

  // TenantOverlap shape: Tenants round-robin streams, each over a private
  // set of (1 - OverlapFraction) * Blocks blocks plus a pool of
  // OverlapFraction * Blocks blocks shared by everyone.
  uint32_t Tenants = 3;
  double OverlapFraction = 0.5;

  // SelfModifying shape: every logical block is retranslated (fresh
  // superblock id) after RewriteInterval executions, up to Versions
  // generations; dead versions stay behind as cache garbage.
  uint32_t Versions = 8;
  uint32_t RewriteInterval = 64;

  AdversarySpec &withKind(AdversaryKind K) {
    Kind = K;
    return *this;
  }
  AdversarySpec &withBlocks(uint32_t N) {
    Blocks = N;
    return *this;
  }
  AdversarySpec &withBlockBytes(uint32_t B) {
    BlockBytes = B;
    return *this;
  }
  AdversarySpec &withAccesses(uint64_t A) {
    Accesses = A;
    return *this;
  }
  AdversarySpec &withTargetUnits(uint32_t U) {
    TargetUnits = U;
    return *this;
  }

  /// Empty when the spec is generatable, else a descriptive rejection
  /// (same contract as SimConfig::validate). Degenerate-but-legal shapes
  /// (single-block chains, one-member cliques, a single tenant, more
  /// phases than accesses) are accepted and must generate valid traces;
  /// impossible ones (zero blocks, zero-byte superblocks, overlap outside
  /// [0,1]) are rejected here, never mid-generation.
  std::string validate() const;

  /// The cache capacity this pattern is engineered to defeat, from the
  /// spec alone (no trace needed). Replaying at this explicit capacity —
  /// or at maxCache/capacity pressure — exhibits the worst case.
  uint64_t tunedCapacityBytes() const;

  /// Distinct superblocks in the recurring working set (transient
  /// one-shot churn blocks excluded): the footprint the capacity math is
  /// tuned against.
  uint64_t plannedBlocks() const;

  /// Stream length used when Accesses is 0: long enough to discover
  /// every planned block and cycle the cache tens of times.
  uint64_t derivedAccesses() const;
};

/// Generates the trace \p Spec describes. Requires Spec.validate() empty;
/// the result always passes Trace::validate() (every defined block is
/// accessed, even when an explicit Accesses truncates discovery).
Trace generateAdversarial(const AdversarySpec &Spec, uint64_t Seed);

/// Per-tenant decomposition of the TenantOverlap pattern, for the
/// cross-tenant sharing study: one trace per Spec.Tenants (named
/// "<Name>[t<I>]"), each streaming over its own copy of the working set.
/// Shared-pool blocks carry identical nonzero ContentTags across tenants
/// — the content a ShareCode run can fold to one resident copy — while
/// private blocks stay untagged and therefore content-unique (the
/// fallback key folds in the per-tenant trace name). Sweeping
/// Spec.OverlapFraction from 0 to 1 moves the shareable fraction of every
/// tenant's working set from nothing to everything. Requires
/// Kind == TenantOverlap and a valid spec.
std::vector<Trace> generateTenantOverlapSuite(const AdversarySpec &Spec,
                                              uint64_t Seed);

/// The named adversarial workloads: one tuned spec per AdversaryKind.
const std::vector<AdversarySpec> &adversarialCatalog();

/// Looks up a catalog spec by name; nullptr when absent.
const AdversarySpec *findAdversarial(const std::string &Name);

/// A copy of \p Spec with its working-set size scaled by \p Factor
/// (minimum 4 blocks). An explicit Accesses scales along; a derived one
/// (0) stays derived so the stream shrinks with the geometry.
AdversarySpec scaledAdversary(const AdversarySpec &Spec, double Factor);

/// \p Spec itself at full scale (isFullScale), else scaledAdversary.
AdversarySpec adversaryAtScale(const AdversarySpec &Spec, double Scale);

} // namespace ccsim::workloads

#endif // CCSIM_WORKLOADS_ADVERSARY_H
