//===- multisweep/MultiConfigEngine.h - One-pass lattice replay -----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-pass evaluation of a whole sweep lattice. Every figure sweep
/// replays the same trace once per (granularity, pressure) point; dense
/// replay (one sim::run per point) decodes and walks the identical access
/// stream once per point. For the stateless FIFO family
/// (EvictionPolicy::isAccessStateless) a hit is a pure read — cache state
/// changes only on misses — so one pass over the trace can drive every
/// configuration at once (the DEW single-pass FIFO simulation idea):
///
///  - the access stream is decoded once per trace chunk and shared by all
///    configurations;
///  - each configuration keeps only its compact resident state (the
///    CodeCache residency bitmap + ring FIFO order it would have kept
///    anyway), and pays per access just one residency byte test;
///  - a shared residency bitmask (one bit per configuration per
///    superblock) makes the pass miss-driven: the common all-resident
///    case is one word compare total, and a partial-resident access
///    visits only the configurations that actually miss (bit scan), never
///    the ones that hit;
///  - hit counters and back-pointer-table samples are settled in batches
///    at miss boundaries, bit-identically to per-access accounting;
///  - every engine's LinkGraph reads one read-only LinkTopology, built
///    once from the trace's block table before the pass and never written
///    during it, so the lattice keeps one copy of the graph per trace
///    instead of one per configuration;
///  - cold misses are decided once per access for every engine (each
///    first sees an id at the same access), so the engines keep no
///    cold-miss tables.
///
/// Points the shortcuts cannot cover — per-access audit levels, foreign
/// cancellation tokens, non-stateless policies — fall back to dense
/// per-config replay (sim::run), with a log-visible accounting of which
/// points fell back and why. Identical telemetry-free points are
/// deduplicated. runSweepGrid is the one code that runs a grid, in either
/// mode. The correctness contract, pinned by tests/multisweep: every
/// report and metrics export from one-pass mode is byte-identical to
/// per-config replay.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_MULTISWEEP_MULTICONFIGENGINE_H
#define CCSIM_MULTISWEEP_MULTICONFIGENGINE_H

#include "check/AuditReport.h"
#include "sim/Sweep.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ccsim::multisweep {

/// Sweep-grid execution mode. OnePass is the default wherever a grid is
/// driven end to end (CLI, service, figure benches); PerConfig replays
/// every point densely, the reference one-pass results must match.
enum class SweepMode : uint8_t { PerConfig, OnePass };

/// Stable flag spelling of \p Mode ("per-config" | "one-pass").
const char *sweepModeName(SweepMode Mode);

/// Parses a --sweep-mode value; nullopt for anything unrecognized.
std::optional<SweepMode> parseSweepMode(const std::string &Text);

/// How each lattice point executes, decided once per grid (the plan does
/// not depend on the trace). Points route three ways: Duplicate points
/// copy an earlier identical point's results, Shared points ride the
/// single pass on their own engine, Fallback points replay densely.
struct LatticePlan {
  enum class Route : uint8_t { Shared, Duplicate, Fallback };

  struct Point {
    Route Kind = Route::Shared;
    /// Duplicate only: the earlier point whose results this one copies
    /// (itself never a Duplicate).
    size_t Representative = 0;
    /// Fallback only: why the point replays densely.
    std::string FallbackReason;
  };

  std::vector<Point> Points; ///< Parallel to the grid's jobs.
  size_t NumSharedEngines = 0;
  /// The one cancellation token the shared pass polls (the first shared
  /// point's token; points carrying any other token fall back).
  CancelToken *SharedCancel = nullptr;
  /// Accesses between cancellation polls: the minimum interval over the
  /// shared points, so no point waits longer than it asked for.
  uint32_t SharedCancelInterval = 0;

  size_t numShared() const;
  size_t numDuplicates() const;
  size_t numFallbacks() const;
};

/// Classifies every grid point; the one place that decides how a point
/// runs. A telemetry-free point that SweepJob::sameSimulation()s an
/// earlier representative is a Duplicate of it, whatever the mode. In
/// PerConfig mode every other point is a Fallback; in OnePass mode it is
/// Shared unless the shortcuts cannot cover it. \p Jobs may be any
/// validateSweepGrid-clean lattice; the plan is deterministic and
/// trace-independent.
LatticePlan planLattice(const std::vector<SweepJob> &Jobs,
                        SweepMode Mode = SweepMode::OnePass);

/// Work accounting for one-pass runs (summed over traces when aggregated
/// by runSweepGrid).
struct OnePassAccounting {
  uint64_t DecodedAccesses = 0;       ///< Stream length walked once.
  uint64_t AllResidentShortcuts = 0;  ///< Accesses absorbed by the
                                      ///< residency bitmask (O(1) total).
  uint64_t SharedMisses = 0;          ///< Misses handled in the shared
                                      ///< pass across all engines.

  void merge(const OnePassAccounting &Other) {
    DecodedAccesses += Other.DecodedAccesses;
    AllResidentShortcuts += Other.AllResidentShortcuts;
    SharedMisses += Other.SharedMisses;
  }
};

/// Evaluates one trace against a whole sweep lattice in a single pass.
/// Construction builds one engine per Shared point; run() walks the trace
/// once and settles them, bit-identically to sim::run on each point.
/// Duplicate and Fallback points are runSweepGrid's job. Telemetry-carrying
/// shared points record their Mark pair and full CacheStats into the sink
/// at settle time (metrics fidelity); per-access tracer events exist only
/// in dense replay.
class MultiConfigEngine {
public:
  MultiConfigEngine(const Trace &T, const std::vector<SweepJob> &Jobs,
                    const LatticePlan &Plan);
  // The engines point at Topology: the pass stays where it was built.
  MultiConfigEngine(const MultiConfigEngine &) = delete;
  MultiConfigEngine &operator=(const MultiConfigEngine &) = delete;

  /// Runs the shared pass and settles every engine. Returns one SimResult
  /// per lattice point, filled for the Shared points only. Throws
  /// ReplayCancelled at trace-chunk granularity when the plan's shared
  /// token fires. Call at most once.
  std::vector<SimResult> run();

  const OnePassAccounting &accounting() const { return Accounting; }

  /// Shared-engine introspection for tests and audits.
  size_t numSharedEngines() const { return Shared.size(); }
  const LinkTopology &topology() const { return Topology; }
  const CacheEngine &sharedEngine(size_t I) const { return *Shared[I].Engine; }

  /// Structural audit of every shared engine's compact state (placement +
  /// chaining rules). Safe mid-pass and after run(); the stats
  /// reconciliation rules need settled counters and are covered by
  /// auditSettled().
  check::AuditReport auditSharedStructures() const;

  /// Full cross-structure audit (placement, chaining, stats
  /// reconciliation) of every shared engine. Only valid after run().
  check::AuditReport auditSettled() const;

private:
  struct SharedState {
    std::unique_ptr<CacheEngine> Engine;
    size_t JobIndex = 0;         ///< The point this engine simulates.
    /// Accesses before this one carry a back-pointer sample. After a miss
    /// at access I it is I: I's sample is taken by the next settlement, at
    /// the post-miss table size, which no other access can change.
    uint64_t SampledThrough = 0;
    /// The engine's keepsBackPointerTable() gate, copied next to the
    /// sampling cursor so the miss path skips the sampling calls
    /// entirely when the engine keeps no table.
    bool SamplesTable = false;
  };

  const Trace &T;
  const std::vector<SweepJob> &Jobs;
  const LatticePlan &Plan;
  /// The trace's read-only link graph, read by every shared engine. It
  /// is never written, so other threads may read it during the pass.
  const LinkTopology Topology;
  std::vector<SharedState> Shared;
  /// Ids the pass has accessed: the first access to an id is a cold miss
  /// in every engine.
  std::vector<uint8_t> Seen;
  /// Residency bitmask: bit E of word [Id * NumWords + W] is set when
  /// superblock Id is resident in shared engine W * 64 + E. Kept exact by
  /// the miss path (set on insert) and the eviction observer (cleared per
  /// victim), so `word == FullMask[W]` is the all-resident test and
  /// `FullMask[W] & ~word` enumerates exactly the engines that miss.
  std::vector<uint64_t> Resident;
  /// All-engines mask per word (the last word may be partial).
  std::vector<uint64_t> FullMask;
  size_t NumWords = 0;
  OnePassAccounting Accounting;
  bool Ran = false;

  void sharedPass();
  void settle(SharedState &S, SimResult &Out);
};

/// Options for runSweepGrid.
struct MultiSweepOptions {
  SweepMode Mode = SweepMode::OnePass;
  /// One-pass accounting sink: called with human-readable lines
  /// describing deduplicated points and every fallback (reason included).
  /// Unset, or PerConfig mode, means silent.
  std::function<void(const std::string &)> Log;
};

/// The grid front door, the one code that runs a sweep grid: evaluates
/// \p Jobs over every benchmark of \p Engine and returns one SuiteResult
/// per job in canonical order. It plans the lattice once (planLattice in
/// Options.Mode), then runs one cell list on a pool of at most
/// Engine.numThreads() workers: per trace the shared pass (when the plan
/// has Shared points), and one dense sim::run per (Fallback point,
/// trace). Duplicates copy their representative; the Eq. 1 merge and
/// suite metrics follow in canonical (job, benchmark) order, so reports
/// and metrics registries are byte-identical to a serial runSuite per
/// job, in either mode and at any thread count. \p Jobs must be
/// validateSweepGrid-clean. \p Accounting, when non-null, receives the
/// merged one-pass accounting (zeroes in PerConfig mode).
std::vector<SuiteResult>
runSweepGrid(const SweepEngine &Engine, const std::vector<SweepJob> &Jobs,
             const MultiSweepOptions &Options = {},
             OnePassAccounting *Accounting = nullptr);

} // namespace ccsim::multisweep

#endif // CCSIM_MULTISWEEP_MULTICONFIGENGINE_H
