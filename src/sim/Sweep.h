//===- sim/Sweep.h - Suite-wide granularity and pressure sweeps -----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment engine behind Figures 6-8, 10-11, and 13-15: it
/// generates (once) the traces for a benchmark suite, replays every
/// benchmark under a (granularity, pressure) grid, and aggregates results
/// across benchmarks with the paper's Equation 1 weighting:
///
///   unifiedMissRate = sum(cacheMisses_i) / sum(cacheAccesses_i)
///
/// which is exactly what merging the per-benchmark counters produces.
/// Benchmarks run in parallel across hardware threads; results are
/// deterministic regardless of thread count.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SIM_SWEEP_H
#define CCSIM_SIM_SWEEP_H

#include "sim/Simulator.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"

#include <functional>
#include <vector>

namespace ccsim {

/// Default suite seed shared by all bench binaries so every figure is
/// computed from the same traces.
inline constexpr uint64_t DefaultSuiteSeed = 0xCC512004ULL;

/// Aggregated outcome of one suite run at one sweep point.
struct SuiteResult {
  std::string PolicyLabel;
  double PressureFactor = 0.0;
  CacheStats Combined; ///< Eq. 1 aggregation over all benchmarks.
  std::vector<SimResult> PerBenchmark;
};

/// One sweep-grid point: a (granularity, configuration) pair. A job
/// expands to one simulation cell per benchmark in the suite.
struct SweepJob {
  GranularitySpec Spec;
  SimConfig Config;

  SweepJob &withSpec(const GranularitySpec &S) {
    Spec = S;
    return *this;
  }
  SweepJob &withConfig(const SimConfig &C) {
    Config = C;
    return *this;
  }

  /// Empty when the job is runnable, else a descriptive error (same
  /// contract as SimConfig::validate).
  std::string validate() const {
    if (Spec.Kind == GranularitySpec::KindType::Units && Spec.Units < 1)
      return "unit-granularity sweep point needs at least one unit";
    return Config.validate();
  }

  /// Whether \p Other describes the exact same simulation: same spec and
  /// the same simulation-affecting config fields (pressure, capacity,
  /// cost model, chaining, audit level, cancellation wiring, telemetry
  /// endpoint). Two such points produce bit-identical results, which is
  /// what lets the sweep engines simulate one and copy the other.
  bool sameSimulation(const SweepJob &Other) const;
};

/// Cartesian helper: one SweepJob per (spec, pressure), each with \p Base
/// at that pressure. This is the fig7/fig11-style grid.
std::vector<SweepJob> makeSweepGrid(const std::vector<GranularitySpec> &Specs,
                                    const std::vector<double> &Pressures,
                                    const SimConfig &Base);

/// Validates a whole sweep lattice: rejects an empty/degenerate grid with
/// a message and returns the first failing point's error (prefixed with
/// its index) otherwise. Empty string means runnable.
std::string validateSweepGrid(const std::vector<SweepJob> &Jobs);

/// Publishes one suite-level aggregate into \p Tel's registry, labeled by
/// the sweep point. Callers must invoke it in canonical job order, which
/// is what keeps registries byte-identical across serial, parallel, and
/// one-pass execution. Null sink is a no-op.
void recordSuiteMetrics(telemetry::TelemetrySink *Tel,
                        const SuiteResult &Result);

/// Generates and owns the traces for a benchmark suite and replays them
/// under arbitrary policies.
class SweepEngine {
public:
  /// Generates traces for \p Models with per-benchmark seeds derived from
  /// \p SuiteSeed.
  SweepEngine(const std::vector<WorkloadModel> &Models, uint64_t SuiteSeed);

  /// Engine over explicit, pre-generated traces (adversarial suites,
  /// saved logs). Takes ownership; traces must be validate()-clean and
  /// nonempty. Every runner below treats these exactly like generated
  /// benchmarks.
  explicit SweepEngine(std::vector<Trace> TraceList);

  /// Engine over the paper's full Table 1 suite.
  static SweepEngine forTable1(uint64_t SuiteSeed = DefaultSuiteSeed);

  /// Engine over a size-scaled copy of Table 1 (fast tests/smoke runs).
  static SweepEngine forScaledTable1(double Factor,
                                     uint64_t SuiteSeed = DefaultSuiteSeed);

  const std::vector<Trace> &traces() const { return Traces; }

  /// Runs every benchmark under the policy named by \p Spec at
  /// \p Config.PressureFactor and aggregates.
  SuiteResult runSuite(const GranularitySpec &Spec,
                       const SimConfig &Config) const;

  /// Runs every benchmark under policies minted by \p MakePolicy (called
  /// once per benchmark). \p Label names the sweep point.
  SuiteResult
  runSuite(const std::function<std::unique_ptr<EvictionPolicy>()> &MakePolicy,
           const std::string &Label, const SimConfig &Config) const;

  /// Full granularity sweep (standardGranularitySweep()) at one pressure.
  std::vector<SuiteResult> sweepGranularities(const SimConfig &Config) const;

  /// Runs every grid cell of \p Jobs (|Jobs| x |benchmarks| independent
  /// simulations) across the worker pool and merges results in canonical
  /// (job, benchmark) order. The output is bit-identical to calling
  /// runSuite() on each job serially: every cell simulates on its own
  /// CacheEngine, and aggregation order never depends on scheduling.
  /// Duplicate grid points (sameSimulation) without a telemetry endpoint
  /// simulate once and share the result; telemetry-carrying points are
  /// never deduplicated, since each replay records observable events.
  std::vector<SuiteResult> runParallel(const std::vector<SweepJob> &Jobs) const;

  /// Number of worker threads (defaults to hardware concurrency; set to 1
  /// for strictly serial runs).
  void setNumThreads(unsigned Threads) { NumThreads = Threads ? Threads : 1; }
  unsigned numThreads() const { return NumThreads; }

private:
  std::vector<Trace> Traces;
  unsigned NumThreads;
};

} // namespace ccsim

#endif // CCSIM_SIM_SWEEP_H
