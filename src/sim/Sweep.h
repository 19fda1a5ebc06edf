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
/// Whole grids run through multisweep::runSweepGrid; SweepEngine::runSuite
/// is the serial per-point reference it must match. Results are
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
  /// cost model, chaining, audit level, telemetry endpoint). Two such
  /// points produce bit-identical results, which is what lets
  /// multisweep::planLattice simulate one and copy the other.
  /// The OnViolation handler changes only what a run reports.
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

/// The one suite generator: Models[I]'s trace, from its own seed-derived
/// stream (TraceGenerator::generateBenchmark), lands in slot I. Traces are
/// built on a pool of \p Threads workers (0 = ThreadPool::hardwareThreads(),
/// 1 = inline), longest access budget first, so the result is
/// byte-identical at any worker count.
std::vector<Trace> generateSuite(const std::vector<WorkloadModel> &Models,
                                 uint64_t SuiteSeed, unsigned Threads);

/// Generates and owns the traces for a benchmark suite. Grids run over
/// it through multisweep::runSweepGrid; runSuite replays the suite under
/// one policy, including policies a GranularitySpec cannot name.
class SweepEngine {
public:
  /// Generates traces for \p Models with per-benchmark seeds derived from
  /// \p SuiteSeed (generateSuite), on \p Threads workers, which then run
  /// the engine's grids (setNumThreads).
  SweepEngine(const std::vector<WorkloadModel> &Models, uint64_t SuiteSeed,
              unsigned Threads = 0);

  /// Engine over explicit, pre-generated traces (adversarial suites,
  /// saved logs). Takes ownership; traces must be validate()-clean and
  /// nonempty. Every runner treats these exactly like generated
  /// benchmarks.
  explicit SweepEngine(std::vector<Trace> TraceList);

  /// Engine over Table 1 at a --scale value (workloadAtScale): the
  /// paper's full suite at 1, a size-scaled copy for fast runs below.
  /// \p Threads (a --jobs count) builds the suite and runs its grids.
  static SweepEngine forScaledTable1(double Factor,
                                     uint64_t SuiteSeed = DefaultSuiteSeed,
                                     unsigned Threads = 0);

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

  /// Number of worker threads: 0 (and the default) means
  /// ThreadPool::hardwareThreads(), one per CPU this process may run on,
  /// as for ThreadPool(0) and every --jobs=0; 1 runs strictly serially.
  void setNumThreads(unsigned Threads);
  unsigned numThreads() const { return NumThreads; }

private:
  std::vector<Trace> Traces;
  unsigned NumThreads;
};

} // namespace ccsim

#endif // CCSIM_SIM_SWEEP_H
