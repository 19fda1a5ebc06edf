//===- sim/Simulator.h - Trace-driven code cache simulation ---------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace-driven code cache simulator of Section 4.1: replays a
/// benchmark trace through a CacheEngine configured with one eviction
/// policy and one cache pressure factor. The cache is sized to
/// maxCache / pressure, where maxCache is the size an unbounded cache
/// would reach for that benchmark (Section 4.2).
///
/// sim::run is the one single-guest replay loop in the tree: the
/// thread-shared runner (concurrent/SharedEngineRunner.h) sends K = 1
/// here, and the trace may be an in-memory Trace or a file-mapped
/// trace::MappedTrace streamed without building its access vector.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SIM_SIMULATOR_H
#define CCSIM_SIM_SIMULATOR_H

#include "core/CacheEngine.h"
#include "support/Cancellation.h"
#include "trace/MappedTrace.h"

#include <memory>
#include <string>

namespace ccsim {

/// Configuration shared by simulation runs.
struct SimConfig {
  /// Cache pressure factor n: capacity = maxCache / n (Section 4.2).
  double PressureFactor = 2.0;

  /// Overrides the derived capacity when nonzero.
  uint64_t ExplicitCapacityBytes = 0;

  /// Analytical instruction-cost model (Eqs. 2-4).
  CostModel Costs = CostModel::paperDefaults();

  /// Maintain superblock chaining state.
  bool EnableChaining = true;

  /// Optional telemetry endpoint, forwarded into the CacheEngine. When
  /// set, run() wraps the replay in Mark records and publishes the final
  /// CacheStats into the sink's registry under
  /// {benchmark, policy, pressure} labels. Null costs nothing.
  telemetry::TelemetrySink *Telemetry = nullptr;

  /// Deep structural auditing during the replay (check::armAuditor).
  /// Defaults to Full in CCSIM_PARANOID builds, Off otherwise; any
  /// violation prints its report and aborts the process.
  AuditLevel Audit = defaultAuditLevel();

  /// Optional cooperative cancellation. When set, run() polls the token
  /// every CancelCheckInterval accesses and throws ReplayCancelled when it
  /// asks to stop. Null costs one branch per run.
  CancelToken *Cancel = nullptr;

  /// Accesses replayed between cancellation checks (the trace-chunk
  /// granularity of cancellation and deadline enforcement).
  uint32_t CancelCheckInterval = 1024;

  // Fluent setters, so drivers can assemble a config in one expression.
  SimConfig &withPressure(double Factor) {
    PressureFactor = Factor;
    return *this;
  }
  SimConfig &withCapacityBytes(uint64_t Bytes) {
    ExplicitCapacityBytes = Bytes;
    return *this;
  }
  SimConfig &withCosts(const CostModel &Model) {
    Costs = Model;
    return *this;
  }
  SimConfig &withChaining(bool Enable) {
    EnableChaining = Enable;
    return *this;
  }
  SimConfig &withTelemetry(telemetry::TelemetrySink *Sink) {
    Telemetry = Sink;
    return *this;
  }
  SimConfig &withAudit(AuditLevel Level) {
    Audit = Level;
    return *this;
  }
  SimConfig &withCancel(CancelToken *Token) {
    Cancel = Token;
    return *this;
  }

  /// Checks every field for consistency. Returns an empty string when the
  /// config is usable and a descriptive error otherwise; callers that
  /// cannot abort (SimService) reject the job with this message instead
  /// of tripping the CCSIM_REQUIRE contracts mid-run.
  std::string validate() const;

  /// validate(), then whether the cache this config derives for a trace
  /// of \p MaxCacheBytes (sim::capacityFor) stays within
  /// CodeCache::MaxCapacityBytes. Every front door runs it before it
  /// builds an engine, so an oversized cache is an error, not an abort.
  std::string validateFor(uint64_t MaxCacheBytes) const;
};

/// Outcome of simulating one (trace, policy, capacity) combination.
struct SimResult {
  std::string BenchmarkName;
  std::string PolicyName;
  uint64_t CapacityBytes = 0;
  uint64_t MaxCacheBytes = 0;
  CacheStats Stats;
};

/// Stateless driver functions.
namespace sim {

/// Derives the cache capacity for \p T under \p Config.
uint64_t capacityFor(const Trace &T, const SimConfig &Config);
uint64_t capacityFor(const trace::MappedTrace &T, const SimConfig &Config);

/// The derivation itself, from an unbounded-cache size: the explicit
/// capacity when set, else \p MaxCacheBytes / pressure (at least 1 byte).
/// A multi-tenant run passes its tenants' summed maxCache.
uint64_t capacityFor(uint64_t MaxCacheBytes, const SimConfig &Config);

/// Replays \p T through a fresh CacheEngine running \p Policy.
SimResult run(const Trace &T, std::unique_ptr<EvictionPolicy> Policy,
              const SimConfig &Config);

/// Replays \p T under the policy named by \p Spec.
SimResult run(const Trace &T, const GranularitySpec &Spec,
              const SimConfig &Config);

/// Zero-copy replay: streams accesses straight out of the mapping.
/// Byte-identical to replaying T.toTrace() -- same stats, telemetry
/// marks, and metric labels.
SimResult run(const trace::MappedTrace &T,
              std::unique_ptr<EvictionPolicy> Policy, const SimConfig &Config);

} // namespace sim

/// Execution-time model used for the Section 5.3 estimate: total time is
/// proportional to application instructions (accesses times the mean
/// number of instructions executed inside the cache per dispatch) plus
/// the modeled cache management overhead.
struct ExecutionTimeModel {
  /// Instructions the application retires inside the code cache between
  /// consecutive dispatch events. Calibrated so that cache management
  /// overhead "becomes a dominant factor" at the paper's high-pressure
  /// configuration (Section 5.3).
  double InstructionsPerDispatch = 6000.0;

  /// Total modeled instructions for a run.
  double totalInstructions(const SimResult &Result,
                           bool IncludeLinkMaintenance) const {
    return static_cast<double>(Result.Stats.Accesses) *
               InstructionsPerDispatch +
           Result.Stats.totalOverhead(IncludeLinkMaintenance);
  }

  /// Relative execution-time reduction going from \p Base to \p Improved.
  double reductionFraction(const SimResult &Base, const SimResult &Improved,
                           bool IncludeLinkMaintenance) const {
    const double TB = totalInstructions(Base, IncludeLinkMaintenance);
    const double TI = totalInstructions(Improved, IncludeLinkMaintenance);
    if (TB <= 0.0)
      return 0.0;
    return (TB - TI) / TB;
  }
};

} // namespace ccsim

#endif // CCSIM_SIM_SIMULATOR_H
