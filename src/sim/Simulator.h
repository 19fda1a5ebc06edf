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

#include "check/AuditReport.h"
#include "core/CacheEngine.h"
#include "support/Cancellation.h"
#include "trace/MappedTrace.h"

#include <algorithm>
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
  /// Defaults to Full in CCSIM_PARANOID builds, Off otherwise.
  AuditLevel Audit = defaultAuditLevel();

  /// Receives the audit's findings; empty (the default) prints them and
  /// aborts. It changes what a run reports, not what it simulates.
  check::ViolationHandler OnViolation;

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

/// The trace-replay recipe, the one place a SimConfig becomes an engine
/// config: capacity, Eq. 2-4 costs, chaining, telemetry sink and the
/// trace's read-only \p Topology, which must outlive the engine.
CacheEngineConfig engineConfig(const SimConfig &Config, uint64_t CapacityBytes,
                               const LinkTopology &Topology);

/// The "pressure" metric label of \p PressureFactor ("%g").
std::string pressureLabel(double PressureFactor);

/// A replay's telemetry: a Mark pair named "<Prefix><benchmark>/<policy>"
/// around it, then its CacheStats under {benchmark, policy, pressure}
/// labels. A null sink makes it a no-op.
class RunFrame {
public:
  RunFrame(telemetry::TelemetrySink *Sink, const char *Prefix,
           const SimResult &R);

  /// Closes the Mark and publishes R.Stats under the run's labels plus
  /// \p Extra; returns those labels for a runner's own series.
  telemetry::MetricLabels close(const SimResult &R, double PressureFactor,
                                telemetry::MetricLabels Extra = {}) const;

  uint32_t markId() const { return MarkId; }

private:
  telemetry::TelemetrySink *Sink;
  uint32_t MarkId = 0;
};

/// Accesses every replay loop walks between two polls of its cancel
/// token: the trace-chunk granularity of cancellation and deadlines.
inline constexpr size_t CancelCheckInterval = 1024;

/// The one chunked walk over an access stream of \p N accesses, and the
/// one place a replay polls its token: \p Body(I, J) over chunks of
/// CancelCheckInterval accesses covering [\p Begin, \p End), polling
/// \p Cancel before each, so a stopped token stops the walk before its
/// first access. One chunk when there is no token. A stop throws
/// ReplayCancelled naming \p Kind + \p Name and the chunk's position.
template <typename BodyFn>
void forEachChunk(size_t Begin, size_t End, size_t N, CancelToken *Cancel,
                  const char *Kind, const std::string &Name, BodyFn &&Body) {
  const size_t Chunk = Cancel ? CancelCheckInterval : End - Begin;
  for (size_t I = Begin; I < End;) {
    if (Cancel)
      Cancel->throwIfStopped([&] {
        return Kind + Name + " stopped after " + std::to_string(I) + " of " +
               std::to_string(N) + " accesses";
      });
    const size_t Next = std::min(End, I + Chunk);
    Body(I, Next);
    I = Next;
  }
}

/// Replays \p T through a fresh CacheEngine running \p Policy. A non-null
/// \p Cancel stops the replay at a chunk boundary with ReplayCancelled.
SimResult run(const Trace &T, std::unique_ptr<EvictionPolicy> Policy,
              const SimConfig &Config, CancelToken *Cancel = nullptr);

/// Replays \p T under the policy named by \p Spec.
SimResult run(const Trace &T, const GranularitySpec &Spec,
              const SimConfig &Config, CancelToken *Cancel = nullptr);

/// Zero-copy replay: streams accesses straight out of the mapping.
/// Byte-identical to replaying T.toTrace() -- same stats, telemetry
/// marks, and metric labels.
SimResult run(const trace::MappedTrace &T,
              std::unique_ptr<EvictionPolicy> Policy, const SimConfig &Config,
              CancelToken *Cancel = nullptr);

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
