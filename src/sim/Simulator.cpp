//===- sim/Simulator.cpp - Trace-driven code cache simulation -------------===//

#include "sim/Simulator.h"
#include "check/Paranoia.h"
#include "support/Contracts.h"

#include <algorithm>
#include <cstdio>

using namespace ccsim;

std::string SimConfig::validate() const {
  if (ExplicitCapacityBytes == 0 && !(PressureFactor >= 1.0)) { // or NaN
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "pressure factor %g below 1 would be an over-provisioned "
                  "cache (set an explicit capacity instead)",
                  PressureFactor);
    return Buf;
  }
  if (Costs.EvictionPerByte < 0.0 || Costs.MissPerByte < 0.0 ||
      Costs.UnlinkPerLink < 0.0 || Costs.EvictionBase < 0.0 ||
      Costs.MissBase < 0.0 || Costs.UnlinkBase < 0.0)
    return "cost model coefficients must be nonnegative";
  if (ExplicitCapacityBytes > CodeCache::MaxCapacityBytes)
    return "capacity " + std::to_string(ExplicitCapacityBytes) +
           " exceeds the " + std::to_string(CodeCache::MaxCapacityBytes) +
           "-byte cache limit";
  return {};
}

std::string SimConfig::validateFor(uint64_t MaxCacheBytes) const {
  std::string Err = validate();
  if (!Err.empty() || ExplicitCapacityBytes != 0)
    return Err;
  // Compared as a double: the derived size may not fit 64 bits' cast.
  const double Derived = static_cast<double>(MaxCacheBytes) / PressureFactor;
  if (Derived < static_cast<double>(CodeCache::MaxCapacityBytes) + 1.0)
    return {};
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "a %llu-byte trace at pressure %g needs a %.0f-byte cache; "
                "caches are limited to %llu bytes",
                static_cast<unsigned long long>(MaxCacheBytes), PressureFactor,
                Derived,
                static_cast<unsigned long long>(CodeCache::MaxCapacityBytes));
  return Buf;
}

uint64_t ccsim::sim::capacityFor(uint64_t MaxCacheBytes,
                                 const SimConfig &Config) {
  if (Config.ExplicitCapacityBytes != 0)
    return Config.ExplicitCapacityBytes;
  CCSIM_REQUIRE(Config.PressureFactor >= 1.0,
                "pressure factor %g below 1 would be an over-provisioned cache",
                Config.PressureFactor);
  const double Derived =
      static_cast<double>(MaxCacheBytes) / Config.PressureFactor;
  return std::max<uint64_t>(1, static_cast<uint64_t>(Derived));
}

CacheEngineConfig ccsim::sim::engineConfig(const SimConfig &Config,
                                           uint64_t CapacityBytes,
                                           const LinkTopology &Topology) {
  CacheEngineConfig EC;
  EC.CapacityBytes = CapacityBytes;
  EC.Costs = Config.Costs;
  EC.EnableChaining = Config.EnableChaining;
  EC.Telemetry = Config.Telemetry;
  EC.Topology = &Topology;
  return EC;
}

std::string ccsim::sim::pressureLabel(double PressureFactor) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", PressureFactor);
  return Buf;
}

sim::RunFrame::RunFrame(telemetry::TelemetrySink *Sink, const char *Prefix,
                        const SimResult &R)
    : Sink(Sink) {
  if (!Sink)
    return;
  MarkId = Sink->Tracer.internLabel(Prefix + R.BenchmarkName + "/" +
                                    R.PolicyName);
  Sink->Tracer.record(telemetry::EventKind::Mark, 0, telemetry::NoBlock,
                      MarkId, 1, 0);
}

telemetry::MetricLabels
sim::RunFrame::close(const SimResult &R, double PressureFactor,
                     telemetry::MetricLabels Extra) const {
  if (!Sink)
    return {};
  Sink->Tracer.record(telemetry::EventKind::Mark, 0, telemetry::NoBlock,
                      MarkId, 0, R.Stats.Accesses);
  Extra.insert(Extra.begin(), {{"benchmark", R.BenchmarkName},
                               {"policy", R.PolicyName},
                               {"pressure", pressureLabel(PressureFactor)}});
  R.Stats.recordMetrics(Sink->Metrics, Extra);
  return Extra;
}

namespace {

/// The replay loop, written once over both trace sources (Trace and
/// trace::MappedTrace share name/numAccesses/idAt/recordFor).
template <typename TraceT>
SimResult replay(const TraceT &T, std::unique_ptr<EvictionPolicy> Policy,
                 const SimConfig &Config, CancelToken *Cancel) {
  CCSIM_REQUIRE(Policy, "simulation requires a policy");
  SimResult Result;
  Result.BenchmarkName = T.name();
  Result.PolicyName = Policy->name();
  Result.MaxCacheBytes = T.maxCacheBytes();
  Result.CapacityBytes = sim::capacityFor(Result.MaxCacheBytes, Config);

  // The trace fixes every block's shape: its read-only topology replaces
  // learning the edges on each first insert.
  const LinkTopology Topology = LinkTopology::fromBlocks(T.blocks());
  const sim::RunFrame Frame(Config.Telemetry, "sim:", Result);
  CacheEngine Engine(sim::engineConfig(Config, Result.CapacityBytes, Topology),
                     std::move(Policy));
  if (Config.Audit != AuditLevel::Off)
    check::armAuditor(Engine, {Config.Audit, Config.OnViolation});
  auto Walk = [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Engine.access(T.recordFor(T.idAt(I)));
  };
  const size_t N = T.numAccesses();
  sim::forEachChunk(0, N, N, Cancel, "replay of ", Result.BenchmarkName, Walk);

  Result.Stats = Engine.stats();
  Frame.close(Result, Config.PressureFactor);
  return Result;
}

} // namespace

uint64_t ccsim::sim::capacityFor(const Trace &T, const SimConfig &Config) {
  return capacityFor(T.maxCacheBytes(), Config);
}

uint64_t ccsim::sim::capacityFor(const trace::MappedTrace &T,
                                 const SimConfig &Config) {
  return capacityFor(T.maxCacheBytes(), Config);
}

SimResult ccsim::sim::run(const Trace &T,
                          std::unique_ptr<EvictionPolicy> Policy,
                          const SimConfig &Config, CancelToken *Cancel) {
  return replay(T, std::move(Policy), Config, Cancel);
}

SimResult ccsim::sim::run(const Trace &T, const GranularitySpec &Spec,
                          const SimConfig &Config, CancelToken *Cancel) {
  return replay(T, makePolicy(Spec), Config, Cancel);
}

SimResult ccsim::sim::run(const trace::MappedTrace &T,
                          std::unique_ptr<EvictionPolicy> Policy,
                          const SimConfig &Config, CancelToken *Cancel) {
  return replay(T, std::move(Policy), Config, Cancel);
}
