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
  if (CancelCheckInterval == 0)
    return "cancellation check interval must be at least 1 access";
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

namespace {

/// The replay loop, written once over both trace sources (Trace and
/// trace::MappedTrace share name/numAccesses/idAt/recordFor).
template <typename TraceT>
SimResult replay(const TraceT &T, std::unique_ptr<EvictionPolicy> Policy,
                 const SimConfig &Config) {
  CCSIM_REQUIRE(Policy, "simulation requires a policy");
  SimResult Result;
  Result.BenchmarkName = T.name();
  Result.PolicyName = Policy->name();
  Result.MaxCacheBytes = T.maxCacheBytes();
  Result.CapacityBytes = sim::capacityFor(Result.MaxCacheBytes, Config);

  // The trace fixes every block's shape: its read-only topology replaces
  // learning the edges on each first insert.
  const LinkTopology Topology = LinkTopology::fromBlocks(T.blocks());
  CacheEngineConfig EC;
  EC.CapacityBytes = Result.CapacityBytes;
  EC.Costs = Config.Costs;
  EC.EnableChaining = Config.EnableChaining;
  EC.Telemetry = Config.Telemetry;
  EC.Topology = &Topology;

  telemetry::TelemetrySink *Tel = Config.Telemetry;
  uint32_t MarkId = 0;
  if (Tel) {
    MarkId = Tel->Tracer.internLabel("sim:" + Result.BenchmarkName + "/" +
                                     Result.PolicyName);
    Tel->Tracer.record(telemetry::EventKind::Mark, 0, telemetry::NoBlock,
                       MarkId, 1, 0);
  }

  CacheEngine Engine(EC, std::move(Policy));
  if (Config.Audit != AuditLevel::Off)
    check::armAuditor(Engine, check::ParanoiaOptions{Config.Audit, true, {}});
  const size_t N = T.numAccesses();
  if (!Config.Cancel) {
    for (size_t I = 0; I < N; ++I)
      Engine.access(T.recordFor(T.idAt(I)));
  } else {
    // Cancellable replay: poll the token once per trace chunk so a
    // cancellation or deadline lands within CancelCheckInterval accesses.
    const size_t Chunk = std::max<uint32_t>(1, Config.CancelCheckInterval);
    size_t I = 0;
    while (I < N) {
      Config.Cancel->throwIfStopped([&] {
        return "replay of " + T.name() + " stopped after " +
               std::to_string(I) + " of " + std::to_string(N) + " accesses";
      });
      const size_t End = std::min(N, I + Chunk);
      for (; I < End; ++I)
        Engine.access(T.recordFor(T.idAt(I)));
    }
  }

  Result.Stats = Engine.stats();
  if (Tel) {
    Tel->Tracer.record(telemetry::EventKind::Mark, 0, telemetry::NoBlock,
                       MarkId, 0, Result.Stats.Accesses);
    char Pressure[32];
    std::snprintf(Pressure, sizeof(Pressure), "%g", Config.PressureFactor);
    Result.Stats.recordMetrics(Tel->Metrics,
                          {{"benchmark", Result.BenchmarkName},
                           {"policy", Result.PolicyName},
                           {"pressure", Pressure}});
  }
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
                          const SimConfig &Config) {
  return replay(T, std::move(Policy), Config);
}

SimResult ccsim::sim::run(const Trace &T, const GranularitySpec &Spec,
                          const SimConfig &Config) {
  return replay(T, makePolicy(Spec), Config);
}

SimResult ccsim::sim::run(const trace::MappedTrace &T,
                          std::unique_ptr<EvictionPolicy> Policy,
                          const SimConfig &Config) {
  return replay(T, std::move(Policy), Config);
}
