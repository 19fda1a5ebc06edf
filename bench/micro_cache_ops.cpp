//===- bench/micro_cache_ops.cpp - google-benchmark microbenchmarks -------===//
//
// Microbenchmarks of the core cache operations themselves (wall-clock
// cost of this library, not the modeled instruction overheads): hit
// lookups, miss+insert churn at each granularity, and link maintenance.
//
//===----------------------------------------------------------------------===//

#include "core/CacheEngine.h"
#include "support/Random.h"
#include "telemetry/Telemetry.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"

#include "benchmark/benchmark.h"

using namespace ccsim;

namespace {

/// A reusable medium-size trace.
const Trace &benchTrace() {
  static const Trace T = [] {
    WorkloadModel M = scaledWorkload(*findWorkload("crafty"), 0.5);
    return TraceGenerator::generateBenchmark(M, 7);
  }();
  return T;
}

CacheEngine makeManager(GranularitySpec Spec, double Pressure,
                        bool Chaining = true) {
  CacheEngineConfig Config;
  Config.CapacityBytes = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             static_cast<double>(benchTrace().maxCacheBytes()) / Pressure));
  Config.EnableChaining = Chaining;
  return CacheEngine(Config, makePolicy(Spec));
}

} // namespace

static void BM_HitLookup(benchmark::State &State) {
  CacheEngine M = makeManager(GranularitySpec::fine(), 1.0);
  const SuperblockRecord Rec = benchTrace().recordFor(0);
  M.access(Rec);
  for (auto _ : State)
    benchmark::DoNotOptimize(M.access(Rec));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HitLookup);

static void BM_AccessStream(benchmark::State &State) {
  // Replays the trace under the granularity selected by the range arg:
  // 0 = FLUSH, k = 2^k units, 99 = fine FIFO.
  const int Arg = static_cast<int>(State.range(0));
  const GranularitySpec Spec =
      Arg == 0 ? GranularitySpec::flush()
               : (Arg == 99 ? GranularitySpec::fine()
                            : GranularitySpec::units(1u << Arg));
  const Trace &T = benchTrace();
  for (auto _ : State) {
    CacheEngine M = makeManager(Spec, 8.0);
    for (SuperblockId Id : T.Accesses)
      M.access(T.recordFor(Id));
    benchmark::DoNotOptimize(M.stats().Misses);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(T.numAccesses()));
}
BENCHMARK(BM_AccessStream)->Arg(0)->Arg(3)->Arg(6)->Arg(99);

static void BM_AccessStreamTraced(benchmark::State &State) {
  // Same replay as BM_AccessStream(3) but with a telemetry sink attached;
  // the delta against the null-sink run is the full cost of tracing every
  // miss, eviction, and unlink. The disabled path (BM_AccessStream) must
  // not regress when telemetry code is compiled in.
  const Trace &T = benchTrace();
  telemetry::TelemetrySink Sink(1 << 16);
  for (auto _ : State) {
    CacheEngineConfig Config;
    Config.CapacityBytes = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               static_cast<double>(T.maxCacheBytes()) / 8.0));
    Config.Telemetry = &Sink;
    CacheEngine Traced(Config, makePolicy(GranularitySpec::units(8)));
    for (SuperblockId Id : T.Accesses)
      Traced.access(T.recordFor(Id));
    benchmark::DoNotOptimize(Traced.stats().Misses);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(T.numAccesses()));
}
BENCHMARK(BM_AccessStreamTraced);

static void BM_AccessStreamNoChaining(benchmark::State &State) {
  const Trace &T = benchTrace();
  for (auto _ : State) {
    CacheEngine M = makeManager(GranularitySpec::units(8), 8.0,
                                /*Chaining=*/false);
    for (SuperblockId Id : T.Accesses)
      M.access(T.recordFor(Id));
    benchmark::DoNotOptimize(M.stats().Misses);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(T.numAccesses()));
}
BENCHMARK(BM_AccessStreamNoChaining);

static void BM_EvictionChurn(benchmark::State &State) {
  // Tiny cache: nearly every access is a miss + eviction.
  CacheEngineConfig Config;
  Config.CapacityBytes = 2048;
  CacheEngine M(Config, makePolicy(GranularitySpec::fine()));
  Rng R(3);
  std::vector<SuperblockId> Ids(4096);
  for (auto &Id : Ids)
    Id = static_cast<SuperblockId>(R.nextBelow(1u << 16));
  size_t I = 0;
  for (auto _ : State) {
    SuperblockRecord Rec;
    Rec.Id = Ids[I++ & 4095];
    Rec.SizeBytes = 300;
    benchmark::DoNotOptimize(M.access(Rec));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_EvictionChurn);

static void BM_InstallEvictWithPayloads(benchmark::State &State) {
  // The execution-driven hot path: install() front door (the miss half of
  // access, used by the translator) on a tiny cache so nearly every
  // install evicts, with both payload hooks wired the way the translator
  // wires them. The delta against BM_EvictionChurn is the cost of the
  // hook dispatch itself.
  CacheEngineConfig Config;
  Config.CapacityBytes = 2048;
  uint64_t TornDown = 0;
  Config.OnEvictPayload =
      [&TornDown](std::span<const CodeCache::Resident> Victims) {
        TornDown += Victims.size();
      };
  Config.OnUnlinkPayload = [](std::span<const CodeCache::Resident>,
                              std::span<const uint32_t> Dangling) {
    uint64_t Links = 0;
    for (uint32_t D : Dangling)
      Links += D;
    benchmark::DoNotOptimize(Links);
  };
  CacheEngine E(Config, makePolicy(GranularitySpec::fine()));
  Rng R(3);
  std::vector<SuperblockId> Ids(4096);
  for (auto &Id : Ids)
    Id = static_cast<SuperblockId>(R.nextBelow(1u << 16));
  size_t I = 0;
  for (auto _ : State) {
    SuperblockRecord Rec;
    Rec.Id = Ids[I++ & 4095];
    Rec.SizeBytes = 300;
    if (E.cache().contains(Rec.Id))
      benchmark::DoNotOptimize(E.access(Rec));
    else
      benchmark::DoNotOptimize(E.install(Rec));
  }
  benchmark::DoNotOptimize(TornDown);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_InstallEvictWithPayloads);

static void BM_TraceGeneration(benchmark::State &State) {
  const WorkloadModel M = scaledWorkload(*findWorkload("gcc"), 0.2);
  for (auto _ : State) {
    TraceGenerator Gen(11);
    benchmark::DoNotOptimize(Gen.generate(M).numAccesses());
  }
}
BENCHMARK(BM_TraceGeneration);

BENCHMARK_MAIN();
