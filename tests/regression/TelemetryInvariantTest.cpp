//===- tests/regression/TelemetryInvariantTest.cpp - Telemetry invariants -===//
//
// Cross-checks between the three observability surfaces — the event
// trace, the metrics registry, and the simulators' own result structs.
// Each invariant here is a statement a consumer of the telemetry is
// allowed to rely on:
//
//   * eviction-batch records reconcile exactly with their victim records,
//   * trace ordering is monotone (seq strictly, tick weakly),
//   * per-tenant metric totals equal the MultiTenantSimulator results,
//   * metrics exports are byte-identical under serial and parallel sweeps,
//     in both sweep modes.
//
//===----------------------------------------------------------------------===//

#include "concurrent/MultiTenantSimulator.h"
#include "multisweep/MultiConfigEngine.h"
#include "sim/Sweep.h"
#include "telemetry/Exporters.h"
#include "telemetry/Telemetry.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"

#include "gtest/gtest.h"

using namespace ccsim;

namespace {

Trace smallTrace(const char *Name = "crafty", uint64_t Seed = 42) {
  return TraceGenerator::generateBenchmark(
      scaledWorkload(*findWorkload(Name), 0.05), Seed);
}

/// Runs one simulation with a sink big enough that nothing is dropped
/// (invariants over the snapshot need the complete event stream).
SimResult runTraced(telemetry::TelemetrySink &Sink, GranularitySpec Spec,
                    double Pressure) {
  SimConfig Config;
  Config.PressureFactor = Pressure;
  Config.Telemetry = &Sink;
  return sim::run(smallTrace(), Spec, Config);
}

} // namespace

TEST(TelemetryInvariantTest, EvictionBatchesReconcileWithVictimRecords) {
  telemetry::TelemetrySink Sink(1 << 17);
  const SimResult R = runTraced(Sink, GranularitySpec::units(8), 8.0);
  ASSERT_EQ(Sink.Tracer.droppedCount(), 0u) << "ring too small for test";

  uint64_t PendingVictims = 0, PendingBytes = 0;
  uint64_t TotalVictims = 0, TotalBytes = 0, Batches = 0;
  for (const telemetry::TraceEvent &E : Sink.Tracer.snapshot()) {
    if (E.Kind == telemetry::EventKind::Evict) {
      ++PendingVictims;
      PendingBytes += E.A;
    } else if (E.Kind == telemetry::EventKind::EvictionBatch) {
      // A = victim count, B = freed bytes; both must equal the sum of the
      // per-victim records since the previous batch.
      EXPECT_EQ(E.A, PendingVictims);
      EXPECT_EQ(E.B, PendingBytes);
      TotalVictims += PendingVictims;
      TotalBytes += PendingBytes;
      PendingVictims = PendingBytes = 0;
      ++Batches;
    }
  }
  EXPECT_EQ(PendingVictims, 0u) << "victims after the last batch";
  ASSERT_GT(Batches, 0u);
  EXPECT_EQ(Batches, R.Stats.EvictionInvocations);
  EXPECT_EQ(TotalVictims, R.Stats.EvictedBlocks);
  EXPECT_EQ(TotalBytes, R.Stats.EvictedBytes);
}

TEST(TelemetryInvariantTest, KindCountsMatchSimulatorStats) {
  telemetry::TelemetrySink Sink(1 << 17);
  const SimResult R = runTraced(Sink, GranularitySpec::units(8), 8.0);
  const telemetry::EventTracer &T = Sink.Tracer;
  EXPECT_EQ(T.kindCount(telemetry::EventKind::Miss), R.Stats.Misses);
  EXPECT_EQ(T.kindCount(telemetry::EventKind::EvictionBatch),
            R.Stats.EvictionInvocations);
  EXPECT_EQ(T.kindCount(telemetry::EventKind::Evict),
            R.Stats.EvictedBlocks);
  EXPECT_EQ(T.kindCount(telemetry::EventKind::Unlink),
            R.Stats.UnlinkOperations);

  // Inserts = misses minus the too-big blocks that could not be placed;
  // never more than misses.
  EXPECT_LE(T.kindCount(telemetry::EventKind::Insert), R.Stats.Misses);
  EXPECT_GT(T.kindCount(telemetry::EventKind::Insert), 0u);

  uint64_t RepairedLinks = 0;
  for (const telemetry::TraceEvent &E : T.snapshot())
    if (E.Kind == telemetry::EventKind::Unlink)
      RepairedLinks += E.A;
  EXPECT_EQ(RepairedLinks, R.Stats.UnlinkedLinks);
}

TEST(TelemetryInvariantTest, TraceOrderingIsMonotone) {
  telemetry::TelemetrySink Sink(1 << 17);
  runTraced(Sink, GranularitySpec::fine(), 6.0);
  const auto Events = Sink.Tracer.snapshot();
  ASSERT_FALSE(Events.empty());
  for (size_t I = 1; I < Events.size(); ++I) {
    EXPECT_LT(Events[I - 1].Seq, Events[I].Seq);
    EXPECT_LE(Events[I - 1].Tick, Events[I].Tick);
  }
}

TEST(TelemetryInvariantTest, PreemptiveFlushesAreTraced) {
  telemetry::TelemetrySink Sink(1 << 17);
  SimConfig Config;
  Config.PressureFactor = 8.0;
  Config.Telemetry = &Sink;
  // A hair-trigger spike threshold so the small trace reliably flushes.
  PreemptiveFlushPolicy::Options Opts;
  Opts.WindowAccesses = 256;
  Opts.SpikeMissRate = 0.05;
  Opts.MinAccessesBetweenFlushes = 512;
  const SimResult R = sim::run(
      smallTrace(), std::make_unique<PreemptiveFlushPolicy>(Opts), Config);
  EXPECT_EQ(Sink.Tracer.kindCount(telemetry::EventKind::Flush),
            R.Stats.PreemptiveFlushes);
  EXPECT_GT(R.Stats.PreemptiveFlushes, 0u);
}

TEST(TelemetryInvariantTest, MetricsMirrorSimResult) {
  telemetry::TelemetrySink Sink(1 << 17);
  const SimResult R = runTraced(Sink, GranularitySpec::units(8), 8.0);
  const telemetry::MetricLabels Labels = {{"benchmark", R.BenchmarkName},
                                          {"policy", R.PolicyName},
                                          {"pressure", "8"}};
  EXPECT_EQ(Sink.Metrics.counterValue("cache.accesses", Labels),
            R.Stats.Accesses);
  EXPECT_EQ(Sink.Metrics.counterValue("cache.misses", Labels),
            R.Stats.Misses);
  EXPECT_EQ(Sink.Metrics.counterValue("cache.evictions.bytes", Labels),
            R.Stats.EvictedBytes);
  EXPECT_DOUBLE_EQ(Sink.Metrics.gaugeValue("cache.miss_rate", Labels),
                   R.Stats.missRate());
  EXPECT_DOUBLE_EQ(Sink.Metrics.gaugeValue("cache.overhead.total", Labels),
                   R.Stats.totalOverhead(true));
}

TEST(TelemetryInvariantTest, PerTenantMetricsEqualSimulatorResults) {
  std::vector<Trace> Traces;
  for (const char *Name : {"gzip", "vpr", "crafty"})
    Traces.push_back(smallTrace(Name));

  telemetry::TelemetrySink Sink(1 << 18);
  TenancyPolicy Config;
  Config.Mode = PartitionMode::Shared;
  Config.Granularity = GranularitySpec::units(8);
  Config.PressureFactor = 2.0;
  Config.Telemetry = &Sink;
  MultiTenantSimulator Sim(Traces, Config);
  const MultiTenantResult R = Sim.run();

  EXPECT_EQ(Sink.Tracer.kindCount(telemetry::EventKind::TenantTag),
            Traces.size());
  for (const TenantResult &TR : R.Tenants) {
    const telemetry::MetricLabels Labels = {{"mode", R.ModeLabel},
                                            {"tenant", TR.Name}};
    EXPECT_EQ(Sink.Metrics.counterValue("tenant.accesses", Labels),
              TR.Accesses)
        << TR.Name;
    EXPECT_EQ(Sink.Metrics.counterValue("tenant.misses", Labels),
              TR.Misses)
        << TR.Name;
    EXPECT_EQ(Sink.Metrics.counterValue("tenant.blocks_evicted", Labels),
              TR.BlocksEvicted)
        << TR.Name;
    EXPECT_EQ(
        Sink.Metrics.counterValue("tenant.blocks_lost_to_others", Labels),
        TR.BlocksLostToOthers)
        << TR.Name;
    EXPECT_DOUBLE_EQ(Sink.Metrics.gaugeValue("tenant.miss_rate", Labels),
                     TR.missRate())
        << TR.Name;
  }

  // The scope=global series carries the merged manager counters.
  const telemetry::MetricLabels Global = {{"mode", R.ModeLabel},
                                          {"scope", "global"}};
  EXPECT_EQ(Sink.Metrics.counterValue("cache.accesses", Global),
            R.Global.Accesses);
  EXPECT_EQ(Sink.Metrics.counterValue("cache.evictions.blocks", Global),
            R.Global.EvictedBlocks);
}

TEST(TelemetryInvariantTest, SerialAndParallelSweepsExportIdenticalMetrics) {
  SweepEngine Engine = SweepEngine::forScaledTable1(0.04);
  const std::vector<GranularitySpec> Specs = {
      GranularitySpec::flush(), GranularitySpec::units(8),
      GranularitySpec::fine()};

  // The serial per-config grid is the reference; every (mode, workers)
  // run of the front door must export the same CSV and JSON-lines bytes.
  auto Export = [&](multisweep::SweepMode Mode, unsigned Threads) {
    telemetry::TelemetrySink Sink(1 << 16);
    SimConfig Config;
    Config.Telemetry = &Sink;
    Engine.setNumThreads(Threads);
    multisweep::runSweepGrid(Engine, makeSweepGrid(Specs, {2.0, 8.0}, Config),
                             {Mode, nullptr});
    return std::make_pair(telemetry::renderMetricsCsv(Sink.Metrics),
                          telemetry::renderMetricsJsonLines(Sink.Metrics));
  };
  const auto Serial = Export(multisweep::SweepMode::PerConfig, 1);
  EXPECT_FALSE(Serial.first.empty());
  for (multisweep::SweepMode Mode :
       {multisweep::SweepMode::PerConfig, multisweep::SweepMode::OnePass}) {
    SCOPED_TRACE(multisweep::sweepModeName(Mode));
    EXPECT_EQ(Export(Mode, 4), Serial);
  }
}
