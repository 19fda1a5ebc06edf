//===- tests/multisweep/MultiSweepTest.cpp - One-pass sweep tests ---------===//
//
// The correctness contract of src/multisweep: every report and metrics
// export from one-pass mode is byte-identical to dense per-config replay.
// These tests pin that contract for golden figure grids, exercise the
// plan's fallback and dedup routing, drive mid-pass cancellation and
// deadlines through the service execution path, and run seeded-corruption
// audits over the compact per-config state.
//
//===----------------------------------------------------------------------===//

#include "multisweep/MultiConfigEngine.h"

#include "check/CacheAuditor.h"
#include "service/Job.h"
#include "telemetry/Exporters.h"
#include "trace/TraceGenerator.h"
#include "gtest/gtest.h"

#include <chrono>
#include <thread>
#include <vector>

using namespace ccsim;
using namespace ccsim::multisweep;

namespace {

/// Full-field CacheStats comparison; double fields compare exactly (the
/// contract is bit-identity, not tolerance).
void expectStatsEqual(const CacheStats &A, const CacheStats &B,
                      const std::string &Where) {
  SCOPED_TRACE(Where);
  EXPECT_EQ(A.Accesses, B.Accesses);
  EXPECT_EQ(A.Hits, B.Hits);
  EXPECT_EQ(A.Misses, B.Misses);
  EXPECT_EQ(A.ColdMisses, B.ColdMisses);
  EXPECT_EQ(A.CapacityMisses, B.CapacityMisses);
  EXPECT_EQ(A.TooBigMisses, B.TooBigMisses);
  EXPECT_EQ(A.Inserts, B.Inserts);
  EXPECT_EQ(A.InsertedBytes, B.InsertedBytes);
  EXPECT_EQ(A.EvictionInvocations, B.EvictionInvocations);
  EXPECT_EQ(A.EvictedBlocks, B.EvictedBlocks);
  EXPECT_EQ(A.EvictedBytes, B.EvictedBytes);
  EXPECT_EQ(A.UnitsFlushed, B.UnitsFlushed);
  EXPECT_EQ(A.PreemptiveFlushes, B.PreemptiveFlushes);
  EXPECT_EQ(A.WastedBytes, B.WastedBytes);
  EXPECT_EQ(A.LinksCreated, B.LinksCreated);
  EXPECT_EQ(A.InterUnitLinksCreated, B.InterUnitLinksCreated);
  EXPECT_EQ(A.SelfLinksCreated, B.SelfLinksCreated);
  EXPECT_EQ(A.UnlinkedLinks, B.UnlinkedLinks);
  EXPECT_EQ(A.UnlinkOperations, B.UnlinkOperations);
  EXPECT_EQ(A.LinksDestroyed, B.LinksDestroyed);
  EXPECT_EQ(A.MissOverhead, B.MissOverhead);
  EXPECT_EQ(A.EvictionOverhead, B.EvictionOverhead);
  EXPECT_EQ(A.UnlinkOverhead, B.UnlinkOverhead);
  EXPECT_EQ(A.BackPointerBytesPeak, B.BackPointerBytesPeak);
  EXPECT_EQ(A.BackPointerBytesSum, B.BackPointerBytesSum);
}

void expectSuitesEqual(const std::vector<SuiteResult> &A,
                       const std::vector<SuiteResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].PolicyLabel, B[I].PolicyLabel);
    EXPECT_EQ(A[I].PressureFactor, B[I].PressureFactor);
    expectStatsEqual(A[I].Combined, B[I].Combined,
                     "combined " + A[I].PolicyLabel);
    ASSERT_EQ(A[I].PerBenchmark.size(), B[I].PerBenchmark.size());
    for (size_t P = 0; P < A[I].PerBenchmark.size(); ++P) {
      const SimResult &X = A[I].PerBenchmark[P];
      const SimResult &Y = B[I].PerBenchmark[P];
      EXPECT_EQ(X.BenchmarkName, Y.BenchmarkName);
      EXPECT_EQ(X.PolicyName, Y.PolicyName);
      EXPECT_EQ(X.CapacityBytes, Y.CapacityBytes);
      expectStatsEqual(X.Stats, Y.Stats,
                       A[I].PolicyLabel + "/" + X.BenchmarkName);
    }
  }
}

std::vector<SweepJob> gridOf(const std::vector<GranularitySpec> &Specs,
                             const std::vector<double> &Pressures) {
  SimConfig Base;
  Base.Audit = AuditLevel::Off; // Pin the plan even in paranoid builds.
  return makeSweepGrid(Specs, Pressures, Base);
}

/// The dense reference: the grid front door in per-config mode.
std::vector<SuiteResult> perConfig(const SweepEngine &Engine,
                                   const std::vector<SweepJob> &Grid) {
  return runSweepGrid(Engine, Grid, {SweepMode::PerConfig, nullptr});
}

/// Every edge and source list of \p Topology, by id.
std::vector<std::vector<SuperblockId>>
topologyLists(const LinkTopology &Topology) {
  std::vector<std::vector<SuperblockId>> Lists;
  for (SuperblockId Id = 0; Id < Topology.size(); ++Id) {
    const std::span<const SuperblockId> Edges = Topology.edgesOf(Id);
    const std::span<const SuperblockId> Sources = Topology.sourcesOf(Id);
    Lists.emplace_back(Edges.begin(), Edges.end());
    Lists.emplace_back(Sources.begin(), Sources.end());
  }
  return Lists;
}

Trace scaledTrace(const char *Name, double Factor, uint64_t Seed = 42) {
  const WorkloadModel *M = findWorkload(Name);
  return TraceGenerator::generateBenchmark(scaledWorkload(*M, Factor), Seed);
}

} // namespace

//===----------------------------------------------------------------------===//
// Mode parsing
//===----------------------------------------------------------------------===//

TEST(MultiSweepModeTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parseSweepMode("one-pass"), SweepMode::OnePass);
  EXPECT_EQ(parseSweepMode("per-config"), SweepMode::PerConfig);
  EXPECT_EQ(parseSweepMode("onepass"), std::nullopt);
  EXPECT_EQ(parseSweepMode(""), std::nullopt);
  EXPECT_STREQ(sweepModeName(SweepMode::OnePass), "one-pass");
  EXPECT_STREQ(sweepModeName(SweepMode::PerConfig), "per-config");
}

//===----------------------------------------------------------------------===//
// Lattice planning: shared / duplicate / fallback routing
//===----------------------------------------------------------------------===//

TEST(MultiSweepPlanTest, StatelessGridIsFullyShared) {
  const auto Grid = gridOf(standardGranularitySweep(), {2.0, 8.0});
  const LatticePlan Plan = planLattice(Grid);
  EXPECT_EQ(Plan.numShared(), Grid.size());
  EXPECT_EQ(Plan.numDuplicates(), 0u);
  EXPECT_EQ(Plan.numFallbacks(), 0u);
}

TEST(MultiSweepPlanTest, AuditedPointFallsBack) {
  auto Grid = gridOf({GranularitySpec::flush(), GranularitySpec::fine()},
                     {2.0});
  Grid[1].Config.Audit = AuditLevel::Evictions;
  const LatticePlan Plan = planLattice(Grid);
  EXPECT_EQ(Plan.Points[0].Kind, LatticePlan::Route::Shared);
  ASSERT_EQ(Plan.Points[1].Kind, LatticePlan::Route::Fallback);
  EXPECT_NE(Plan.Points[1].FallbackReason.find("audit"), std::string::npos)
      << Plan.Points[1].FallbackReason;
}

TEST(MultiSweepPlanTest, DuplicatePointSharesItsRepresentativeEngine) {
  auto Grid = gridOf({GranularitySpec::units(8)}, {2.0});
  Grid.push_back(Grid[0]); // Exact duplicate, no telemetry.
  const LatticePlan Plan = planLattice(Grid);
  EXPECT_EQ(Plan.numShared(), 1u);
  ASSERT_EQ(Plan.Points[1].Kind, LatticePlan::Route::Duplicate);
  EXPECT_EQ(Plan.Points[1].Representative, 0u);
}

TEST(MultiSweepPlanTest, DuplicatesAreFoundWhateverTheRoute) {
  // An audited point replays densely in both modes; its twin copies it
  // instead of replaying again. Per-config mode routes every other point
  // to dense replay.
  auto Grid = gridOf({GranularitySpec::flush(), GranularitySpec::fine()},
                     {2.0});
  Grid[1].Config.Audit = AuditLevel::Evictions;
  Grid.push_back(Grid[1]);
  for (SweepMode Mode : {SweepMode::OnePass, SweepMode::PerConfig}) {
    SCOPED_TRACE(sweepModeName(Mode));
    const LatticePlan Plan = planLattice(Grid, Mode);
    EXPECT_EQ(Plan.numShared(), Mode == SweepMode::OnePass ? 1u : 0u);
    EXPECT_EQ(Plan.numFallbacks(), Mode == SweepMode::OnePass ? 1u : 2u);
    ASSERT_EQ(Plan.Points[2].Kind, LatticePlan::Route::Duplicate);
    EXPECT_EQ(Plan.Points[2].Representative, 1u);
  }
}

TEST(MultiSweepPlanTest, TelemetryPointsAreNeverDeduplicated) {
  telemetry::TelemetrySink Sink;
  auto Grid = gridOf({GranularitySpec::units(8)}, {2.0});
  Grid.push_back(Grid[0]);
  Grid[0].Config.Telemetry = &Sink;
  Grid[1].Config.Telemetry = &Sink;
  const LatticePlan Plan = planLattice(Grid);
  EXPECT_EQ(Plan.numShared(), 2u)
      << "telemetry-carrying points record observable metrics and must "
         "keep their own engines";
}

//===----------------------------------------------------------------------===//
// Grid validation
//===----------------------------------------------------------------------===//

TEST(MultiSweepValidateTest, EmptyLatticeIsRejectedWithAMessage) {
  const std::string Error = validateSweepGrid({});
  EXPECT_NE(Error.find("empty"), std::string::npos) << Error;
}

TEST(MultiSweepValidateTest, DegeneratePointIsNamedByIndex) {
  auto Grid = gridOf({GranularitySpec::flush(), GranularitySpec::fine()},
                     {2.0});
  Grid[1].Config.PressureFactor = 0.0; // Invalid: no capacity rule left.
  Grid[1].Config.ExplicitCapacityBytes = 0;
  const std::string Error = validateSweepGrid(Grid);
  EXPECT_NE(Error.find("sweep point 1"), std::string::npos) << Error;
}

TEST(MultiSweepValidateTest, ServiceRejectsAnEmptySweepBatch) {
  service::SweepBatchJob Batch;
  Batch.Engine =
      std::make_shared<SweepEngine>(SweepEngine::forScaledTable1(0.01));
  const service::Job J(std::move(Batch));
  EXPECT_FALSE(J.validate().empty());
}

//===----------------------------------------------------------------------===//
// Byte-identity: one-pass vs per-config
//===----------------------------------------------------------------------===//

TEST(MultiSweepEquivalenceTest, OnePassMatchesPerConfigOnGoldenLattice) {
  // The fig6/7/8-shaped grid: the full granularity spectrum crossed with
  // a low- and a high-pressure point, over the whole scaled suite.
  const SweepEngine Engine = SweepEngine::forScaledTable1(0.05);
  const auto Grid = gridOf(standardGranularitySweep(), {2.0, 8.0});

  const std::vector<SuiteResult> Dense = perConfig(Engine, Grid);
  MultiSweepOptions Options;
  Options.Mode = SweepMode::OnePass;
  OnePassAccounting Accounting;
  const std::vector<SuiteResult> OnePass =
      runSweepGrid(Engine, Grid, Options, &Accounting);

  expectSuitesEqual(Dense, OnePass);
  EXPECT_GT(Accounting.DecodedAccesses, 0u);
  EXPECT_GT(Accounting.AllResidentShortcuts, 0u)
      << "hot blocks resident everywhere must ride the bitmask shortcut";
}

TEST(MultiSweepEquivalenceTest, OnePassMatchesPerConfigSmall) {
  // Small enough for the paranoid build (where every point falls back to
  // audited dense replay and the contract must still hold).
  const SweepEngine Engine = SweepEngine::forScaledTable1(0.02);
  const auto Grid = gridOf({GranularitySpec::flush(),
                            GranularitySpec::units(8),
                            GranularitySpec::fine()},
                           {2.0, 8.0});
  MultiSweepOptions Options;
  Options.Mode = SweepMode::OnePass;
  expectSuitesEqual(perConfig(Engine, Grid),
                    runSweepGrid(Engine, Grid, Options));
}

TEST(MultiSweepEquivalenceTest, MixedFallbackGridStaysByteIdentical) {
  // One audited point forces a dense fallback inside the one-pass run;
  // the other points stay shared. Results must not depend on the split.
  const SweepEngine Engine = SweepEngine::forScaledTable1(0.02);
  auto Grid = gridOf({GranularitySpec::flush(), GranularitySpec::units(8),
                      GranularitySpec::fine()},
                     {4.0});
  Grid[1].Config.Audit = AuditLevel::Evictions;

  const LatticePlan Plan = planLattice(Grid);
  EXPECT_EQ(Plan.numFallbacks(), 1u);

  std::vector<std::string> Lines;
  MultiSweepOptions Options;
  Options.Mode = SweepMode::OnePass;
  Options.Log = [&Lines](const std::string &L) { Lines.push_back(L); };
  expectSuitesEqual(perConfig(Engine, Grid),
                    runSweepGrid(Engine, Grid, Options));
  ASSERT_FALSE(Lines.empty());
  EXPECT_NE(Lines.front().find("falls back"), std::string::npos)
      << Lines.front();
}

TEST(MultiSweepEquivalenceTest, DuplicateGridPointsSimulateOnce) {
  const SweepEngine Engine = SweepEngine::forScaledTable1(0.02);
  auto Grid = gridOf({GranularitySpec::units(8)}, {2.0, 8.0});
  Grid.push_back(Grid[0]); // Duplicate of the pressure-2 point.

  MultiSweepOptions Options;
  Options.Mode = SweepMode::OnePass;
  const std::vector<SuiteResult> Dense = perConfig(Engine, Grid);
  const std::vector<SuiteResult> OnePass = runSweepGrid(Engine, Grid, Options);
  expectSuitesEqual(Dense, OnePass);
  // The duplicate's results are the representative's, in both backends.
  expectStatsEqual(Dense[2].Combined, Dense[0].Combined, "dense duplicate");
  expectStatsEqual(OnePass[2].Combined, OnePass[0].Combined,
                   "one-pass duplicate");
}

TEST(MultiSweepEquivalenceTest, MetricsRegistryExportsAreByteIdentical) {
  const SweepEngine Engine = SweepEngine::forScaledTable1(0.02);
  const std::vector<GranularitySpec> Specs = {GranularitySpec::flush(),
                                              GranularitySpec::fine()};

  telemetry::TelemetrySink DenseSink, OnePassSink;
  auto DenseGrid = gridOf(Specs, {2.0});
  for (SweepJob &Point : DenseGrid)
    Point.Config.Telemetry = &DenseSink;
  auto OnePassGrid = gridOf(Specs, {2.0});
  for (SweepJob &Point : OnePassGrid)
    Point.Config.Telemetry = &OnePassSink;

  MultiSweepOptions Dense, OnePass;
  Dense.Mode = SweepMode::PerConfig;
  OnePass.Mode = SweepMode::OnePass;
  expectSuitesEqual(runSweepGrid(Engine, DenseGrid, Dense),
                    runSweepGrid(Engine, OnePassGrid, OnePass));

  EXPECT_EQ(telemetry::renderMetricsCsv(DenseSink.Metrics),
            telemetry::renderMetricsCsv(OnePassSink.Metrics));
  EXPECT_EQ(telemetry::renderMetricsJsonLines(DenseSink.Metrics),
            telemetry::renderMetricsJsonLines(OnePassSink.Metrics));
}

//===----------------------------------------------------------------------===//
// Deferred-accounting front door (CacheEngine hooks)
//===----------------------------------------------------------------------===//

TEST(MultiSweepDeferredTest, DeferredProtocolMatchesDenseReplay) {
  // Drive one engine through access() and a twin through the deferred
  // front door over the same thrashing stream, settling samples once per
  // miss as the shared pass does; every counter must land
  // bit-identically.
  const Trace T = scaledTrace("crafty", 0.02);
  CacheEngineConfig EC;
  EC.CapacityBytes = T.maxCacheBytes() / 4;

  CacheEngine Dense(EC, makePolicy(GranularitySpec::fine()));
  for (SuperblockId Id : T.Accesses)
    Dense.access(T.recordFor(Id));

  CacheEngine Deferred(EC, makePolicy(GranularitySpec::fine()));
  uint64_t SampledThrough = 0;
  for (size_t I = 0; I < T.Accesses.size(); ++I) {
    const SuperblockId Id = T.Accesses[I];
    if (Deferred.cache().contains(Id))
      continue;
    Deferred.addDeferredBackPointerSamples(I - SampledThrough);
    Deferred.deferredMiss(T.recordFor(Id));
    SampledThrough = I; // Access I is sampled at the post-miss size.
  }
  Deferred.addDeferredBackPointerSamples(T.Accesses.size() - SampledThrough);
  Deferred.settleDeferredAccesses(T.Accesses.size());

  expectStatsEqual(Dense.stats(), Deferred.stats(), "deferred vs dense");
}

namespace {

/// Four 100-byte blocks over a 200-byte cache (pressure 2). Under fine
/// FIFO the stream misses on accesses 0-1 and 3-5; the last miss brings
/// the back-pointer table to its peak (3 links), so a settlement that
/// dropped the final access would change both sampled fields.
Trace backPointerCadenceTrace() {
  Trace T;
  T.Name = "cadence";
  T.Blocks.resize(4);
  for (SuperblockDef &B : T.Blocks)
    B.SizeBytes = 100;
  T.Blocks[0].OutEdges = {1};
  T.Blocks[1].OutEdges = {0};
  T.Blocks[3].OutEdges = {0, 0, 3};
  T.Accesses = {0, 1, 1, 2, 3, 0};
  return T;
}

} // namespace

TEST(MultiSweepDeferredTest, ConsecutiveAndFinalMissesSettleLikeDense) {
  const Trace T = backPointerCadenceTrace();
  ASSERT_TRUE(T.validate());
  const auto Grid = gridOf({GranularitySpec::fine(), GranularitySpec::units(2)},
                           {2.0});
  const LatticePlan Plan = planLattice(Grid);
  ASSERT_EQ(Plan.numShared(), Grid.size());
  MultiConfigEngine Pass(T, Grid, Plan);
  const std::vector<SimResult> OnePass = Pass.run();
  for (size_t J = 0; J < Grid.size(); ++J) {
    const SimResult Dense =
        sim::run(T, makePolicy(Grid[J].Spec), Grid[J].Config);
    expectStatsEqual(OnePass[J].Stats, Dense.Stats, Grid[J].Spec.label());
  }
  // Fine FIFO: samples 0, 2, 2, 0, 1, 3 links of 16 bytes each.
  const CacheStats &Fine = OnePass[0].Stats;
  EXPECT_EQ(Fine.Misses, 5u);
  EXPECT_EQ(Fine.BackPointerBytesPeak, 3 * LinkGraph::BytesPerBackPointer);
  EXPECT_EQ(Fine.BackPointerBytesSum,
            static_cast<double>(8 * LinkGraph::BytesPerBackPointer));
}

//===----------------------------------------------------------------------===//
// Cancellation and deadlines through the service execution path
//===----------------------------------------------------------------------===//

namespace {

/// A sweep batch that reliably runs for a while: high pressure thrashes
/// every engine.
service::Job slowSweepBatch() {
  service::SweepBatchJob Batch;
  Batch.Engine =
      std::make_shared<SweepEngine>(SweepEngine::forScaledTable1(0.05));
  Batch.Jobs = gridOf(standardGranularitySweep(), {10.0});
  Batch.Mode = SweepMode::OnePass;
  return service::Job(std::move(Batch));
}

} // namespace

TEST(MultiSweepServiceTest, CancelStopsAOnePassSweepMidPass) {
  CancelToken Token;
  std::thread Controller([&Token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Token.requestCancel();
  });
  const service::JobOutcome O = service::executeJob(slowSweepBatch(), &Token);
  Controller.join();
  EXPECT_EQ(O.Status, service::JobStatus::Cancelled) << O.Error;
  EXPECT_TRUE(O.Suite.empty()) << "partial results must be discarded";
}

TEST(MultiSweepServiceTest, DeadlineStopsAOnePassSweepMidPass) {
  CancelToken Token;
  std::thread Controller([&Token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Token.setDeadline(std::chrono::steady_clock::now());
  });
  const service::JobOutcome O = service::executeJob(slowSweepBatch(), &Token);
  Controller.join();
  EXPECT_EQ(O.Status, service::JobStatus::TimedOut) << O.Error;
  EXPECT_TRUE(O.Suite.empty());
}

//===----------------------------------------------------------------------===//
// Audits of the compact per-config state
//===----------------------------------------------------------------------===//

TEST(MultiSweepAuditTest, SharedEnginesAuditCleanMidPassAndSettled) {
  const Trace T = scaledTrace("crafty", 0.02);
  const auto Grid = gridOf({GranularitySpec::flush(),
                            GranularitySpec::units(8),
                            GranularitySpec::fine()},
                           {4.0});
  const LatticePlan Plan = planLattice(Grid);
  MultiConfigEngine Pass(T, Grid, Plan);
  // Structural audit before any access: empty caches are clean.
  EXPECT_TRUE(Pass.auditSharedStructures().clean())
      << Pass.auditSharedStructures().render();
  Pass.run();
  EXPECT_TRUE(Pass.auditSharedStructures().clean())
      << Pass.auditSharedStructures().render();
  EXPECT_TRUE(Pass.auditSettled().clean()) << Pass.auditSettled().render();
}

TEST(MultiSweepAuditTest, SharedEnginesShareOneTopologyAndAuditMidPass) {
  const Trace T = scaledTrace("crafty", 0.02);
  // The state at the middle of a pass is the state after its first half.
  Trace Half = T;
  Half.Accesses.resize(T.Accesses.size() / 2);
  const auto Grid = gridOf({GranularitySpec::flush(),
                            GranularitySpec::units(8),
                            GranularitySpec::fine()},
                           {2.0, 6.0});
  const LatticePlan Plan = planLattice(Grid);
  MultiConfigEngine Pass(Half, Grid, Plan);
  Pass.run();
  ASSERT_EQ(Pass.numSharedEngines(), Grid.size());
  const LinkTopology &Topology = Pass.sharedEngine(0).links().topology();
  EXPECT_EQ(&Topology, &Pass.topology());
  EXPECT_TRUE(Topology.readOnly());
  EXPECT_EQ(Topology.size(), T.numSuperblocks());
  for (size_t I = 1; I < Pass.numSharedEngines(); ++I)
    EXPECT_EQ(&Pass.sharedEngine(I).links().topology(), &Topology)
        << "engine " << I;
  // Built from the block table before the pass and never written by it.
  EXPECT_EQ(topologyLists(Topology),
            topologyLists(LinkTopology::fromBlocks(T.Blocks)));
  EXPECT_TRUE(Pass.auditSharedStructures().clean())
      << Pass.auditSharedStructures().render();

  // A standalone engine keeps a private topology.
  CacheEngineConfig EC;
  const CacheEngine Standalone(EC, makePolicy(GranularitySpec::fine()));
  EXPECT_NE(&Standalone.links().topology(), &Topology);
}

TEST(MultiSweepTopologyTest, TwoThreadsReplayThroughOneReadOnlyTopology) {
  // A pass's topology is built with the pass and never written during
  // it: one thread runs the pass while another replays two more policies
  // through engines whose graphs read that same topology. Every result
  // matches its serial run, and the topology still equals a fresh build
  // from the block table: nothing learned into it, no epoch marks (TSan,
  // in CI, would see any write racing the other thread's reads).
  const Trace T = scaledTrace("gap", 0.02);
  const auto Grid = gridOf({GranularitySpec::flush(),
                            GranularitySpec::units(8),
                            GranularitySpec::fine()},
                           {2.0, 6.0});
  const LatticePlan Plan = planLattice(Grid);
  MultiConfigEngine Pass(T, Grid, Plan);
  const LinkTopology &Topology = Pass.topology();
  SimConfig Config;
  Config.PressureFactor = 4.0;
  const GranularitySpec DenseSpecs[2] = {GranularitySpec::units(4),
                                         GranularitySpec::units(64)};

  std::vector<SimResult> PassResults;
  CacheStats Dense[2];
  std::thread Runner([&] { PassResults = Pass.run(); });
  std::thread Reader([&] {
    for (int I = 0; I < 2; ++I) {
      CacheEngineConfig EC;
      EC.CapacityBytes = sim::capacityFor(T, Config);
      EC.Topology = &Topology;
      CacheEngine Engine(EC, makePolicy(DenseSpecs[I]));
      for (SuperblockId Id : T.Accesses)
        Engine.access(T.recordFor(Id));
      Dense[I] = Engine.stats();
    }
  });
  Runner.join();
  Reader.join();

  ASSERT_EQ(PassResults.size(), Grid.size());
  for (size_t J = 0; J < Grid.size(); ++J)
    expectStatsEqual(PassResults[J].Stats,
                     sim::run(T, Grid[J].Spec, Grid[J].Config).Stats,
                     "pass point " + std::to_string(J));
  for (int I = 0; I < 2; ++I)
    expectStatsEqual(Dense[I], sim::run(T, DenseSpecs[I], Config).Stats,
                     "reader engine " + std::to_string(I));
  EXPECT_EQ(topologyLists(Topology),
            topologyLists(LinkTopology::fromBlocks(T.Blocks)));
  EXPECT_TRUE(Topology.checkMirror());
}

TEST(MultiSweepAuditTest, SeededCorruptionOfCompactStateIsCaught) {
  const Trace T = scaledTrace("crafty", 0.02);
  const auto Grid = gridOf({GranularitySpec::units(8)}, {4.0});
  const LatticePlan Plan = planLattice(Grid);
  MultiConfigEngine Pass(T, Grid, Plan);
  Pass.run();
  ASSERT_EQ(Pass.numSharedEngines(), 1u);

  // Forge a residency-flag drop in the captured compact state: the
  // auditor must name the exact rule.
  check::CodeCacheState Cache =
      check::captureCodeCache(Pass.sharedEngine(0).cache());
  ASSERT_FALSE(Cache.Lookup.empty());
  Cache.Lookup.pop_back();
  check::AuditReport CacheReport;
  check::checkCodeCache(Cache, CacheReport);
  EXPECT_TRUE(CacheReport.has(check::AuditRule::CacheResidencyFlagMismatch));

  // Forge a hit-counter drift in the settled stats: the conservation
  // identity (Accesses == Hits + Misses) must fire.
  check::StatsState Stats = check::captureStats(Pass.sharedEngine(0));
  Stats.Stats.Hits += 1;
  check::AuditReport StatsReport;
  check::checkStats(Stats, StatsReport);
  EXPECT_TRUE(StatsReport.has(check::AuditRule::StatsAccessSplitMismatch));
}
