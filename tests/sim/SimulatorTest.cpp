//===- tests/sim/SimulatorTest.cpp - Trace-driven simulator tests ---------===//

#include "sim/Simulator.h"

#include "trace/TraceGenerator.h"
#include "gtest/gtest.h"

using namespace ccsim;

namespace {

Trace scaledTrace(const char *Name, double Factor, uint64_t Seed = 42) {
  const WorkloadModel *M = findWorkload(Name);
  return TraceGenerator::generateBenchmark(scaledWorkload(*M, Factor), Seed);
}

} // namespace

TEST(SimulatorTest, CapacityFromPressure) {
  Trace T = scaledTrace("gzip", 0.5);
  SimConfig C;
  C.PressureFactor = 2.0;
  EXPECT_EQ(sim::capacityFor(T, C), T.maxCacheBytes() / 2);
  C.PressureFactor = 10.0;
  EXPECT_NEAR(static_cast<double>(sim::capacityFor(T, C)),
              static_cast<double>(T.maxCacheBytes()) / 10.0, 1.0);
}

TEST(SimulatorTest, ExplicitCapacityOverrides) {
  Trace T = scaledTrace("gzip", 0.5);
  SimConfig C;
  C.PressureFactor = 2.0;
  C.ExplicitCapacityBytes = 12345;
  EXPECT_EQ(sim::capacityFor(T, C), 12345u);
}

TEST(SimulatorTest, ValidateForBoundsTheCacheAThirtyTwoBitSlotCanPlace) {
  constexpr uint64_t Limit = CodeCache::MaxCapacityBytes;
  SimConfig C;
  C.ExplicitCapacityBytes = Limit;
  EXPECT_EQ(C.validate(), "");
  EXPECT_EQ(C.validateFor(~uint64_t{0}), ""); // Explicit wins.
  C.ExplicitCapacityBytes = Limit + 1;
  EXPECT_NE(C.validate().find("cache limit"), std::string::npos);
  EXPECT_EQ(C.validateFor(1000), C.validate());

  // Derived: two 0xFFFFFFFF-byte blocks at pressure 2 need a 2^32 - 1
  // byte cache, one byte too many; slightly more pressure fits.
  C.ExplicitCapacityBytes = 0;
  const uint64_t TwoHugeBlocks = 2 * uint64_t{0xFFFFFFFF};
  C.PressureFactor = 2.0;
  EXPECT_NE(C.validateFor(TwoHugeBlocks).find("caches are limited"),
            std::string::npos);
  EXPECT_NE(C.validateFor(~uint64_t{0}).find("caches are limited"),
            std::string::npos);
  C.PressureFactor = 2.000001;
  EXPECT_EQ(C.validateFor(TwoHugeBlocks), "");
  EXPECT_LE(sim::capacityFor(TwoHugeBlocks, C), Limit);
  // The config's own errors come first.
  C.PressureFactor = 0.5;
  EXPECT_EQ(C.validateFor(TwoHugeBlocks), C.validate());
}

TEST(SimulatorTest, RunCountsEveryAccess) {
  Trace T = scaledTrace("mcf", 1.0);
  SimConfig C;
  C.PressureFactor = 2.0;
  const SimResult R = sim::run(T, GranularitySpec::fine(), C);
  EXPECT_EQ(R.Stats.Accesses, T.numAccesses());
  EXPECT_EQ(R.BenchmarkName, T.Name);
  EXPECT_EQ(R.PolicyName, "FIFO");
  EXPECT_EQ(R.MaxCacheBytes, T.maxCacheBytes());
}

TEST(SimulatorTest, UnboundedCacheHasOnlyColdMisses) {
  // A cache as large as maxCache never evicts: misses == distinct blocks.
  Trace T = scaledTrace("vpr", 0.5);
  SimConfig C;
  C.ExplicitCapacityBytes = T.maxCacheBytes();
  const SimResult R = sim::run(T, GranularitySpec::fine(), C);
  EXPECT_EQ(R.Stats.Misses, T.numSuperblocks());
  EXPECT_EQ(R.Stats.CapacityMisses, 0u);
  EXPECT_EQ(R.Stats.EvictionInvocations, 0u);
}

TEST(SimulatorTest, PressureRaisesMissRate) {
  Trace T = scaledTrace("crafty", 0.3);
  SimConfig Low, High;
  Low.PressureFactor = 2.0;
  High.PressureFactor = 10.0;
  const double MissLow =
      sim::run(T, GranularitySpec::fine(), Low).Stats.missRate();
  const double MissHigh =
      sim::run(T, GranularitySpec::fine(), High).Stats.missRate();
  EXPECT_GT(MissHigh, MissLow);
}

TEST(SimulatorTest, FlushMissesAtLeastFine) {
  // Monotonicity at the extremes (the paper's Figure 6 ordering).
  for (const char *Name : {"gzip", "crafty", "winzip"}) {
    Trace T = scaledTrace(Name, 0.2);
    SimConfig C;
    C.PressureFactor = 4.0;
    const double FlushMiss =
        sim::run(T, GranularitySpec::flush(), C).Stats.missRate();
    const double FineMiss =
        sim::run(T, GranularitySpec::fine(), C).Stats.missRate();
    EXPECT_GE(FlushMiss, FineMiss * 0.999) << Name;
  }
}

TEST(SimulatorTest, ChainingDisabledProducesNoLinks) {
  Trace T = scaledTrace("gap", 0.3);
  SimConfig C;
  C.PressureFactor = 4.0;
  C.EnableChaining = false;
  const SimResult R = sim::run(T, GranularitySpec::units(8), C);
  EXPECT_EQ(R.Stats.LinksCreated, 0u);
  EXPECT_DOUBLE_EQ(R.Stats.UnlinkOverhead, 0.0);
}

TEST(SimulatorTest, CustomCostModelPropagates) {
  Trace T = scaledTrace("mcf", 0.5);
  SimConfig C;
  C.PressureFactor = 4.0;
  C.Costs = CostModel(); // defaults
  const SimResult Base = sim::run(T, GranularitySpec::fine(), C);
  C.Costs.MissBase *= 2.0;
  C.Costs.MissPerByte *= 2.0;
  const SimResult Doubled = sim::run(T, GranularitySpec::fine(), C);
  EXPECT_NEAR(Doubled.Stats.MissOverhead, 2.0 * Base.Stats.MissOverhead,
              1e-6 * Base.Stats.MissOverhead);
}

TEST(SimulatorTest, EngineConfigCarriesEveryEngineField) {
  // The one trace-replay recipe: every SimConfig field that shapes an
  // engine, plus the trace's read-only topology, reaches the engine
  // config. Defaults would hide a dropped field, so none is left default
  // (a copy that forgot chaining or the costs once audited a different
  // engine than the replay it claimed to check).
  const Trace T = scaledTrace("gzip", 0.05);
  const LinkTopology Topology = LinkTopology::fromBlocks(T.Blocks);
  telemetry::TelemetrySink Sink(16);
  SimConfig C;
  C.ExplicitCapacityBytes = 12345;
  C.Costs.EvictionPerByte = 1.25;
  C.Costs.EvictionBase = 2.5;
  C.Costs.MissPerByte = 3.75;
  C.Costs.MissBase = 5.0;
  C.Costs.UnlinkPerLink = 6.25;
  C.Costs.UnlinkBase = 7.5;
  C.EnableChaining = false;
  C.Telemetry = &Sink;

  const CacheEngineConfig EC =
      sim::engineConfig(C, sim::capacityFor(T, C), Topology);
  EXPECT_EQ(EC.CapacityBytes, 12345u);
  EXPECT_EQ(EC.Costs.EvictionPerByte, 1.25);
  EXPECT_EQ(EC.Costs.EvictionBase, 2.5);
  EXPECT_EQ(EC.Costs.MissPerByte, 3.75);
  EXPECT_EQ(EC.Costs.MissBase, 5.0);
  EXPECT_EQ(EC.Costs.UnlinkPerLink, 6.25);
  EXPECT_EQ(EC.Costs.UnlinkBase, 7.5);
  EXPECT_FALSE(EC.EnableChaining);
  EXPECT_EQ(EC.Telemetry, &Sink);
  EXPECT_EQ(EC.Topology, &Topology);
  // What a runner owns is its own to add.
  EXPECT_EQ(EC.ContentIndex, nullptr);
  EXPECT_FALSE(EC.OnEviction);

  // And the engine sim::run builds from it runs with those fields.
  C.Telemetry = nullptr;
  const SimResult R = sim::run(T, GranularitySpec::units(8), C);
  EXPECT_EQ(R.CapacityBytes, 12345u);
  EXPECT_EQ(R.Stats.LinksCreated, 0u);
  ASSERT_EQ(R.Stats.TooBigMisses, 0u);
  const double Eq3 = 3.75 * static_cast<double>(R.Stats.InsertedBytes) +
                     5.0 * static_cast<double>(R.Stats.Misses);
  EXPECT_NEAR(R.Stats.MissOverhead, Eq3, 1e-9 * Eq3);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  Trace T = scaledTrace("twolf", 0.3);
  SimConfig C;
  C.PressureFactor = 6.0;
  const SimResult A = sim::run(T, GranularitySpec::units(8), C);
  const SimResult B = sim::run(T, GranularitySpec::units(8), C);
  EXPECT_EQ(A.Stats.Misses, B.Stats.Misses);
  EXPECT_EQ(A.Stats.EvictionInvocations, B.Stats.EvictionInvocations);
  EXPECT_DOUBLE_EQ(A.Stats.UnlinkOverhead, B.Stats.UnlinkOverhead);
}

TEST(ExecutionTimeModelTest, TotalAndReduction) {
  ExecutionTimeModel Model;
  Model.InstructionsPerDispatch = 1000.0;
  SimResult A, B;
  A.Stats.Accesses = 100;
  A.Stats.MissOverhead = 50000.0;
  B.Stats.Accesses = 100;
  B.Stats.MissOverhead = 20000.0;
  EXPECT_DOUBLE_EQ(Model.totalInstructions(A, false), 150000.0);
  EXPECT_DOUBLE_EQ(Model.totalInstructions(B, false), 120000.0);
  EXPECT_NEAR(Model.reductionFraction(A, B, false), 0.2, 1e-12);
}

TEST(ExecutionTimeModelTest, LinkTermSelected) {
  ExecutionTimeModel Model;
  Model.InstructionsPerDispatch = 0.0;
  SimResult A;
  A.Stats.Accesses = 1;
  A.Stats.MissOverhead = 10.0;
  A.Stats.UnlinkOverhead = 5.0;
  EXPECT_DOUBLE_EQ(Model.totalInstructions(A, false), 10.0);
  EXPECT_DOUBLE_EQ(Model.totalInstructions(A, true), 15.0);
}
