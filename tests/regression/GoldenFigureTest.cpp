//===- tests/regression/GoldenFigureTest.cpp - Pinned figure numbers ------===//
//
// Bit-exact regression pins for the quantities behind the paper's
// headline figures, on the small deterministic suite (forScaledTable1 at
// 0.05, default suite seed):
//
//   Figures 6/7  miss counts (miss rate = Misses / Accesses),
//   Figure 8     eviction invocation counts,
//
// at two pressures and three granularities. The values were produced by
// this repository and are not the paper's absolute numbers; they pin the
// implementation so any behavioral drift in the cache manager, policies,
// trace generator, or sweep plumbing fails loudly here. The same table is
// checked through the serial path (runSuite, one thread) and the grid
// front door (runSweepGrid, several workers, both sweep modes), so
// determinism across --jobs and --sweep-mode is part of the pin.
//
// If a change legitimately alters these numbers, rerun the suite and
// update the table in the same commit as the behavioral change.
//
//===----------------------------------------------------------------------===//

#include "sim/Sweep.h"

#include "multisweep/MultiConfigEngine.h"
#include "gtest/gtest.h"

#include <vector>

using namespace ccsim;

namespace {

struct GoldenRow {
  double Pressure;
  const char *PolicyLabel;
  uint64_t Accesses;
  uint64_t Misses;
  uint64_t EvictionInvocations;
  uint64_t EvictedBlocks;
};

// Generated with SweepEngine::forScaledTable1(0.05, DefaultSuiteSeed).
const GoldenRow kGolden[] = {
    {2.0, "FLUSH", 1469557ull, 60030ull, 3490ull, 58085ull},
    {2.0, "8-unit", 1469557ull, 45506ull, 6335ull, 43114ull},
    {2.0, "FIFO", 1469557ull, 43342ull, 11083ull, 40786ull},
    {8.0, "FLUSH", 1469557ull, 790291ull, 31466ull, 769308ull},
    {8.0, "8-unit", 1469557ull, 736595ull, 90181ull, 715455ull},
    {8.0, "FIFO", 1469557ull, 733859ull, 169898ull, 712710ull},
};

GranularitySpec specFor(const std::string &Label) {
  if (Label == "FLUSH")
    return GranularitySpec::flush();
  if (Label == "FIFO")
    return GranularitySpec::fine();
  return GranularitySpec::units(8);
}

const SweepEngine &goldenEngine() {
  static SweepEngine Engine =
      SweepEngine::forScaledTable1(0.05, DefaultSuiteSeed);
  return Engine;
}

void expectMatchesGolden(const GoldenRow &Want, const SuiteResult &Got) {
  EXPECT_EQ(Got.PolicyLabel, Want.PolicyLabel);
  EXPECT_EQ(Got.Combined.Accesses, Want.Accesses) << Want.PolicyLabel;
  EXPECT_EQ(Got.Combined.Misses, Want.Misses)
      << Want.PolicyLabel << " @ pressure " << Want.Pressure;
  EXPECT_EQ(Got.Combined.EvictionInvocations, Want.EvictionInvocations)
      << Want.PolicyLabel << " @ pressure " << Want.Pressure;
  EXPECT_EQ(Got.Combined.EvictedBlocks, Want.EvictedBlocks)
      << Want.PolicyLabel << " @ pressure " << Want.Pressure;
  // Figures 6/7 plot the miss rate, which is fully determined by the
  // pinned integers.
  EXPECT_DOUBLE_EQ(Got.Combined.missRate(),
                   static_cast<double>(Want.Misses) /
                       static_cast<double>(Want.Accesses));
}

} // namespace

TEST(GoldenFigureTest, SerialSuiteMatchesPinnedNumbers) {
  SweepEngine Engine = SweepEngine::forScaledTable1(0.05, DefaultSuiteSeed);
  Engine.setNumThreads(1);
  for (const GoldenRow &Row : kGolden) {
    SimConfig Config;
    Config.PressureFactor = Row.Pressure;
    expectMatchesGolden(Row,
                        Engine.runSuite(specFor(Row.PolicyLabel), Config));
  }
}

TEST(GoldenFigureTest, ParallelSweepMatchesPinnedNumbers) {
  SweepEngine Engine = SweepEngine::forScaledTable1(0.05, DefaultSuiteSeed);
  Engine.setNumThreads(4);

  // One flat grid covering the whole table, executed as a single parallel
  // batch in each sweep mode — the result must be bit-identical to the
  // serial runs above.
  std::vector<SweepJob> Jobs;
  for (const GoldenRow &Row : kGolden) {
    SimConfig Config;
    Config.PressureFactor = Row.Pressure;
    for (SweepJob &Job :
         makeSweepGrid({specFor(Row.PolicyLabel)}, {Row.Pressure}, Config))
      Jobs.push_back(Job);
  }
  for (multisweep::SweepMode Mode :
       {multisweep::SweepMode::PerConfig, multisweep::SweepMode::OnePass}) {
    SCOPED_TRACE(multisweep::sweepModeName(Mode));
    const std::vector<SuiteResult> Results =
        multisweep::runSweepGrid(Engine, Jobs, {Mode, nullptr});
    ASSERT_EQ(Results.size(), std::size(kGolden));
    for (size_t I = 0; I < Results.size(); ++I)
      expectMatchesGolden(kGolden[I], Results[I]);
  }
}

TEST(GoldenFigureTest, GranularityOrderingMatchesPaperShape) {
  // The qualitative claims of Figures 6 and 8 at each pinned pressure:
  // coarser granularity -> more misses, finer granularity -> more
  // eviction invocations.
  for (size_t Base = 0; Base < std::size(kGolden); Base += 3) {
    const GoldenRow &Flush = kGolden[Base];
    const GoldenRow &Units = kGolden[Base + 1];
    const GoldenRow &Fine = kGolden[Base + 2];
    EXPECT_GT(Flush.Misses, Units.Misses);
    EXPECT_GT(Units.Misses, Fine.Misses);
    EXPECT_LT(Flush.EvictionInvocations, Units.EvictionInvocations);
    EXPECT_LT(Units.EvictionInvocations, Fine.EvictionInvocations);
  }
}

TEST(GoldenFigureTest, RepeatedRunsAreBitIdentical) {
  // The shared engine (static) and a fresh engine agree: trace generation
  // and simulation have no hidden run-to-run state.
  SimConfig Config;
  Config.PressureFactor = 2.0;
  const SuiteResult A =
      goldenEngine().runSuite(GranularitySpec::units(8), Config);
  const SuiteResult B =
      goldenEngine().runSuite(GranularitySpec::units(8), Config);
  EXPECT_EQ(A.Combined.Misses, B.Combined.Misses);
  EXPECT_EQ(A.Combined.EvictionInvocations, B.Combined.EvictionInvocations);
  EXPECT_DOUBLE_EQ(A.Combined.MissOverhead, B.Combined.MissOverhead);
  EXPECT_DOUBLE_EQ(A.Combined.UnlinkOverhead, B.Combined.UnlinkOverhead);
}
