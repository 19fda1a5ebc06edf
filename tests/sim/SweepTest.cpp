//===- tests/sim/SweepTest.cpp - Suite sweep engine tests ------------------===//

#include "sim/Sweep.h"

#include "concurrent/ThreadPool.h"
#include "multisweep/MultiConfigEngine.h"
#include "gtest/gtest.h"

using namespace ccsim;

namespace {

/// One small engine shared by all tests in this file (trace generation
/// is the expensive part).
const SweepEngine &engine() {
  static SweepEngine Engine = SweepEngine::forScaledTable1(0.05);
  return Engine;
}

} // namespace

TEST(SweepTest, TracesCoverSuite) {
  EXPECT_EQ(engine().traces().size(), 20u);
  for (const Trace &T : engine().traces())
    EXPECT_TRUE(T.validate());
}

TEST(SweepTest, Equation1WeightingIsCounterSum) {
  SimConfig C;
  C.PressureFactor = 4.0;
  const SuiteResult R = engine().runSuite(GranularitySpec::units(8), C);
  uint64_t Accesses = 0, Misses = 0;
  for (const SimResult &B : R.PerBenchmark) {
    Accesses += B.Stats.Accesses;
    Misses += B.Stats.Misses;
  }
  EXPECT_EQ(R.Combined.Accesses, Accesses);
  EXPECT_EQ(R.Combined.Misses, Misses);
  EXPECT_DOUBLE_EQ(R.Combined.missRate(),
                   static_cast<double>(Misses) /
                       static_cast<double>(Accesses));
  EXPECT_EQ(R.PerBenchmark.size(), 20u);
  EXPECT_EQ(R.PolicyLabel, "8-unit");
  EXPECT_DOUBLE_EQ(R.PressureFactor, 4.0);
}

TEST(SweepTest, ThreadCountDoesNotChangeResults) {
  SweepEngine Serial = SweepEngine::forScaledTable1(0.04);
  SweepEngine Parallel = SweepEngine::forScaledTable1(0.04);
  Serial.setNumThreads(1);
  Parallel.setNumThreads(8);
  SimConfig C;
  C.PressureFactor = 6.0;
  const SuiteResult A = Serial.runSuite(GranularitySpec::fine(), C);
  const SuiteResult B = Parallel.runSuite(GranularitySpec::fine(), C);
  EXPECT_EQ(A.Combined.Misses, B.Combined.Misses);
  EXPECT_EQ(A.Combined.EvictionInvocations, B.Combined.EvictionInvocations);
  EXPECT_DOUBLE_EQ(A.Combined.MissOverhead, B.Combined.MissOverhead);
}

TEST(SweepTest, ZeroThreadsMeansOnePerUsableCpu) {
  // The same rule as ThreadPool(0) and every --jobs=0.
  SweepEngine Engine(std::vector<Trace>{});
  EXPECT_EQ(Engine.numThreads(), ThreadPool::hardwareThreads());
  Engine.setNumThreads(1);
  EXPECT_EQ(Engine.numThreads(), 1u);
  Engine.setNumThreads(0);
  EXPECT_EQ(Engine.numThreads(), ThreadPool::hardwareThreads());
}

TEST(SweepTest, GranularitySweepMissRatesDecline) {
  // Figure 6's shape: FLUSH misses the most, fine FIFO the least, and
  // the curve is (weakly) monotone along the granularity axis.
  const auto Results = multisweep::runSweepGrid(
      engine(), makeSweepGrid(standardGranularitySweep(), {4.0}, SimConfig()));
  ASSERT_EQ(Results.size(), 10u);
  const double First = Results.front().Combined.missRate();
  const double Last = Results.back().Combined.missRate();
  EXPECT_GT(First, Last);
  for (size_t I = 1; I < Results.size(); ++I)
    EXPECT_LE(Results[I].Combined.missRate(),
              Results[I - 1].Combined.missRate() * 1.01)
        << "granularity " << Results[I].PolicyLabel;
}

TEST(SweepTest, EvictionInvocationsGrowWithGranularity) {
  // Figure 8's shape: finer grains invoke the eviction mechanism more.
  const auto Results = multisweep::runSweepGrid(
      engine(), makeSweepGrid(standardGranularitySweep(), {4.0}, SimConfig()));
  EXPECT_LT(Results.front().Combined.EvictionInvocations,
            Results.back().Combined.EvictionInvocations);
}

TEST(SweepTest, FlushHasNoInterUnitLinks) {
  SimConfig C;
  C.PressureFactor = 4.0;
  const SuiteResult R = engine().runSuite(GranularitySpec::flush(), C);
  EXPECT_EQ(R.Combined.InterUnitLinksCreated, 0u);
  EXPECT_GT(R.Combined.LinksCreated, 0u);
}

TEST(SweepTest, InterUnitFractionGrowsWithUnits) {
  // Figure 13's shape.
  SimConfig C;
  C.PressureFactor = 2.0;
  const double At2 = engine()
                         .runSuite(GranularitySpec::units(2), C)
                         .Combined.interUnitLinkFraction();
  const double At64 = engine()
                          .runSuite(GranularitySpec::units(64), C)
                          .Combined.interUnitLinkFraction();
  const double AtFine = engine()
                            .runSuite(GranularitySpec::fine(), C)
                            .Combined.interUnitLinkFraction();
  EXPECT_GT(At2, 0.0);
  EXPECT_LT(At2, At64);
  EXPECT_LT(At64, AtFine);
  EXPECT_LT(AtFine, 1.0); // Self-links keep it under 100%.
}

TEST(SweepTest, CustomPolicyFactoryRuns) {
  SimConfig C;
  C.PressureFactor = 6.0;
  const SuiteResult R = engine().runSuite(
      []() {
        return std::unique_ptr<EvictionPolicy>(
            new AdaptiveGranularityPolicy());
      },
      "Adaptive", C);
  EXPECT_EQ(R.PolicyLabel, "Adaptive");
  EXPECT_GT(R.Combined.Accesses, 0u);
}

TEST(SweepTest, BenchmarkOrderMatchesTable1) {
  const auto &Traces = engine().traces();
  EXPECT_EQ(Traces.front().Name, "gzip-scaled");
  EXPECT_EQ(Traces.back().Name, "word-scaled");
}
