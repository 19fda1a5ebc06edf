//===- tests/concurrent/ParallelSweepTest.cpp - Parallel == serial --------===//

#include "sim/Sweep.h"

#include "multisweep/MultiConfigEngine.h"
#include "trace/TraceIO.h"
#include "gtest/gtest.h"

using namespace ccsim;
using multisweep::SweepMode;

namespace {

/// Asserts bit-identical suite results, including the double-precision
/// overhead accumulators (aggregation order is canonical in both paths).
void expectIdentical(const SuiteResult &A, const SuiteResult &B) {
  EXPECT_EQ(A.PolicyLabel, B.PolicyLabel);
  EXPECT_EQ(A.PressureFactor, B.PressureFactor);
  ASSERT_EQ(A.PerBenchmark.size(), B.PerBenchmark.size());
  EXPECT_EQ(A.Combined.Accesses, B.Combined.Accesses);
  EXPECT_EQ(A.Combined.Hits, B.Combined.Hits);
  EXPECT_EQ(A.Combined.Misses, B.Combined.Misses);
  EXPECT_EQ(A.Combined.ColdMisses, B.Combined.ColdMisses);
  EXPECT_EQ(A.Combined.CapacityMisses, B.Combined.CapacityMisses);
  EXPECT_EQ(A.Combined.EvictionInvocations, B.Combined.EvictionInvocations);
  EXPECT_EQ(A.Combined.EvictedBlocks, B.Combined.EvictedBlocks);
  EXPECT_EQ(A.Combined.EvictedBytes, B.Combined.EvictedBytes);
  EXPECT_EQ(A.Combined.UnitsFlushed, B.Combined.UnitsFlushed);
  EXPECT_EQ(A.Combined.WastedBytes, B.Combined.WastedBytes);
  EXPECT_EQ(A.Combined.LinksCreated, B.Combined.LinksCreated);
  EXPECT_EQ(A.Combined.InterUnitLinksCreated,
            B.Combined.InterUnitLinksCreated);
  EXPECT_EQ(A.Combined.UnlinkedLinks, B.Combined.UnlinkedLinks);
  EXPECT_EQ(A.Combined.UnlinkOperations, B.Combined.UnlinkOperations);
  EXPECT_EQ(A.Combined.BackPointerBytesPeak, B.Combined.BackPointerBytesPeak);
  // Exact double equality is intentional: cells are pure functions and
  // both paths merge per-benchmark counters in the same canonical order.
  EXPECT_EQ(A.Combined.MissOverhead, B.Combined.MissOverhead);
  EXPECT_EQ(A.Combined.EvictionOverhead, B.Combined.EvictionOverhead);
  EXPECT_EQ(A.Combined.UnlinkOverhead, B.Combined.UnlinkOverhead);
  EXPECT_EQ(A.Combined.BackPointerBytesSum, B.Combined.BackPointerBytesSum);
  for (size_t I = 0; I < A.PerBenchmark.size(); ++I) {
    EXPECT_EQ(A.PerBenchmark[I].BenchmarkName, B.PerBenchmark[I].BenchmarkName);
    EXPECT_EQ(A.PerBenchmark[I].CapacityBytes, B.PerBenchmark[I].CapacityBytes);
    EXPECT_EQ(A.PerBenchmark[I].Stats.Misses, B.PerBenchmark[I].Stats.Misses);
    EXPECT_EQ(A.PerBenchmark[I].Stats.MissOverhead,
              B.PerBenchmark[I].Stats.MissOverhead);
  }
}

} // namespace

TEST(ParallelSweepTest, RunParallelMatchesSerialOnFig7StyleGrid) {
  // The fig7 grid shape: granularity axis x pressure axis, every cell one
  // (benchmark, policy, capacity) simulation. Two suite seeds guard
  // against a lucky coincidence on one trace set.
  const std::vector<GranularitySpec> Specs = {
      GranularitySpec::flush(), GranularitySpec::units(8),
      GranularitySpec::fine()};
  const std::vector<double> Pressures = {2.0, 6.0};

  for (uint64_t Seed : {uint64_t(DefaultSuiteSeed), uint64_t(0x1234)}) {
    SweepEngine Serial = SweepEngine::forScaledTable1(0.03, Seed);
    SweepEngine Parallel = SweepEngine::forScaledTable1(0.03, Seed);
    Serial.setNumThreads(1);
    Parallel.setNumThreads(8);

    const std::vector<SweepJob> Jobs =
        makeSweepGrid(Specs, Pressures, SimConfig());

    // Serial reference: one runSuite per job, in job order.
    std::vector<SuiteResult> Expected;
    for (const SweepJob &Job : Jobs)
      Expected.push_back(Serial.runSuite(Job.Spec, Job.Config));

    // The grid front door on eight workers, in both sweep modes.
    for (SweepMode Mode : {SweepMode::PerConfig, SweepMode::OnePass}) {
      SCOPED_TRACE(multisweep::sweepModeName(Mode));
      const std::vector<SuiteResult> Actual =
          multisweep::runSweepGrid(Parallel, Jobs, {Mode, nullptr});
      ASSERT_EQ(Actual.size(), Expected.size());
      for (size_t I = 0; I < Expected.size(); ++I)
        expectIdentical(Expected[I], Actual[I]);
    }
  }
}

TEST(ParallelSweepTest, SuiteGeneratorIsByteIdenticalAtAnyWorkerCount) {
  // Every benchmark draws from its own seed-derived stream, so the pool
  // size and the longest-first order change nothing: each trace's .cct
  // image equals the serial generateBenchmark's, in model order.
  std::vector<WorkloadModel> Models;
  for (const WorkloadModel &M : table1Workloads())
    Models.push_back(scaledWorkload(M, 0.04));
  Models.push_back(*findWorkload("gzip")); // One full-size model too.
  for (uint64_t Seed : {uint64_t(DefaultSuiteSeed), uint64_t(0x1234)}) {
    std::vector<std::vector<uint8_t>> Serial;
    for (const WorkloadModel &M : Models)
      Serial.push_back(
          serializeTrace(TraceGenerator::generateBenchmark(M, Seed)));
    for (unsigned Workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("workers " + std::to_string(Workers));
      const std::vector<Trace> Suite = generateSuite(Models, Seed, Workers);
      ASSERT_EQ(Suite.size(), Models.size());
      for (size_t I = 0; I < Models.size(); ++I) {
        EXPECT_EQ(Suite[I].Name, Models[I].Name);
        EXPECT_TRUE(serializeTrace(Suite[I]) == Serial[I]) << Models[I].Name;
      }
    }
  }
  // The engine constructor takes the same path: its --jobs count builds
  // the suite and runs the grids.
  const SweepEngine Engine =
      SweepEngine::forScaledTable1(0.04, DefaultSuiteSeed, 3);
  EXPECT_EQ(Engine.numThreads(), 3u);
  ASSERT_EQ(Engine.traces().size(), table1Workloads().size());
  for (size_t I = 0; I < Engine.traces().size(); ++I)
    EXPECT_TRUE(serializeTrace(Engine.traces()[I]) ==
                serializeTrace(TraceGenerator::generateBenchmark(
                    scaledWorkload(table1Workloads()[I], 0.04),
                    DefaultSuiteSeed)))
        << table1Workloads()[I].Name;
}

TEST(ParallelSweepTest, RunParallelIsRepeatable) {
  SweepEngine Engine = SweepEngine::forScaledTable1(0.03);
  Engine.setNumThreads(8);
  const std::vector<SweepJob> Jobs = makeSweepGrid(
      {GranularitySpec::units(4)}, {4.0}, SimConfig());
  for (SweepMode Mode : {SweepMode::PerConfig, SweepMode::OnePass}) {
    SCOPED_TRACE(multisweep::sweepModeName(Mode));
    const auto A = multisweep::runSweepGrid(Engine, Jobs, {Mode, nullptr});
    const auto B = multisweep::runSweepGrid(Engine, Jobs, {Mode, nullptr});
    ASSERT_EQ(A.size(), 1u);
    ASSERT_EQ(B.size(), 1u);
    expectIdentical(A[0], B[0]);
  }
}

TEST(ParallelSweepTest, MakeSweepGridShape) {
  const auto Jobs = makeSweepGrid(
      {GranularitySpec::flush(), GranularitySpec::fine()}, {2.0, 4.0, 8.0},
      SimConfig());
  ASSERT_EQ(Jobs.size(), 6u);
  EXPECT_EQ(Jobs.front().Config.PressureFactor, 2.0);
  EXPECT_EQ(Jobs.back().Config.PressureFactor, 8.0);
  EXPECT_EQ(Jobs.front().Spec.label(), "FLUSH");
  EXPECT_EQ(Jobs.back().Spec.label(), "FIFO");
}
