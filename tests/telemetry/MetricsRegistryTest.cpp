//===- tests/telemetry/MetricsRegistryTest.cpp - Metrics registry tests ---===//
//
// Registry semantics plus one test per CacheStats counter that no report
// surfaced before the telemetry subsystem existed (the "recorded but never
// exposed" audit): WastedBytes, UnitsFlushed, SelfLinksCreated,
// UnlinkOperations, UnlinkedLinks, and the back-pointer table footprint.
//
//===----------------------------------------------------------------------===//

#include "telemetry/MetricsRegistry.h"

#include "core/CacheStats.h"
#include "gtest/gtest.h"

#include <thread>
#include <vector>

using namespace ccsim;
using namespace ccsim::telemetry;

TEST(MetricsRegistryTest, SameNameAndLabelsSameInstrument) {
  MetricsRegistry R;
  Counter &A = R.counter("hits", {{"bench", "gzip"}});
  Counter &B = R.counter("hits", {{"bench", "gzip"}});
  EXPECT_EQ(&A, &B);
  A.add(3);
  B.increment();
  EXPECT_EQ(R.counterValue("hits", {{"bench", "gzip"}}), 4u);
  EXPECT_EQ(R.size(), 1u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotMatter) {
  MetricsRegistry R;
  R.counter("x", {{"b", "2"}, {"a", "1"}}).add(7);
  EXPECT_EQ(R.counterValue("x", {{"a", "1"}, {"b", "2"}}), 7u);
  EXPECT_EQ(R.size(), 1u);
}

TEST(MetricsRegistryTest, DistinctLabelsDistinctSeries) {
  MetricsRegistry R;
  R.counter("x", {{"p", "flush"}}).add(1);
  R.counter("x", {{"p", "fine"}}).add(2);
  R.counter("x").add(4);
  EXPECT_EQ(R.counterValue("x", {{"p", "flush"}}), 1u);
  EXPECT_EQ(R.counterValue("x", {{"p", "fine"}}), 2u);
  EXPECT_EQ(R.counterValue("x"), 4u);
  EXPECT_EQ(R.size(), 3u);
}

TEST(MetricsRegistryTest, MissingMetricsReadAsZero) {
  MetricsRegistry R;
  EXPECT_FALSE(R.has("nope"));
  EXPECT_EQ(R.counterValue("nope"), 0u);
  EXPECT_EQ(R.gaugeValue("nope"), 0.0);
  EXPECT_EQ(R.size(), 0u);
}

TEST(MetricsRegistryTest, GaugeKeepsLatestValue) {
  MetricsRegistry R;
  R.gauge("rate").set(0.5);
  R.gauge("rate").set(0.25);
  EXPECT_DOUBLE_EQ(R.gaugeValue("rate"), 0.25);
}

TEST(MetricsRegistryTest, HistogramObservations) {
  MetricsRegistry R;
  HistogramMetric &H = R.histogram("sizes", 100.0, 4);
  H.observe(50.0);
  H.observe(150.0);
  H.observe(5000.0); // Overflow bucket.
  const Histogram S = H.snapshot();
  EXPECT_EQ(S.totalCount(), 3u);
  EXPECT_EQ(S.bucketCount(0), 1u);
  EXPECT_EQ(S.bucketCount(1), 1u);
  EXPECT_EQ(S.overflowCount(), 1u);
}

TEST(MetricsRegistryTest, CanonicalKeyFormat) {
  EXPECT_EQ(MetricsRegistry::canonicalKey("m", {}), "m");
  EXPECT_EQ(MetricsRegistry::canonicalKey("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=1,b=2}");
}

TEST(MetricsRegistryTest, SnapshotIsSortedByCanonicalKey) {
  MetricsRegistry R;
  R.counter("zeta").add(1);
  R.gauge("alpha", {{"k", "v"}}).set(2.0);
  R.counter("alpha").add(3);
  const auto Snap = R.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_EQ(Snap[0].Name, "alpha");
  EXPECT_TRUE(Snap[0].Labels.empty());
  EXPECT_EQ(Snap[1].Name, "alpha");
  ASSERT_EQ(Snap[1].Labels.size(), 1u);
  EXPECT_EQ(Snap[2].Name, "zeta");
}

TEST(MetricsRegistryTest, ConcurrentCounterAddsAreLossless) {
  MetricsRegistry R;
  Counter &C = R.counter("n");
  constexpr int NumThreads = 4;
  constexpr int PerThread = 50000;
  std::vector<std::thread> Threads;
  for (int W = 0; W < NumThreads; ++W)
    Threads.emplace_back([&C] {
      for (int I = 0; I < PerThread; ++I)
        C.increment();
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(NumThreads) * PerThread);
}

// --- CacheStats::recordMetrics: the previously-unexposed counter audit --

namespace {

const MetricLabels kLabels = {{"benchmark", "t"}, {"policy", "p"}};

/// Records a single-field CacheStats into \p R (registries are pinned in
/// memory — mutex member — so the caller owns the instance).
void recordOne(MetricsRegistry &R, void (*Set)(CacheStats &)) {
  CacheStats S;
  Set(S);
  S.recordMetrics(R, kLabels);
}

} // namespace

TEST(CacheStatsRecordToTest, ExposesWastedBytes) {
  MetricsRegistry R;
  recordOne(R, [](CacheStats &S) { S.WastedBytes = 321; });
  EXPECT_EQ(R.counterValue("cache.wasted_bytes", kLabels), 321u);
}

TEST(CacheStatsRecordToTest, ExposesUnitsFlushed) {
  MetricsRegistry R;
  recordOne(R, [](CacheStats &S) { S.UnitsFlushed = 17; });
  EXPECT_EQ(R.counterValue("cache.evictions.units_flushed", kLabels), 17u);
}

TEST(CacheStatsRecordToTest, ExposesSelfLinks) {
  MetricsRegistry R;
  recordOne(R, [](CacheStats &S) { S.SelfLinksCreated = 9; });
  EXPECT_EQ(R.counterValue("cache.links.self", kLabels), 9u);
}

TEST(CacheStatsRecordToTest, ExposesUnlinkOperations) {
  MetricsRegistry R;
  recordOne(R, [](CacheStats &S) { S.UnlinkOperations = 5; });
  EXPECT_EQ(R.counterValue("cache.unlink.operations", kLabels), 5u);
}

TEST(CacheStatsRecordToTest, ExposesRepairedLinkCount) {
  MetricsRegistry R;
  recordOne(R, [](CacheStats &S) { S.UnlinkedLinks = 44; });
  EXPECT_EQ(R.counterValue("cache.unlink.links_repaired", kLabels), 44u);
}

TEST(CacheStatsRecordToTest, ExposesPreemptiveFlushes) {
  MetricsRegistry R;
  recordOne(R, [](CacheStats &S) { S.PreemptiveFlushes = 2; });
  EXPECT_EQ(R.counterValue("cache.flushes.preemptive", kLabels), 2u);
}

TEST(CacheStatsRecordToTest, ExposesBackPointerFootprint) {
  CacheStats S;
  S.Accesses = 4;
  S.BackPointerBytesPeak = 4096;
  S.BackPointerBytesSum = 8192.0;
  MetricsRegistry R;
  S.recordMetrics(R, kLabels);
  EXPECT_DOUBLE_EQ(R.gaugeValue("cache.backpointer.bytes_peak", kLabels),
                   4096.0);
  EXPECT_DOUBLE_EQ(R.gaugeValue("cache.backpointer.bytes_avg", kLabels),
                   2048.0);
}

TEST(CacheStatsRecordToTest, CountersAccumulateAcrossRecords) {
  CacheStats S;
  S.Misses = 10;
  MetricsRegistry R;
  S.recordMetrics(R, kLabels);
  S.recordMetrics(R, kLabels);
  EXPECT_EQ(R.counterValue("cache.misses", kLabels), 20u);
}
