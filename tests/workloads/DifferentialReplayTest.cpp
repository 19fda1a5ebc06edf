//===- tests/workloads/DifferentialReplayTest.cpp - Backend byte-identity -===//
//
// The differential property harness of the adversarial suite: for dozens
// of sampled (adversary, geometry, grid) configurations, the four replay
// backends — serial per-job runSuite, the per-config grid on four
// workers, the one-pass grid, and the asynchronous SimService — must
// produce byte-identical full-precision reports AND byte-identical
// metrics exports. Any scheduling-, sharing-, or dedup-dependent result
// shows up here as a one-seed repro, shrunk to a minimal config.
//
// A slice of the samples replays with the full structural auditor armed,
// so the byte-identity proof covers the audited configuration too.
//
//===----------------------------------------------------------------------===//

#include "workloads/Adversary.h"

#include "multisweep/MultiConfigEngine.h"
#include "service/SimService.h"
#include "sim/Sweep.h"
#include "support/Random.h"
#include "telemetry/Exporters.h"
#include "telemetry/Telemetry.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "../support/PropertyHarness.h"

using namespace ccsim;
using namespace ccsim::workloads;

namespace {

/// One sampled differential case: which adversary, how big, which seed,
/// and whether the deep auditor is armed for the replay.
struct DiffConfig {
  AdversarySpec Spec;
  uint64_t TraceSeed = 0;
  bool Audited = false;
};

/// Full-precision render of every counter of every suite result: any
/// cross-backend difference — down to the last bit of a double — changes
/// this string.
std::string renderSuites(const std::vector<SuiteResult> &Suites) {
  std::string Out;
  char Buf[512];
  for (const SuiteResult &Suite : Suites) {
    std::snprintf(Buf, sizeof(Buf), "[%s @ %.17g]\n",
                  Suite.PolicyLabel.c_str(), Suite.PressureFactor);
    Out += Buf;
    std::vector<const CacheStats *> Rows;
    Rows.push_back(&Suite.Combined);
    for (const SimResult &R : Suite.PerBenchmark)
      Rows.push_back(&R.Stats);
    for (const CacheStats *S : Rows) {
      std::snprintf(
          Buf, sizeof(Buf),
          "%llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
          "%llu %llu %llu %llu %llu %llu %llu %llu %.17g %.17g %.17g "
          "%llu %llu\n",
          static_cast<unsigned long long>(S->Accesses),
          static_cast<unsigned long long>(S->Hits),
          static_cast<unsigned long long>(S->Misses),
          static_cast<unsigned long long>(S->ColdMisses),
          static_cast<unsigned long long>(S->CapacityMisses),
          static_cast<unsigned long long>(S->TooBigMisses),
          static_cast<unsigned long long>(S->Inserts),
          static_cast<unsigned long long>(S->InsertedBytes),
          static_cast<unsigned long long>(S->EvictionInvocations),
          static_cast<unsigned long long>(S->EvictedBlocks),
          static_cast<unsigned long long>(S->EvictedBytes),
          static_cast<unsigned long long>(S->UnitsFlushed),
          static_cast<unsigned long long>(S->PreemptiveFlushes),
          static_cast<unsigned long long>(S->WastedBytes),
          static_cast<unsigned long long>(S->LinksCreated),
          static_cast<unsigned long long>(S->InterUnitLinksCreated),
          static_cast<unsigned long long>(S->SelfLinksCreated),
          static_cast<unsigned long long>(S->UnlinkedLinks),
          static_cast<unsigned long long>(S->UnlinkOperations),
          static_cast<unsigned long long>(S->LinksDestroyed),
          S->MissOverhead, S->EvictionOverhead, S->UnlinkOverhead,
          static_cast<unsigned long long>(S->BackPointerBytesPeak),
          static_cast<unsigned long long>(S->BackPointerBytesSum));
      Out += Buf;
    }
  }
  return Out;
}

/// The three-point grid every sample replays: the spec's target coarse,
/// unit, and fine granularities at its tuned capacity. Each job records
/// into \p Tel so the metrics export is part of the identity proof.
std::vector<SweepJob> gridFor(const DiffConfig &Case,
                              telemetry::TelemetrySink *Tel) {
  SimConfig Base;
  Base.withCapacityBytes(Case.Spec.tunedCapacityBytes());
  Base.PressureFactor = 1.0;
  Base.Audit = Case.Audited ? AuditLevel::Full : AuditLevel::Off;
  Base.Telemetry = Tel;
  const std::vector<GranularitySpec> Specs = {
      GranularitySpec::flush(),
      GranularitySpec::units(Case.Spec.TargetUnits),
      GranularitySpec::fine()};
  return makeSweepGrid(Specs, {1.0}, Base);
}

/// Report + metrics export of one backend run, with the sink owned here
/// so each backend records into a fresh registry.
struct BackendRun {
  std::string Report;
  std::string Metrics;
};

BackendRun runSerial(const SweepEngine &Engine, const DiffConfig &Case) {
  telemetry::TelemetrySink Tel;
  SweepEngine Serial(std::vector<Trace>(Engine.traces()));
  Serial.setNumThreads(1);
  std::vector<SuiteResult> Suites;
  for (const SweepJob &Job : gridFor(Case, &Tel))
    Suites.push_back(Serial.runSuite(Job.Spec, Job.Config));
  return {renderSuites(Suites), telemetry::renderMetricsCsv(Tel.Metrics)};
}

BackendRun runPerConfig(const SweepEngine &Engine, const DiffConfig &Case) {
  telemetry::TelemetrySink Tel;
  SweepEngine Parallel(std::vector<Trace>(Engine.traces()));
  Parallel.setNumThreads(4);
  const auto Suites = multisweep::runSweepGrid(
      Parallel, gridFor(Case, &Tel),
      {multisweep::SweepMode::PerConfig, /*Log=*/nullptr});
  return {renderSuites(Suites), telemetry::renderMetricsCsv(Tel.Metrics)};
}

BackendRun runOnePass(const SweepEngine &Engine, const DiffConfig &Case) {
  telemetry::TelemetrySink Tel;
  const auto Suites = multisweep::runSweepGrid(
      Engine, gridFor(Case, &Tel),
      {multisweep::SweepMode::OnePass, /*Log=*/nullptr});
  return {renderSuites(Suites), telemetry::renderMetricsCsv(Tel.Metrics)};
}

BackendRun runService(const std::shared_ptr<const SweepEngine> &Engine,
                      const DiffConfig &Case) {
  telemetry::TelemetrySink Tel;
  service::SimServiceConfig Config;
  Config.Threads = 2;
  service::SimService Service(Config);
  service::SweepBatchJob Job;
  Job.Engine = Engine;
  Job.Jobs = gridFor(Case, &Tel);
  Job.Mode = multisweep::SweepMode::OnePass;
  service::JobHandle Handle = Service.submit(service::Job(std::move(Job)));
  const service::JobOutcome &Outcome = Handle.wait();
  Service.drain();
  if (Outcome.Status != service::JobStatus::Done)
    return {"service job not done: " + Outcome.Error, ""};
  return {renderSuites(Outcome.Suite),
          telemetry::renderMetricsCsv(Tel.Metrics)};
}

DiffConfig sampleDiffConfig(uint64_t Seed) {
  Rng R(Seed);
  const auto &Catalog = adversarialCatalog();
  DiffConfig Case;
  Case.Spec = Catalog[R.nextBelow(Catalog.size())];
  // Every 8th sample replays with the deep auditor armed; audited
  // geometry stays small so the quadratic auditor does not dominate.
  Case.Audited = Seed % 8 == 0;
  const double Scale =
      Case.Audited ? 0.05 + R.nextDouble() * 0.05 : 0.1 + R.nextDouble() * 0.3;
  Case.Spec = scaledAdversary(Case.Spec, Scale);
  if (Case.Audited && Case.Spec.Accesses == 0)
    Case.Spec.Accesses = 500 + R.nextBelow(1000);
  Case.TraceSeed = R.next64();
  return Case;
}

std::string describeDiffConfig(const DiffConfig &Case) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "adversary=%s blocks=%u accesses=%llu trace-seed=%llu "
                "audited=%d",
                Case.Spec.Name.c_str(), Case.Spec.Blocks,
                static_cast<unsigned long long>(Case.Spec.Accesses),
                static_cast<unsigned long long>(Case.TraceSeed),
                Case.Audited ? 1 : 0);
  return Buf;
}

std::string checkDiffConfig(const DiffConfig &Case) {
  const auto Engine = std::make_shared<SweepEngine>(std::vector<Trace>{
      generateAdversarial(Case.Spec, Case.TraceSeed)});
  const BackendRun Serial = runSerial(*Engine, Case);
  const BackendRun PerConfig = runPerConfig(*Engine, Case);
  const BackendRun OnePass = runOnePass(*Engine, Case);
  const BackendRun Service =
      runService(std::shared_ptr<const SweepEngine>(Engine), Case);
  if (Serial.Report.empty())
    return "serial backend produced an empty report";
  if (PerConfig.Report != Serial.Report)
    return "per-config report diverges from serial";
  if (OnePass.Report != Serial.Report)
    return "one-pass report diverges from serial";
  if (Service.Report != Serial.Report)
    return "service report diverges from serial: " + Service.Report;
  if (Serial.Metrics.empty())
    return "serial backend recorded no metrics";
  if (PerConfig.Metrics != Serial.Metrics)
    return "per-config metrics diverge from serial";
  if (OnePass.Metrics != Serial.Metrics)
    return "one-pass metrics diverge from serial";
  if (Service.Metrics != Serial.Metrics)
    return "service metrics diverge from serial";
  return {};
}

} // namespace

TEST(DifferentialReplayTest, AllBackendsByteIdenticalOnSampledConfigs) {
  proptest::Property<DiffConfig> P;
  P.Sample = sampleDiffConfig;
  P.Check = checkDiffConfig;
  P.Describe = describeDiffConfig;
  P.Shrink = [](const DiffConfig &Case) {
    std::vector<DiffConfig> Variants;
    if (Case.Spec.Blocks > 4) {
      Variants.push_back(Case);
      Variants.back().Spec.Blocks = std::max(4u, Case.Spec.Blocks / 2);
    }
    if (Case.Spec.Accesses > 16) {
      Variants.push_back(Case);
      Variants.back().Spec.Accesses /= 2;
    }
    return Variants;
  };
  // 56 samples x 4 backends x 3 grid points; every 8th sample audited.
  const auto Result = proptest::checkProperty(P, 0xD1FF5EED, 56);
  EXPECT_TRUE(Result.Passed) << Result.render(P);
}

TEST(DifferentialReplayTest, PerConfigModeMatchesOnePass) {
  // The fourth backend pair: one-pass lattice vs dense per-config replay
  // over the same adversarial engine, full grid of standard
  // granularities.
  for (const AdversarySpec &Catalog : adversarialCatalog()) {
    const AdversarySpec Spec = scaledAdversary(Catalog, 0.15);
    SweepEngine Engine(
        std::vector<Trace>{generateAdversarial(Spec, 77)});
    SimConfig Base;
    Base.withCapacityBytes(Spec.tunedCapacityBytes());
    Base.PressureFactor = 1.0;
    Base.Audit = AuditLevel::Off;
    const auto Grid = makeSweepGrid(standardGranularitySweep(), {1.0}, Base);
    const auto One = multisweep::runSweepGrid(
        Engine, Grid, {multisweep::SweepMode::OnePass, nullptr});
    const auto Dense = multisweep::runSweepGrid(
        Engine, Grid, {multisweep::SweepMode::PerConfig, nullptr});
    EXPECT_EQ(renderSuites(One), renderSuites(Dense)) << Spec.Name;
  }
}
