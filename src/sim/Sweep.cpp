//===- sim/Sweep.cpp - Suite-wide granularity and pressure sweeps ---------===//

#include "sim/Sweep.h"

#include "concurrent/ThreadPool.h"

#include <cassert>
#include <cstdio>

using namespace ccsim;

void ccsim::recordSuiteMetrics(telemetry::TelemetrySink *Tel,
                               const SuiteResult &Result) {
  if (!Tel)
    return;
  char Pressure[32];
  std::snprintf(Pressure, sizeof(Pressure), "%g", Result.PressureFactor);
  Result.Combined.recordMetrics(Tel->Metrics, {{"suite", Result.PolicyLabel},
                                          {"pressure", Pressure}});
}

bool SweepJob::sameSimulation(const SweepJob &Other) const {
  const SimConfig &A = Config;
  const SimConfig &B = Other.Config;
  return Spec.Kind == Other.Spec.Kind && Spec.Units == Other.Spec.Units &&
         A.PressureFactor == B.PressureFactor &&
         A.ExplicitCapacityBytes == B.ExplicitCapacityBytes &&
         A.Costs.EvictionPerByte == B.Costs.EvictionPerByte &&
         A.Costs.EvictionBase == B.Costs.EvictionBase &&
         A.Costs.MissPerByte == B.Costs.MissPerByte &&
         A.Costs.MissBase == B.Costs.MissBase &&
         A.Costs.UnlinkPerLink == B.Costs.UnlinkPerLink &&
         A.Costs.UnlinkBase == B.Costs.UnlinkBase &&
         A.EnableChaining == B.EnableChaining &&
         A.Telemetry == B.Telemetry && A.Audit == B.Audit &&
         A.Cancel == B.Cancel &&
         A.CancelCheckInterval == B.CancelCheckInterval;
}

std::string ccsim::validateSweepGrid(const std::vector<SweepJob> &Jobs) {
  if (Jobs.empty())
    return "sweep grid has no points (empty lattice)";
  for (size_t I = 0; I < Jobs.size(); ++I) {
    std::string Err = Jobs[I].validate();
    if (!Err.empty())
      return "sweep point " + std::to_string(I) + ": " + Err;
  }
  return {};
}

SweepEngine::SweepEngine(const std::vector<WorkloadModel> &Models,
                         uint64_t SuiteSeed) {
  Traces.reserve(Models.size());
  for (const WorkloadModel &M : Models)
    Traces.push_back(TraceGenerator::generateBenchmark(M, SuiteSeed));
  setNumThreads(0);
}

SweepEngine::SweepEngine(std::vector<Trace> TraceList)
    : Traces(std::move(TraceList)) {
  setNumThreads(0);
}

void SweepEngine::setNumThreads(unsigned Threads) {
  NumThreads = Threads ? Threads : ThreadPool::hardwareThreads();
}

SweepEngine SweepEngine::forTable1(uint64_t SuiteSeed) {
  return SweepEngine(table1Workloads(), SuiteSeed);
}

SweepEngine SweepEngine::forScaledTable1(double Factor, uint64_t SuiteSeed) {
  std::vector<WorkloadModel> Scaled;
  Scaled.reserve(table1Workloads().size());
  for (const WorkloadModel &M : table1Workloads())
    Scaled.push_back(scaledWorkload(M, Factor));
  return SweepEngine(Scaled, SuiteSeed);
}

std::vector<SweepJob>
ccsim::makeSweepGrid(const std::vector<GranularitySpec> &Specs,
                     const std::vector<double> &Pressures,
                     const SimConfig &Base) {
  std::vector<SweepJob> Jobs;
  Jobs.reserve(Specs.size() * Pressures.size());
  for (double Pressure : Pressures)
    for (const GranularitySpec &Spec : Specs) {
      SweepJob Job;
      Job.Spec = Spec;
      Job.Config = Base;
      Job.Config.PressureFactor = Pressure;
      Jobs.push_back(Job);
    }
  return Jobs;
}

SuiteResult SweepEngine::runSuite(
    const std::function<std::unique_ptr<EvictionPolicy>()> &MakePolicy,
    const std::string &Label, const SimConfig &Config) const {
  SuiteResult Result;
  Result.PolicyLabel = Label;
  Result.PressureFactor = Config.PressureFactor;
  Result.PerBenchmark.resize(Traces.size());

  // Benchmarks are independent; fan them out over the worker pool. Each
  // result lands in its own index, so aggregation below is deterministic.
  ThreadPool Pool(std::max(1u, std::min<unsigned>(NumThreads, Traces.size())));
  Pool.parallelFor(
      Traces.size(),
      [&](size_t I) {
        Result.PerBenchmark[I] = sim::run(Traces[I], MakePolicy(), Config);
      },
      /*ChunkSize=*/1);

  // Equation 1: the unified metric weights every benchmark by its own
  // access count, which is what summing raw counters does.
  for (const SimResult &R : Result.PerBenchmark)
    Result.Combined.merge(R.Stats);
  recordSuiteMetrics(Config.Telemetry, Result);
  return Result;
}

SuiteResult SweepEngine::runSuite(const GranularitySpec &Spec,
                                  const SimConfig &Config) const {
  return runSuite([&Spec]() { return makePolicy(Spec); }, Spec.label(),
                  Config);
}
