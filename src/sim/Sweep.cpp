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
    if (!Err.empty()) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "sweep point %zu: ", I);
      return Buf + Err;
    }
  }
  return {};
}

SweepEngine::SweepEngine(const std::vector<WorkloadModel> &Models,
                         uint64_t SuiteSeed) {
  Traces.reserve(Models.size());
  for (const WorkloadModel &M : Models)
    Traces.push_back(TraceGenerator::generateBenchmark(M, SuiteSeed));
  NumThreads = ThreadPool::hardwareThreads();
}

SweepEngine::SweepEngine(std::vector<Trace> TraceList)
    : Traces(std::move(TraceList)) {
  NumThreads = ThreadPool::hardwareThreads();
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

std::vector<SuiteResult>
SweepEngine::sweepGranularities(const SimConfig &Config) const {
  std::vector<SuiteResult> Results;
  for (const GranularitySpec &Spec : standardGranularitySweep())
    Results.push_back(runSuite(Spec, Config));
  return Results;
}

std::vector<SuiteResult>
SweepEngine::runParallel(const std::vector<SweepJob> &Jobs) const {
  const size_t NumBenchmarks = Traces.size();

  // Identical grid points without a telemetry endpoint are simulated once
  // and copied; Rep[J] is the index of the point J's cells come from. A
  // point that records into a sink is its own representative: deduping it
  // would drop observable tracer events and registry recordings.
  std::vector<size_t> Rep(Jobs.size());
  for (size_t J = 0; J < Jobs.size(); ++J) {
    Rep[J] = J;
    if (Jobs[J].Config.Telemetry)
      continue;
    for (size_t Earlier = 0; Earlier < J; ++Earlier)
      if (Rep[Earlier] == Earlier && !Jobs[Earlier].Config.Telemetry &&
          Jobs[J].sameSimulation(Jobs[Earlier])) {
        Rep[J] = Earlier;
        break;
      }
  }

  // Every unique (job, benchmark) cell is an independent simulation on
  // its own CacheEngine; flatten the grid so the pool load-balances
  // across both axes at once (a single heavy benchmark no longer
  // serializes a job).
  std::vector<size_t> Unique;
  for (size_t J = 0; J < Jobs.size(); ++J)
    if (Rep[J] == J)
      Unique.push_back(J);
  const size_t Cells = Unique.size() * NumBenchmarks;
  std::vector<SimResult> Flat(Cells);
  ThreadPool Pool(std::max(1u, std::min<unsigned>(NumThreads, Cells)));
  Pool.parallelFor(
      Cells,
      [&](size_t Cell) {
        const size_t Job = Unique[Cell / NumBenchmarks];
        const size_t Bench = Cell % NumBenchmarks;
        Flat[Cell] = sim::run(Traces[Bench], makePolicy(Jobs[Job].Spec),
                              Jobs[Job].Config);
      },
      /*ChunkSize=*/1);

  // Index of each representative's first cell in Flat.
  std::vector<size_t> FlatBase(Jobs.size(), 0);
  for (size_t U = 0; U < Unique.size(); ++U)
    FlatBase[Unique[U]] = U * NumBenchmarks;

  // Merge in canonical (job, benchmark) order: bit-identical to running
  // runSuite() per job serially.
  std::vector<SuiteResult> Results(Jobs.size());
  for (size_t J = 0; J < Jobs.size(); ++J) {
    SuiteResult &R = Results[J];
    R.PolicyLabel = Jobs[J].Spec.label();
    R.PressureFactor = Jobs[J].Config.PressureFactor;
    const size_t Base = FlatBase[Rep[J]];
    R.PerBenchmark.assign(Flat.begin() + Base,
                          Flat.begin() + Base + NumBenchmarks);
    for (const SimResult &B : R.PerBenchmark)
      R.Combined.merge(B.Stats);
    recordSuiteMetrics(Jobs[J].Config.Telemetry, R);
  }
  return Results;
}
