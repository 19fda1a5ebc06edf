//===- examples/granularity_explorer.cpp - Pick a granularity -------------===//
//
// The deployment question the paper answers: given a workload and a cache
// budget, which eviction granularity should a dynamic optimizer use?
// This tool sweeps the spectrum for one Table 1 benchmark at a chosen
// pressure and prints a recommendation.
//
// Run: ./granularity_explorer --benchmark=crafty --pressure=10
//
//===----------------------------------------------------------------------===//

#include "multisweep/MultiConfigEngine.h"
#include "sim/Simulator.h"
#include "sim/Sweep.h"
#include "support/Flags.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "trace/TraceGenerator.h"

#include "SimFlags.h"
#include "TelemetryFlags.h"

#include <cstdio>
#include <vector>

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags("Sweep eviction granularities for one benchmark and "
                "recommend a policy.");
  addWorkloadFlags(Flags);
  addSimConfigFlags(Flags, 10.0);
  Flags.addInt("jobs", 0,
               "Worker threads, 0..256 (0 = one per CPU this process may "
               "run on, 1 = serial).");
  addSweepModeFlag(Flags);
  addTelemetryFlags(Flags);
  if (!Flags.parse(Argc, Argv))
    return 1;

  std::string Error;
  const auto Mode = sweepModeFromFlags(Flags, &Error);
  if (!Mode) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const auto Jobs = jobsFromFlags(Flags, &Error);
  if (!Jobs) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const auto Model = workloadFromFlags(Flags, &Error);
  if (!Model) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const WorkloadModel &Chosen = *Model;
  std::vector<Trace> One;
  One.push_back(TraceGenerator::generateBenchmark(
      Chosen, static_cast<uint64_t>(Flags.getInt("seed"))));
  SweepEngine Engine(std::move(One));
  Engine.setNumThreads(*Jobs);
  const Trace &T = Engine.traces().front();

  auto Parsed = simConfigFromFlags(Flags, &Error);
  if (!Parsed) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  SimConfig Config = *Parsed;
  const auto Sink = makeSinkIfRequested(Flags);
  Config.Telemetry = Sink.get();
  std::printf("benchmark %s: %zu superblocks, maxCache %s, cache budget "
              "%s (pressure %.0f)\n\n",
              Chosen.Name.c_str(), T.numSuperblocks(),
              formatBytes(T.maxCacheBytes()).c_str(),
              formatBytes(sim::capacityFor(T, Config)).c_str(),
              Config.PressureFactor);

  // The spectrum is a one-trace grid; both sweep modes render
  // byte-identical tables.
  const std::vector<GranularitySpec> Specs = standardGranularitySweep();
  const std::vector<SuiteResult> Suites = multisweep::runSweepGrid(
      Engine, makeSweepGrid(Specs, {Config.PressureFactor}, Config),
      {*Mode, /*Log=*/nullptr});

  Table Out({"Granularity", "Miss rate", "Evictions", "Backptr peak",
             "Overhead (instr)", "Relative"});
  double Best = 0.0, FlushOverhead = 0.0;
  std::string BestLabel;
  for (size_t I = 0; I < Specs.size(); ++I) {
    const SimResult &R = Suites[I].PerBenchmark.front();
    const double Overhead = R.Stats.totalOverhead(true);
    if (Specs[I].Kind == GranularitySpec::KindType::Flush)
      FlushOverhead = Overhead;
    if (BestLabel.empty() || Overhead < Best) {
      Best = Overhead;
      BestLabel = Specs[I].label();
    }
    Out.beginRow();
    Out.cell(Specs[I].label());
    Out.cell(formatPercent(R.Stats.missRate(), 2));
    Out.cell(R.Stats.EvictionInvocations);
    Out.cell(formatBytes(R.Stats.BackPointerBytesPeak));
    Out.cell(Overhead, 0);
    Out.cell(Overhead / FlushOverhead, 3);
  }
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\nrecommendation: %s (%.1f%% less management overhead than "
              "FLUSH)\n",
              BestLabel.c_str(), (1.0 - Best / FlushOverhead) * 100.0);
  return exportTelemetry(Flags, Sink.get());
}
