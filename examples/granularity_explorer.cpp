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

#include "concurrent/ThreadPool.h"
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
               "Worker threads, 0..256 (0 = hardware concurrency, 1 = "
               "serial).");
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
  const Trace T = TraceGenerator::generateBenchmark(
      Chosen, static_cast<uint64_t>(Flags.getInt("seed")));

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

  // Every sweep point replays the same trace, so the one-pass engine can
  // evaluate the whole spectrum in a single decode; per-config keeps the
  // dense fan-out. Both render byte-identical tables.
  const std::vector<GranularitySpec> Specs = standardGranularitySweep();
  std::vector<SimResult> Results(Specs.size());
  if (*Mode == multisweep::SweepMode::OnePass) {
    std::vector<SweepJob> Points;
    Points.reserve(Specs.size());
    for (const GranularitySpec &Spec : Specs)
      Points.push_back({Spec, Config});
    const multisweep::LatticePlan Plan = multisweep::planLattice(Points);
    multisweep::MultiConfigEngine Engine(T, Points, Plan);
    Results = Engine.run();
  } else {
    ThreadPool Pool(*Jobs); // 0 = hardware threads.
    Pool.parallelFor(
        Specs.size(),
        [&](size_t I) { Results[I] = sim::run(T, Specs[I], Config); },
        /*ChunkSize=*/1);
  }

  Table Out({"Granularity", "Miss rate", "Evictions", "Backptr peak",
             "Overhead (instr)", "Relative"});
  double Best = 0.0, FlushOverhead = 0.0;
  std::string BestLabel;
  for (size_t I = 0; I < Specs.size(); ++I) {
    const SimResult &R = Results[I];
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
