//===- examples/dbt_to_simulator.cpp - The paper's full methodology -------===//
//
// Reproduces the paper's experimental pipeline end to end (Section 4.1):
//
//   1. run a program under the dynamic binary translator with verbose
//      logging (here: the mini-DBT with trace recording),
//   2. save the superblock log,
//   3. drive the code cache simulator from the log across the whole
//      granularity spectrum.
//
// "We used the verbose output from DynamoRIO to drive the code cache
//  simulator; therefore we were able to represent the actual code
//  regions that a code cache would manage."
//
// Run: ./dbt_to_simulator [--pressure=4] [--iterations=2000]
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramGenerator.h"
#include "runtime/Translator.h"
#include "sim/Simulator.h"
#include "support/Flags.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "trace/TraceIO.h"

#include "SimFlags.h"

#include <cstdio>

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags("Record a mini-DBT run and replay it through the trace "
                "simulator at every granularity.");
  addSimConfigFlags(Flags, 4.0);
  Flags.addInt("iterations", 2000, "Guest main-loop trip count.");
  Flags.addString("save", "", "Optional path to save the recorded log.");
  if (!Flags.parse(Argc, Argv))
    return 1;
  // Every flag is checked before the translator runs.
  std::string Error;
  const auto Iterations =
      boundedIntFlag(Flags, "iterations", 1, 32000, &Error);
  const auto Parsed = simConfigFromFlags(Flags, &Error);
  if (!Iterations || !Parsed) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const SimConfig Sim = *Parsed;

  // 1. Run the translator with verbose logging.
  ProgramSpec Spec;
  Spec.NumFunctions = 72;
  Spec.OuterIterations = static_cast<uint32_t>(*Iterations);
  Spec.MainPhases = 8; // Shifting working sets, as in real programs.
  Spec.MeanCallsPerFunction = 0.6;
  Spec.TopLevelCalls = 10;
  Spec.RareBranchProb = 0.15;
  Spec.Seed = 1234;
  const Program P = generateProgram(Spec);

  TranslatorConfig Config;
  Config.CacheBytes = 64 << 20; // Unbounded-ish: log natural behavior.
  Config.RecordTrace = true;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(40000000);
  std::printf("mini-DBT: %s guest instructions, %llu superblocks built\n",
              formatWithCommas(Stats.GuestInstructions).c_str(),
              static_cast<unsigned long long>(Stats.FragmentsBuilt));

  // 2. Export (and optionally save) the log.
  const Trace Log = T.exportTrace();
  std::printf("recorded log: %zu superblocks, %s dispatch events, "
              "maxCache %s, mean out-degree %.2f\n\n",
              Log.numSuperblocks(),
              formatWithCommas(Log.numAccesses()).c_str(),
              formatBytes(Log.maxCacheBytes()).c_str(),
              Log.meanOutDegree());
  const std::string SavePath = Flags.getString("save");
  if (!SavePath.empty() && writeTrace(Log, SavePath))
    std::printf("saved log to %s\n\n", SavePath.c_str());

  // 3. Drive the simulator from the log.
  std::printf("replaying through the cache simulator at pressure %.0f "
              "(cache %s):\n",
              Sim.PressureFactor,
              formatBytes(sim::capacityFor(Log, Sim)).c_str());
  Table Out({"Granularity", "Miss rate", "Evictions", "Inter-unit links",
             "Overhead"});
  for (const GranularitySpec &G : standardGranularitySweep()) {
    const SimResult R = sim::run(Log, G, Sim);
    Out.beginRow();
    Out.cell(G.label());
    Out.cell(formatPercent(R.Stats.missRate(), 2));
    Out.cell(R.Stats.EvictionInvocations);
    Out.cell(formatPercent(R.Stats.interUnitLinkFraction(), 1));
    Out.cell(R.Stats.totalOverhead(true), 0);
  }
  std::fputs(Out.render().c_str(), stdout);
  return 0;
}
