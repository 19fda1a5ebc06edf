//===- bench/sensitivity_hotness.cpp - Hotness threshold sensitivity ------===//
//
// Section 4.1 fixes DynamoRIO's hotness threshold at 50 executions.
// This bench sweeps the threshold on the mini-DBT and shows the
// interpretation-vs-translation tradeoff it controls: a low threshold
// translates cold code (wasting regeneration work and cache space), a
// high threshold interprets hot code for too long.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "isa/ProgramGenerator.h"
#include "runtime/SystemProfiles.h"
#include "runtime/Translator.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags("Sensitivity: mini-DBT cost vs hotness threshold.");
  Flags.addInt("budget", 20000000, "Guest instruction budget per run.");
  Flags.addInt("cache-kb", 10, "Code cache size in KB.");
  if (!Flags.parse(Argc, Argv))
    return 1;
  std::string Error;
  const auto Budget =
      boundedIntFlag(Flags, "budget", 1, int64_t(1) << 40, &Error);
  const auto CacheKB = boundedIntFlag(Flags, "cache-kb", 1, 1 << 20, &Error);
  if (!Budget || !CacheKB) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  benchutil::printHeader(
      "Sensitivity: the hotness threshold (DynamoRIO uses 50)",
      "Section 4.1: 'a superblock is considered hot when it has been "
      "executed 50 times'");

  // A cold-heavy program: many phases over a wide call graph, so much
  // of the code runs only a handful of times. Eager translation then
  // wastes regeneration work and churns the (small) cache.
  ProgramSpec Spec;
  Spec.NumFunctions = 110;
  Spec.MinBlocksPerFunction = 4;
  Spec.MaxBlocksPerFunction = 10;
  Spec.MinAluPerBlock = 5;
  Spec.MaxAluPerBlock = 16;
  Spec.OuterIterations = 160;
  Spec.MainPhases = 10;
  Spec.InnerIterations = 4;
  Spec.TopLevelCalls = 10;
  Spec.MeanCallsPerFunction = 0.6;
  Spec.RareBranchProb = 0.25;
  Spec.Seed = 4242;
  const Program P = generateProgram(Spec);

  Table Out({"Threshold", "Fragments", "Interp instrs", "Cache instrs",
             "Evictions", "Total ops", "vs t=50"});
  double Baseline = 0.0;
  std::vector<std::pair<uint32_t, double>> Series;
  for (uint32_t Threshold : {2u, 5u, 10u, 25u, 50u, 100u, 250u, 1000u}) {
    TranslatorConfig Config;
    Config.CacheBytes = static_cast<uint64_t>(*CacheKB) << 10;
    Config.HotThreshold = Threshold;
    Translator T(P, Config);
    const TranslatorStats &S = T.run(static_cast<uint64_t>(*Budget));
    if (Threshold == 50)
      Baseline = S.Ops.total();
    Series.emplace_back(Threshold, S.Ops.total());
    Out.beginRow();
    Out.cell("t=" + std::to_string(Threshold));
    Out.cell(S.FragmentsBuilt);
    Out.cell(S.InterpretedInstructions);
    Out.cell(S.CacheInstructions);
    Out.cell(S.EvictionInvocations);
    Out.cell(static_cast<uint64_t>(S.Ops.total()));
    Out.cell("-"); // Filled below once the baseline is known.
  }
  // Re-render with the relative column now that t=50 is known.
  Table Final({"Threshold", "Total ops", "vs t=50"});
  for (const auto &[Threshold, Ops] : Series) {
    Final.beginRow();
    Final.cell("t=" + std::to_string(Threshold));
    Final.cell(static_cast<uint64_t>(Ops));
    Final.cell(Baseline > 0 ? Ops / Baseline : 0.0, 3);
  }
  std::fputs(Out.render().c_str(), stdout);
  std::printf("\nrelative cost:\n%s", Final.render().c_str());
  std::printf("\nBoth extremes lose: translating at t=2 wastes "
              "regeneration on cold code; waiting until t=1000 keeps hot "
              "code in the (20x slower) interpreter.\n");
  return 0;
}
