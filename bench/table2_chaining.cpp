//===- bench/table2_chaining.cpp - Reproduces Table 2 ---------------------===//
//
// Table 2: slowdown from disabling superblock chaining, measured by
// running each SPEC proxy program through the mini dynamic binary
// translator with chaining enabled and disabled. The paper measured
// wall-clock seconds on a dual-Xeon; the reproducible quantity is the
// ratio, dominated by the memory protection changes on every dispatcher
// entry.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cmath>
#include "runtime/SystemProfiles.h"
#include "runtime/Translator.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags("Table 2: slowdown from disabling superblock chaining.");
  Flags.addInt("budget", static_cast<int64_t>(table2RunBudget()),
               "Guest instruction budget per run.");
  Flags.addBool("no-protection", false,
                "Model a translator without memory protection (the "
                "paper's 'systems where this is not necessary').");
  if (!Flags.parse(Argc, Argv))
    return 1;
  std::string Error;
  const auto BudgetFlag =
      boundedIntFlag(Flags, "budget", 1, int64_t(1) << 40, &Error);
  if (!BudgetFlag) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  benchutil::printHeader(
      "Table 2: Slowdown resulting from disabling superblock chaining",
      "Table 2: slowdowns range 447% (mcf) to 3357% (gzip); 'the cost "
      "... is caused by the memory protection changes'");

  const uint64_t Budget = static_cast<uint64_t>(*BudgetFlag);
  Table Out({"Benchmark", "Guest instrs", "Linked (ops)", "Unlinked (ops)",
             "Slowdown", "Paper", "State eq"});
  double LogRatioSum = 0.0, PaperLogRatioSum = 0.0;
  for (const Table2Profile &Row : table2Profiles()) {
    const Program P = generateProgram(Row.Spec);
    TranslatorConfig On;
    On.CacheBytes = 32ULL << 20; // Effectively unbounded, as in the paper.
    On.Weights.ProtectTranslator = !Flags.getBool("no-protection");
    TranslatorConfig Off = On;
    Off.EnableChaining = false;

    Translator TOn(P, On), TOff(P, Off);
    const double OpsOn = TOn.run(Budget).Ops.total();
    const double OpsOff = TOff.run(Budget).Ops.total();
    const double SlowdownPct = (OpsOff / OpsOn - 1.0) * 100.0;
    LogRatioSum += std::log(OpsOff / OpsOn);
    PaperLogRatioSum += std::log(Row.PaperSlowdownPercent / 100.0 + 1.0);

    Out.beginRow();
    Out.cell(Row.Name);
    Out.cell(TOn.stats().GuestInstructions);
    Out.cell(static_cast<uint64_t>(OpsOn));
    Out.cell(static_cast<uint64_t>(OpsOff));
    Out.cell(formatDouble(SlowdownPct, 0) + "%");
    Out.cell(formatDouble(Row.PaperSlowdownPercent, 0) + "%");
    Out.cell(TOn.guestState().digest() == TOff.guestState().digest()
                 ? "yes"
                 : "NO");
  }
  std::fputs(Out.render().c_str(), stdout);

  const double N = static_cast<double>(table2Profiles().size());
  std::printf("\ngeometric-mean slowdown: %.0f%% measured vs %.0f%% paper "
              "(chaining is crucial; removing it is not an option)\n",
              (std::exp(LogRatioSum / N) - 1.0) * 100.0,
              (std::exp(PaperLogRatioSum / N) - 1.0) * 100.0);
  return 0;
}
