//===- bench/fig9_eviction_regression.cpp - Reproduces Figure 9 / Eqs 2-4 -===//
//
// Figure 9 and Equations 2-4: run the mini dynamic binary translator (the
// DynamoRIO substitute) against a small code cache, log every eviction /
// regeneration / unlink event with its instrumented instruction count
// (the PAPI substitute), and fit least-squares lines:
//
//   Eq. 2  evictionOverhead  = 2.77  * sizeBytes + 3055
//   Eq. 3  missOverhead      = 75.4  * sizeBytes + 1922
//   Eq. 4  unlinkingOverhead = 296.5 * numLinks  + 95.7
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/OverheadFit.h"
#include "isa/ProgramGenerator.h"
#include "runtime/SystemProfiles.h"
#include "runtime/Translator.h"
#include "support/Histogram.h"

using namespace ccsim;

static void printFit(const char *Name, const LinearFit &Fit,
                     double PaperSlope, double PaperIntercept,
                     const char *Unit) {
  std::printf("%-10s fitted: %7.2f * %s + %7.1f   (R^2 = %.4f, n = %s)\n",
              Name, Fit.Slope, Unit, Fit.Intercept, Fit.R2,
              formatWithCommas(Fit.NumSamples).c_str());
  std::printf("%-10s paper:  %7.2f * %s + %7.1f   (slope err %.1f%%, "
              "intercept err %.1f%%)\n",
              "", PaperSlope, Unit, PaperIntercept,
              relativeError(Fit.Slope, PaperSlope) * 100.0,
              relativeError(Fit.Intercept, PaperIntercept) * 100.0);
}

int main(int Argc, char **Argv) {
  FlagSet Flags("Figure 9 / Equations 2-4: overhead regressions measured "
                "on the mini-DBT.");
  Flags.addInt("cache-kb", 24, "Code cache size for the eviction study.");
  Flags.addInt("budget", 30000000, "Guest instruction budget.");
  if (!Flags.parse(Argc, Argv))
    return 1;
  std::string Error;
  const auto CacheKB = boundedIntFlag(Flags, "cache-kb", 1, 1 << 20, &Error);
  const auto Budget =
      boundedIntFlag(Flags, "budget", 1, int64_t(1) << 40, &Error);
  if (!CacheKB || !Budget) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  benchutil::printHeader(
      "Figure 9: Overhead (instruction count) of code cache evictions",
      "Section 4.3: 'a log of over 10,000 code cache evictions'; Eq. 2 = "
      "2.77x+3055, Eq. 3 = 75.4x+1922, Eq. 4 = 296.5x+95.7");

  const Program P = generateProgram(fig9ProgramSpec());
  TranslatorConfig Config;
  Config.CacheBytes = static_cast<uint64_t>(*CacheKB) * 1024;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(static_cast<uint64_t>(*Budget));

  std::printf("mini-DBT run: %s guest instructions, %s fragments built, "
              "%s evictions logged\n\n",
              formatWithCommas(Stats.GuestInstructions).c_str(),
              formatWithCommas(Stats.FragmentsBuilt).c_str(),
              formatWithCommas(Stats.EvictionInvocations).c_str());

  const OverheadFits Fits = fitOverheads(Stats.Ops);
  printFit("eviction", Fits.Eviction, 2.77, 3055.0, "bytes");
  std::printf("\n");
  printFit("miss", Fits.Miss, 75.4, 1922.0, "bytes");
  std::printf("\n");
  printFit("unlinking", Fits.Unlink, 296.5, 95.7, "links");

  // The scatter of Figure 9: eviction sizes vs instructions, as a
  // bucketed profile.
  std::printf("\neviction size distribution (the regression's x axis):\n");
  Histogram Sizes(256.0, 10);
  for (const OpCounter::Sample &S : Stats.Ops.EvictionSamples)
    Sizes.add(S.X);
  std::fputs(Sizes.render(40).c_str(), stdout);

  // Sanity check mirrored from the paper's discussion.
  const double EvictAt230 = Fits.Eviction.eval(230.0);
  const double MissAt230 = Fits.Miss.eval(230.0);
  std::printf("\nfitted eviction of 230 bytes: %.0f instructions (paper: "
              "~3,690)\n",
              EvictAt230);
  std::printf("fitted miss for 230 bytes:    %.0f instructions (paper: "
              "~19,264)\n",
              MissAt230);
  return 0;
}
