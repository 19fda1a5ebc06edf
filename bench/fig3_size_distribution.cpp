//===- bench/fig3_size_distribution.cpp - Reproduces Figure 3 -------------===//
//
// Figure 3: size distribution of superblocks, SPECint2000 versus the
// interactive Windows applications (64-byte buckets, long right tails).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Histogram.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 3: superblock size distributions per suite.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  benchutil::printHeader(
      "Figure 3: Size distribution of superblocks",
      "Figure 3: both suites peak in the 64-320 byte range with a long "
      "tail; the Windows tail is markedly heavier");
  const SweepEngine Engine = benchutil::makeEngine(Flags);

  Histogram Spec(64.0, 12), Windows(64.0, 12);
  for (size_t I = 0; I < Engine.traces().size(); ++I) {
    const bool IsSpec =
        table1Workloads()[I].Suite == SuiteKind::SpecInt2000;
    for (const SuperblockDef &B : Engine.traces()[I].Blocks)
      (IsSpec ? Spec : Windows).add(B.SizeBytes);
  }

  std::printf("SPECint2000 benchmarks (%s superblocks):\n",
              formatWithCommas(Spec.totalCount()).c_str());
  std::fputs(Spec.render().c_str(), stdout);
  std::printf("\nWindows benchmarks (%s superblocks):\n",
              formatWithCommas(Windows.totalCount()).c_str());
  std::fputs(Windows.render().c_str(), stdout);

  std::printf("\ntail mass above 768 bytes: SPEC %s vs Windows %s "
              "(Windows tail must be heavier)\n",
              formatPercent(Spec.bucketFraction(Spec.numBuckets())).c_str(),
              formatPercent(Windows.bucketFraction(Windows.numBuckets()))
                  .c_str());
  return 0;
}
