//===- bench/fig4_median_sizes.cpp - Reproduces Figure 4 ------------------===//
//
// Figure 4: median superblock size (bytes) per benchmark.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Statistics.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 4: median superblock size per benchmark.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  benchutil::printHeader(
      "Figure 4: Median superblock size (bytes)",
      "Figure 4: SPEC medians ~190-245 bytes (gzip highest at 244), "
      "Windows medians larger");
  const SweepEngine Engine = benchutil::makeEngine(Flags);

  Table Out({"Benchmark", "Suite", "Median (model)", "Median (measured)",
             "Mean (measured)"});
  for (size_t I = 0; I < Engine.traces().size(); ++I) {
    const Trace &T = Engine.traces()[I];
    const WorkloadModel &M = table1Workloads()[I];
    const auto Sizes = T.sizesAsDoubles();
    Out.beginRow();
    Out.cell(M.Name);
    Out.cell(M.Suite == SuiteKind::SpecInt2000 ? "SPEC" : "Windows");
    Out.cell(M.MedianBlockBytes, 0);
    Out.cell(median(Sizes), 0);
    Out.cell(mean(Sizes), 0);
  }
  std::fputs(Out.render().c_str(), stdout);
  return 0;
}
