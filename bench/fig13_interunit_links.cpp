//===- bench/fig13_interunit_links.cpp - Reproduces Figure 13 -------------===//
//
// Figure 13: percentage of materialized links whose endpoints live in
// different cache units, per granularity (0% for FLUSH, 24.3% at 2
// units in the paper, approaching—but not reaching—100% for fine FIFO).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 13: inter-unit link percentage per granularity.");
  Flags.addDouble("pressure", 2.0, "Cache pressure factor.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  const auto Grid = benchutil::runFigureGrid(
      Flags, benchutil::granularityGrid({Flags.getDouble("pressure")}),
      "Figure 13: Links that target superblocks in different cache units",
      "Figure 13: 0% under FLUSH; 24.3% with two units; grows with the "
      "unit count; self-links keep fine FIFO below 100%");
  if (!Grid)
    return 1;
  const std::vector<SuiteResult> &Results = *Grid;

  Table Out({"Granularity", "Inter-unit links (Eq.1)",
             "Inter-unit links (mean/benchmark)", "Links created"});
  for (const SuiteResult &R : Results) {
    double MeanFraction = 0.0;
    size_t Count = 0;
    for (const SimResult &B : R.PerBenchmark) {
      if (B.Stats.LinksCreated == 0)
        continue;
      MeanFraction += B.Stats.interUnitLinkFraction();
      ++Count;
    }
    if (Count)
      MeanFraction /= static_cast<double>(Count);
    Out.beginRow();
    Out.cell(R.PolicyLabel);
    Out.cell(formatPercent(R.Combined.interUnitLinkFraction(), 1));
    Out.cell(formatPercent(MeanFraction, 1));
    Out.cell(R.Combined.LinksCreated);
  }
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\n2-unit inter-unit fraction: %s (paper: 24.3%%)\n",
              formatPercent(Results[1].Combined.interUnitLinkFraction(), 1)
                  .c_str());
  return 0;
}
