//===- bench/fig10_overhead.cpp - Reproduces Figure 10 --------------------===//
//
// Figure 10: relative overhead (miss + eviction penalties, no link
// maintenance) of each granularity, normalized to FLUSH, with the cache
// sized at maxCache/10.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"
#include "support/AsciiChart.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 10: relative overhead of eviction granularities.");
  Flags.addDouble("pressure", 10.0, "Cache pressure factor.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  const auto Grid = benchutil::runFigureGrid(
      Flags, benchutil::granularityGrid({Flags.getDouble("pressure")}),
      "Figure 10: Relative overhead (miss + eviction), cache = maxCache/" +
          formatDouble(Flags.getDouble("pressure"), 0),
      "Figure 10: coarse policies on the far left perform worst; the "
      "minimum is at medium granularity; the finest grains rise again "
      "due to frequent eviction invocations");
  if (!Grid)
    return 1;
  const std::vector<SuiteResult> &Results = *Grid;
  const auto Weighted = relativeOverheadWeighted(Results, false);
  const auto Mean = relativeOverheadPerBenchmarkMean(Results, false);

  Table Out({"Granularity", "Relative (Eq.1)", "Relative (mean/benchmark)",
             "Miss rate", "Evictions"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(Weighted[I], 3);
    Out.cell(Mean[I], 3);
    Out.cell(formatPercent(Results[I].Combined.missRate(), 2));
    Out.cell(Results[I].Combined.EvictionInvocations);
  }
  std::fputs(Out.render().c_str(), stdout);

  BarChart Chart;
  for (size_t I = 0; I < Results.size(); ++I)
    Chart.add(Results[I].PolicyLabel, Mean[I]);
  std::printf("\n%s", Chart.render().c_str());

  // Locate the minimum of the per-benchmark-mean curve.
  size_t Best = 0;
  for (size_t I = 1; I < Mean.size(); ++I)
    if (Mean[I] < Mean[Best])
      Best = I;
  std::printf("\nminimum of the curve: %s at %.3f; fine end (FIFO) at "
              "%.3f (paper: minimum at medium granularity, fine end "
              "higher)\n",
              Results[Best].PolicyLabel.c_str(), Mean[Best], Mean.back());
  return 0;
}
