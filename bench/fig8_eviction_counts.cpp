//===- bench/fig8_eviction_counts.cpp - Reproduces Figure 8 ---------------===//
//
// Figure 8: number of eviction-mechanism invocations at each granularity
// relative to the finest-grained FIFO (= 100%).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"
#include "support/AsciiChart.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 8: eviction invocations relative to fine-grained FIFO.");
  Flags.addDouble("pressure", 2.0, "Cache pressure factor.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  const auto Grid = benchutil::runFigureGrid(
      Flags, benchutil::granularityGrid({Flags.getDouble("pressure")}),
      "Figure 8: Relative number of evictions vs finest-grained FIFO",
      "Figure 8: invocations fall steeply with coarser units; the paper "
      "reports ~3x fewer at 64 units than fine-grained FIFO");
  if (!Grid)
    return 1;
  const std::vector<SuiteResult> &Results = *Grid;
  const size_t Baseline = Results.size() - 1; // Fine FIFO.
  const auto Weighted = relativeEvictionsWeighted(Results, Baseline);
  const auto Mean = relativeEvictionsPerBenchmarkMean(Results, Baseline);

  Table Out({"Granularity", "Invocations", "Relative (Eq.1)",
             "Relative (mean/benchmark)"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(Results[I].Combined.EvictionInvocations);
    Out.cell(formatPercent(Weighted[I], 1));
    Out.cell(formatPercent(Mean[I], 1));
  }
  std::fputs(Out.render().c_str(), stdout);

  BarChart Chart;
  for (size_t I = 0; I < Results.size(); ++I)
    Chart.add(Results[I].PolicyLabel, Mean[I], formatPercent(Mean[I], 1));
  std::printf("\n%s", Chart.render().c_str());

  // The paper's headline comparison point.
  for (size_t I = 0; I < Results.size(); ++I)
    if (Results[I].PolicyLabel == "64-unit")
      std::printf("\n64-unit vs FIFO invocation reduction: %.2fx (Eq.1) / "
                  "%.2fx (mean) -- paper: ~3x\n",
                  1.0 / Weighted[I], 1.0 / Mean[I]);
  return 0;
}
