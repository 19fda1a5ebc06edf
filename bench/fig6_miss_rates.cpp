//===- bench/fig6_miss_rates.cpp - Reproduces Figure 6 --------------------===//
//
// Figure 6: unified (Eq. 1) miss rate at each eviction granularity with
// the cache pressure factor fixed at 2.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"
#include "support/AsciiChart.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 6: miss rates at varying granularities, pressure 2.");
  Flags.addDouble("pressure", 2.0, "Cache pressure factor.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  const auto Grid = benchutil::runFigureGrid(
      Flags, benchutil::granularityGrid({Flags.getDouble("pressure")}),
      "Figure 6: Miss rates at varying granularities (pressure " +
          formatDouble(Flags.getDouble("pressure"), 0) + ")",
      "Figure 6: miss rate declines monotonically from FLUSH to the "
      "finest-grained FIFO");
  if (!Grid)
    return 1;
  const std::vector<SuiteResult> &Results = *Grid;
  const auto Rates = unifiedMissRates(Results);

  Table Out({"Granularity", "Unified miss rate", "Misses", "Accesses"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(formatPercent(Rates[I], 3));
    Out.cell(Results[I].Combined.Misses);
    Out.cell(Results[I].Combined.Accesses);
  }
  std::fputs(Out.render().c_str(), stdout);

  BarChart Chart;
  for (size_t I = 0; I < Results.size(); ++I)
    Chart.add(Results[I].PolicyLabel, Rates[I],
              formatPercent(Rates[I], 3));
  std::printf("\n%s", Chart.render().c_str());

  std::printf("\nFLUSH/FIFO miss ratio: %.2fx (paper: >1, declining "
              "curve)\n",
              Rates.front() / Rates.back());
  return 0;
}
