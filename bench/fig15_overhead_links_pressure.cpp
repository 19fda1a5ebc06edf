//===- bench/fig15_overhead_links_pressure.cpp - Reproduces Figure 15 -----===//
//
// Figure 15: relative overhead including link maintenance as cache
// pressure increases, normalized to FLUSH at each pressure.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 15: relative overhead (incl. links) vs pressure.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  const auto Pressures = benchutil::pressureAxis();
  const auto Grid = benchutil::runFigureGrid(
      Flags, benchutil::granularityGrid(Pressures),
      "Figure 15: Relative overhead incl. link maintenance vs pressure",
      "Figure 15: same crossover trend as Figure 11, with link removal "
      "raising every policy except FLUSH");
  if (!Grid)
    return 1;

  std::vector<std::string> Labels;
  std::vector<std::vector<double>> MeanSeries;
  for (const auto &Results : benchutil::granularitySweeps(*Grid)) {
    if (Labels.empty())
      for (const SuiteResult &R : Results)
        Labels.push_back(R.PolicyLabel);
    MeanSeries.push_back(relativeOverheadPerBenchmarkMean(Results, true));
  }

  std::vector<std::string> Header = {"Granularity"};
  for (double P : Pressures)
    Header.push_back("n=" + formatDouble(P, 0));
  Table Out(Header);
  for (size_t G = 0; G < Labels.size(); ++G) {
    Out.beginRow();
    Out.cell(Labels[G]);
    for (size_t PI = 0; PI < Pressures.size(); ++PI)
      Out.cell(MeanSeries[PI][G], 3);
  }
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\nfine-grained FIFO (incl. links): %.3f at n=2 -> %.3f at "
              "n=10 (paper: approaches and crosses FLUSH)\n",
              MeanSeries.front().back(), MeanSeries.back().back());
  benchutil::maybeWriteCsv(Flags, Labels, Pressures, MeanSeries);
  return 0;
}
