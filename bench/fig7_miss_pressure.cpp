//===- bench/fig7_miss_pressure.cpp - Reproduces Figure 7 -----------------===//
//
// Figure 7: unified miss rates at each granularity as the cache pressure
// factor increases from 2 to 10.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 7: miss rates as cache pressure increases.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  const auto Pressures = benchutil::pressureAxis();
  const auto Grid = benchutil::runFigureGrid(
      Flags, benchutil::granularityGrid(Pressures),
      "Figure 7: Miss rates at varying granularities vs cache pressure",
      "Figure 7: miss-rate differences between granularities become much "
      "more pronounced as pressure increases");
  if (!Grid)
    return 1;

  std::vector<std::vector<double>> Series; // [pressure][granularity].
  std::vector<std::string> Labels;
  for (const auto &Results : benchutil::granularitySweeps(*Grid)) {
    if (Labels.empty())
      for (const SuiteResult &R : Results)
        Labels.push_back(R.PolicyLabel);
    Series.push_back(unifiedMissRates(Results));
  }

  std::vector<std::string> Header = {"Granularity"};
  for (double P : Pressures)
    Header.push_back("n=" + formatDouble(P, 0));
  Table Out(Header);
  for (size_t G = 0; G < Labels.size(); ++G) {
    Out.beginRow();
    Out.cell(Labels[G]);
    for (size_t PI = 0; PI < Pressures.size(); ++PI)
      Out.cell(formatPercent(Series[PI][G], 2));
  }
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\nFLUSH-FIFO miss gap (absolute): %.2f pp at n=2 -> %.2f "
              "pp at n=10 (paper: widens with pressure)\n",
              (Series.front().front() - Series.front().back()) * 100.0,
              (Series.back().front() - Series.back().back()) * 100.0);
  benchutil::maybeWriteCsv(Flags, Labels, Pressures, Series);
  return 0;
}
