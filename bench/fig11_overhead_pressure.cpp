//===- bench/fig11_overhead_pressure.cpp - Reproduces Figure 11 -----------===//
//
// Figure 11: relative overhead (miss + eviction, no link maintenance) of
// each granularity as pressure increases, normalized to FLUSH at each
// pressure.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 11: relative overhead as cache pressure increases.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  const auto Pressures = benchutil::pressureAxis();
  const auto Grid = benchutil::runFigureGrid(
      Flags, benchutil::granularityGrid(Pressures),
      "Figure 11: Relative overhead (miss + eviction) vs cache pressure",
      "Figure 11: the finest-grained policy starts out better than FLUSH "
      "and loses ground as pressure increases, eventually crossing it; "
      "medium grains stay best");
  if (!Grid)
    return 1;

  std::vector<std::string> Labels;
  std::vector<std::vector<double>> MeanSeries, WeightedSeries;
  for (const auto &Results : benchutil::granularitySweeps(*Grid)) {
    if (Labels.empty())
      for (const SuiteResult &R : Results)
        Labels.push_back(R.PolicyLabel);
    MeanSeries.push_back(relativeOverheadPerBenchmarkMean(Results, false));
    WeightedSeries.push_back(relativeOverheadWeighted(Results, false));
  }

  auto Emit = [&](const char *Title,
                  const std::vector<std::vector<double>> &Series) {
    std::printf("%s\n", Title);
    std::vector<std::string> Header = {"Granularity"};
    for (double P : Pressures)
      Header.push_back("n=" + formatDouble(P, 0));
    Table Out(Header);
    for (size_t G = 0; G < Labels.size(); ++G) {
      Out.beginRow();
      Out.cell(Labels[G]);
      for (size_t PI = 0; PI < Pressures.size(); ++PI)
        Out.cell(Series[PI][G], 3);
    }
    std::fputs(Out.render().c_str(), stdout);
    std::printf("\n");
  };

  Emit("mean of per-benchmark relative overheads:", MeanSeries);
  Emit("Eq.1-weighted relative overheads:", WeightedSeries);

  std::printf("fine-grained FIFO trend (mean aggregation): %.3f at n=2 "
              "-> %.3f at n=10 (paper: rises toward and past 1.0)\n",
              MeanSeries.front().back(), MeanSeries.back().back());
  benchutil::maybeWriteCsv(Flags, Labels, Pressures, MeanSeries);
  return 0;
}
