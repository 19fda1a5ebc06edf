//===- bench/fig12_outbound_links.cpp - Reproduces Figure 12 --------------===//
//
// Figure 12: average number of outbound links originating from each
// superblock (suite average ~1.7), and the back-pointer table memory
// estimate of Section 5.1 (~11.5% of the code cache).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/LinkGraph.h"
#include "support/Statistics.h"
#include "trace/TraceGenerator.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 12: mean outbound links per superblock.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  benchutil::printHeader(
      "Figure 12: Average outbound links per superblock",
      "Figure 12: suite average ~1.7 links/superblock; Section 5.1: 16 "
      "bytes per back pointer => table ~11.5% of the code cache");
  const SweepEngine Engine = benchutil::makeEngine(Flags);

  Table Out({"Benchmark", "Mean out-degree", "Backptr bytes/block",
             "vs mean block", "vs median block"});
  double DegreeSum = 0.0, MeanFractionSum = 0.0, MedianFractionSum = 0.0;
  for (size_t I = 0; I < Engine.traces().size(); ++I) {
    const Trace &T = Engine.traces()[I];
    const double Degree = T.meanOutDegree();
    const double BytesPerBlock = Degree * LinkGraph::BytesPerBackPointer;
    const double CodePerBlock =
        static_cast<double>(T.maxCacheBytes()) /
        static_cast<double>(T.numSuperblocks());
    const double MedianBlock = median(T.sizesAsDoubles());
    DegreeSum += Degree;
    MeanFractionSum += BytesPerBlock / CodePerBlock;
    MedianFractionSum += BytesPerBlock / MedianBlock;
    Out.beginRow();
    Out.cell(table1Workloads()[I].Name);
    Out.cell(Degree, 2);
    Out.cell(BytesPerBlock, 1);
    Out.cell(formatPercent(BytesPerBlock / CodePerBlock, 1));
    Out.cell(formatPercent(BytesPerBlock / MedianBlock, 1));
  }
  std::fputs(Out.render().c_str(), stdout);

  const double N = static_cast<double>(Engine.traces().size());
  std::printf("\nsuite mean out-degree: %.2f (paper: 1.7)\n",
              DegreeSum / N);
  std::printf("back-pointer table vs the MEDIAN superblock (the paper's "
              "arithmetic: 1.7 links x 16 bytes / ~235-byte blocks): %s "
              "(paper: ~11.5%%)\n",
              formatPercent(MedianFractionSum / N, 1).c_str());
  std::printf("back-pointer table vs total code bytes: %s (lower, since "
              "mean block sizes exceed medians)\n",
              formatPercent(MeanFractionSum / N, 1).c_str());
  return 0;
}
