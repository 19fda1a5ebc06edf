//===- bench/table1_benchmarks.cpp - Reproduces Table 1 -------------------===//
//
// Table 1 of the paper: the benchmark suite with the number of hot
// superblocks each contributes to the code cache, plus this
// reproduction's derived statistics (maxCache, accesses, link degree).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Statistics.h"
#include "trace/TraceGenerator.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Table 1: benchmarks and hot superblock counts.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  benchutil::printHeader("Table 1: Benchmarks used in the evaluation",
                         "Table 1 (superblock counts are exact); Section "
                         "4.2 (maxCache 171 KB for gzip .. 34.2 MB for "
                         "word)");
  const SweepEngine Engine = benchutil::makeEngine(Flags);

  Table Out({"Name", "Superblocks", "Description", "Suite", "maxCache",
             "Accesses", "MeanDeg"});
  for (size_t I = 0; I < Engine.traces().size(); ++I) {
    const Trace &T = Engine.traces()[I];
    const WorkloadModel &M = table1Workloads()[I];
    Out.beginRow();
    Out.cell(M.Name);
    Out.cell(static_cast<uint64_t>(T.numSuperblocks()));
    Out.cell(M.Description);
    Out.cell(M.Suite == SuiteKind::SpecInt2000 ? "SPECint2000" : "Windows");
    Out.cell(formatBytes(T.maxCacheBytes()));
    Out.cell(static_cast<uint64_t>(T.numAccesses()));
    Out.cell(T.meanOutDegree(), 2);
  }
  std::fputs(Out.render().c_str(), stdout);

  uint64_t TotalBlocks = 0;
  for (const Trace &T : Engine.traces())
    TotalBlocks += T.numSuperblocks();
  std::printf("\ntotal hot superblocks across the suite: %s\n",
              formatWithCommas(TotalBlocks).c_str());
  return 0;
}
