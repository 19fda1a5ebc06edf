//===- bench/sec53_execution_time.cpp - Reproduces Section 5.3 ------------===//
//
// Section 5.3's execution-time estimate: with a cache pressure factor of
// 10, changing the eviction granularity from FLUSH to 8-unit FIFO
// reduces overall execution time by 19.33% for crafty and 19.79% for
// twolf. Execution time = application instructions (accesses x mean
// instructions per dispatch) + modeled management overhead (miss +
// eviction + link maintenance).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Section 5.3: execution-time reduction, FLUSH -> 8-unit FIFO.");
  Flags.addDouble("pressure", 10.0, "Cache pressure factor.");
  Flags.addDouble("ipd", 6000.0,
                  "Application instructions retired per dispatch event.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;
  SimConfig Config;
  Config.PressureFactor = Flags.getDouble("pressure");
  if (benchutil::invalid(Config.validate()))
    return 1;

  benchutil::printHeader(
      "Section 5.3: Execution-time reduction from FLUSH to 8-unit FIFO",
      "Section 5.3: at pressure 10, crafty improves 19.33% and twolf "
      "19.79%; stressed applications improve most");
  const SweepEngine Engine = benchutil::makeEngine(Flags);
  const SuiteResult Flush =
      Engine.runSuite(GranularitySpec::flush(), Config);
  const SuiteResult Units8 =
      Engine.runSuite(GranularitySpec::units(8), Config);

  ExecutionTimeModel Model;
  Model.InstructionsPerDispatch = Flags.getDouble("ipd");

  Table Out({"Benchmark", "Overhead share (FLUSH)", "Time reduction",
             "Overhead reduction"});
  for (size_t I = 0; I < Flush.PerBenchmark.size(); ++I) {
    const SimResult &A = Flush.PerBenchmark[I];
    const SimResult &B = Units8.PerBenchmark[I];
    const double Total = Model.totalInstructions(A, true);
    const double OverheadShare = A.Stats.totalOverhead(true) / Total;
    const double TimeReduction = Model.reductionFraction(A, B, true);
    const double OverheadReduction =
        1.0 - B.Stats.totalOverhead(true) / A.Stats.totalOverhead(true);
    Out.beginRow();
    Out.cell(A.BenchmarkName);
    Out.cell(formatPercent(OverheadShare, 1));
    Out.cell(formatPercent(TimeReduction, 2));
    Out.cell(formatPercent(OverheadReduction, 2));
  }
  std::fputs(Out.render().c_str(), stdout);

  for (size_t I = 0; I < Flush.PerBenchmark.size(); ++I) {
    const std::string &Name = Flush.PerBenchmark[I].BenchmarkName;
    if (Name.rfind("crafty", 0) == 0 || Name.rfind("twolf", 0) == 0)
      std::printf("\n%s: %.2f%% execution-time reduction (paper: %s)",
                  Name.c_str(),
                  Model.reductionFraction(Flush.PerBenchmark[I],
                                          Units8.PerBenchmark[I], true) *
                      100.0,
                  Name.rfind("crafty", 0) == 0 ? "19.33%" : "19.79%");
  }
  std::printf("\n");
  return 0;
}
