//===- bench/sensitivity_costmodel.cpp - Cost-coefficient sensitivity -----===//
//
// How robust is the paper's conclusion to its measured coefficients?
// The medium-grain optimum exists because the eviction fixed cost
// (Eq. 2's 3055) punishes frequent invocations while the miss cost
// (Eq. 3) punishes coarse grains. This bench scales the two knobs and
// reports, for each combination, which granularity minimizes total
// overhead — showing the regime in which "medium-grained is best" holds
// and where it degenerates to the extremes.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"
#include "multisweep/MultiConfigEngine.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Sensitivity: optimal granularity vs cost-model coefficients.");
  Flags.addDouble("pressure", 6.0, "Cache pressure factor.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  // One grid for the whole study: the granularity sweep once per cost
  // model, in (miss scale, eviction scale) order.
  const std::vector<double> EvictScales = {0.1, 1.0, 10.0, 100.0};
  const std::vector<double> MissScales = {0.1, 1.0, 10.0};
  std::vector<SweepJob> Jobs;
  for (double MissScale : MissScales) {
    for (double EvictScale : EvictScales) {
      SimConfig Config;
      Config.Costs = CostModel::paperDefaults();
      Config.Costs.EvictionBase *= EvictScale;
      Config.Costs.MissBase *= MissScale;
      Config.Costs.MissPerByte *= MissScale;
      for (const SweepJob &Job :
           benchutil::granularityGrid({Flags.getDouble("pressure")}, Config))
        Jobs.push_back(Job);
    }
  }
  if (benchutil::invalid(validateSweepGrid(Jobs)))
    return 1;
  benchutil::printHeader(
      "Sensitivity: where does the medium-grain optimum live?",
      "Section 4.3-4.4: the eviction fixed cost (3055) drives the "
      "fine-end penalty; the miss cost (75.4x+1922) drives the coarse-end "
      "penalty");
  const auto Sweeps = benchutil::granularitySweeps(
      multisweep::runSweepGrid(benchutil::makeEngine(Flags), Jobs));

  Table Out({"Eq.2 fixed x", "Eq.3 x", "Best granularity", "Best rel",
             "FIFO rel", "FLUSH penalty"});
  size_t Next = 0;
  for (double MissScale : MissScales) {
    for (double EvictScale : EvictScales) {
      const std::vector<SuiteResult> &Results = Sweeps[Next++];
      const auto Rel = relativeOverheadPerBenchmarkMean(Results, true);
      size_t Best = 0;
      for (size_t I = 1; I < Rel.size(); ++I)
        if (Rel[I] < Rel[Best])
          Best = I;
      Out.beginRow();
      Out.cell(formatDouble(EvictScale, 1) + "x");
      Out.cell(formatDouble(MissScale, 1) + "x");
      Out.cell(Results[Best].PolicyLabel);
      Out.cell(Rel[Best], 3);
      Out.cell(Rel.back(), 3);
      Out.cell(formatDouble(1.0 / std::max(1e-9, Rel[Best]), 2) + "x");
    }
  }
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\nExpected regimes: cheap evictions (0.1x) reward the "
              "finest grains; expensive invocations (10-100x) push the "
              "optimum toward coarse units; scaling misses moves it the "
              "other way. The paper's coefficients sit in the "
              "medium-grain regime.\n");
  return 0;
}
