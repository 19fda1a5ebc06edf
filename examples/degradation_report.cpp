//===- examples/degradation_report.cpp - Adversarial degradation table ----===//
//
// The stress-test counterpart of granularity_explorer: instead of asking
// which granularity is best on a benign workload, this report asks how
// badly each granularity can be made to behave. Every catalog adversary
// is replayed at its tuned capacity and compared against the benign
// statistical baseline at equal trace length and equal relative
// pressure; the table ranks granularities by modeled-overhead blowup.
//
// Run: ./degradation_report --scale=0.5
//
//===----------------------------------------------------------------------===//

#include "core/EvictionPolicy.h"
#include "support/Flags.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "trace/WorkloadModel.h"
#include "workloads/Degradation.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags("Replay every adversarial workload against the benign "
                "baseline and rank eviction granularities by overhead "
                "blowup.");
  Flags.addString("benchmark", "crafty",
                  "Table 1 benchmark used as the benign baseline.");
  Flags.addDouble("scale", 1.0, "Working-set multiplier (both sides).");
  Flags.addInt("seed", 42, "Trace generation seed.");
  Flags.addString("policies", "flush,8,fine",
                  "Comma-separated granularities to compare.");
  if (!Flags.parse(Argc, Argv))
    return 1;

  workloads::DegradationConfig Config;
  Config.Scale = Flags.getDouble("scale");
  Config.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  Config.BaselineBenchmark = Flags.getString("benchmark");
  std::string Error;
  const auto Policies = parsePolicyList(Flags.getString("policies"), &Error);
  if (!Policies) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  Config.Policies = *Policies;
  if (!findWorkload(Config.BaselineBenchmark)) {
    std::fprintf(stderr, "error: unknown benchmark '%s'\n",
                 Config.BaselineBenchmark.c_str());
    return 1;
  }

  const std::vector<workloads::DegradationCell> Cells =
      workloads::computeDegradation(Config);

  std::printf("baseline %s, scale %g, seed %llu; degradation = adversarial "
              "overhead / benign overhead at equal length and relative "
              "pressure\n\n",
              Config.BaselineBenchmark.c_str(), Config.Scale,
              static_cast<unsigned long long>(Config.Seed));
  Table Out({"Adversary", "Granularity", "Cache", "Miss rate",
             "Evictions", "Overhead (instr)", "Degradation"});
  for (const workloads::DegradationCell &Cell : Cells) {
    Out.beginRow();
    Out.cell(Cell.Adversary);
    Out.cell(Cell.PolicyLabel);
    Out.cell(formatBytes(Cell.AdversaryCapacityBytes));
    Out.cell(formatPercent(Cell.Adversarial.missRate(), 2));
    Out.cell(Cell.Adversarial.EvictionInvocations);
    Out.cell(Cell.Adversarial.totalOverhead(true), 0);
    Out.cell(Cell.degradation(), 2);
  }
  std::fputs(Out.render().c_str(), stdout);

  if (const workloads::DegradationCell *Worst = workloads::worstCell(Cells))
    std::printf("\nworst case: %s under %s degrades %.1fx over the benign "
                "baseline\n",
                Worst->Adversary.c_str(), Worst->PolicyLabel.c_str(),
                Worst->degradation());
  return 0;
}
