//===- bench/adversarial_degradation.cpp - Worst-case overhead record -----===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs the adversarial degradation study (src/workloads/Degradation.h):
// every catalog adversary replayed at its tuned capacity against the
// benign statistical baseline at equal trace length and equal relative
// pressure, per eviction granularity. Prints the ranking table and writes
// a machine-readable BENCH_adversarial.json so CI can track the
// worst-case blowup over time.
//
// The correctness gate is the degradation floor, not wall-clock: the
// record promises at least one (adversary, granularity) cell degrading
// >= 5x over the benign baseline, and bench/record_bench.cmake fails
// the record otherwise. Timings are informational.
//
// Run: ./adversarial_degradation --scale=0.25 --out=BENCH_adversarial.json
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "workloads/Degradation.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags("Measure how badly each adversarial workload degrades "
                "each eviction granularity and record the result as JSON.");
  Flags.addString("benchmark", "crafty",
                  "Table 1 benchmark used as the benign baseline.");
  Flags.addDouble("scale", 0.25, "Working-set multiplier (both sides).");
  Flags.addInt("seed", 42, "Trace generation seed.");
  Flags.addString("out", "BENCH_adversarial.json",
                  "Path for the machine-readable result record.");
  if (!Flags.parse(Argc, Argv))
    return 1;

  std::string Error;
  const auto Scale = scaleFlag(Flags, "scale", &Error);
  if (!Scale) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  workloads::DegradationConfig Config;
  Config.Scale = *Scale;
  Config.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  Config.BaselineBenchmark = Flags.getString("benchmark");

  benchutil::printHeader("adversarial degradation",
                         "worst-case overhead vs benign baseline");

  const auto Start = std::chrono::steady_clock::now();
  const std::vector<workloads::DegradationCell> Cells =
      workloads::computeDegradation(Config);
  const auto End = std::chrono::steady_clock::now();
  const double ElapsedMs =
      std::chrono::duration<double, std::milli>(End - Start).count();

  Table Out({"Adversary", "Granularity", "Miss rate", "Overhead (instr)",
             "Degradation"});
  uint64_t Accesses = 0;
  for (const workloads::DegradationCell &Cell : Cells) {
    Accesses = Cell.Adversarial.Accesses;
    Out.beginRow();
    Out.cell(Cell.Adversary);
    Out.cell(Cell.PolicyLabel);
    Out.cell(formatPercent(Cell.Adversarial.missRate(), 2));
    Out.cell(Cell.Adversarial.totalOverhead(true), 0);
    Out.cell(Cell.degradation(), 2);
  }
  std::fputs(Out.render().c_str(), stdout);

  const workloads::DegradationCell *Worst = workloads::worstCell(Cells);
  if (!Worst) {
    std::fprintf(stderr, "error: empty degradation study\n");
    return 1;
  }
  std::printf("\nworst case: %s under %s degrades %.2fx (%.1f ms total)\n",
              Worst->Adversary.c_str(), Worst->PolicyLabel.c_str(),
              Worst->degradation(), ElapsedMs);

  const std::string OutPath = Flags.getString("out");
  std::FILE *Json = std::fopen(OutPath.c_str(), "w");
  if (!Json) {
    std::fprintf(stderr, "error: could not write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Json,
               "{\n"
               "  \"bench\": \"adversarial_degradation\",\n"
               "  \"baseline\": \"%s\",\n"
               "  \"scale\": %g,\n"
               "  \"seed\": %llu,\n"
               "  \"accesses\": %llu,\n"
               "  \"adversaries\": %zu,\n"
               "  \"policies\": %zu,\n"
               "  \"max_degradation\": %.3f,\n"
               "  \"max_adversary\": \"%s\",\n"
               "  \"max_policy\": \"%s\",\n"
               "  \"elapsed_ms\": %.3f,\n"
               "  \"rows\": [\n",
               Config.BaselineBenchmark.c_str(), Config.Scale,
               static_cast<unsigned long long>(Config.Seed),
               static_cast<unsigned long long>(Accesses),
               workloads::adversarialCatalog().size(), Config.Policies.size(),
               Worst->degradation(), Worst->Adversary.c_str(),
               Worst->PolicyLabel.c_str(), ElapsedMs);
  for (size_t I = 0; I < Cells.size(); ++I) {
    const workloads::DegradationCell &Cell = Cells[I];
    std::fprintf(Json,
                 "    {\"adversary\": \"%s\", \"policy\": \"%s\", "
                 "\"misses\": %llu, \"overhead\": %.3f, "
                 "\"degradation\": %.3f}%s\n",
                 Cell.Adversary.c_str(), Cell.PolicyLabel.c_str(),
                 static_cast<unsigned long long>(Cell.Adversarial.Misses),
                 Cell.Adversarial.totalOverhead(true), Cell.degradation(),
                 I + 1 < Cells.size() ? "," : "");
  }
  std::fprintf(Json, "  ]\n}\n");
  std::fclose(Json);
  std::printf("record written to %s\n", OutPath.c_str());
  return 0;
}
