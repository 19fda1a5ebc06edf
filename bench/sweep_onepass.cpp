//===- bench/sweep_onepass.cpp - One-pass vs per-config sweep timing ------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
//
// Times the Figure 6/7/8 granularity x pressure lattice (the
// standardGranularitySweep() at the five paper pressures) through the
// sweep front door (multisweep::runSweepGrid) in both modes: dense
// per-config replay and the one-pass multi-configuration engine. The two
// must produce bit-identical suite results — the binary exits 2 if they
// ever diverge, so the recorded speedup is always a speedup of *equal*
// work.
//
// Each backend runs Repeats times, alternating between the two, so a
// drift in host load reaches both alike; the record keeps the median,
// min and max of each, and the speedup is the ratio of the medians.
// Besides the human-readable table the run writes a machine-readable
// BENCH_sweep.json (see --out) so CI and bench/record_bench.sh can track
// the one-pass speedup over time. It also times the suite's generation
// on the engine's workers (generate_ms). Every timing is informational.
//
// Run: ./sweep_onepass --scale=0.2 --out=BENCH_sweep.json
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "multisweep/MultiConfigEngine.h"
#include "sim/Sweep.h"
#include "support/Statistics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ccsim;

namespace {

/// Timed runs of each backend.
constexpr int Repeats = 5;

/// Bitwise equality of two grids' results: the one-pass contract is
/// bit-identity, not tolerance.
bool suitesEqual(const std::vector<SuiteResult> &A,
                 const std::vector<SuiteResult> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].PolicyLabel != B[I].PolicyLabel ||
        A[I].PressureFactor != B[I].PressureFactor ||
        A[I].Combined != B[I].Combined ||
        A[I].PerBenchmark.size() != B[I].PerBenchmark.size())
      return false;
    for (size_t P = 0; P < A[I].PerBenchmark.size(); ++P) {
      const SimResult &X = A[I].PerBenchmark[P];
      const SimResult &Y = B[I].PerBenchmark[P];
      if (X.BenchmarkName != Y.BenchmarkName ||
          X.PolicyName != Y.PolicyName ||
          X.CapacityBytes != Y.CapacityBytes || X.Stats != Y.Stats)
        return false;
    }
  }
  return true;
}

double elapsedMs(std::chrono::steady_clock::time_point Start,
                 std::chrono::steady_clock::time_point End) {
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

/// The median, min and max of one backend's run times.
struct Spread {
  double Median, Min, Max;
};

Spread spreadOf(const std::vector<double> &Ms) {
  return {median(Ms), *std::min_element(Ms.begin(), Ms.end()),
          *std::max_element(Ms.begin(), Ms.end())};
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Time the fig6/7/8 sweep lattice under the per-config and one-pass "
      "backends and record the speedup as JSON.");
  Flags.addString("out", "BENCH_sweep.json",
                  "Path for the machine-readable result record.");
  Flags.addString("pressures", "",
                  "Comma-separated pressure axis override (default: the "
                  "paper's 2,4,6,8,10).");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  std::vector<double> Pressures = benchutil::pressureAxis();
  if (!Flags.getString("pressures").empty()) {
    Pressures.clear();
    for (const std::string &Text : splitList(Flags.getString("pressures"))) {
      char *End = nullptr;
      Pressures.push_back(std::strtod(Text.c_str(), &End));
      if (*End) {
        std::fprintf(stderr, "error: bad pressure '%s'\n", Text.c_str());
        return 1;
      }
    }
  }
  // Paper-default costs; pressure comes from the grid.
  const std::vector<SweepJob> Grid = benchutil::granularityGrid(Pressures);
  if (benchutil::invalid(validateSweepGrid(Grid)))
    return 1;

  benchutil::printHeader("one-pass multi-configuration sweep",
                         "Figures 6-8 lattice (granularity x pressure)");

  // The suite is generated on the engine's workers (generateSuite).
  const auto GenerateStart = std::chrono::steady_clock::now();
  const SweepEngine Engine = benchutil::makeEngine(Flags);
  const double GenerateMs =
      elapsedMs(GenerateStart, std::chrono::steady_clock::now());
  std::printf("lattice: %zu configs x %zu benchmarks (scale %.3f, "
              "%u threads)\n\n",
              Grid.size(), Engine.traces().size(), Flags.getDouble("scale"),
              Engine.numThreads());
  std::printf("generate:   %.1f ms\n", GenerateMs);

  // Alternate the backends; every pair must agree bit for bit. The
  // one-pass plan is logged once.
  const multisweep::MultiSweepOptions PerConfig = {
      multisweep::SweepMode::PerConfig, /*Log=*/nullptr};
  multisweep::MultiSweepOptions OnePass;
  OnePass.Log = [](const std::string &Line) {
    std::fprintf(stderr, "sweep: %s\n", Line.c_str());
  };
  multisweep::OnePassAccounting Accounting;
  std::vector<double> PerConfigTimes, OnePassTimes;
  bool Equal = true;
  for (int Run = 0; Run < Repeats; ++Run) {
    const auto Start = std::chrono::steady_clock::now();
    const auto Dense = multisweep::runSweepGrid(Engine, Grid, PerConfig);
    const auto Middle = std::chrono::steady_clock::now();
    const auto Fast =
        multisweep::runSweepGrid(Engine, Grid, OnePass, &Accounting);
    const auto End = std::chrono::steady_clock::now();
    PerConfigTimes.push_back(elapsedMs(Start, Middle));
    OnePassTimes.push_back(elapsedMs(Middle, End));
    Equal &= suitesEqual(Dense, Fast);
    OnePass.Log = nullptr;
  }
  const Spread PerConfigMs = spreadOf(PerConfigTimes);
  const Spread OnePassMs = spreadOf(OnePassTimes);
  std::printf("per-config: %.1f ms median (min %.1f, max %.1f)\n",
              PerConfigMs.Median, PerConfigMs.Min, PerConfigMs.Max);
  std::printf("one-pass:   %.1f ms median (min %.1f, max %.1f)\n",
              OnePassMs.Median, OnePassMs.Min, OnePassMs.Max);

  const double Speedup =
      OnePassMs.Median > 0.0 ? PerConfigMs.Median / OnePassMs.Median : 0.0;
  const double AllHitFraction =
      Accounting.DecodedAccesses
          ? static_cast<double>(Accounting.AllResidentShortcuts) /
                static_cast<double>(Accounting.DecodedAccesses)
          : 0.0;
  std::printf("speedup:    %.2fx of the medians over %d runs each (%s), "
              "all-resident shortcut on %.1f%% of accesses\n",
              Speedup, Repeats,
              Equal ? "results bit-identical" : "RESULTS DIVERGED",
              AllHitFraction * 100.0);

  const std::string OutPath = Flags.getString("out");
  if (std::FILE *Out = std::fopen(OutPath.c_str(), "w")) {
    std::fprintf(Out,
                 "{\n"
                 "  \"bench\": \"sweep_onepass\",\n"
                 "  \"suite\": \"fig6_7_8_lattice\",\n"
                 "  \"scale\": %g,\n"
                 "  \"seed\": %llu,\n"
                 "  \"benchmarks\": %zu,\n"
                 "  \"configs_per_pass\": %zu,\n"
                 "  \"accesses_per_pass\": %llu,\n"
                 "  \"shared_misses\": %llu,\n"
                 "  \"all_hit_fraction\": %.6f,\n"
                 "  \"threads\": %u,\n"
                 "  \"repeats\": %d,\n"
                 "  \"generate_ms\": %.3f,\n"
                 "  \"per_config_ms\": %.3f,\n"
                 "  \"per_config_ms_min\": %.3f,\n"
                 "  \"per_config_ms_max\": %.3f,\n"
                 "  \"one_pass_ms\": %.3f,\n"
                 "  \"one_pass_ms_min\": %.3f,\n"
                 "  \"one_pass_ms_max\": %.3f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"equal\": %s\n"
                 "}\n",
                 Flags.getDouble("scale"),
                 static_cast<unsigned long long>(Flags.getInt("seed")),
                 Engine.traces().size(), Grid.size(),
                 static_cast<unsigned long long>(Accounting.DecodedAccesses),
                 static_cast<unsigned long long>(Accounting.SharedMisses),
                 AllHitFraction, Engine.numThreads(), Repeats, GenerateMs,
                 PerConfigMs.Median, PerConfigMs.Min, PerConfigMs.Max,
                 OnePassMs.Median, OnePassMs.Min, OnePassMs.Max, Speedup,
                 Equal ? "true" : "false");
    std::fclose(Out);
    std::printf("record written to %s\n", OutPath.c_str());
  } else {
    std::fprintf(stderr, "error: could not write %s\n", OutPath.c_str());
    return 1;
  }
  return Equal ? 0 : 2;
}
