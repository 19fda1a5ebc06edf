//===- bench/BenchCommon.h - Shared experiment-harness helpers -----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: a common flag set (--scale,
/// --seed), suite construction, the granularity x pressure grid and its
/// split back into sweeps, and uniform headers so EXPERIMENTS.md can be
/// assembled from bench output directly.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_BENCH_BENCHCOMMON_H
#define CCSIM_BENCH_BENCHCOMMON_H

#include "sim/Sweep.h"
#include "support/Flags.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>
#include <string>
#include <vector>

namespace ccsim {
namespace benchutil {

/// Flag set shared by the suite benches. --scale shrinks the suite for
/// smoke runs; 1.0 reproduces the full Table 1 suite.
inline FlagSet standardFlags(const std::string &Description) {
  FlagSet Flags(Description);
  Flags.addDouble("scale", 1.0,
                  "Suite size multiplier (1.0 = full Table 1 suite).");
  Flags.addInt("seed", static_cast<int64_t>(DefaultSuiteSeed),
               "Suite trace-generation seed.");
  return Flags;
}

/// Parses a standardFlags() set and checks its --scale (scaleFlag), so a
/// bench exits before it prints or simulates anything: false, with the
/// error on stderr, when either fails.
inline bool parseFlags(FlagSet &Flags, int Argc, const char *const *Argv) {
  if (!Flags.parse(Argc, Argv))
    return false;
  std::string Error;
  if (scaleFlag(Flags, "scale", &Error))
    return true;
  std::fprintf(stderr, "error: %s\n", Error.c_str());
  return false;
}

/// Builds the sweep engine for the flags parseFlags() checked.
inline SweepEngine makeEngine(const FlagSet &Flags) {
  return SweepEngine::forScaledTable1(
      Flags.getDouble("scale"), static_cast<uint64_t>(Flags.getInt("seed")));
}

/// Prints the uniform experiment header.
inline void printHeader(const std::string &Title,
                        const std::string &PaperReference) {
  std::printf("== %s ==\n", Title.c_str());
  std::printf("paper reference: %s\n\n", PaperReference.c_str());
}

/// The pressure axis of Figures 7, 11 and 15.
inline std::vector<double> pressureAxis() { return {2, 4, 6, 8, 10}; }

/// The standard granularity sweep at each of \p Pressures on \p Base,
/// pressure-major (makeSweepGrid): the grid behind the grid benches.
inline std::vector<SweepJob>
granularityGrid(const std::vector<double> &Pressures,
                const SimConfig &Base = SimConfig()) {
  return makeSweepGrid(standardGranularitySweep(), Pressures, Base);
}

/// Reports \p Error, a validate() result, on stderr: a flag such as
/// --pressure=0.5 made the run invalid. True when there is one, so a
/// bench exits before printing or simulating anything.
inline bool invalid(const std::string &Error) {
  if (!Error.empty())
    std::fprintf(stderr, "error: %s\n", Error.c_str());
  return !Error.empty();
}

/// Splits the results of a grid built from whole, consecutive
/// standardGranularitySweep() runs (one per pressure of a makeSweepGrid
/// lattice, or one per base config) into those runs, in grid order.
inline std::vector<std::vector<SuiteResult>>
granularitySweeps(const std::vector<SuiteResult> &Results) {
  const size_t Width = standardGranularitySweep().size();
  std::vector<std::vector<SuiteResult>> Sweeps;
  for (size_t Begin = 0; Begin < Results.size(); Begin += Width)
    Sweeps.emplace_back(Results.begin() + Begin,
                        Results.begin() + Begin + Width);
  return Sweeps;
}

} // namespace benchutil
} // namespace ccsim

#endif // CCSIM_BENCH_BENCHCOMMON_H
