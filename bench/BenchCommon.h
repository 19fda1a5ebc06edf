//===- bench/BenchCommon.h - Shared experiment-harness helpers -----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure bench binaries: a common flag set
/// (--scale, --seed, pressure controls), engine construction, the one way
/// a figure bench runs its grid, and uniform headers so EXPERIMENTS.md
/// can be assembled from bench output directly.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_BENCH_BENCHCOMMON_H
#define CCSIM_BENCH_BENCHCOMMON_H

#include "multisweep/MultiConfigEngine.h"
#include "sim/Sweep.h"
#include "support/Csv.h"
#include "support/Flags.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace ccsim {
namespace benchutil {

/// Flag set shared by figure benches. --scale shrinks the suite for
/// smoke runs; 1.0 reproduces the full Table 1 suite.
inline FlagSet standardFlags(const std::string &Description) {
  FlagSet Flags(Description);
  Flags.addDouble("scale", 1.0,
                  "Suite size multiplier (1.0 = full Table 1 suite).");
  Flags.addInt("seed", static_cast<int64_t>(DefaultSuiteSeed),
               "Suite trace-generation seed.");
  Flags.addString("csv", "", "Optional path to also write the series as CSV.");
  return Flags;
}

/// Saves a label x pressure matrix as CSV when --csv was given.
inline void maybeWriteCsv(const FlagSet &Flags,
                          const std::vector<std::string> &Labels,
                          const std::vector<double> &Pressures,
                          const std::vector<std::vector<double>> &Series) {
  const std::string Path = Flags.getString("csv");
  if (Path.empty())
    return;
  std::vector<std::string> Header = {"granularity"};
  for (double P : Pressures)
    Header.push_back("n" + formatDouble(P, 0));
  CsvWriter Csv(Header);
  for (size_t G = 0; G < Labels.size(); ++G) {
    Csv.beginRow();
    Csv.cell(Labels[G]);
    for (size_t PI = 0; PI < Pressures.size(); ++PI)
      Csv.cell(Series[PI][G], 6);
  }
  if (Csv.writeFile(Path))
    std::printf("csv series written to %s\n", Path.c_str());
  else
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
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
/// pressure-major (makeSweepGrid): the grid behind the figure benches.
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

/// The one way a figure bench runs its grid: checks \p Grid before
/// anything is printed or simulated, then prints the header, builds the
/// suite and runs the whole grid through the sweep front door
/// (multisweep::runSweepGrid, one-pass). nullopt, with the error on
/// stderr and nothing on stdout, when the grid is invalid.
inline std::optional<std::vector<SuiteResult>>
runFigureGrid(const FlagSet &Flags, const std::vector<SweepJob> &Grid,
              const std::string &Title, const std::string &PaperReference) {
  if (invalid(validateSweepGrid(Grid)))
    return std::nullopt;
  printHeader(Title, PaperReference);
  return multisweep::runSweepGrid(makeEngine(Flags), Grid);
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
