//===- bench/paper_figures.cpp - The paper's suite-driven figures ---------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
//
// Table 1, Figures 3, 4, 6-8 and 10-15, and Section 5.3: every table and
// figure of the paper that reads the Table 1 suite, from one suite and
// one lattice. The driver builds the suite once, runs the union of the
// selected figures' pressures as one granularity x pressure grid through
// the sweep front door (multisweep::runSweepGrid, one-pass), and hands
// each figure its slice: the standard granularity sweep at each of its
// pressures. Table 1 and Figures 3, 4 and 12 read only the suite, so a
// run of those alone simulates nothing.
//
// Figure 9 and Table 2 (the mini-DBT) and the extension studies have
// their own binaries.
//
// Run: ./paper_figures [--figure=fig7,sec53|all] [--scale=0.1] [--seed=N]
//                      [--csv=DIR]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"
#include "core/LinkGraph.h"
#include "multisweep/MultiConfigEngine.h"
#include "support/AsciiChart.h"
#include "support/Csv.h"
#include "support/Histogram.h"
#include "support/Statistics.h"
#include "trace/TraceGenerator.h"

#include <algorithm>

using namespace ccsim;

namespace {

/// What a figure renders: the suite, and the standard granularity sweep
/// at each of the figure's pressures, in its row's order.
struct Slice {
  const SweepEngine &Suite;
  const std::vector<double> &Pressures;
  std::vector<std::vector<SuiteResult>> Sweeps;
  const std::string &CsvDir;
};

/// The point of \p Spec in a standard granularity sweep.
const SuiteResult &pointOf(const std::vector<SuiteResult> &Sweep,
                           const GranularitySpec &Spec) {
  const std::string Label = Spec.label();
  return *std::find_if(
      Sweep.begin(), Sweep.end(),
      [&](const SuiteResult &R) { return R.PolicyLabel == Label; });
}

/// \p Measure of each of the slice's sweeps: [pressure][granularity].
template <typename MeasureFn>
std::vector<std::vector<double>> perPressure(const Slice &S,
                                             MeasureFn Measure) {
  std::vector<std::vector<double>> Series;
  for (const std::vector<SuiteResult> &Results : S.Sweeps)
    Series.push_back(Measure(Results));
  return Series;
}

/// The granularity x pressure table of Figures 7, 11 and 15: a row per
/// granularity, a column per pressure, each cell filled by \p Cell.
template <typename CellFn>
void printPressureTable(const Slice &S,
                        const std::vector<std::vector<double>> &Series,
                        CellFn Cell) {
  std::vector<std::string> Header = {"Granularity"};
  for (double P : S.Pressures)
    Header.push_back("n=" + formatDouble(P, 0));
  Table Out(Header);
  const std::vector<SuiteResult> &Points = S.Sweeps.front();
  for (size_t G = 0; G < Points.size(); ++G) {
    Out.beginRow();
    Out.cell(Points[G].PolicyLabel);
    for (const std::vector<double> &AtPressure : Series)
      Cell(Out, AtPressure[G]);
  }
  std::fputs(Out.render().c_str(), stdout);
}

/// Saves a granularity x pressure series as <--csv>/<Name>.csv when --csv
/// names a directory.
void maybeWriteCsv(const Slice &S, const char *Name,
                   const std::vector<std::vector<double>> &Series) {
  if (S.CsvDir.empty())
    return;
  std::vector<std::string> Header = {"granularity"};
  for (double P : S.Pressures)
    Header.push_back("n" + formatDouble(P, 0));
  CsvWriter Csv(Header);
  const std::vector<SuiteResult> &Points = S.Sweeps.front();
  for (size_t G = 0; G < Points.size(); ++G) {
    Csv.beginRow();
    Csv.cell(Points[G].PolicyLabel);
    for (const std::vector<double> &AtPressure : Series)
      Csv.cell(AtPressure[G], 6);
  }
  const std::string Path = S.CsvDir + "/" + Name + ".csv";
  if (Csv.writeFile(Path))
    std::printf("csv series written to %s\n", Path.c_str());
  else
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
}

/// Table 1: the benchmark suite with the number of hot superblocks each
/// contributes, plus this reproduction's derived statistics (maxCache,
/// accesses, link degree).
void renderTable1(const Slice &S) {
  Table Out({"Name", "Superblocks", "Description", "Suite", "maxCache",
             "Accesses", "MeanDeg"});
  uint64_t TotalBlocks = 0;
  for (size_t I = 0; I < S.Suite.traces().size(); ++I) {
    const Trace &T = S.Suite.traces()[I];
    const WorkloadModel &M = table1Workloads()[I];
    TotalBlocks += T.numSuperblocks();
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
  std::printf("\ntotal hot superblocks across the suite: %s\n",
              formatWithCommas(TotalBlocks).c_str());
}

/// Figure 3: superblock sizes, SPECint2000 versus the interactive Windows
/// applications (64-byte buckets, long right tails).
void renderFig3(const Slice &S) {
  Histogram Spec(64.0, 12), Windows(64.0, 12);
  for (size_t I = 0; I < S.Suite.traces().size(); ++I) {
    const bool IsSpec =
        table1Workloads()[I].Suite == SuiteKind::SpecInt2000;
    for (const SuperblockDef &B : S.Suite.traces()[I].Blocks)
      (IsSpec ? Spec : Windows).add(B.SizeBytes);
  }

  std::printf("SPECint2000 benchmarks (%s superblocks):\n",
              formatWithCommas(Spec.totalCount()).c_str());
  std::fputs(Spec.render().c_str(), stdout);
  std::printf("\nWindows benchmarks (%s superblocks):\n",
              formatWithCommas(Windows.totalCount()).c_str());
  std::fputs(Windows.render().c_str(), stdout);

  std::printf("\ntail mass above 768 bytes: SPEC %s vs Windows %s "
              "(Windows tail must be heavier)\n",
              formatPercent(Spec.bucketFraction(Spec.numBuckets())).c_str(),
              formatPercent(Windows.bucketFraction(Windows.numBuckets()))
                  .c_str());
}

/// Figure 4: median superblock size (bytes) per benchmark.
void renderFig4(const Slice &S) {
  Table Out({"Benchmark", "Suite", "Median (model)", "Median (measured)",
             "Mean (measured)"});
  for (size_t I = 0; I < S.Suite.traces().size(); ++I) {
    const WorkloadModel &M = table1Workloads()[I];
    const auto Sizes = S.Suite.traces()[I].sizesAsDoubles();
    Out.beginRow();
    Out.cell(M.Name);
    Out.cell(M.Suite == SuiteKind::SpecInt2000 ? "SPEC" : "Windows");
    Out.cell(M.MedianBlockBytes, 0);
    Out.cell(median(Sizes), 0);
    Out.cell(mean(Sizes), 0);
  }
  std::fputs(Out.render().c_str(), stdout);
}

/// Figure 6: unified (Eq. 1) miss rate at each eviction granularity with
/// the cache pressure factor fixed at 2.
void renderFig6(const Slice &S) {
  const std::vector<SuiteResult> &Results = S.Sweeps.front();
  const auto Rates = unifiedMissRates(Results);

  Table Out({"Granularity", "Unified miss rate", "Misses", "Accesses"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(formatPercent(Rates[I], 3));
    Out.cell(Results[I].Combined.Misses);
    Out.cell(Results[I].Combined.Accesses);
  }
  std::fputs(Out.render().c_str(), stdout);

  BarChart Chart;
  for (size_t I = 0; I < Results.size(); ++I)
    Chart.add(Results[I].PolicyLabel, Rates[I],
              formatPercent(Rates[I], 3));
  std::printf("\n%s", Chart.render().c_str());

  std::printf("\nFLUSH/FIFO miss ratio: %.2fx (paper: >1, declining "
              "curve)\n",
              Rates.front() / Rates.back());
}

/// Figure 7: unified miss rates at each granularity as the cache pressure
/// factor increases from 2 to 10.
void renderFig7(const Slice &S) {
  const auto Series = perPressure(S, unifiedMissRates);
  printPressureTable(S, Series, [](Table &Out, double Rate) {
    Out.cell(formatPercent(Rate, 2));
  });

  std::printf("\nFLUSH-FIFO miss gap (absolute): %.2f pp at n=2 -> %.2f "
              "pp at n=10 (paper: widens with pressure)\n",
              (Series.front().front() - Series.front().back()) * 100.0,
              (Series.back().front() - Series.back().back()) * 100.0);
  maybeWriteCsv(S, "fig7", Series);
}

/// Figure 8: eviction-mechanism invocations at each granularity relative
/// to the finest-grained FIFO (= 100%).
void renderFig8(const Slice &S) {
  const std::vector<SuiteResult> &Results = S.Sweeps.front();
  const size_t Baseline = Results.size() - 1; // Fine FIFO.
  const auto Weighted = relativeEvictionsWeighted(Results, Baseline);
  const auto Mean = relativeEvictionsPerBenchmarkMean(Results, Baseline);

  Table Out({"Granularity", "Invocations", "Relative (Eq.1)",
             "Relative (mean/benchmark)"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(Results[I].Combined.EvictionInvocations);
    Out.cell(formatPercent(Weighted[I], 1));
    Out.cell(formatPercent(Mean[I], 1));
  }
  std::fputs(Out.render().c_str(), stdout);

  BarChart Chart;
  for (size_t I = 0; I < Results.size(); ++I)
    Chart.add(Results[I].PolicyLabel, Mean[I], formatPercent(Mean[I], 1));
  std::printf("\n%s", Chart.render().c_str());

  // The paper's headline comparison point.
  for (size_t I = 0; I < Results.size(); ++I)
    if (Results[I].PolicyLabel == "64-unit")
      std::printf("\n64-unit vs FIFO invocation reduction: %.2fx (Eq.1) / "
                  "%.2fx (mean) -- paper: ~3x\n",
                  1.0 / Weighted[I], 1.0 / Mean[I]);
}

/// Figure 10: relative overhead (miss + eviction penalties, no link
/// maintenance) of each granularity, normalized to FLUSH, with the cache
/// sized at maxCache/10.
void renderFig10(const Slice &S) {
  const std::vector<SuiteResult> &Results = S.Sweeps.front();
  const auto Weighted = relativeOverheadWeighted(Results, false);
  const auto Mean = relativeOverheadPerBenchmarkMean(Results, false);

  Table Out({"Granularity", "Relative (Eq.1)", "Relative (mean/benchmark)",
             "Miss rate", "Evictions"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(Weighted[I], 3);
    Out.cell(Mean[I], 3);
    Out.cell(formatPercent(Results[I].Combined.missRate(), 2));
    Out.cell(Results[I].Combined.EvictionInvocations);
  }
  std::fputs(Out.render().c_str(), stdout);

  BarChart Chart;
  for (size_t I = 0; I < Results.size(); ++I)
    Chart.add(Results[I].PolicyLabel, Mean[I]);
  std::printf("\n%s", Chart.render().c_str());

  // Locate the minimum of the per-benchmark-mean curve.
  size_t Best = 0;
  for (size_t I = 1; I < Mean.size(); ++I)
    if (Mean[I] < Mean[Best])
      Best = I;
  std::printf("\nminimum of the curve: %s at %.3f; fine end (FIFO) at "
              "%.3f (paper: minimum at medium granularity, fine end "
              "higher)\n",
              Results[Best].PolicyLabel.c_str(), Mean[Best], Mean.back());
}

/// Figure 11: relative overhead (miss + eviction, no link maintenance)
/// of each granularity as pressure increases, normalized to FLUSH at each
/// pressure.
void renderFig11(const Slice &S) {
  const auto MeanSeries = perPressure(S, [](const auto &Results) {
    return relativeOverheadPerBenchmarkMean(Results, false);
  });
  const auto WeightedSeries = perPressure(S, [](const auto &Results) {
    return relativeOverheadWeighted(Results, false);
  });
  const auto Ratio = [](Table &Out, double Value) { Out.cell(Value, 3); };
  std::printf("mean of per-benchmark relative overheads:\n");
  printPressureTable(S, MeanSeries, Ratio);
  std::printf("\nEq.1-weighted relative overheads:\n");
  printPressureTable(S, WeightedSeries, Ratio);

  std::printf("\nfine-grained FIFO trend (mean aggregation): %.3f at n=2 "
              "-> %.3f at n=10 (paper: rises toward and past 1.0)\n",
              MeanSeries.front().back(), MeanSeries.back().back());
  maybeWriteCsv(S, "fig11", MeanSeries);
}

/// Figure 12: mean outbound links per superblock (suite average ~1.7),
/// and Section 5.1's back-pointer table estimate (~11.5% of the cache).
void renderFig12(const Slice &S) {
  Table Out({"Benchmark", "Mean out-degree", "Backptr bytes/block",
             "vs mean block", "vs median block"});
  double DegreeSum = 0.0, MeanFractionSum = 0.0, MedianFractionSum = 0.0;
  for (size_t I = 0; I < S.Suite.traces().size(); ++I) {
    const Trace &T = S.Suite.traces()[I];
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

  const double N = static_cast<double>(S.Suite.traces().size());
  std::printf("\nsuite mean out-degree: %.2f (paper: 1.7)\n",
              DegreeSum / N);
  std::printf("back-pointer table vs the MEDIAN superblock (the paper's "
              "arithmetic: 1.7 links x 16 bytes / ~235-byte blocks): %s "
              "(paper: ~11.5%%)\n",
              formatPercent(MedianFractionSum / N, 1).c_str());
  std::printf("back-pointer table vs total code bytes: %s (lower, since "
              "mean block sizes exceed medians)\n",
              formatPercent(MeanFractionSum / N, 1).c_str());
}

/// Figure 13: share of materialized links whose endpoints live in
/// different cache units, per granularity (0% for FLUSH, 24.3% at 2 units
/// in the paper, approaching but not reaching 100% for fine FIFO).
void renderFig13(const Slice &S) {
  const std::vector<SuiteResult> &Results = S.Sweeps.front();
  Table Out({"Granularity", "Inter-unit links (Eq.1)",
             "Inter-unit links (mean/benchmark)", "Links created"});
  for (const SuiteResult &R : Results) {
    double MeanFraction = 0.0;
    size_t Count = 0;
    for (const SimResult &B : R.PerBenchmark) {
      if (B.Stats.LinksCreated == 0)
        continue;
      MeanFraction += B.Stats.interUnitLinkFraction();
      ++Count;
    }
    if (Count)
      MeanFraction /= static_cast<double>(Count);
    Out.beginRow();
    Out.cell(R.PolicyLabel);
    Out.cell(formatPercent(R.Combined.interUnitLinkFraction(), 1));
    Out.cell(formatPercent(MeanFraction, 1));
    Out.cell(R.Combined.LinksCreated);
  }
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\n2-unit inter-unit fraction: %s (paper: 24.3%%)\n",
              formatPercent(Results[1].Combined.interUnitLinkFraction(), 1)
                  .c_str());
}

/// Figure 14: relative overhead including cache miss, eviction and
/// superblock link maintenance (Eq. 4), cache sized at maxCache/10,
/// normalized to FLUSH (which pays no unlink costs).
void renderFig14(const Slice &S) {
  const std::vector<SuiteResult> &Results = S.Sweeps.front();
  const auto WithLinks = relativeOverheadPerBenchmarkMean(Results, true);
  const auto WithoutLinks =
      relativeOverheadPerBenchmarkMean(Results, false);

  Table Out({"Granularity", "Relative (with links)",
             "Relative (Fig.10, no links)", "Shift", "Unlinked links"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(WithLinks[I], 3);
    Out.cell(WithoutLinks[I], 3);
    Out.cell("+" + formatDouble((WithLinks[I] - WithoutLinks[I]) * 100.0, 2) +
             "pp");
    Out.cell(Results[I].Combined.UnlinkedLinks);
  }
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\nFLUSH shift must be zero; the fine end shifts the most "
              "(paper, Section 5.3: 'the largest changes occurred in the "
              "finer-grained policies')\n");
}

/// Figure 15: relative overhead including link maintenance as cache
/// pressure increases, normalized to FLUSH at each pressure.
void renderFig15(const Slice &S) {
  const auto MeanSeries = perPressure(S, [](const auto &Results) {
    return relativeOverheadPerBenchmarkMean(Results, true);
  });
  printPressureTable(S, MeanSeries,
                     [](Table &Out, double Value) { Out.cell(Value, 3); });

  std::printf("\nfine-grained FIFO (incl. links): %.3f at n=2 -> %.3f at "
              "n=10 (paper: approaches and crosses FLUSH)\n",
              MeanSeries.front().back(), MeanSeries.back().back());
  maybeWriteCsv(S, "fig15", MeanSeries);
}

/// Section 5.3's execution-time estimate: at pressure 10, changing the
/// eviction granularity from FLUSH to 8-unit FIFO cuts overall execution
/// time by 19.33% for crafty and 19.79% for twolf. Execution time is
/// application instructions (accesses x instructions per dispatch) plus
/// the modelled management overhead (miss + eviction + link maintenance).
void renderSec53(const Slice &S) {
  const SuiteResult &Flush =
      pointOf(S.Sweeps.front(), GranularitySpec::flush());
  const SuiteResult &Units8 =
      pointOf(S.Sweeps.front(), GranularitySpec::units(8));
  const ExecutionTimeModel Model;

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
}

/// One row per figure: its --figure name, its header, the pressures of
/// its slice (none for a figure of the suite alone) and its renderer.
struct Figure {
  const char *Name;
  const char *Title;
  const char *Reference;
  std::vector<double> Pressures;
  void (*Render)(const Slice &);
};

/// The figures in paper order.
std::vector<Figure> paperFigures() {
  const std::vector<double> Axis = benchutil::pressureAxis();
  return {
      {"table1", "Table 1: Benchmarks used in the evaluation",
       "Table 1 (superblock counts are exact); Section 4.2 (maxCache 171 "
       "KB for gzip .. 34.2 MB for word)",
       {}, renderTable1},
      {"fig3", "Figure 3: Size distribution of superblocks",
       "Figure 3: both suites peak in the 64-320 byte range with a long "
       "tail; the Windows tail is markedly heavier",
       {}, renderFig3},
      {"fig4", "Figure 4: Median superblock size (bytes)",
       "Figure 4: SPEC medians ~190-245 bytes (gzip highest at 244), "
       "Windows medians larger",
       {}, renderFig4},
      {"fig6", "Figure 6: Miss rates at varying granularities (pressure 2)",
       "Figure 6: miss rate declines monotonically from FLUSH to the "
       "finest-grained FIFO",
       {2}, renderFig6},
      {"fig7",
       "Figure 7: Miss rates at varying granularities vs cache pressure",
       "Figure 7: miss-rate differences between granularities become much "
       "more pronounced as pressure increases",
       Axis, renderFig7},
      {"fig8", "Figure 8: Relative number of evictions vs finest-grained FIFO",
       "Figure 8: invocations fall steeply with coarser units; the paper "
       "reports ~3x fewer at 64 units than fine-grained FIFO",
       {2}, renderFig8},
      {"fig10",
       "Figure 10: Relative overhead (miss + eviction), cache = maxCache/10",
       "Figure 10: coarse policies on the far left perform worst; the "
       "minimum is at medium granularity; the finest grains rise again "
       "due to frequent eviction invocations",
       {10}, renderFig10},
      {"fig11",
       "Figure 11: Relative overhead (miss + eviction) vs cache pressure",
       "Figure 11: the finest-grained policy starts out better than FLUSH "
       "and loses ground as pressure increases, eventually crossing it; "
       "medium grains stay best",
       Axis, renderFig11},
      {"fig12", "Figure 12: Average outbound links per superblock",
       "Figure 12: suite average ~1.7 links/superblock; Section 5.1: 16 "
       "bytes per back pointer => table ~11.5% of the code cache",
       {}, renderFig12},
      {"fig13",
       "Figure 13: Links that target superblocks in different cache units",
       "Figure 13: 0% under FLUSH; 24.3% with two units; grows with the "
       "unit count; self-links keep fine FIFO below 100%",
       {2}, renderFig13},
      {"fig14",
       "Figure 14: Relative overhead incl. link maintenance, cache = "
       "maxCache/10",
       "Figure 14: adding link maintenance moves every finer-grained "
       "policy closer to FLUSH (which needs no back-pointer table); the "
       "finest grains shift the most",
       {10}, renderFig14},
      {"fig15",
       "Figure 15: Relative overhead incl. link maintenance vs pressure",
       "Figure 15: same crossover trend as Figure 11, with link removal "
       "raising every policy except FLUSH",
       Axis, renderFig15},
      {"sec53",
       "Section 5.3: Execution-time reduction from FLUSH to 8-unit FIFO",
       "Section 5.3: at pressure 10, crafty improves 19.33% and twolf "
       "19.79%; stressed applications improve most",
       {10}, renderSec53},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  const std::vector<Figure> Figures = paperFigures();
  std::string Names;
  for (const Figure &F : Figures)
    Names += std::string(Names.empty() ? "" : ", ") + F.Name;

  FlagSet Flags = benchutil::standardFlags(
      "The paper's suite-driven tables and figures, from one suite and one "
      "granularity x pressure lattice.");
  Flags.addString("figure", "all",
                  "Comma-separated figures to print, in paper order: " +
                      Names + "; or all.");
  Flags.addString("csv", "",
                  "Directory to also write the fig7, fig11 and fig15 series "
                  "into as <figure>.csv.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;

  std::vector<bool> Selected(Figures.size(), false);
  for (const std::string &Name : splitList(Flags.getString("figure"))) {
    bool Known = false;
    for (size_t I = 0; I < Figures.size(); ++I)
      if (Name == "all" || Name == Figures[I].Name)
        Selected[I] = Known = true;
    if (!Known) {
      std::fprintf(stderr, "error: unknown figure '%s' (known: %s; or all)\n",
                   Name.c_str(), Names.c_str());
      return 1;
    }
  }
  if (std::find(Selected.begin(), Selected.end(), true) == Selected.end()) {
    std::fprintf(stderr, "error: --figure names no figure\n");
    return 1;
  }

  // One lattice: the standard sweep at every pressure a selected figure
  // reads, in ascending order.
  std::vector<double> Pressures;
  for (size_t I = 0; I < Figures.size(); ++I)
    if (Selected[I])
      Pressures.insert(Pressures.end(), Figures[I].Pressures.begin(),
                       Figures[I].Pressures.end());
  std::sort(Pressures.begin(), Pressures.end());
  Pressures.erase(std::unique(Pressures.begin(), Pressures.end()),
                  Pressures.end());

  const SweepEngine Suite = benchutil::makeEngine(Flags);
  std::vector<std::vector<SuiteResult>> Sweeps;
  if (!Pressures.empty())
    Sweeps = benchutil::granularitySweeps(multisweep::runSweepGrid(
        Suite, benchutil::granularityGrid(Pressures)));

  const std::string CsvDir = Flags.getString("csv");
  bool First = true;
  for (size_t I = 0; I < Figures.size(); ++I) {
    if (!Selected[I])
      continue;
    const Figure &F = Figures[I];
    Slice S{Suite, F.Pressures, {}, CsvDir};
    for (double P : F.Pressures)
      S.Sweeps.push_back(
          Sweeps[std::find(Pressures.begin(), Pressures.end(), P) -
                 Pressures.begin()]);
    if (!First)
      std::printf("\n");
    First = false;
    benchutil::printHeader(F.Title, F.Reference);
    F.Render(S);
  }
  return 0;
}
