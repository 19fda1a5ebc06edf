//===- trace/WorkloadModel.h - Table 1 benchmark models --------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistical models of the 20 benchmarks in the paper's Table 1: all 12
/// SPECint2000 programs (run under Linux DynamoRIO) and 8 interactive
/// Windows applications. Each model is calibrated to the figures the paper
/// publishes:
///
///   - NumSuperblocks: exact hot-superblock counts from Table 1,
///   - MedianBlockBytes: median superblock sizes (Figure 4; ~190-250 for
///     SPEC, larger for the Windows applications),
///   - MeanBlockBytes: chosen so NumSuperblocks x mean reproduces the
///     paper's maxCache range: 171 KB for gzip up to 34.2 MB for word
///     (Section 4.2). Superblock sizes are lognormal, which matches the
///     long-tailed distributions of Figure 3.
///   - MeanOutDegree: static links per superblock, averaging ~1.7 across
///     the suite (Figure 12).
///
/// The access-stream parameters (phases, working sets, loop structure) are
/// not published in the paper; they are chosen to give interactive
/// applications more phases and lower reuse than the loop-dominated SPEC
/// codes, which is the qualitative behavior reported in prior work [15].
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TRACE_WORKLOADMODEL_H
#define CCSIM_TRACE_WORKLOADMODEL_H

#include <cstdint>
#include <string>
#include <vector>

namespace ccsim {

/// Which benchmark suite a workload belongs to.
enum class SuiteKind { SpecInt2000, Windows };

/// Statistical model of one benchmark's hot-superblock behavior.
struct WorkloadModel {
  std::string Name;
  std::string Description; ///< Table 1's description column.
  SuiteKind Suite = SuiteKind::SpecInt2000;

  // Superblock population (Table 1, Figures 3-4).
  uint32_t NumSuperblocks = 0;
  double MedianBlockBytes = 230.0;
  double MeanBlockBytes = 550.0;
  uint32_t MinBlockBytes = 16;
  uint32_t MaxBlockBytes = 16384;

  // Chaining (Figure 12).
  double MeanOutDegree = 1.7;
  double SelfLoopFraction = 0.15; ///< Blocks that loop to themselves.
  double FarLinkFraction = 0.06;  ///< Links to arbitrary (non-local)
                                  ///< targets, e.g. indirect calls.
  double LinkDistanceMean = 12.0; ///< Mean |target - source| in discovery
                                  ///< order for local links.

  // Access stream shape. Each phase repeatedly iterates ("passes") over
  // its working set: blocks are visited in a locally-perturbed discovery
  // order, each with a per-block execution probability (hotness) and a
  // short burst of immediate repeats (inner loop iterations). This cyclic
  // reuse pattern is what stresses FIFO caches: a working set larger than
  // the cache thrashes every FIFO granularity alike.
  uint64_t NumAccesses = 0;     ///< 0 = derive from NumSuperblocks.
  uint32_t NumPhases = 8;       ///< Program phases.
  double WorkingSetFraction = 0.3; ///< Fraction of all superblocks hot in
                                   ///< one phase.
  double MeanInnerRepeats = 1.7;   ///< Mean back-to-back executions per
                                   ///< visit (self-loop iterations).
  // Per-pass execution probabilities are bimodal: a hot core of blocks
  // executes on (almost) every pass, the remaining tail only
  // occasionally. The core's total byte size relative to the cache
  // capacity is what positions a benchmark on the thrash curve: a core
  // between half and one cache capacity punishes FLUSH (whose average
  // effective capacity is half the cache); a core far beyond the cache
  // thrashes every FIFO granularity alike.
  double HotCoreFraction = 0.25; ///< Fraction of the working set that is
                                 ///< hot core.
  double HotCoreProb = 0.95;     ///< Per-pass execute probability (core).
  double TailProb = 0.18;        ///< Mean per-pass probability (tail).
  double OrderJitterGeoP = 0.4; ///< Local perturbation of visit order.
  double ExcursionFraction = 0.02;  ///< Accesses to cold/old code.

  /// Default access-stream length: proportional to the superblock count
  /// with a cap, so large benchmarks dominate the Eq. 1 weighting without
  /// exploding simulation time.
  uint64_t effectiveNumAccesses() const;
};

/// The full benchmark suite of Table 1, in the paper's order (12 SPEC then
/// 8 Windows applications).
const std::vector<WorkloadModel> &table1Workloads();

/// Looks up a Table 1 workload by name; returns nullptr if unknown.
const WorkloadModel *findWorkload(const std::string &Name);

/// A reduced-size copy of a workload for fast unit tests and smoke runs:
/// superblock count and access count scaled by \p Factor (at least 32
/// superblocks).
WorkloadModel scaledWorkload(const WorkloadModel &Model, double Factor);

/// Whether a --scale value means the full-size workload (within 0.1%).
inline bool isFullScale(double Scale) {
  return Scale >= 0.999 && Scale <= 1.001;
}

/// \p Model itself at full scale, else scaledWorkload(Model, Scale).
WorkloadModel workloadAtScale(const WorkloadModel &Model, double Scale);

} // namespace ccsim

#endif // CCSIM_TRACE_WORKLOADMODEL_H
