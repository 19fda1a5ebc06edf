//===- core/CacheStats.h - Cache management statistics --------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters accumulated by the cache manager. Every figure of the paper is
/// computed from these: miss rates (Figures 6-7), eviction invocations
/// (Figure 8), overhead totals (Figures 10-11 and 14-15), link statistics
/// (Figures 12-13), and back-pointer table memory (Section 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_CACHESTATS_H
#define CCSIM_CORE_CACHESTATS_H

#include "telemetry/MetricsRegistry.h"

#include <cstdint>

namespace ccsim {

/// Counters for one cache manager instance (one benchmark x one policy x
/// one capacity). All overheads are in modeled instructions.
struct CacheStats {
  // Access stream.
  uint64_t Accesses = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t ColdMisses = 0;     ///< First-ever access to a superblock.
  uint64_t CapacityMisses = 0; ///< Re-miss after an eviction.
  uint64_t TooBigMisses = 0;   ///< Misses larger than the whole cache;
                               ///< regenerated but never inserted.

  // Insertions (misses that actually placed a block). The auditor
  // reconciles these against observed structure: Inserts - EvictedBlocks
  // must equal the resident count, and InsertedBytes - EvictedBytes the
  // occupied bytes.
  uint64_t Inserts = 0;
  uint64_t InsertedBytes = 0;

  // Evictions.
  uint64_t EvictionInvocations = 0; ///< Times the eviction code ran.
  uint64_t EvictedBlocks = 0;       ///< Superblocks removed.
  uint64_t EvictedBytes = 0;        ///< Code bytes removed.
  uint64_t UnitsFlushed = 0;        ///< Distinct cache units cleared.
  uint64_t PreemptiveFlushes = 0;   ///< Policy-triggered full flushes.
  uint64_t WastedBytes = 0;         ///< Bytes skipped at wrap points.

  // Chaining.
  uint64_t LinksCreated = 0;          ///< Links materialized in the cache.
  uint64_t InterUnitLinksCreated = 0; ///< ... whose endpoints were in
                                      ///< different cache units.
  uint64_t SelfLinksCreated = 0;      ///< Superblock looping to itself.
  uint64_t UnlinkedLinks = 0;         ///< Dangling links repaired via the
                                      ///< back-pointer table.
  uint64_t UnlinkOperations = 0;      ///< Evicted blocks that had at least
                                      ///< one incoming link from survivors.
  uint64_t LinksDestroyed = 0;        ///< Links removed by evictions (both
                                      ///< endpoints dead or repaired). The
                                      ///< auditor requires LinksCreated -
                                      ///< LinksDestroyed == live links.

  // Cross-tenant content sharing (core/SharedContentIndex). Only engines
  // configured with a content index ever move these; SharingActive gates
  // the share.* metric series so runs without sharing keep byte-identical
  // telemetry exports.
  bool SharingActive = false;
  uint64_t SharedInstalls = 0;   ///< Misses resolved by linking a resident
                                 ///< copy instead of installing one.
  uint64_t SharedBytesSaved = 0; ///< Code bytes those links did not copy.
  uint64_t UnshareUnlinks = 0;   ///< Links force-drained because their
                                 ///< representative was evicted (each is
                                 ///< an Eq. 4 unlink on the linking
                                 ///< tenant's dispatch glue).

  // Modeled instruction overheads (CostModel).
  double MissOverhead = 0.0;
  double EvictionOverhead = 0.0;
  double UnlinkOverhead = 0.0;

  // Back-pointer table memory (bytes), only tracked when the policy
  // requires a table (everything except whole-cache FLUSH).
  uint64_t BackPointerBytesPeak = 0;
  double BackPointerBytesSum = 0.0; ///< Summed per access; divide by
                                    ///< Accesses for the time average.

  /// Misses per access; 0 when there were no accesses.
  double missRate() const {
    if (Accesses == 0)
      return 0.0;
    return static_cast<double>(Misses) / static_cast<double>(Accesses);
  }

  /// Total modeled overhead. \p IncludeLinkMaintenance selects between the
  /// Figure 10/11 model (miss + eviction) and the Figure 14/15 model
  /// (miss + eviction + unlinking).
  double totalOverhead(bool IncludeLinkMaintenance) const {
    double Total = MissOverhead + EvictionOverhead;
    if (IncludeLinkMaintenance)
      Total += UnlinkOverhead;
    return Total;
  }

  /// Fraction of created links that crossed a cache unit boundary
  /// (Figure 13); 0 when no links were created.
  double interUnitLinkFraction() const {
    if (LinksCreated == 0)
      return 0.0;
    return static_cast<double>(InterUnitLinksCreated) /
           static_cast<double>(LinksCreated);
  }

  /// Time-averaged back-pointer table size in bytes.
  double backPointerBytesAvg() const {
    if (Accesses == 0)
      return 0.0;
    return BackPointerBytesSum / static_cast<double>(Accesses);
  }

  /// Accumulates \p Other into this (used for cross-benchmark weighted
  /// aggregation, Equation 1).
  void merge(const CacheStats &Other);

  /// Field-by-field equality, doubles compared exactly: the replay
  /// backends' contract is bit-identity, not tolerance.
  bool operator==(const CacheStats &Other) const = default;

  /// Publishes every counter into \p Metrics under \p Labels. This is the
  /// one place that exposes the full counter set — including the fields no
  /// report printed before telemetry existed (WastedBytes, UnitsFlushed,
  /// SelfLinksCreated, UnlinkOperations, the dangling-link repair count,
  /// and the back-pointer table footprint). Counters accumulate; gauges
  /// take the latest value. The share.* series is appended only when
  /// SharingActive, so sharing-disabled exports stay byte-identical.
  ///
  /// Every stats exporter in the tree (per-engine, per-tenant, suite)
  /// funnels through a recordMetrics(MetricsRegistry&, Labels) entry point
  /// of this shape — new counters are added here and nowhere else.
  void recordMetrics(telemetry::MetricsRegistry &Metrics,
                     const telemetry::MetricLabels &Labels) const;
};

} // namespace ccsim

#endif // CCSIM_CORE_CACHESTATS_H
