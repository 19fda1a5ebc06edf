//===- concurrent/MultiTenantSimulator.h - Shared-cache multi-tenancy -----===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper evaluates one guest process at a time; production dynamic
/// optimization systems (ShareJIT-style cross-process code caches,
/// Memshare-style multi-tenant memory partitioning) serve many guests at
/// once. This simulator asks the paper's granularity question under
/// contention: K benchmark traces are deterministically interleaved into
/// one code cache, and the cache is either fully shared, statically
/// partitioned per tenant, or partitioned in whole eviction units
/// ("unit quotas" layered on UnitFifoPolicy).
///
/// Everything is deterministic: the interleaving is a pure function of the
/// schedule kind, tenant weights, and a seed, so every run of the same
/// configuration produces identical counters. Attribution works through
/// the CacheEngine eviction observer: each superblock is tagged with its
/// owning tenant, and every eviction batch reports which tenant triggered
/// it and which tenants lost blocks — the "who evicted whom" matrix.
///
/// With TenancyPolicy::ShareCode the run adds ShareJIT-style
/// content-addressed sharing: one SharedContentIndex spans all managers,
/// a tenant missing on content another tenant already has resident links
/// the shared copy (AccessKind::SharedHit, counted as a hit), and
/// evicting a representative force-drains its links with per-link Eq. 4
/// unshare charges attributed to the linking tenants. Content identity is
/// the block's ContentTag when the generator set one, else a hash of the
/// trace name, local id, size, and static edges — so K tenants replaying
/// the same benchmark share 100% of their code, and distinct benchmarks
/// never collide.
///
/// Configuration lives in concurrent/TenancyPolicy.h: one TenancyPolicy,
/// a SimConfig plus the tenancy fields. The shared capacity is
/// sim::capacityFor over the tenants' summed maxCache, and every manager
/// is built by sim::engineConfig over one read-only LinkTopology of the
/// concatenated, remapped block table -- the serial simulator's recipe,
/// not a copy of it.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CONCURRENT_MULTITENANTSIMULATOR_H
#define CCSIM_CONCURRENT_MULTITENANTSIMULATOR_H

#include "concurrent/TenancyPolicy.h"
#include "core/CacheEngine.h"
#include "core/SharedContentIndex.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace ccsim {

/// Counters attributed to one tenant. Access-side counters (accesses,
/// misses, miss overhead, triggered evictions) are charged to the tenant
/// whose dispatch caused them; victim-side counters (blocks/bytes lost,
/// unlink work) are charged to the tenant that owned the evicted block.
struct TenantResult {
  std::string Name;
  uint64_t CapacityBytes = 0; ///< This tenant's partition; 0 when shared.
  uint64_t MaxCacheBytes = 0; ///< Unbounded-cache size of its trace.

  uint64_t Accesses = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t ColdMisses = 0;
  uint64_t CapacityMisses = 0;

  uint64_t EvictionInvocationsTriggered = 0; ///< Batches this tenant caused.
  uint64_t BlocksEvicted = 0;        ///< Own blocks removed (any evictor).
  uint64_t BytesEvicted = 0;         ///< Own bytes removed.
  uint64_t BlocksLostToOthers = 0;   ///< Own blocks evicted by another
                                     ///< tenant's miss (contention damage).
  uint64_t UnlinkOperations = 0;     ///< Own evicted blocks with dangling
                                     ///< incoming links.
  uint64_t UnlinkedLinks = 0;

  // Cross-tenant content sharing (TenancyPolicy::ShareCode runs only).
  // Shared installs go to the tenant whose miss linked the resident copy;
  // unshare unlinks go to the tenant that lost its link.
  bool SharingActive = false;
  uint64_t SharedInstalls = 0;
  uint64_t SharedBytesSaved = 0;
  uint64_t UnshareUnlinks = 0;

  // Modeled instruction overheads (Eqs. 2-4): miss and eviction charges go
  // to the evictor, unlink charges to the victim's owner (including
  // unshare drains, charged to each losing linker).
  double MissOverhead = 0.0;
  double EvictionOverhead = 0.0;
  double UnlinkOverhead = 0.0;

  double missRate() const {
    return Accesses ? static_cast<double>(Misses) /
                          static_cast<double>(Accesses)
                    : 0.0;
  }

  double totalOverhead(bool IncludeLinkMaintenance) const {
    double Total = MissOverhead + EvictionOverhead;
    if (IncludeLinkMaintenance)
      Total += UnlinkOverhead;
    return Total;
  }

  /// Publishes this tenant's counters into \p Metrics under \p Labels —
  /// the per-tenant twin of CacheStats::recordMetrics, and the one place
  /// the tenant.* metric series is defined. The tenant.share.* series is
  /// appended only when SharingActive, keeping sharing-disabled exports
  /// byte-identical.
  void recordMetrics(telemetry::MetricsRegistry &Metrics,
                     const telemetry::MetricLabels &Labels) const;
};

/// Outcome of one multi-tenant run.
struct MultiTenantResult {
  std::string ModeLabel;
  std::string PolicyLabel;
  std::string ScheduleLabel;
  uint64_t TotalCapacityBytes = 0;

  std::vector<TenantResult> Tenants;

  /// Merged counters of the underlying cache manager(s); per-tenant
  /// integer counters sum exactly to these.
  CacheStats Global;

  /// Blocks evicted, cross-tabulated: entry [Evictor * K + Victim].
  /// Off-diagonal mass is inter-tenant interference; the partitioned
  /// modes keep it at zero by construction.
  std::vector<uint64_t> CrossEvictedBlocks;

  /// Content-index state when the replay finished (ShareCode runs only;
  /// both 0 otherwise). The conservation identity Global.SharedInstalls -
  /// Global.UnshareUnlinks == FinalShareLinks holds at this point.
  uint64_t FinalSharedEntries = 0;
  uint64_t FinalShareLinks = 0;

  uint64_t crossEvictions(size_t Evictor, size_t Victim) const {
    return CrossEvictedBlocks[Evictor * Tenants.size() + Victim];
  }

  /// Total blocks one tenant lost to a *different* tenant's misses.
  uint64_t blocksLostToOthers(size_t Victim) const;

  /// Eq. 1 aggregate miss rate over all tenants.
  double aggregateMissRate() const { return Global.missRate(); }
};

/// Deterministic shared-code-cache simulator over K benchmark traces.
/// The traces must outlive the simulator, and the policy's tenant list
/// must be empty or hold one spec per trace
/// (TenancyPolicy::validateTenantCount; a contract, not a clamp).
class MultiTenantSimulator {
public:
  MultiTenantSimulator(const std::vector<Trace> &Traces,
                       const TenancyPolicy &Policy);

  /// Replays the interleaved streams to completion (every tenant's trace
  /// is fully consumed) and returns attributed results. A non-null
  /// \p Cancel stops the interleave at a chunk boundary with
  /// ReplayCancelled.
  MultiTenantResult run(CancelToken *Cancel = nullptr);

  /// Total capacity the run will use (derived or explicit).
  uint64_t totalCapacityBytes() const { return TotalCapacity; }

  /// Capacity assigned to tenant \p I (equals totalCapacityBytes() for
  /// every tenant under the Shared mode).
  uint64_t tenantCapacityBytes(size_t I) const {
    return TenantCapacities[I];
  }

private:
  const std::vector<Trace> &Traces;
  TenancyPolicy Policy;

  std::vector<SuperblockId> IdBase; ///< Global-id offset per tenant.
  /// Read-only edges over the global ids, shared by every manager.
  LinkTopology Topology;
  std::vector<double> Weights;
  uint64_t TotalCapacity = 0;
  std::vector<uint64_t> TenantCapacities;

  /// Index of the manager serving tenant \p I (always 0 when shared).
  std::vector<size_t> ManagerOf;

  /// ShareCode state: one content index spanning every manager (global
  /// ids are disjoint, so representative lookups stay unambiguous across
  /// partitions), plus precomputed per-block content keys.
  SharedContentIndex ContentIdx;
  std::vector<std::vector<uint64_t>> ContentKeys;

  void planPartitions();
};

} // namespace ccsim

#endif // CCSIM_CONCURRENT_MULTITENANTSIMULATOR_H
