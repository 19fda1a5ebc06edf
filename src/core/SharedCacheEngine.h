//===- core/SharedCacheEngine.h - Thread-shared cache engine --------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-shareable front over CacheEngine: K guest threads dispatch
/// into one code cache, the regime of DynamoRIO's thread-shared caches
/// and ShareJIT's cross-process shared cache. Three locking domains:
///
///   EngineMu   one exclusive mutex over the underlying CacheEngine
///              (CodeCache placement, LinkGraph, free state, counters).
///              Misses, installs, and evictions serialize here — exactly
///              the translate/evict path a real DBT serializes too.
///
///   Shards     a lock-striped residency index over superblock ids
///              (shard = id & mask). The concurrent hit path answers
///              "resident?" under a shared shard lock without ever
///              touching EngineMu.
///
///   Fences     reader/writer locks striped over cache-address regions.
///              An eviction batch takes the victims' region fences
///              exclusively while payloads are torn down and the index
///              entries die; in-flight hits hold their block's fence
///              shared. A quantum eviction in one region therefore never
///              blocks hits in another.
///
/// Lock order: EngineMu -> fences (ascending index) -> shards. The hit
/// path never holds a shard lock while acquiring a fence (it re-checks
/// the shard after the fence is held), so there is no hold-and-wait
/// cycle against the eviction path.
///
/// One execution mode: hits take the sharded fast path and are tallied
/// in an atomic; misses serialize on EngineMu through the deferred front
/// doors (deferredMiss + deferred back-pointer samples), and settle(N)
/// reconciles Accesses/Hits when the guests join. That is exact only for
/// access-stateless policies (unit-FIFO, fine FIFO), whose decisions
/// never depend on hit observations -- the constructor requires one, and
/// every policy a GranularitySpec names qualifies. K>1 results are
/// validated by the structural auditor + conservation laws, not byte pins
/// (the miss interleaving is schedule-dependent). A one-guest replay
/// needs no shared engine: concurrent::runShared sends K = 1 to the
/// serial simulator.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_SHAREDCACHEENGINE_H
#define CCSIM_CORE_SHAREDCACHEENGINE_H

#include "core/CacheEngine.h"
#include "support/ThreadSafety.h"

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

namespace ccsim {

/// Which path a K-guest replay takes (SharedCacheEngine::preferredMode):
/// Exact is the serial simulator, Concurrent this engine.
enum class ShareMode : uint8_t { Exact, Concurrent };

/// One entry of the sharded residency index, exported for auditing.
struct SharedIndexEntry {
  SuperblockId Id = InvalidSuperblockId;
  uint32_t Region = 0; ///< Eviction-fence region holding the block.
};

/// Snapshot of the sharded index taken at a quiesce point, cross-checked
/// against CodeCache residency by check::checkSharedIndex.
struct SharedIndexState {
  unsigned Shards = 0;
  unsigned Fences = 0;
  uint64_t FenceBytes = 0;            ///< Region width in cache bytes.
  std::vector<SharedIndexEntry> Entries; ///< Sorted by Id.
};

/// Contention totals, all monotone. Snapshots are safe at any time (the
/// counters are atomics); exact totals require the guests to have joined.
struct ContentionCounters {
  uint64_t FastHits = 0;        ///< Fast-path hits (incl. races).
  uint64_t InstallRaces = 0;    ///< Miss/install found block already in.
  uint64_t FenceSharedStalls = 0;    ///< Hit blocked on a fenced region.
  uint64_t FenceExclusiveStalls = 0; ///< Evictor blocked on in-flight hits.
  uint64_t EngineLockStalls = 0;     ///< Miss/install blocked on EngineMu.
  uint64_t EngineLockWaitMicros = 0; ///< Total blocked time on EngineMu.
  uint64_t QuiescePoints = 0;
};

/// Configuration for a SharedCacheEngine.
struct SharedEngineConfig {
  /// Underlying engine configuration. OnEvictPayload/OnEviction hooks are
  /// honored: the payload hook fires with the victims' region fences held
  /// exclusively (per-victim teardown under the eviction fence).
  CacheEngineConfig Engine;

  /// Residency-index stripes (rounded up to a power of two, min 1).
  unsigned Shards = 16;

  /// Eviction-fence regions over [0, CapacityBytes) (min 1).
  unsigned Fences = 16;

  /// Fired under EngineMu immediately after a successful install() or a
  /// miss-path insert, with the new block resident and indexed. The
  /// execution-driven owner registers its dispatch entry here so the
  /// dispatch table and residency can never be observed out of sync at a
  /// quiesce point.
  std::function<void(const SuperblockRecord &)> OnInstallPayload;
};

/// Thread-shared engine. All public entry points are safe to call from
/// any number of guest threads once construction and setup are done.
class SharedCacheEngine {
public:
  /// \p Policy must be access-stateless (see file header).
  SharedCacheEngine(const SharedEngineConfig &Config,
                    std::unique_ptr<EvictionPolicy> Policy);

  /// Concurrent (this engine) is only sound for access-stateless
  /// policies; everything else, and K == 1, runs Exact (the serial
  /// simulator).
  static ShareMode preferredMode(unsigned GuestThreads,
                                 const EvictionPolicy &Policy);

  unsigned shardCount() const { return NShards; }
  unsigned fenceCount() const { return NFences; }
  uint64_t fenceBytes() const { return FenceWidth; }

  /// Processes one dispatch event: sharded fast hit or deferred miss.
  AccessKind access(const SuperblockRecord &Rec) CCSIM_EXCLUDES(EngineMu);

  /// Execution-driven front door: installs \p Rec unless it is already
  /// resident (a racing install, counted, returns false). Victim payload
  /// teardown runs under the victims' eviction fences. Not legal in a
  /// run that also drives access() (install counts its own access, which
  /// would break settle()).
  bool install(const SuperblockRecord &Rec) CCSIM_EXCLUDES(EngineMu);

  /// Lock-free-ish residency probe (shared shard lock only): the "find"
  /// half of a find/add stress loop. Never touches EngineMu.
  bool probe(SuperblockId Id) const;

  /// Reconciles the deferred counters after the guests joined.
  /// \p TotalAccesses must equal every access() call made.
  void settle(uint64_t TotalAccesses) CCSIM_EXCLUDES(EngineMu);

  /// Runs \p Fn with the entire engine quiescent: EngineMu, every fence,
  /// and every shard held. No access can be in flight; audits observe a
  /// consistent engine + index. \p Fn must not re-enter this engine.
  void quiesce(const std::function<void(const SharedCacheEngine &)> &Fn)
      CCSIM_EXCLUDES(EngineMu);

  /// Engine statistics (locks EngineMu; call settle() first for settled
  /// Accesses/Hits).
  CacheStats stats() CCSIM_EXCLUDES(EngineMu);

  /// Fast-path hits tallied so far but not yet settled into the
  /// engine's counters. Auditors add this to Misses to reconstruct the
  /// provisional access count at a quiesce point.
  uint64_t provisionalHits() const {
    return FastHits.load(std::memory_order_relaxed);
  }

  ContentionCounters contention() const;

  /// Publishes the contention counters (and shard-occupancy gauges) into
  /// \p Metrics under shared.* names, labeled with \p Labels. Called by
  /// runners after the guests joined.
  void publishContention(telemetry::MetricsRegistry &Metrics,
                         const telemetry::MetricLabels &Labels)
      CCSIM_EXCLUDES(EngineMu);

  /// Single-threaded configuration phase only (arming auditors, wiring
  /// payload hooks) -- before any guest thread exists. The analysis
  /// cannot see that phase distinction, hence the escape hatch.
  CacheEngine &engineSetup() CCSIM_NO_THREAD_SAFETY_ANALYSIS {
    return Engine;
  }

  /// Quiesce-context accessors: sound only inside a quiesce(Fn) callback,
  /// where every lock is held by the quiescing thread.
  const CacheEngine &engineForAudit() const CCSIM_NO_THREAD_SAFETY_ANALYSIS {
    return Engine;
  }
  SharedIndexState indexSnapshot() const CCSIM_NO_THREAD_SAFETY_ANALYSIS;

private:
  /// One stripe of the residency index. Resident/Region are dense over
  /// the ids mapping to this shard (slot = id / NShards).
  struct alignas(64) Shard {
    mutable SharedMutex Mu;
    std::vector<uint8_t> Resident CCSIM_GUARDED_BY(Mu);
    std::vector<uint32_t> Region CCSIM_GUARDED_BY(Mu);
  };

  /// One eviction-fence region over [i*FenceWidth, (i+1)*FenceWidth).
  struct alignas(64) Fence {
    mutable SharedMutex Mu;
  };

  unsigned shardOf(SuperblockId Id) const { return Id & ShardMask; }
  size_t slotOf(SuperblockId Id) const { return Id >> ShardBits; }
  uint32_t regionOf(uint64_t StartOffset) const {
    uint64_t R = StartOffset / FenceWidth;
    return static_cast<uint32_t>(R < NFences ? R : NFences - 1);
  }

  /// Slow path of access(): serialize on EngineMu, re-check for
  /// a racing install, then run the deferred miss.
  AccessKind missSlow(const SuperblockRecord &Rec) CCSIM_EXCLUDES(EngineMu);

  /// Brings the index entry for \p Id in line with actual residency
  /// (set with its region after an insert, cleared if a preemptive flush
  /// took it right back out). Takes the shard lock; caller holds
  /// EngineMu.
  void reconcileIndexEntry(SuperblockId Id) CCSIM_REQUIRES(EngineMu);

  /// Eviction-batch hook installed on the inner engine: takes the
  /// victims' region fences exclusively, runs the owner's payload
  /// teardown, and removes the victims from the index -- all before the
  /// engine's own accounting. Runs under EngineMu by construction (every
  /// eviction originates from a miss/install/flush under it). The lock
  /// set is data-dependent, which the analysis cannot model.
  void onEvictionBatch(std::span<const CodeCache::Resident> Victims)
      CCSIM_NO_THREAD_SAFETY_ANALYSIS;

  /// quiesce() helpers: acquire / release EngineMu + every fence + every
  /// shard in the global lock order. Loop-carried lock sets are invisible
  /// to the analysis.
  void lockAllForQuiesce() CCSIM_NO_THREAD_SAFETY_ANALYSIS;
  void unlockAllForQuiesce() CCSIM_NO_THREAD_SAFETY_ANALYSIS;

  unsigned NShards = 1;
  unsigned ShardBits = 0;
  unsigned ShardMask = 0;
  unsigned NFences = 1;
  uint64_t FenceWidth = 1;

  ccsim::Mutex EngineMu;
  CacheEngine Engine CCSIM_GUARDED_BY(EngineMu);
  EvictPayloadHook OwnerEvictPayload; ///< Immutable after construction.
  std::function<void(const SuperblockRecord &)>
      OnInstallPayload; ///< Immutable after construction.

  std::unique_ptr<Shard[]> Shards;
  std::unique_ptr<Fence[]> Fences;

  /// Scratch for the eviction hook (distinct victim regions, ascending).
  /// Only touched under EngineMu.
  std::vector<uint32_t> RegionScratch CCSIM_GUARDED_BY(EngineMu);

  std::atomic<uint64_t> FastHits{0};
  std::atomic<uint64_t> PendingSamples{0};
  std::atomic<uint64_t> InstallRaces{0};
  std::atomic<uint64_t> FenceSharedStalls{0};
  std::atomic<uint64_t> FenceExclusiveStalls{0};
  std::atomic<uint64_t> EngineLockStalls{0};
  std::atomic<uint64_t> EngineLockWaitMicros{0};
  std::atomic<uint64_t> QuiesceCount{0};

  /// Lock-wait histogram (microseconds); created only when the engine
  /// has a telemetry sink.
  telemetry::HistogramMetric *LockWaitHist = nullptr;
};

} // namespace ccsim

#endif // CCSIM_CORE_SHAREDCACHEENGINE_H
