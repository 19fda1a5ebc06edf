//===- core/CacheEngine.h - Shared code cache engine ----------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache manager of Figure 1 as a reusable engine serving both of the
/// repository's front-ends. It combines the placement engine (CodeCache),
/// the eviction policy, the chaining state (LinkGraph) and the analytical
/// cost model (CostModel), accumulates CacheStats, and owns the scratch
/// buffers the eviction path reuses.
///
/// Two front doors:
///
///  - access(): the trace-driven path (simulator, sweeps, multi-tenant).
///    One access does a hit check (the hash table lookup of Figure 1); on
///    a miss it charges regeneration overhead (Eq. 3), makes room at the
///    policy's eviction quantum (charging Eq. 2 per invocation and Eq. 4
///    per evicted block with dangling incoming links), inserts, and
///    materializes chain links; finally it polls the policy for a
///    preemptive whole-cache flush.
///
///  - install(): the execution-driven path (the mini-DBT). The front-end
///    has already executed the miss and decided to cache the fragment, so
///    install() runs only the miss half of access(): make room, insert,
///    link. The owner charges its own instrumented costs through the
///    payload hooks below and never pays for the policy's access
///    bookkeeping.
///
/// Payload hooks let a front-end tear its own structures down per victim
/// (dispatch-table entries, fragment slots) in lockstep with the engine's
/// accounting; see CacheEngineConfig::OnEvictPayload / OnUnlinkPayload.
///
/// `CacheManager` (core/CacheManager.h) is an alias of this class kept
/// for the trace-driven call sites and docs that use the paper's name.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_CACHEENGINE_H
#define CCSIM_CORE_CACHEENGINE_H

#include "core/CacheStats.h"
#include "core/CodeCache.h"
#include "core/CostModel.h"
#include "core/EvictionPolicy.h"
#include "core/LinkGraph.h"
#include "core/SharedContentIndex.h"
#include "core/Superblock.h"
#include "telemetry/Telemetry.h"

#include <functional>
#include <memory>
#include <span>

namespace ccsim {

/// One batch of evictions (a single eviction invocation or full flush),
/// reported to an observer with tenant attribution. All spans alias the
/// engine's scratch buffers and are valid only during the callback.
struct EvictionBatchEvent {
  /// Tenant whose access triggered the batch (the "evictor").
  TenantId Evictor = 0;

  /// Victims in FIFO (oldest-first) eviction order.
  std::span<const CodeCache::Resident> Victims;

  /// Owner of each victim, parallel to Victims.
  std::span<const TenantId> VictimTenants;

  /// Incoming links from survivors repaired per victim, parallel to
  /// Victims. Empty when the run has no back-pointer table (chaining
  /// disabled or a whole-cache FLUSH policy).
  std::span<const uint32_t> DanglingLinks;
};

/// Observer invoked after each eviction batch has been accounted.
using EvictionObserver = std::function<void(const EvictionBatchEvent &)>;

/// One content-shared representative being force-unshared because it was
/// evicted: every tenant that linked the copy loses it and pays one Eq. 4
/// unlink. The span aliases engine scratch and is valid only during the
/// callback.
struct UnshareEvent {
  /// Tenant whose access triggered the eviction batch.
  TenantId Evictor = 0;

  /// The evicted representative block.
  SuperblockId Representative = InvalidSuperblockId;
  uint32_t SizeBytes = 0;

  /// The drained links, in the order they were created.
  std::span<const SharedContentIndex::Link> Links;
};

/// Observer invoked per unshared representative, after the engine charged
/// the drain (multi-tenant per-tenant attribution).
using UnshareObserver = std::function<void(const UnshareEvent &)>;

class CacheEngine;

/// When the installed audit hook (paranoid deep validation, see
/// check::armAuditor) runs. Levels nest: Full implies Evictions.
enum class AuditLevel : uint8_t {
  Off,       ///< Hook never runs (production default).
  Evictions, ///< After every access that evicted blocks, and after flushes.
  Full,      ///< After every access and every flush.
};

/// Compile-time default audit level: Full in CCSIM_PARANOID builds
/// (-DCCSIM_PARANOID=ON at configure time), Off otherwise. Config structs
/// use this as their initializer so a paranoid build audits everywhere
/// without per-call-site opt-in.
constexpr AuditLevel defaultAuditLevel() {
#ifdef CCSIM_PARANOID
  return AuditLevel::Full;
#else
  return AuditLevel::Off;
#endif
}

/// Deep-validation hook: receives the engine after a mutation settled and
/// a short site label ("access", "install", "flush"). Installed by
/// check::armAuditor; kept as a std::function so ccsim_core never links
/// against ccsim_check.
using AuditHook =
    std::function<void(const CacheEngine &, const char *Where)>;

/// Front-end teardown hook, fired at the top of each eviction batch
/// (before the engine's own accounting) with the victims in FIFO order.
/// The span aliases the engine's scratch buffer and is valid only during
/// the call. The cache still reports the victims as non-resident by the
/// time the hook runs; the owner drops its per-fragment state here.
using EvictPayloadHook =
    std::function<void(std::span<const CodeCache::Resident> Victims)>;

/// Front-end unlink hook, fired after the link graph repaired the batch
/// (chaining runs only). \p Dangling is parallel to \p Victims: incoming
/// links from surviving fragments that had to be unpatched per victim.
/// Under a whole-cache FLUSH policy nothing survives, so every count is
/// zero.
using UnlinkPayloadHook =
    std::function<void(std::span<const CodeCache::Resident> Victims,
                       std::span<const uint32_t> Dangling)>;

/// Configuration for a CacheEngine instance.
struct CacheEngineConfig {
  CacheEngineConfig() = default;

  /// Convenience for the three axes every front-end sets; everything else
  /// keeps its default.
  CacheEngineConfig(uint64_t CapacityBytes, bool EnableChaining,
                    telemetry::TelemetrySink *Telemetry = nullptr)
      : CapacityBytes(CapacityBytes), EnableChaining(EnableChaining),
        Telemetry(Telemetry) {}

  /// Code cache capacity in bytes (the paper's maxCache / pressure).
  uint64_t CapacityBytes = 1 << 20;

  /// Analytical instruction-overhead model.
  CostModel Costs = CostModel::paperDefaults();

  /// Maintain superblock chaining (links, back-pointer table, unlink
  /// charges). Disabling models a system without chaining (Table 2).
  bool EnableChaining = true;

  /// Optional eviction attribution hook (multi-tenant accounting). Left
  /// empty in single-tenant runs; the hot path never pays for it then.
  EvictionObserver OnEviction;

  /// Optional per-victim teardown hook for execution-driven owners. Fires
  /// first in every eviction batch, before the engine's counters, link
  /// repair, and telemetry.
  EvictPayloadHook OnEvictPayload;

  /// Optional unlink hook for execution-driven owners. Fires inside the
  /// chaining block, after the link graph repaired the batch.
  UnlinkPayloadHook OnUnlinkPayload;

  /// Optional cross-tenant content index (ShareJIT-style sharing). Null —
  /// the default — is the disabled fast path: access() pays one branch and
  /// nothing else, and every export stays byte-identical to a build
  /// without the feature. When set, accesses whose records carry a
  /// nonzero ContentKey resolve misses against the index (linking a
  /// resident identical copy instead of installing a duplicate), inserts
  /// register the block as the key's representative, and evicting a
  /// representative force-drains its links with per-link Eq. 4 charges.
  /// One index may be shared by several engines (partitioned tenancy).
  SharedContentIndex *ContentIndex = nullptr;

  /// Optional observer fired per unshared representative (after the
  /// engine accounted the drain). Only ever fired when ContentIndex is
  /// set.
  UnshareObserver OnUnshare;

  /// Optional telemetry endpoint. Null (the default) is the disabled
  /// fast path: hits emit nothing at all, and the miss/eviction paths pay
  /// one predictable null-pointer branch each. When set, the engine
  /// emits miss, insert, per-victim evict, eviction-batch, unlink, flush,
  /// and quantum-change records into the sink's tracer.
  telemetry::TelemetrySink *Telemetry = nullptr;
};

/// Result of one access.
enum class AccessKind {
  Hit,        ///< Superblock found in the cache.
  SharedHit,  ///< Not resident under its own id, but identical content is
              ///< resident under another tenant's id (content-index hit):
              ///< the access linked the shared copy instead of
              ///< regenerating. Counted as a hit in CacheStats.
  Miss,       ///< Regenerated and inserted.
  MissTooBig, ///< Regenerated but larger than the whole cache; executed
              ///< unlinked and discarded (pathological; counted, never
              ///< expected with realistic sizes).
};

/// Drives a CodeCache under an EvictionPolicy with full chaining and
/// overhead accounting.
class CacheEngine {
public:
  CacheEngine(const CacheEngineConfig &Config,
              std::unique_ptr<EvictionPolicy> Policy);

  /// Processes one superblock dispatch event (trace-driven front door).
  AccessKind access(const SuperblockRecord &Rec);

  /// Installs a freshly regenerated block (execution-driven front door):
  /// the miss half of access() only — make room at the current quantum,
  /// commit, materialize chain links. No policy access bookkeeping, no
  /// preemptive-flush poll, no audit; the owner sequences those. \p Rec
  /// must not already be resident. Returns false when the block exceeds
  /// the whole cache (counted as a too-big miss, nothing inserted).
  bool install(const SuperblockRecord &Rec);

  /// Forces a whole-cache flush (used by tests and external phase
  /// detectors; also the action behind PreemptiveFlushPolicy).
  void flushEntireCache();

  const CacheStats &stats() const { return Stats; }
  const CodeCache &cache() const { return Cache; }
  const LinkGraph &links() const { return Links; }
  EvictionPolicy &policy() { return *Policy; }
  const EvictionPolicy &policy() const { return *Policy; }
  const CacheEngineConfig &config() const { return Config; }

  /// The eviction quantum currently in force.
  uint64_t currentQuantum() const;

  /// Whether this engine keeps a back-pointer table: chaining is on and
  /// the policy needs one (everything but whole-cache FLUSH). Fixed at
  /// construction; gates the Eq. 4 unlink charges, the dangling counts
  /// handed to observers, and back-pointer memory sampling.
  bool keepsBackPointerTable() const { return KeepsBackPointers; }

  /// Owner of resident or previously-seen superblock \p Id (tenant 0 if
  /// never inserted). Only meaningful when records carry tenant ids.
  TenantId tenantOf(SuperblockId Id) const {
    return Id < TenantById.size() ? TenantById[Id] : 0;
  }

  /// Cross-checks CodeCache and LinkGraph invariants (tests).
  bool checkInvariants() const;

  /// Late payload wiring, for owners whose hooks capture `this`: the
  /// engine is typically a member constructed before the owner can form
  /// such a lambda. Install the hooks before the first mutating call.
  void setEvictPayload(EvictPayloadHook Hook) {
    Config.OnEvictPayload = std::move(Hook);
  }
  void setUnlinkPayload(UnlinkPayloadHook Hook) {
    Config.OnUnlinkPayload = std::move(Hook);
  }

  /// Whether the most recent access() created a *new* share link (its
  /// AccessKind::SharedHit was the first time this (tenant, id) resolved
  /// to the shared copy — a shared install). Multi-tenant drivers use
  /// this for per-tenant SharedInstalls attribution.
  bool lastAccessShareLinked() const { return LastShareLinked; }

  /// Whether the most recent install() evicted at least one batch — the
  /// Evictions-level audit condition for install() owners, who call
  /// maybeAudit() only after their own structures settle.
  bool lastInstallEvicted() const { return LastInstallEvicted; }

  /// Paranoid-mode control. The hook only runs while the level permits,
  /// so arming an auditor on an engine left at AuditLevel::Off is free on
  /// the hot path (one branch per access).
  void setAuditLevel(AuditLevel Level) { Auditing = Level; }
  AuditLevel auditLevel() const { return Auditing; }
  void setAuditHook(AuditHook Hook) { Audit = std::move(Hook); }

  /// Runs the audit hook if the current level covers this site.
  /// \p Evicted: whether the mutation removed blocks (Evictions level).
  /// access()/flushEntireCache() call this themselves; install() owners
  /// call it once their own structures (dispatch table, slots) settle.
  void maybeAudit(bool Evicted, const char *Where);

  /// Samples back-pointer table memory into the stats (peak + mean
  /// accumulators). access() samples once per call; install() owners
  /// sample at their own cadence.
  void sampleBackPointerMemory();

  /// --- Deferred-access front door (one-pass multi-configuration) ------
  ///
  /// The src/multisweep shared pass drives many engines over one decoded
  /// access stream and batches everything a stateless policy
  /// (EvictionPolicy::isAccessStateless) cannot observe on a hit: the
  /// access/hit counters and the per-access back-pointer sample. The
  /// driver calls deferredMiss() for exactly the accesses that miss in
  /// this engine, keeps every access sampled exactly once in stream order
  /// via addDeferredBackPointerSamples() (legal because the table size
  /// only changes on the miss path), and finally reconciles the counters
  /// with settleDeferredAccesses(). Must not be mixed with access() on
  /// the same engine.

  /// The miss half of access() for a deferred-accounting run: sets the
  /// in-flight tenant and runs missAndInsert(). \p Rec must not be
  /// resident. Never returns Hit.
  AccessKind deferredMiss(const SuperblockRecord &Rec);

  /// Accounts \p Count back-pointer samples at the table's current size
  /// (same gate as sampleBackPointerMemory). Batching is exact: all
  /// sampled values are integral and far below 2^53, so the sum of one
  /// bytes*Count product equals Count per-access additions bit for bit.
  void addDeferredBackPointerSamples(uint64_t Count);

  /// Settles the deferred counters after the pass: Accesses becomes
  /// \p TotalAccesses and every access that did not miss was a hit. The
  /// engine must not have counted accesses through access()/install().
  void settleDeferredAccesses(uint64_t TotalAccesses);

  /// Victims of the most recent miss/flush (empty when it evicted
  /// nothing). Read-only view of the internal scratch — valid until the
  /// next mutating call. Lets a one-pass driver maintain its residency
  /// index without the copying OnEviction observer costs on the miss
  /// path.
  const std::vector<CodeCache::Resident> &lastEvictions() const {
    return EvictedScratch;
  }

private:
  CacheEngineConfig Config;
  std::unique_ptr<EvictionPolicy> Policy;
  CodeCache Cache;
  LinkGraph Links;
  CacheStats Stats;

  std::vector<uint8_t> Seen; // Cold-miss detection, indexed by id.
  std::vector<TenantId> TenantById;
  std::vector<CodeCache::Resident> EvictedScratch;
  std::vector<uint32_t> DanglingScratch;
  std::vector<TenantId> VictimTenantScratch;
  std::vector<SharedContentIndex::Link> UnshareScratch;
  TenantId CurrentTenant = 0; // Tenant of the in-flight access.
  bool LastShareLinked = false;

  // Fixed at construction so the miss and sampling paths make no virtual
  // policy calls: the quantum of an access-stateless policy (0 = ask the
  // policy on every miss) and the back-pointer-table gate.
  uint64_t FixedQuantum = 0;
  bool KeepsBackPointers = false;

  // Telemetry bookkeeping (only touched when Config.Telemetry is set).
  uint64_t LastQuantumTraced = 0;   // 0 = no quantum recorded yet.
  bool PreemptiveFlushInFlight = false;

  AuditLevel Auditing = defaultAuditLevel();
  AuditHook Audit;
  bool LastInstallEvicted = false;

  /// Shared miss path behind access() and install(): charge Eq. 3, make
  /// room (firing the eviction machinery), insert, link. Returns the
  /// resulting access kind (never Hit).
  AccessKind missAndInsert(const SuperblockRecord &Rec);

  void chargeEvictions(uint64_t UnitsFlushed);
  void drainShares();
  void notifyEvictions();
  bool seenBefore(SuperblockId Id);
  void traceMiss(const SuperblockRecord &Rec, bool Cold, uint64_t Quantum);
  void traceEvictionBatch(uint64_t BatchBytes, bool HaveDangling);
};

} // namespace ccsim

#endif // CCSIM_CORE_CACHEENGINE_H
