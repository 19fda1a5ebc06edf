//===- core/CacheEngine.cpp - Shared code cache engine --------------------===//

#include "core/CacheEngine.h"
#include "support/Contracts.h"

#include <algorithm>

using namespace ccsim;

CacheEngine::CacheEngine(const CacheEngineConfig &Config,
                         std::unique_ptr<EvictionPolicy> Policy)
    : Cache(Config.CapacityBytes), Links(Config.Topology), Config(Config),
      Policy(std::move(Policy)) {
  CCSIM_REQUIRE(this->Policy, "cache engine requires a policy");
  if (Config.Topology)
    Cache.reserveIds(Config.Topology->size());
  Stats.SharingActive = this->Config.ContentIndex != nullptr;
  // An access-stateless policy's quantum depends on the capacity alone,
  // so the miss path need not ask it again.
  if (this->Policy->isAccessStateless())
    FixedQuantum = currentQuantum();
  KeepsBackPointers = this->Config.EnableChaining &&
                      this->Policy->usesBackPointerTable(Cache.capacity());
}

uint64_t CacheEngine::currentQuantum() const {
  if (FixedQuantum != 0)
    return FixedQuantum;
  const uint64_t Capacity = Cache.capacity();
  return std::clamp<uint64_t>(Policy->quantumBytes(Capacity), 1, Capacity);
}

void CacheEngine::growSeen(SuperblockId Id) {
  Seen.resize(std::max<size_t>(size_t{Id} + 1, Seen.size() * 2), 0);
}

void CacheEngine::growTenants(const SuperblockRecord &Rec) {
  TenantById.resize(
      std::max<size_t>(size_t{Rec.Id} + 1, TenantById.size() * 2), 0);
  TenantById[Rec.Id] = Rec.Tenant;
}

void CacheEngine::sampleBackPointerMemory() {
  if (!KeepsBackPointers)
    return;
  const uint64_t Bytes = Links.backPointerBytes();
  Stats.BackPointerBytesPeak = std::max(Stats.BackPointerBytesPeak, Bytes);
  Stats.BackPointerBytesSum += static_cast<double>(Bytes);
}

AccessKind CacheEngine::deferredMiss(const SuperblockRecord &Rec,
                                     bool Cold) {
  CCSIM_ASSERT(Rec.Id != InvalidSuperblockId, "invalid superblock id");
  CCSIM_ASSERT(Rec.SizeBytes > 0,
               "superblock %u must have a positive size", Rec.Id);
  CCSIM_ASSERT(!Cache.contains(Rec.Id),
               "superblock %u is already resident", Rec.Id);
  CurrentTenant = Rec.Tenant;
  return missAndInsert(Rec, Cold);
}

void CacheEngine::settleDeferredAccesses(uint64_t TotalAccesses) {
  CCSIM_REQUIRE(Stats.Accesses == 0 && Stats.Hits == 0,
                "deferred settlement on an engine that counted accesses "
                "directly");
  CCSIM_REQUIRE(TotalAccesses >= Stats.Misses,
                "deferred pass recorded more misses than accesses");
  Stats.Accesses = TotalAccesses;
  Stats.Hits = TotalAccesses - Stats.Misses;
}

void CacheEngine::maybeAudit(bool Evicted, const char *Where) {
  if (Auditing == AuditLevel::Off || !Audit)
    return;
  if (Auditing == AuditLevel::Evictions && !Evicted)
    return;
  Audit(*this, Where);
}

void CacheEngine::chargeEvictions(uint64_t UnitsFlushed) {
  CCSIM_ASSERT(!EvictedScratch.empty(), "no victims to charge");

  // Front-end teardown first: an execution-driven owner drops its
  // dispatch-table entries and fragment slots (and charges its own
  // instrumented eviction cost) before the engine's accounting runs.
  if (Config.OnEvictPayload)
    Config.OnEvictPayload(EvictedScratch);

  uint64_t Bytes = 0;
  for (const CodeCache::Resident &V : EvictedScratch)
    Bytes += V.Size;
  ++Stats.EvictionInvocations;
  Stats.EvictedBlocks += EvictedScratch.size();
  Stats.EvictedBytes += Bytes;
  Stats.UnitsFlushed += UnitsFlushed;
  Stats.EvictionOverhead += Config.Costs.evictionOverhead(Bytes);

  // Without chaining there are no links to repair.
  bool HaveDangling = false;
  if (Config.EnableChaining) {
    DanglingScratch.clear();
    const uint64_t LinksBefore = Links.numLinks();
    Links.onEvict(Cache, EvictedScratch, DanglingScratch);
    Stats.LinksDestroyed += LinksBefore - Links.numLinks();
    if (KeepsBackPointers) {
      HaveDangling = true;
      // A victim without dangling links costs nothing: Eq. 4 charges it
      // 0.0, which leaves the (nonnegative) overhead sum bit-identical,
      // so the loop needs no branch.
      for (uint32_t NumLinks : DanglingScratch) {
        Stats.UnlinkOperations += NumLinks != 0;
        Stats.UnlinkedLinks += NumLinks;
        Stats.UnlinkOverhead += Config.Costs.unlinkingOverhead(NumLinks);
      }
    }
    // The owner's unlink charge sees the same dangling counts the engine
    // just accounted. Under FLUSH nothing survives an eviction, so the
    // counts are all zero and the hook charges nothing — matching the
    // engine's own back-pointer-table gate above.
    if (Config.OnUnlinkPayload)
      Config.OnUnlinkPayload(EvictedScratch, DanglingScratch);
  }

  if (Config.ContentIndex != nullptr) [[unlikely]]
    drainShares();

  if (Config.Telemetry) [[unlikely]]
    traceEvictionBatch(Bytes, HaveDangling);
}

void CacheEngine::drainShares() {
  // Evicting a content-shared representative takes every linked tenant's
  // copy with it: each live link is one more dispatch-glue patch to undo,
  // charged at the Eq. 4 single-link rate (the same base + per-link cost a
  // chained branch repair pays). Aliases that re-miss later install a
  // fresh representative.
  for (const CodeCache::Resident &V : EvictedScratch) {
    UnshareScratch.clear();
    if (!Config.ContentIndex->releaseRepresentative(V.Id, UnshareScratch))
      continue;
    for (size_t I = 0; I < UnshareScratch.size(); ++I) {
      ++Stats.UnshareUnlinks;
      Stats.UnlinkOverhead += Config.Costs.unlinkingOverhead(1);
    }
    if (Config.OnUnshare && !UnshareScratch.empty()) {
      UnshareEvent Event;
      Event.Evictor = CurrentTenant;
      Event.Representative = V.Id;
      Event.SizeBytes = V.Size;
      Event.Links = UnshareScratch;
      Config.OnUnshare(Event);
    }
  }
}

void CacheEngine::traceMiss(const SuperblockRecord &Rec, bool Cold,
                            uint64_t Quantum) {
  telemetry::EventTracer &Tracer = Config.Telemetry->Tracer;
  Tracer.record(telemetry::EventKind::Miss, Rec.Tenant, Rec.Id,
                Rec.SizeBytes, Cold ? 1 : 0, Stats.Accesses);
  // Adaptive policies move their quantum over time; pin every change (and
  // the initial value) so a trace explains *why* batch sizes shifted.
  if (Quantum != LastQuantumTraced) {
    Tracer.record(telemetry::EventKind::QuantumChange, Rec.Tenant,
                  telemetry::NoBlock, Quantum, LastQuantumTraced,
                  Stats.Accesses);
    LastQuantumTraced = Quantum;
  }
}

void CacheEngine::traceEvictionBatch(uint64_t BatchBytes,
                                     bool HaveDangling) {
  telemetry::EventTracer &Tracer = Config.Telemetry->Tracer;
  for (size_t I = 0; I < EvictedScratch.size(); ++I) {
    const CodeCache::Resident &V = EvictedScratch[I];
    const uint32_t NumLinks =
        HaveDangling && I < DanglingScratch.size() ? DanglingScratch[I] : 0;
    Tracer.record(telemetry::EventKind::Evict, tenantOf(V.Id), V.Id, V.Size,
                  NumLinks, Stats.Accesses);
    if (NumLinks > 0)
      Tracer.record(telemetry::EventKind::Unlink, tenantOf(V.Id), V.Id,
                    NumLinks, 0, Stats.Accesses);
  }
  Tracer.record(telemetry::EventKind::EvictionBatch, CurrentTenant,
                telemetry::NoBlock, EvictedScratch.size(), BatchBytes,
                Stats.Accesses);
}

void CacheEngine::notifyEvictions() {
  if (!Config.OnEviction)
    return;
  VictimTenantScratch.clear();
  VictimTenantScratch.reserve(EvictedScratch.size());
  for (const CodeCache::Resident &V : EvictedScratch)
    VictimTenantScratch.push_back(tenantOf(V.Id));

  EvictionBatchEvent Event;
  Event.Evictor = CurrentTenant;
  Event.Victims = EvictedScratch;
  Event.VictimTenants = VictimTenantScratch;
  // DanglingScratch lines up with EvictedScratch only when unlink charges
  // were actually accounted; otherwise report no repaired links.
  if (KeepsBackPointers)
    Event.DanglingLinks = DanglingScratch;
  Config.OnEviction(Event);
}

AccessKind CacheEngine::missAndInsert(const SuperblockRecord &Rec,
                                      bool Cold) {
  // Miss: the superblock must be regenerated (re-translated, inserted,
  // hash table updated) at the Eq. 3 cost; there is no backing store.
  ++Stats.Misses;
  if (Cold)
    ++Stats.ColdMisses;
  else
    ++Stats.CapacityMisses;
  Stats.MissOverhead += Config.Costs.missOverhead(Rec.SizeBytes);

  const uint64_t Quantum = currentQuantum();
  if (Config.Telemetry) [[unlikely]]
    traceMiss(Rec, Cold, Quantum);
  EvictedScratch.clear();
  const CodeCache::PrepareOutcome Prep =
      Cache.prepareInsert(Rec.SizeBytes, Quantum, EvictedScratch);
  Stats.WastedBytes += Prep.WastedBytes;
  if (!EvictedScratch.empty()) {
    chargeEvictions(Prep.UnitsFlushed);
    notifyEvictions();
  }

  if (!Prep.CanInsert) {
    ++Stats.TooBigMisses;
    return AccessKind::MissTooBig;
  }

  Cache.commitInsert(Rec.Id, Rec.SizeBytes);
  ++Stats.Inserts;
  Stats.InsertedBytes += Rec.SizeBytes;
  // First copy of shareable content becomes the key's representative;
  // later tenants that miss on identical content link it instead of
  // installing. (A key can already hold a representative only through the
  // install() front door, which bypasses the shared-hit check — the copy
  // then simply stays private.)
  if (Config.ContentIndex != nullptr && Rec.ContentKey != 0 &&
      Config.ContentIndex->lookup(Rec.ContentKey) == nullptr) [[unlikely]]
    Config.ContentIndex->registerRepresentative(Rec.ContentKey, Rec.Id,
                                                Rec.SizeBytes, Rec.Tenant);
  // Untagged runs never grow the owner table: tenantOf() reads 0 for an
  // id beyond it, which is what a tenant-0 record would have written.
  if (Rec.Id < TenantById.size())
    TenantById[Rec.Id] = Rec.Tenant;
  else if (Rec.Tenant != 0) [[unlikely]]
    growTenants(Rec);
  if (Config.EnableChaining)
    Links.onInsert(Cache, Quantum, Rec.Id, Rec.OutEdges, Stats);
  if (Config.Telemetry) [[unlikely]]
    Config.Telemetry->Tracer.record(telemetry::EventKind::Insert,
                                    Rec.Tenant, Rec.Id, Rec.SizeBytes,
                                    0, Stats.Accesses);
  return AccessKind::Miss;
}

AccessKind CacheEngine::access(const SuperblockRecord &Rec) {
  CCSIM_ASSERT(Rec.Id != InvalidSuperblockId, "invalid superblock id");
  CCSIM_ASSERT(Rec.SizeBytes > 0,
               "superblock %u must have a positive size", Rec.Id);

  CurrentTenant = Rec.Tenant;
  ++Stats.Accesses;
  LastShareLinked = false;
  const bool Hit = Cache.contains(Rec.Id);
  const SharedContentIndex::Entry *Shared = nullptr;
  if (!Hit && Config.ContentIndex != nullptr && Rec.ContentKey != 0)
    [[unlikely]]
    Shared = Config.ContentIndex->lookup(Rec.ContentKey);
  Policy->noteAccess(Hit || Shared != nullptr);

  AccessKind Kind = AccessKind::Hit;
  bool Evicted = false;
  if (Hit) {
    ++Stats.Hits;
  } else if (Shared != nullptr) {
    // Identical content is resident under another tenant's id: link the
    // shared copy instead of regenerating. The access is a hit (no Eq. 3
    // charge, no insert); a link this (tenant, id) pair did not hold yet
    // is a shared install that saved one copy's bytes.
    CCSIM_ASSERT(Shared->SizeBytes == Rec.SizeBytes,
                 "content key %llu matched blocks of different sizes",
                 static_cast<unsigned long long>(Rec.ContentKey));
    ++Stats.Hits;
    Kind = AccessKind::SharedHit;
    if (Config.ContentIndex->link(Rec.ContentKey, Rec.Tenant, Rec.Id)) {
      LastShareLinked = true;
      ++Stats.SharedInstalls;
      Stats.SharedBytesSaved += Rec.SizeBytes;
    }
  } else {
    const uint64_t InvocationsBefore = Stats.EvictionInvocations;
    Kind = missAndInsert(Rec, !seenBefore(Rec.Id));
    Evicted = Stats.EvictionInvocations != InvocationsBefore;
  }

  if (Policy->shouldFlushNow() && !Cache.empty()) {
    ++Stats.PreemptiveFlushes;
    PreemptiveFlushInFlight = true;
    flushEntireCache();
    PreemptiveFlushInFlight = false;
    Policy->noteFlush();
    Evicted = true;
  }

  sampleBackPointerMemory();
  maybeAudit(Evicted, "access");
  return Kind;
}

bool CacheEngine::install(const SuperblockRecord &Rec) {
  CCSIM_ASSERT(Rec.Id != InvalidSuperblockId, "invalid superblock id");
  CCSIM_ASSERT(Rec.SizeBytes > 0,
               "superblock %u must have a positive size", Rec.Id);
  CCSIM_ASSERT(!Cache.contains(Rec.Id),
               "superblock %u is already resident", Rec.Id);

  CurrentTenant = Rec.Tenant;
  // The owner only calls install() after a dispatch-table miss, so each
  // install is one (missing) access; keeping both counters moving makes
  // the CacheStats conservation identities hold for audited DBT runs.
  ++Stats.Accesses;
  const uint64_t InvocationsBefore = Stats.EvictionInvocations;
  const bool Installed =
      missAndInsert(Rec, !seenBefore(Rec.Id)) == AccessKind::Miss;
  LastInstallEvicted = Stats.EvictionInvocations != InvocationsBefore;
  return Installed;
}

void CacheEngine::flushEntireCache() {
  if (Cache.empty())
    return;
  if (Config.Telemetry) [[unlikely]]
    Config.Telemetry->Tracer.record(
        telemetry::EventKind::Flush, CurrentTenant, telemetry::NoBlock,
        Cache.residentCount(), PreemptiveFlushInFlight ? 1 : 0,
        Stats.Accesses);
  EvictedScratch.clear();
  Cache.flushAll(EvictedScratch);
  // A full flush is one invocation clearing every unit that held code:
  // a victim outside the previous victim's unit opens a new one.
  const uint64_t Quantum = currentQuantum();
  uint64_t Units = 0, UnitLo = 0;
  for (const CodeCache::Resident &V : EvictedScratch)
    if (Units == 0 || V.Start - UnitLo >= Quantum) {
      UnitLo = CodeCache::unitBase(V.Start, Quantum);
      ++Units;
    }
  chargeEvictions(Units);
  notifyEvictions();
  maybeAudit(true, "flush");
}

bool CacheEngine::checkInvariants() const {
  if (!Cache.checkInvariants())
    return false;
  if (Config.EnableChaining && !Links.checkInvariants(Cache))
    return false;
  return true;
}
