//===- core/SharedCacheEngine.cpp - Thread-shared cache engine ------------===//

#include "core/SharedCacheEngine.h"
#include "support/Contracts.h"

#include <algorithm>
#include <chrono>

using namespace ccsim;

namespace {

/// Contention timing is confined here: the value feeds the lock-wait
/// histogram only and never any simulated state, so replay determinism
/// is unaffected.
uint64_t nowMicros() {
  // ccsim-lint: allow(determinism.wall-clock) -- contention telemetry only; the sample never feeds simulated state
  const auto T = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(T).count());
}

/// RAII exclusive hold on a ccsim::Mutex that counts the stall (and,
/// when a histogram is wired, the blocked microseconds) if the fast
/// try_lock loses.
class CCSIM_SCOPED_CAPABILITY TimedLock {
public:
  TimedLock(Mutex &M, std::atomic<uint64_t> &Stalls,
            std::atomic<uint64_t> &WaitMicros,
            telemetry::HistogramMetric *Hist) CCSIM_ACQUIRE(M)
      : M(M) {
    if (M.try_lock())
      return;
    Stalls.fetch_add(1, std::memory_order_relaxed);
    if (!Hist) {
      // ccsim-lint: allow(locking.naked-lock) -- TimedLock IS the RAII guard; its ctor owns the acquire
      M.lock();
      return;
    }
    const uint64_t T0 = nowMicros();
    // ccsim-lint: allow(locking.naked-lock) -- TimedLock IS the RAII guard; its ctor owns the acquire
    M.lock();
    const uint64_t Waited = nowMicros() - T0;
    WaitMicros.fetch_add(Waited, std::memory_order_relaxed);
    Hist->observe(static_cast<double>(Waited));
  }
  // ccsim-lint: allow(locking.naked-lock) -- the matching RAII release of the guard itself
  ~TimedLock() CCSIM_RELEASE() { M.unlock(); }

  TimedLock(const TimedLock &) = delete;
  TimedLock &operator=(const TimedLock &) = delete;

private:
  Mutex &M;
};

unsigned roundUpPow2(unsigned V) {
  unsigned P = 1;
  while (P < V && P < (1u << 30))
    P <<= 1;
  return P;
}

} // namespace

ShareMode SharedCacheEngine::preferredMode(unsigned GuestThreads,
                                           const EvictionPolicy &Policy) {
  if (GuestThreads <= 1 || !Policy.isAccessStateless())
    return ShareMode::Exact;
  return ShareMode::Concurrent;
}

/// The shared engine interposes on the eviction-batch payload hook; the
/// owner's own hook (if any) is saved aside and re-fired under the
/// fences.
static CacheEngineConfig stripPayloadHook(const SharedEngineConfig &Config) {
  CacheEngineConfig EC = Config.Engine;
  EC.OnEvictPayload = nullptr;
  return EC;
}

SharedCacheEngine::SharedCacheEngine(const SharedEngineConfig &Config,
                                     std::unique_ptr<EvictionPolicy> Policy)
    : Engine(stripPayloadHook(Config), std::move(Policy)),
      OwnerEvictPayload(Config.Engine.OnEvictPayload),
      OnInstallPayload(Config.OnInstallPayload) {
  CCSIM_REQUIRE(Engine.policy().isAccessStateless(),
                "the shared engine defers hits, so policy %s must be "
                "access-stateless",
                Engine.policy().name().c_str());
  Engine.setEvictPayload([this](std::span<const CodeCache::Resident> Victims) {
    onEvictionBatch(Victims);
  });
  NShards = roundUpPow2(std::max(1u, Config.Shards));
  ShardMask = NShards - 1;
  ShardBits = 0;
  for (unsigned P = NShards; P > 1; P >>= 1)
    ++ShardBits;
  NFences = std::max(1u, Config.Fences);
  const uint64_t Cap = std::max<uint64_t>(1, Config.Engine.CapacityBytes);
  FenceWidth = std::max<uint64_t>(1, (Cap + NFences - 1) / NFences);
  Shards = std::make_unique<Shard[]>(NShards);
  Fences = std::make_unique<Fence[]>(NFences);
  if (Config.Engine.Telemetry)
    LockWaitHist = &Config.Engine.Telemetry->Metrics.histogram(
        "shared.lock_wait_us", 50.0, 64);
}

AccessKind SharedCacheEngine::access(const SuperblockRecord &Rec) {
  const unsigned SI = shardOf(Rec.Id);
  const size_t Slot = slotOf(Rec.Id);
  Shard &S = Shards[SI];
  uint32_t Region = 0;
  bool MaybeResident = false;
  {
    ReaderLock RL(S.Mu);
    if (Slot < S.Resident.size() && S.Resident[Slot]) {
      MaybeResident = true;
      Region = S.Region[Slot];
    }
  }
  if (MaybeResident) {
    // Hold the block's region fence shared across the authoritative
    // re-check: an eviction batch tearing down this region holds it
    // exclusively, so a hit counted here happened-before the teardown.
    Fence &F = Fences[Region];
    if (!F.Mu.try_lock_shared()) {
      FenceSharedStalls.fetch_add(1, std::memory_order_relaxed);
      F.Mu.lock_shared();
    }
    bool Still = false;
    {
      ReaderLock RL(S.Mu);
      Still = Slot < S.Resident.size() && S.Resident[Slot];
    }
    F.Mu.unlock_shared();
    if (Still) {
      FastHits.fetch_add(1, std::memory_order_relaxed);
      PendingSamples.fetch_add(1, std::memory_order_relaxed);
      return AccessKind::Hit;
    }
  }
  return missSlow(Rec);
}

AccessKind SharedCacheEngine::missSlow(const SuperblockRecord &Rec) {
  TimedLock L(EngineMu, EngineLockStalls, EngineLockWaitMicros, LockWaitHist);
  if (Engine.cache().contains(Rec.Id)) {
    // Another guest installed the block between our index probe and the
    // engine lock: a hit, by the time this access is serialized.
    InstallRaces.fetch_add(1, std::memory_order_relaxed);
    FastHits.fetch_add(1, std::memory_order_relaxed);
    PendingSamples.fetch_add(1, std::memory_order_relaxed);
    return AccessKind::Hit;
  }
  // Deferred accounting (see CacheEngine's deferred front doors): batched
  // hit samples are flushed first -- the back-pointer table only changes
  // on misses, so every batched hit sampled exactly the current size.
  if (const uint64_t P = PendingSamples.exchange(0, std::memory_order_relaxed))
    Engine.addDeferredBackPointerSamples(P);
  const AccessKind K = Engine.deferredMiss(Rec);
  Engine.addDeferredBackPointerSamples(1);
  reconcileIndexEntry(Rec.Id);
  return K;
}

bool SharedCacheEngine::install(const SuperblockRecord &Rec) {
  TimedLock L(EngineMu, EngineLockStalls, EngineLockWaitMicros, LockWaitHist);
  if (Engine.cache().contains(Rec.Id)) {
    InstallRaces.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool Installed = Engine.install(Rec);
  reconcileIndexEntry(Rec.Id);
  if (Installed && OnInstallPayload)
    OnInstallPayload(Rec);
  return Installed;
}

bool SharedCacheEngine::probe(SuperblockId Id) const {
  const Shard &S = Shards[shardOf(Id)];
  ReaderLock RL(S.Mu);
  const size_t Slot = slotOf(Id);
  return Slot < S.Resident.size() && S.Resident[Slot] != 0;
}

void SharedCacheEngine::settle(uint64_t TotalAccesses) {
  MutexLock L(EngineMu);
  if (const uint64_t P = PendingSamples.exchange(0, std::memory_order_relaxed))
    Engine.addDeferredBackPointerSamples(P);
  Engine.settleDeferredAccesses(TotalAccesses);
}

void SharedCacheEngine::quiesce(
    const std::function<void(const SharedCacheEngine &)> &Fn) {
  lockAllForQuiesce();
  QuiesceCount.fetch_add(1, std::memory_order_relaxed);
  try {
    Fn(*this);
  } catch (...) {
    unlockAllForQuiesce();
    throw;
  }
  unlockAllForQuiesce();
}

void SharedCacheEngine::lockAllForQuiesce() {
  // ccsim-lint: allow(locking.naked-lock) -- N locks acquired in canonical order; paired in unlockAllForQuiesce, exception-safe via quiesce()'s catch
  EngineMu.lock();
  for (unsigned I = 0; I < NFences; ++I)
    // ccsim-lint: allow(locking.naked-lock) -- part of the ordered quiesce acquire sequence above
    Fences[I].Mu.lock();
  for (unsigned I = 0; I < NShards; ++I)
    // ccsim-lint: allow(locking.naked-lock) -- part of the ordered quiesce acquire sequence above
    Shards[I].Mu.lock();
}

void SharedCacheEngine::unlockAllForQuiesce() {
  for (unsigned I = NShards; I > 0; --I)
    // ccsim-lint: allow(locking.naked-lock) -- reverse-order release of the quiesce acquire sequence
    Shards[I - 1].Mu.unlock();
  for (unsigned I = NFences; I > 0; --I)
    // ccsim-lint: allow(locking.naked-lock) -- reverse-order release of the quiesce acquire sequence
    Fences[I - 1].Mu.unlock();
  // ccsim-lint: allow(locking.naked-lock) -- reverse-order release of the quiesce acquire sequence
  EngineMu.unlock();
}

CacheStats SharedCacheEngine::stats() {
  MutexLock L(EngineMu);
  return Engine.stats();
}

ContentionCounters SharedCacheEngine::contention() const {
  ContentionCounters C;
  C.FastHits = FastHits.load(std::memory_order_relaxed);
  C.InstallRaces = InstallRaces.load(std::memory_order_relaxed);
  C.FenceSharedStalls = FenceSharedStalls.load(std::memory_order_relaxed);
  C.FenceExclusiveStalls = FenceExclusiveStalls.load(std::memory_order_relaxed);
  C.EngineLockStalls = EngineLockStalls.load(std::memory_order_relaxed);
  C.EngineLockWaitMicros = EngineLockWaitMicros.load(std::memory_order_relaxed);
  C.QuiescePoints = QuiesceCount.load(std::memory_order_relaxed);
  return C;
}

void SharedCacheEngine::publishContention(telemetry::MetricsRegistry &Metrics,
                                          const telemetry::MetricLabels &Labels) {
  const ContentionCounters C = contention();
  Metrics.counter("shared.fast_hits", Labels).add(C.FastHits);
  Metrics.counter("shared.install_races", Labels).add(C.InstallRaces);
  Metrics.counter("shared.fence_stalls_shared", Labels)
      .add(C.FenceSharedStalls);
  Metrics.counter("shared.fence_stalls_exclusive", Labels)
      .add(C.FenceExclusiveStalls);
  Metrics.counter("shared.engine_lock_stalls", Labels).add(C.EngineLockStalls);
  Metrics.counter("shared.engine_lock_wait_us", Labels)
      .add(C.EngineLockWaitMicros);
  Metrics.counter("shared.quiesce_points", Labels).add(C.QuiescePoints);
  uint64_t Total = 0;
  uint64_t MaxShard = 0;
  for (unsigned I = 0; I < NShards; ++I) {
    const Shard &S = Shards[I];
    ReaderLock RL(S.Mu);
    uint64_t Here = 0;
    for (const uint8_t R : S.Resident)
      Here += R;
    Total += Here;
    MaxShard = std::max(MaxShard, Here);
  }
  Metrics.gauge("shared.index_entries", Labels)
      .set(static_cast<double>(Total));
  Metrics.gauge("shared.shard_occupancy_max", Labels)
      .set(static_cast<double>(MaxShard));
}

SharedIndexState SharedCacheEngine::indexSnapshot() const {
  SharedIndexState St;
  St.Shards = NShards;
  St.Fences = NFences;
  St.FenceBytes = FenceWidth;
  for (unsigned I = 0; I < NShards; ++I) {
    const Shard &S = Shards[I];
    for (size_t Slot = 0; Slot < S.Resident.size(); ++Slot)
      if (S.Resident[Slot])
        St.Entries.push_back(
            {static_cast<SuperblockId>((Slot << ShardBits) | I),
             S.Region[Slot]});
  }
  std::sort(St.Entries.begin(), St.Entries.end(),
            [](const SharedIndexEntry &A, const SharedIndexEntry &B) {
              return A.Id < B.Id;
            });
  return St;
}

void SharedCacheEngine::reconcileIndexEntry(SuperblockId Id) {
  const bool Res = Engine.cache().contains(Id);
  uint32_t Region = 0;
  if (Res)
    Region = regionOf(Engine.cache().startOf(Id));
  Shard &S = Shards[shardOf(Id)];
  const size_t Slot = slotOf(Id);
  WriterLock WL(S.Mu);
  if (Slot >= S.Resident.size()) {
    if (!Res)
      return;
    S.Resident.resize(Slot + 1, 0);
    S.Region.resize(Slot + 1, 0);
  }
  S.Resident[Slot] = Res ? 1 : 0;
  S.Region[Slot] = Region;
}

void SharedCacheEngine::onEvictionBatch(
    std::span<const CodeCache::Resident> Victims) {
  // Runs under EngineMu (all evictions originate from a miss / install /
  // flush holding it). Take the victims' region fences exclusively in
  // ascending order, tear down payloads, then kill the index entries --
  // hits in unaffected regions proceed untouched throughout.
  RegionScratch.clear();
  for (const CodeCache::Resident &V : Victims)
    RegionScratch.push_back(regionOf(V.Start));
  std::sort(RegionScratch.begin(), RegionScratch.end());
  RegionScratch.erase(
      std::unique(RegionScratch.begin(), RegionScratch.end()),
      RegionScratch.end());
  for (const uint32_t R : RegionScratch)
    if (!Fences[R].Mu.try_lock()) {
      FenceExclusiveStalls.fetch_add(1, std::memory_order_relaxed);
      // ccsim-lint: allow(locking.naked-lock) -- counted slow-path acquire of a variable-length fence set; released below in reverse order
      Fences[R].Mu.lock();
    }
  if (OwnerEvictPayload)
    OwnerEvictPayload(Victims);
  for (const CodeCache::Resident &V : Victims) {
    Shard &S = Shards[shardOf(V.Id)];
    WriterLock WL(S.Mu);
    const size_t Slot = slotOf(V.Id);
    if (Slot < S.Resident.size())
      S.Resident[Slot] = 0;
  }
  for (auto It = RegionScratch.rbegin(); It != RegionScratch.rend(); ++It)
    // ccsim-lint: allow(locking.naked-lock) -- reverse-order release of the fence set acquired above; no early exit between the pair
    Fences[*It].Mu.unlock();
}
