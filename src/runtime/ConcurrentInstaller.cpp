//===- runtime/ConcurrentInstaller.cpp - Concurrent translate/install -----===//

#include "runtime/ConcurrentInstaller.h"

#include "support/Contracts.h"

#include <atomic>
#include <thread>
#include <vector>

using namespace ccsim;

namespace {

/// splitmix64: the per-thread operation streams and the per-fragment
/// sizes both come out of this fixed mixer, so a (Seed, Threads,
/// Operations) triple names one exact workload on every platform.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

struct ThreadTally {
  uint64_t Finds = 0;
  uint64_t Misses = 0;
  uint64_t Installs = 0;
  uint64_t InstallRaces = 0;
  uint64_t TooBig = 0;
};

} // namespace

InstallerReport ccsim::runConcurrentInstall(const InstallerConfig &Config) {
  CCSIM_REQUIRE(Config.Threads >= 1, "at least one installer thread");
  CCSIM_REQUIRE(Config.WorkingSet >= 1, "empty fragment working set");

  // Deterministic per-fragment sizes in [Mean/2, Mean*3/2), never zero.
  const uint32_t Mean = std::max<uint32_t>(2, Config.MeanFragmentBytes);
  std::vector<uint32_t> Sizes(Config.WorkingSet);
  for (uint32_t Id = 0; Id < Config.WorkingSet; ++Id)
    Sizes[Id] = Mean / 2 + static_cast<uint32_t>(
                               mix64(Config.Seed ^ (Id + 1)) % Mean);

  // Dispatch table shared by every installer, guarded by its own lock.
  // Mutating hooks run with engine locks already held (EngineMu ->
  // fences -> DispatchMu); probing threads take DispatchMu alone.
  ccsim::Mutex DispatchMu;
  DispatchTable Dispatch;

  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = Config.CapacityBytes;
  SC.Engine.EnableChaining = Config.EnableChaining;
  SC.Engine.Telemetry = Config.Telemetry;
  SC.OnInstallPayload = [&](const SuperblockRecord &Rec) {
    MutexLock Lock(DispatchMu);
    Dispatch.insert(Rec.Id, static_cast<int32_t>(Rec.Id));
  };
  SC.Engine.OnEvictPayload = [&](std::span<const CodeCache::Resident> Victims) {
    MutexLock Lock(DispatchMu);
    for (const CodeCache::Resident &V : Victims)
      Dispatch.remove(V.Id);
  };

  SharedCacheEngine Engine(SC, makePolicy(Config.Granularity));

  std::vector<ThreadTally> Tallies(Config.Threads);
  auto Installer = [&](unsigned Tid) {
    ThreadTally &T = Tallies[Tid];
    uint64_t Rng = mix64(Config.Seed + 0x1000 + Tid);
    const uint64_t Ops = Config.Operations / Config.Threads +
                         (Tid == 0 ? Config.Operations % Config.Threads : 0);
    for (uint64_t Op = 0; Op < Ops; ++Op) {
      Rng = mix64(Rng);
      const SuperblockId Id =
          static_cast<SuperblockId>(Rng % Config.WorkingSet);
      if (Engine.probe(Id)) {
        ++T.Finds;
        continue;
      }
      ++T.Misses;
      SuperblockRecord Rec;
      Rec.Id = Id;
      Rec.SizeBytes = Sizes[Id];
      if (Engine.install(Rec)) {
        ++T.Installs;
      } else if (Engine.probe(Id)) {
        ++T.InstallRaces; // Another guest translated it first.
      } else {
        ++T.TooBig;
      }
    }
  };

  std::vector<std::thread> Threads;
  Threads.reserve(Config.Threads);
  for (unsigned Tid = 0; Tid < Config.Threads; ++Tid)
    Threads.emplace_back(Installer, Tid);
  for (std::thread &T : Threads)
    T.join();

  InstallerReport Report;
  for (const ThreadTally &T : Tallies) {
    Report.Finds += T.Finds;
    Report.Misses += T.Misses;
    Report.Installs += T.Installs;
    Report.InstallRaces += T.InstallRaces;
    Report.TooBig += T.TooBig;
  }

  // Final quiesce: the dispatch table must mirror residency exactly --
  // the concurrent analogue of the dispatch.* audit family -- then the
  // caller's hook (typically the full structural audit) runs over the
  // same locked state.
  Engine.quiesce([&](const SharedCacheEngine &E) {
    const CacheEngine &Inner = E.engineForAudit();
    bool Ok = true;
    uint64_t ResidentCount = 0;
    MutexLock Lock(DispatchMu);
    Report.DispatchEntries = Dispatch.size();
    Dispatch.forEachLive([&](uint32_t PC, int32_t Fragment) {
      if (static_cast<uint32_t>(Fragment) != PC ||
          !Inner.cache().contains(PC))
        Ok = false;
    });
    for (uint32_t Id = 0; Id < Config.WorkingSet; ++Id) {
      if (!Inner.cache().contains(Id))
        continue;
      ++ResidentCount;
      unsigned Probes = 0;
      if (Dispatch.lookup(Id, Probes) == DispatchTable::NotFound)
        Ok = false;
    }
    Report.DispatchConsistent = Ok && Report.DispatchEntries == ResidentCount;
    if (Config.OnFinalQuiesce)
      Config.OnFinalQuiesce(E);
  });

  Report.Stats = Engine.stats();
  Report.Contention = Engine.contention();
  return Report;
}
