//===- concurrent/MultiTenantSimulator.cpp - Shared-cache multi-tenancy ---===//

#include "concurrent/MultiTenantSimulator.h"

#include "check/Paranoia.h"
#include "support/Contracts.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>

using namespace ccsim;

uint64_t MultiTenantResult::blocksLostToOthers(size_t Victim) const {
  const size_t K = Tenants.size();
  uint64_t Lost = 0;
  for (size_t Evictor = 0; Evictor < K; ++Evictor)
    if (Evictor != Victim)
      Lost += CrossEvictedBlocks[Evictor * K + Victim];
  return Lost;
}

void TenantResult::recordMetrics(
    telemetry::MetricsRegistry &Metrics,
    const telemetry::MetricLabels &Labels) const {
  auto Count = [&](const char *Name, uint64_t Value) {
    Metrics.counter(Name, Labels).add(Value);
  };
  Count("tenant.accesses", Accesses);
  Count("tenant.hits", Hits);
  Count("tenant.misses", Misses);
  Count("tenant.misses.cold", ColdMisses);
  Count("tenant.misses.capacity", CapacityMisses);
  Count("tenant.evictions.triggered", EvictionInvocationsTriggered);
  Count("tenant.blocks_evicted", BlocksEvicted);
  Count("tenant.bytes_evicted", BytesEvicted);
  Count("tenant.blocks_lost_to_others", BlocksLostToOthers);
  Count("tenant.unlink.operations", UnlinkOperations);
  Count("tenant.unlink.links_repaired", UnlinkedLinks);
  Metrics.gauge("tenant.miss_rate", Labels).set(missRate());
  Metrics.gauge("tenant.overhead.total", Labels).set(totalOverhead(true));

  // The sharing series rides behind the activity gate, exactly like
  // CacheStats::recordMetrics: disabled runs export the same bytes they
  // always did.
  if (SharingActive) {
    Count("tenant.share.installs", SharedInstalls);
    Count("tenant.share.bytes_saved", SharedBytesSaved);
    Count("tenant.share.unshare_unlinks", UnshareUnlinks);
  }
}

MultiTenantSimulator::MultiTenantSimulator(const std::vector<Trace> &Traces,
                                           const TenancyPolicy &Policy)
    : Traces(Traces), Policy(Policy) {
  CCSIM_REQUIRE(!Traces.empty(),
                "multi-tenant run needs at least one trace");
  const std::string TenantCountError =
      Policy.validateTenantCount(Traces.size());
  CCSIM_REQUIRE(TenantCountError.empty(), "multi-tenant run has %s",
                TenantCountError.c_str());

  const size_t K = Traces.size();
  Weights.resize(K, 1.0);
  for (size_t I = 0; I < Policy.Tenants.size(); ++I) {
    CCSIM_REQUIRE(Policy.Tenants[I].Weight > 0.0,
                  "tenant %zu weight %g must be positive", I,
                  Policy.Tenants[I].Weight);
    Weights[I] = Policy.Tenants[I].Weight;
  }

  // Tenants keep their trace-local dense ids but are shifted into disjoint
  // global ranges, so one shared CacheEngine can tell them apart. Edge
  // lists are remapped once up front; the per-access records then alias
  // these vectors.
  IdBase.resize(K, 0);
  RemappedEdges.resize(K);
  SuperblockId NextBase = 0;
  for (size_t T = 0; T < K; ++T) {
    IdBase[T] = NextBase;
    NextBase += static_cast<SuperblockId>(Traces[T].Blocks.size());
    RemappedEdges[T].reserve(Traces[T].Blocks.size());
    for (const SuperblockDef &B : Traces[T].Blocks) {
      std::vector<SuperblockId> Edges;
      Edges.reserve(B.OutEdges.size());
      for (SuperblockId E : B.OutEdges)
        Edges.push_back(E + IdBase[T]);
      RemappedEdges[T].push_back(std::move(Edges));
    }
  }

  // Content identity for sharing runs: a generator-set ContentTag wins;
  // untagged blocks derive identity from (trace name, local id, size,
  // local edges), so identical benchmark traces share every block and
  // distinct benchmarks never collide.
  if (Policy.ShareCode) {
    ContentKeys.resize(K);
    for (size_t T = 0; T < K; ++T) {
      const Trace &Tr = Traces[T];
      ContentKeys[T].reserve(Tr.Blocks.size());
      for (size_t L = 0; L < Tr.Blocks.size(); ++L) {
        const SuperblockDef &B = Tr.Blocks[L];
        ContentKeys[T].push_back(
            B.ContentTag != 0
                ? contentKeyForTag(B.ContentTag)
                : contentKeyForBlock(Tr.Name,
                                     static_cast<SuperblockId>(L),
                                     B.SizeBytes, B.OutEdges));
      }
    }
  }

  uint64_t SuiteMaxCache = 0;
  for (const Trace &T : Traces)
    SuiteMaxCache += T.maxCacheBytes();
  TotalCapacity = sim::capacityFor(SuiteMaxCache, Policy);
  planPartitions();
}

void MultiTenantSimulator::planPartitions() {
  const size_t K = Traces.size();
  TenantCapacities.assign(K, TotalCapacity);
  ManagerOf.resize(K);
  if (Policy.Mode == PartitionMode::Shared) {
    std::fill(ManagerOf.begin(), ManagerOf.end(), size_t(0));
    return;
  }
  for (size_t T = 0; T < K; ++T)
    ManagerOf[T] = T;

  double WeightSum = 0.0;
  for (double W : Weights)
    WeightSum += W;

  const bool QuotaInUnits =
      Policy.Mode == PartitionMode::UnitQuota &&
      Policy.Granularity.Kind == GranularitySpec::KindType::Units &&
      Policy.Granularity.Units >= 2;
  if (QuotaInUnits) {
    // Quotas are expressed in whole eviction units of the shared cache:
    // at N units, the unit currency is C / N bytes and tenant i receives
    // round(N * share_i) of them (at least one). Eviction stays unit-FIFO
    // within each tenant's own units, so cross-tenant eviction is
    // impossible by construction.
    const uint64_t UnitBytes =
        std::max<uint64_t>(1, TotalCapacity / Policy.Granularity.Units);
    for (size_t T = 0; T < K; ++T) {
      const double Share = Weights[T] / WeightSum;
      const double Units = static_cast<double>(Policy.Granularity.Units);
      const uint64_t Quota = std::max<uint64_t>(
          1, static_cast<uint64_t>(std::llround(Units * Share)));
      TenantCapacities[T] = Quota * UnitBytes;
    }
    return;
  }
  // Static partition (and the quota mode's byte-granular degenerate cases
  // FLUSH and fine FIFO): capacity split proportionally to weight.
  for (size_t T = 0; T < K; ++T) {
    const double Share = Weights[T] / WeightSum;
    TenantCapacities[T] = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(TotalCapacity) * Share));
  }
}

MultiTenantResult MultiTenantSimulator::run() {
  const size_t K = Traces.size();
  // The managers are rebuilt per run; the index must restart empty with
  // them (its entries describe their residency).
  ContentIdx.clear();

  MultiTenantResult Result;
  Result.ModeLabel = partitionModeLabel(Policy.Mode);
  Result.PolicyLabel = Policy.Granularity.label();
  Result.ScheduleLabel = interleaveKindLabel(Policy.Schedule);
  Result.TotalCapacityBytes = TotalCapacity;
  Result.Tenants.resize(K);
  Result.CrossEvictedBlocks.assign(K * K, 0);

  for (size_t T = 0; T < K; ++T) {
    TenantResult &TR = Result.Tenants[T];
    TR.Name = Traces[T].Name;
    TR.MaxCacheBytes = Traces[T].maxCacheBytes();
    TR.CapacityBytes =
        Policy.Mode == PartitionMode::Shared ? 0 : TenantCapacities[T];
    TR.SharingActive = Policy.ShareCode;
  }

  // Eviction attribution: the observer charges invocation costs to the
  // evictor and victim costs to each victim's owner.
  auto Observer = [&Result, K, this](const EvictionBatchEvent &Event) {
    TenantResult &Evictor = Result.Tenants[Event.Evictor];
    ++Evictor.EvictionInvocationsTriggered;
    uint64_t BatchBytes = 0;
    for (size_t I = 0; I < Event.Victims.size(); ++I) {
      const CodeCache::Resident &V = Event.Victims[I];
      const TenantId Owner = Event.VictimTenants[I];
      TenantResult &Victim = Result.Tenants[Owner];
      BatchBytes += V.Size;
      ++Victim.BlocksEvicted;
      Victim.BytesEvicted += V.Size;
      if (Owner != Event.Evictor)
        ++Victim.BlocksLostToOthers;
      ++Result.CrossEvictedBlocks[size_t(Event.Evictor) * K + Owner];
      if (I < Event.DanglingLinks.size() && Event.DanglingLinks[I] > 0) {
        ++Victim.UnlinkOperations;
        Victim.UnlinkedLinks += Event.DanglingLinks[I];
        Victim.UnlinkOverhead +=
            Policy.Costs.unlinkingOverhead(Event.DanglingLinks[I]);
      }
    }
    Evictor.EvictionOverhead += Policy.Costs.evictionOverhead(BatchBytes);
  };

  // Unshare attribution: every drained link is one Eq. 4 unlink on the
  // tenant that loses the shared copy, mirroring the engine's own charge
  // so per-tenant sums stay equal to the merged global stats.
  auto ShareObserver = [&Result, this](const UnshareEvent &Event) {
    for (const SharedContentIndex::Link &L : Event.Links) {
      TenantResult &Loser = Result.Tenants[L.Tenant];
      ++Loser.UnshareUnlinks;
      Loser.UnlinkOverhead += Policy.Costs.unlinkingOverhead(1);
    }
  };

  // Tenant roster: one TenantTag record per tenant so trace viewers can
  // resolve the tenant lanes to benchmark names.
  if (telemetry::TelemetrySink *Tel = Policy.Telemetry)
    for (size_t T = 0; T < K; ++T)
      Tel->Tracer.record(telemetry::EventKind::TenantTag,
                         static_cast<uint32_t>(T), telemetry::NoBlock,
                         Tel->Tracer.internLabel(Traces[T].Name), 0, 0);

  // Build the manager(s).
  const size_t NumManagers = Policy.Mode == PartitionMode::Shared ? 1 : K;
  std::vector<std::unique_ptr<CacheEngine>> Managers;
  Managers.reserve(NumManagers);
  const bool QuotaInUnits =
      Policy.Mode == PartitionMode::UnitQuota &&
      Policy.Granularity.Kind == GranularitySpec::KindType::Units &&
      Policy.Granularity.Units >= 2;
  for (size_t M = 0; M < NumManagers; ++M) {
    CacheEngineConfig MC;
    MC.CapacityBytes =
        Policy.Mode == PartitionMode::Shared ? TotalCapacity
                                             : TenantCapacities[M];
    MC.Costs = Policy.Costs;
    MC.EnableChaining = Policy.EnableChaining;
    MC.OnEviction = Observer;
    MC.Telemetry = Policy.Telemetry;
    if (Policy.ShareCode) {
      MC.ContentIndex = &ContentIdx;
      MC.OnUnshare = ShareObserver;
    }
    std::unique_ptr<EvictionPolicy> EP;
    if (QuotaInUnits) {
      // Keep the shared unit size: a tenant holding Q units runs Q-unit
      // FIFO over its own region.
      const uint64_t UnitBytes =
          std::max<uint64_t>(1, TotalCapacity / Policy.Granularity.Units);
      const unsigned Quota = static_cast<unsigned>(
          std::max<uint64_t>(1, TenantCapacities[M] / UnitBytes));
      EP = std::make_unique<UnitFifoPolicy>(Quota);
    } else {
      EP = makePolicy(Policy.Granularity);
    }
    Managers.push_back(std::make_unique<CacheEngine>(MC, std::move(EP)));
  }
  if (Policy.Audit != AuditLevel::Off) {
    if (Policy.ShareCode) {
      // Sharing couples the managers through the content index, so every
      // audit must see all caches at once (orphan and alias-residency
      // rules are cross-manager properties).
      std::vector<CacheEngine *> Raw;
      Raw.reserve(Managers.size());
      for (const auto &M : Managers)
        Raw.push_back(M.get());
      check::armSharedTenancyAuditors(
          Raw, ContentIdx, check::ParanoiaOptions{Policy.Audit, true, {}});
    } else {
      for (const auto &M : Managers)
        check::armAuditor(*M, check::ParanoiaOptions{Policy.Audit, true, {}});
    }
  }

  // Replay the deterministic interleaving until every stream is consumed.
  std::vector<size_t> Cursor(K, 0);
  std::vector<uint8_t> SeenGlobal; // Cold-miss detection over global ids.
  size_t LiveCount = 0;
  for (size_t T = 0; T < K; ++T)
    if (!Traces[T].Accesses.empty())
      ++LiveCount;

  // Cancellation at interleave-chunk granularity, mirroring sim::run.
  uint64_t StepsUntilCheck = std::max<uint32_t>(1, Policy.CancelCheckInterval);
  auto CheckCancel = [&]() {
    if (!Policy.Cancel)
      return;
    if (--StepsUntilCheck > 0)
      return;
    StepsUntilCheck = std::max<uint32_t>(1, Policy.CancelCheckInterval);
    Policy.Cancel->throwIfStopped([] {
      return std::string("multi-tenant replay stopped mid-interleave");
    });
  };

  auto Step = [&](size_t T) {
    CheckCancel();
    const Trace &Tr = Traces[T];
    const SuperblockId Local = Tr.Accesses[Cursor[T]++];
    const SuperblockDef &Def = Tr.Blocks[Local];
    SuperblockRecord Rec;
    Rec.Id = IdBase[T] + Local;
    Rec.SizeBytes = Def.SizeBytes;
    Rec.OutEdges = RemappedEdges[T][Local];
    Rec.Tenant = static_cast<TenantId>(T);
    if (Policy.ShareCode)
      Rec.ContentKey = ContentKeys[T][Local];

    CacheEngine &Mgr = *Managers[ManagerOf[T]];
    const AccessKind Kind = Mgr.access(Rec);

    TenantResult &TR = Result.Tenants[T];
    ++TR.Accesses;
    if (Kind == AccessKind::Hit) {
      ++TR.Hits;
    } else if (Kind == AccessKind::SharedHit) {
      // Linked a resident identical copy: a hit with no insert. The first
      // such link per (tenant, block) is this tenant's shared install.
      ++TR.Hits;
      if (Mgr.lastAccessShareLinked()) {
        ++TR.SharedInstalls;
        TR.SharedBytesSaved += Def.SizeBytes;
      }
    } else {
      ++TR.Misses;
      TR.MissOverhead += Policy.Costs.missOverhead(Rec.SizeBytes);
      if (Rec.Id >= SeenGlobal.size())
        SeenGlobal.resize(
            std::max<size_t>(Rec.Id + 1, SeenGlobal.size() * 2), 0);
      if (SeenGlobal[Rec.Id])
        ++TR.CapacityMisses;
      else
        ++TR.ColdMisses;
      SeenGlobal[Rec.Id] = 1;
    }
    if (Cursor[T] == Tr.Accesses.size())
      --LiveCount;
  };

  if (Policy.Schedule == InterleaveKind::RoundRobin) {
    while (LiveCount > 0) {
      for (size_t T = 0; T < K; ++T)
        if (Cursor[T] < Traces[T].Accesses.size())
          Step(T);
    }
  } else {
    Rng R(Policy.ScheduleSeed);
    double LiveWeight = 0.0;
    for (size_t T = 0; T < K; ++T)
      if (!Traces[T].Accesses.empty())
        LiveWeight += Weights[T];
    while (LiveCount > 0) {
      // Weighted draw over the still-live tenants.
      double Pick = R.nextDouble() * LiveWeight;
      size_t Chosen = K;
      for (size_t T = 0; T < K; ++T) {
        if (Cursor[T] >= Traces[T].Accesses.size())
          continue;
        Chosen = T; // Fall back to the last live tenant on FP round-off.
        Pick -= Weights[T];
        if (Pick < 0.0)
          break;
      }
      CCSIM_ASSERT(Chosen < K, "live count and cursors disagree");
      Step(Chosen);
      if (Cursor[Chosen] == Traces[Chosen].Accesses.size())
        LiveWeight -= Weights[Chosen];
    }
  }

  for (const auto &M : Managers)
    Result.Global.merge(M->stats());
  if (Policy.ShareCode) {
    Result.FinalSharedEntries = ContentIdx.entryCount();
    Result.FinalShareLinks = ContentIdx.liveLinkCount();
  }

  // Publish attributed metrics: one label set per tenant, plus the merged
  // manager counters under scope=global.
  if (telemetry::TelemetrySink *Tel = Policy.Telemetry) {
    for (const TenantResult &TR : Result.Tenants)
      TR.recordMetrics(Tel->Metrics, {{"tenant", TR.Name},
                                      {"mode", Result.ModeLabel}});
    Result.Global.recordMetrics(Tel->Metrics, {{"scope", "global"},
                                               {"mode", Result.ModeLabel}});
  }
  return Result;
}
