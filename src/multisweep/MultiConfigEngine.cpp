//===- multisweep/MultiConfigEngine.cpp - One-pass lattice replay ---------===//

#include "multisweep/MultiConfigEngine.h"

#include "check/CacheAuditor.h"
#include "concurrent/ThreadPool.h"
#include "support/Contracts.h"

#include <algorithm>
#include <bit>
#include <cstdio>

using namespace ccsim;
using namespace ccsim::multisweep;

const char *ccsim::multisweep::sweepModeName(SweepMode Mode) {
  return Mode == SweepMode::PerConfig ? "per-config" : "one-pass";
}

std::optional<SweepMode>
ccsim::multisweep::parseSweepMode(const std::string &Text) {
  if (Text == "per-config")
    return SweepMode::PerConfig;
  if (Text == "one-pass")
    return SweepMode::OnePass;
  return std::nullopt;
}

size_t LatticePlan::numShared() const {
  return NumSharedEngines;
}

size_t LatticePlan::numDuplicates() const {
  size_t Count = 0;
  for (const Point &P : Points)
    Count += P.Kind == Route::Duplicate;
  return Count;
}

size_t LatticePlan::numFallbacks() const {
  size_t Count = 0;
  for (const Point &P : Points)
    Count += P.Kind == Route::Fallback;
  return Count;
}

LatticePlan ccsim::multisweep::planLattice(const std::vector<SweepJob> &Jobs,
                                           SweepMode Mode) {
  LatticePlan Plan;
  Plan.Points.resize(Jobs.size());
  bool HaveSharedCancel = false;

  for (size_t J = 0; J < Jobs.size(); ++J) {
    const SweepJob &Job = Jobs[J];
    LatticePlan::Point &P = Plan.Points[J];

    // Identical telemetry-free points simulate once: a telemetry-carrying
    // point records observable events and metrics, so it always runs
    // itself (and sameSimulation never matches it to a telemetry-free
    // one).
    if (!Job.Config.Telemetry) {
      size_t Rep = 0;
      while (Rep < J &&
             (Plan.Points[Rep].Kind == LatticePlan::Route::Duplicate ||
              !Job.sameSimulation(Jobs[Rep])))
        ++Rep;
      if (Rep < J) {
        P.Kind = LatticePlan::Route::Duplicate;
        P.Representative = Rep;
        continue;
      }
    }

    if (Mode == SweepMode::PerConfig) {
      P.Kind = LatticePlan::Route::Fallback;
      P.FallbackReason = "per-config mode replays every point densely";
      continue;
    }
    // The shortcuts assume hits are pure reads: no per-access policy
    // state, no per-access audit hook, and one shared cancellation token
    // polled for everyone.
    const std::unique_ptr<EvictionPolicy> Policy = makePolicy(Job.Spec);
    if (!Policy->isAccessStateless()) {
      P.Kind = LatticePlan::Route::Fallback;
      P.FallbackReason =
          "policy '" + Policy->name() + "' observes individual accesses";
      continue;
    }
    if (Job.Config.Audit != AuditLevel::Off) {
      P.Kind = LatticePlan::Route::Fallback;
      P.FallbackReason = "audit level asks for per-access deep validation";
      continue;
    }
    if (HaveSharedCancel && Job.Config.Cancel != Plan.SharedCancel) {
      P.Kind = LatticePlan::Route::Fallback;
      P.FallbackReason = "cancellation token differs from the shared pass's";
      continue;
    }

    P.Kind = LatticePlan::Route::Shared;
    ++Plan.NumSharedEngines;
    if (!HaveSharedCancel) {
      HaveSharedCancel = true;
      Plan.SharedCancel = Job.Config.Cancel;
      Plan.SharedCancelInterval = Job.Config.CancelCheckInterval;
    } else {
      Plan.SharedCancelInterval =
          std::min(Plan.SharedCancelInterval, Job.Config.CancelCheckInterval);
    }
  }
  return Plan;
}

MultiConfigEngine::MultiConfigEngine(const Trace &T,
                                     const std::vector<SweepJob> &Jobs,
                                     const LatticePlan &Plan)
    : T(T), Jobs(Jobs), Plan(Plan),
      Topology(LinkTopology::fromBlocks(T.Blocks)) {
  CCSIM_REQUIRE(Plan.Points.size() == Jobs.size(),
                "lattice plan does not match the grid");
  Seen.assign(T.numSuperblocks(), 0);
  NumWords = (Plan.NumSharedEngines + 63) / 64;
  Resident.assign(T.numSuperblocks() * NumWords, 0);
  FullMask.assign(NumWords, ~uint64_t{0});
  if (NumWords > 0 && Plan.NumSharedEngines % 64 != 0)
    FullMask.back() = (uint64_t{1} << (Plan.NumSharedEngines % 64)) - 1;
  Shared.reserve(Plan.NumSharedEngines);
  for (size_t J = 0; J < Jobs.size(); ++J) {
    if (Plan.Points[J].Kind != LatticePlan::Route::Shared)
      continue;
    const SweepJob &Job = Jobs[J];
    CacheEngineConfig EC;
    EC.CapacityBytes = sim::capacityFor(T, Job.Config);
    EC.Costs = Job.Config.Costs;
    EC.EnableChaining = Job.Config.EnableChaining;
    // No per-engine telemetry: a shared engine replicates the metrics
    // recording at settle time instead of emitting per-access events.
    // No OnEviction observer either — the miss path reads lastEvictions()
    // to keep the residency bitmask exact without per-batch copies.
    EC.Telemetry = nullptr;
    EC.Topology = &Topology;
    SharedState S;
    S.Engine = std::make_unique<CacheEngine>(EC, makePolicy(Job.Spec));
    S.JobIndex = J;
    S.SamplesTable = S.Engine->keepsBackPointerTable();
    Shared.push_back(std::move(S));
  }
  CCSIM_ASSERT(Shared.size() == Plan.NumSharedEngines,
               "shared engine count disagrees with the plan");
}

void MultiConfigEngine::sharedPass() {
  const size_t N = T.Accesses.size();
  if (Shared.empty())
    return;
  Accounting.DecodedAccesses = N;

  CancelToken *Cancel = Plan.SharedCancel;
  const size_t Chunk =
      Cancel ? std::max<uint32_t>(1, Plan.SharedCancelInterval) : N;
  size_t I = 0;
  while (I < N) {
    if (Cancel)
      Cancel->throwIfStopped([&] {
        return "one-pass sweep of " + T.Name + " stopped after " +
               std::to_string(I) + " of " + std::to_string(N) + " accesses";
      });
    const size_t End = std::min(N, I + Chunk);
    for (; I < End; ++I) {
      const SuperblockId Id = T.Accesses[I];
      uint64_t *Mask = &Resident[static_cast<size_t>(Id) * NumWords];
      // Bitmask shortcut: a block resident in every configuration hits
      // everywhere, and hits are pure reads for stateless policies — the
      // whole lattice advances with one word compare per mask word.
      bool AllResident = true;
      for (size_t W = 0; W < NumWords; ++W)
        AllResident &= Mask[W] == FullMask[W];
      if (AllResident) {
        ++Accounting.AllResidentShortcuts;
        continue;
      }
      // Miss-driven: the cleared bits of the mask are exactly the engines
      // where this access misses; the ones that hit are never visited.
      // Every engine first sees Id here, so one table decides coldness.
      const SuperblockRecord Rec = T.recordFor(Id);
      const bool Cold = !Seen[Id];
      Seen[Id] = 1;
      for (size_t W = 0; W < NumWords; ++W) {
        uint64_t Missing = FullMask[W] & ~Mask[W];
        while (Missing) {
          const uint64_t Bit = Missing & (~Missing + 1);
          Missing &= Missing - 1;
          SharedState &S =
              Shared[W * 64 + static_cast<size_t>(std::countr_zero(Bit))];
          CacheEngine &Engine = *S.Engine;
          // Settle the back-pointer samples owed since this engine's
          // last miss (the table size was constant across them), then let
          // the miss mutate the engine. This access's own sample, at the
          // post-miss size, is owed to the next settlement — exactly the
          // per-access sampling cadence. A too-big miss never becomes
          // resident, so its bit stays clear and every access re-misses,
          // as in dense replay.
          if (S.SamplesTable) {
            Engine.addDeferredBackPointerSamples(I - S.SampledThrough);
            S.SampledThrough = I;
          }
          if (Engine.deferredMiss(Rec, Cold) == AccessKind::Miss)
            Mask[W] |= Bit;
          // The miss's evictions retire this engine's residency bits; the
          // inserted block's own bit was set above.
          for (const CodeCache::Resident &V : Engine.lastEvictions())
            Resident[V.Id * NumWords + W] &= ~Bit;
          ++Accounting.SharedMisses;
        }
      }
    }
  }
}

void MultiConfigEngine::settle(SharedState &S, SimResult &Out) {
  const SweepJob &Job = Jobs[S.JobIndex];
  CacheEngine &Engine = *S.Engine;
  const uint64_t N = T.Accesses.size();
  Engine.addDeferredBackPointerSamples(N - S.SampledThrough);
  S.SampledThrough = N;
  Engine.settleDeferredAccesses(N);

  Out.BenchmarkName = T.Name;
  Out.PolicyName = Engine.policy().name();
  Out.MaxCacheBytes = T.maxCacheBytes();
  Out.CapacityBytes = Engine.cache().capacity();
  Out.Stats = Engine.stats();

  // Metrics-fidelity telemetry: the same Mark pair and per-benchmark
  // CacheStats recording sim::run emits, minus the per-access event
  // stream (which only per-config replay can produce).
  if (telemetry::TelemetrySink *Tel = Job.Config.Telemetry) {
    const uint32_t MarkId = Tel->Tracer.internLabel(
        "sim:" + Out.BenchmarkName + "/" + Out.PolicyName);
    Tel->Tracer.record(telemetry::EventKind::Mark, 0, telemetry::NoBlock,
                       MarkId, 1, 0);
    Tel->Tracer.record(telemetry::EventKind::Mark, 0, telemetry::NoBlock,
                       MarkId, 0, Out.Stats.Accesses);
    char Pressure[32];
    std::snprintf(Pressure, sizeof(Pressure), "%g",
                  Job.Config.PressureFactor);
    Out.Stats.recordMetrics(Tel->Metrics, {{"benchmark", Out.BenchmarkName},
                                      {"policy", Out.PolicyName},
                                      {"pressure", Pressure}});
  }
}

std::vector<SimResult> MultiConfigEngine::run() {
  CCSIM_REQUIRE(!Ran, "MultiConfigEngine::run is single-shot");
  Ran = true;

  std::vector<SimResult> Results(Jobs.size());
  sharedPass();
  for (SharedState &S : Shared)
    settle(S, Results[S.JobIndex]);
  return Results;
}

check::AuditReport MultiConfigEngine::auditSharedStructures() const {
  check::CacheAuditor Auditor;
  check::AuditReport Report;
  for (const SharedState &S : Shared) {
    Report.merge(Auditor.auditCache(S.Engine->cache()));
    if (S.Engine->config().EnableChaining)
      Report.merge(Auditor.auditLinks(S.Engine->links(), S.Engine->cache()));
  }
  return Report;
}

check::AuditReport MultiConfigEngine::auditSettled() const {
  CCSIM_REQUIRE(Ran, "auditSettled needs settled counters (call run first)");
  check::CacheAuditor Auditor;
  check::AuditReport Report;
  for (const SharedState &S : Shared)
    Report.merge(Auditor.auditManager(*S.Engine));
  return Report;
}

namespace {

/// Formats the plan's accounting into \p Log: one line per deduplicated
/// or fallen-back point plus a summary, so a batch log always explains
/// where dense replays came from.
void logPlan(const LatticePlan &Plan, const std::vector<SweepJob> &Jobs,
             const std::function<void(const std::string &)> &Log) {
  if (!Log)
    return;
  char Buf[160];
  for (size_t J = 0; J < Jobs.size(); ++J) {
    const LatticePlan::Point &P = Plan.Points[J];
    const std::string Label = Jobs[J].Spec.label();
    if (P.Kind == LatticePlan::Route::Fallback) {
      std::snprintf(Buf, sizeof(Buf),
                    "point %zu (%s @ pressure %g) falls back to per-config "
                    "replay: %s",
                    J, Label.c_str(), Jobs[J].Config.PressureFactor,
                    P.FallbackReason.c_str());
      Log(Buf);
    } else if (P.Kind == LatticePlan::Route::Duplicate) {
      std::snprintf(Buf, sizeof(Buf),
                    "point %zu (%s @ pressure %g) duplicates point %zu; "
                    "simulating once",
                    J, Label.c_str(), Jobs[J].Config.PressureFactor,
                    P.Representative);
      Log(Buf);
    }
  }
  std::snprintf(Buf, sizeof(Buf),
                "one-pass plan: %zu shared, %zu duplicate, %zu fallback of "
                "%zu points",
                Plan.numShared(), Plan.numDuplicates(), Plan.numFallbacks(),
                Plan.Points.size());
  Log(Buf);
}

} // namespace

std::vector<SuiteResult>
ccsim::multisweep::runSweepGrid(const SweepEngine &Engine,
                                const std::vector<SweepJob> &Jobs,
                                const MultiSweepOptions &Options,
                                OnePassAccounting *Accounting) {
  if (Accounting)
    *Accounting = {};
  CCSIM_REQUIRE(validateSweepGrid(Jobs).empty(),
                "sweep grid front door needs a validated non-empty grid");
  const LatticePlan Plan = planLattice(Jobs, Options.Mode);
  if (Options.Mode == SweepMode::OnePass)
    logPlan(Plan, Jobs, Options.Log);

  const std::vector<Trace> &Traces = Engine.traces();
  const size_t NumBenchmarks = Traces.size();
  std::vector<SuiteResult> Results(Jobs.size());
  for (SuiteResult &R : Results)
    R.PerBenchmark.resize(NumBenchmarks);

  // One cell list over both axes: each trace's shared pass first (the
  // longest cells), then one dense replay per (fallback point, trace) in
  // (job, benchmark) order. Every cell writes only its own result slots.
  std::vector<size_t> Dense;
  for (size_t J = 0; J < Jobs.size(); ++J)
    if (Plan.Points[J].Kind == LatticePlan::Route::Fallback)
      Dense.push_back(J);
  const size_t Passes = Plan.numShared() ? NumBenchmarks : 0;
  const size_t Cells = Passes + Dense.size() * NumBenchmarks;
  std::vector<OnePassAccounting> PassAccounting(Passes);
  ThreadPool Pool(static_cast<unsigned>(
      std::clamp<size_t>(Cells, 1, Engine.numThreads())));
  Pool.parallelFor(
      Cells,
      [&](size_t Cell) {
        if (Cell < Passes) {
          MultiConfigEngine Pass(Traces[Cell], Jobs, Plan);
          std::vector<SimResult> Shared = Pass.run();
          for (size_t J = 0; J < Jobs.size(); ++J)
            if (Plan.Points[J].Kind == LatticePlan::Route::Shared)
              Results[J].PerBenchmark[Cell] = std::move(Shared[J]);
          PassAccounting[Cell] = Pass.accounting();
          return;
        }
        const size_t J = Dense[(Cell - Passes) / NumBenchmarks];
        const size_t B = (Cell - Passes) % NumBenchmarks;
        Results[J].PerBenchmark[B] =
            sim::run(Traces[B], makePolicy(Jobs[J].Spec), Jobs[J].Config);
      },
      /*ChunkSize=*/1);

  // Merge in canonical (job, benchmark) order: bit-identical to running
  // runSuite() per job serially.
  for (size_t J = 0; J < Jobs.size(); ++J) {
    SuiteResult &R = Results[J];
    const LatticePlan::Point &P = Plan.Points[J];
    if (P.Kind == LatticePlan::Route::Duplicate)
      R.PerBenchmark = Results[P.Representative].PerBenchmark;
    R.PolicyLabel = Jobs[J].Spec.label();
    R.PressureFactor = Jobs[J].Config.PressureFactor;
    for (const SimResult &Bench : R.PerBenchmark)
      R.Combined.merge(Bench.Stats);
    recordSuiteMetrics(Jobs[J].Config.Telemetry, R);
  }
  if (Accounting)
    for (const OnePassAccounting &A : PassAccounting)
      Accounting->merge(A);
  return Results;
}
