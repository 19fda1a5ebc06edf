//===- concurrent/SharedEngineRunner.cpp - K guest threads, one engine ----===//

#include "concurrent/SharedEngineRunner.h"

#include "check/CacheAuditor.h"
#include "check/Paranoia.h"
#include "support/Contracts.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

using namespace ccsim;
using namespace ccsim::concurrent;

namespace {

/// Accesses a guest claims from the shared cursor per grab.
constexpr size_t GrabBlock = 4096;

/// Quiesces the engine and runs the full shared audit under the paranoid
/// contract armed auditors follow (check::reportViolation).
void runQuiesceAudit(SharedCacheEngine &Engine, const SharedRunConfig &Config,
                     const char *Where) {
  Engine.quiesce([&](const SharedCacheEngine &E) {
    check::reportViolation(check::auditSharedEngine(E), Where,
                           Config.OnViolation);
  });
}

/// The K > 1 path: guests claim GrabBlock-sized runs of the access
/// stream from a shared cursor and walk each through sim::forEachChunk,
/// so a guest polls \p Cancel at least every CancelCheckInterval of its
/// own accesses. Structural validation happens at quiesce points (the
/// guest that carries the global done-counter past the next threshold
/// runs the audit) and once after the join.
template <typename TraceT>
SharedRunResult runThreaded(const TraceT &T,
                            std::unique_ptr<EvictionPolicy> Policy,
                            const SharedRunConfig &Config,
                            CancelToken *Cancel) {
  SharedRunResult Result;
  Result.BenchmarkName = T.name();
  Result.PolicyName = Policy->name();
  Result.MaxCacheBytes = T.maxCacheBytes();
  Result.CapacityBytes = sim::capacityFor(T, Config);
  Result.Mode = ShareMode::Concurrent;
  Result.GuestThreads = Config.GuestThreads;

  const LinkTopology Topology = LinkTopology::fromBlocks(T.blocks());
  SharedEngineConfig SC;
  SC.Engine = sim::engineConfig(Config, Result.CapacityBytes, Topology);
  const sim::RunFrame Frame(Config.Telemetry, "shared:", Result);
  SharedCacheEngine Engine(SC, std::move(Policy));

  const size_t N = T.numAccesses();
  const uint64_t QuiesceEvery =
      Config.Audit != AuditLevel::Off ? Config.QuiesceInterval : 0;

  std::atomic<uint64_t> NextStart{0};
  std::atomic<uint64_t> Done{0};
  std::atomic<uint64_t> NextQuiesce{QuiesceEvery};
  std::atomic<uint64_t> Audits{0};
  std::atomic<bool> Stop{false};
  ccsim::Mutex ErrMu;
  std::exception_ptr FirstError;

  auto Walk = [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Engine.access(T.recordFor(T.idAt(I)));
  };
  auto Guest = [&] {
    try {
      while (!Stop.load(std::memory_order_relaxed)) {
        const uint64_t Start =
            NextStart.fetch_add(GrabBlock, std::memory_order_relaxed);
        if (Start >= N)
          break;
        const uint64_t End = std::min<uint64_t>(N, Start + GrabBlock);
        sim::forEachChunk(Start, End, N, Cancel, "replay of ",
                          Result.BenchmarkName, Walk);
        const uint64_t DoneNow =
            Done.fetch_add(End - Start, std::memory_order_relaxed) +
            (End - Start);
        if (QuiesceEvery != 0) {
          uint64_t NQ = NextQuiesce.load(std::memory_order_relaxed);
          while (DoneNow >= NQ) {
            if (NextQuiesce.compare_exchange_weak(NQ, NQ + QuiesceEvery,
                                                  std::memory_order_relaxed)) {
              runQuiesceAudit(Engine, Config, "quiesce-point audit");
              Audits.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        }
      }
    } catch (...) {
      {
        MutexLock Lock(ErrMu);
        if (!FirstError)
          FirstError = std::current_exception();
      }
      Stop.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> Guests;
  Guests.reserve(Config.GuestThreads);
  try {
    for (unsigned I = 0; I < Config.GuestThreads; ++I)
      Guests.emplace_back(Guest);
  } catch (...) {
    // Thread creation failed part-way: stop and join the guests already
    // running, since destroying a joinable std::thread terminates.
    Stop.store(true, std::memory_order_relaxed);
    for (std::thread &G : Guests)
      G.join();
    throw;
  }
  for (std::thread &G : Guests)
    G.join();

  if (FirstError)
    std::rethrow_exception(FirstError);
  CCSIM_ASSERT(Done.load() == N, "guests joined before the trace drained");

  Engine.settle(Done.load());
  if (Config.Audit != AuditLevel::Off) {
    runQuiesceAudit(Engine, Config, "final shared-engine audit");
    Audits.fetch_add(1, std::memory_order_relaxed);
  }

  Result.Stats = Engine.stats();
  Result.Contention = Engine.contention();
  Result.QuiesceAudits = Audits.load();
  if (telemetry::TelemetrySink *Tel = Config.Telemetry) {
    const telemetry::MetricLabels Labels = Frame.close(
        Result, Config.PressureFactor,
        {{"guest-threads", std::to_string(Result.GuestThreads)}});
    Engine.publishContention(Tel->Metrics, Labels);
    Tel->Tracer.record(telemetry::EventKind::Contention, Result.GuestThreads,
                       telemetry::NoBlock, Frame.markId(),
                       Result.Contention.EngineLockStalls,
                       Result.Stats.Accesses);
  }
  return Result;
}

template <typename TraceT>
SharedRunResult runSharedImpl(const TraceT &T, const GranularitySpec &Spec,
                              const SharedRunConfig &Config,
                              CancelToken *Cancel) {
  const unsigned K = Config.GuestThreads;
  CCSIM_REQUIRE(K >= 1 && K <= MaxGuestThreads,
                "guest threads %u outside 1..%u", K, MaxGuestThreads);
  std::unique_ptr<EvictionPolicy> Policy = makePolicy(Spec);
  if (SharedCacheEngine::preferredMode(K, *Policy) == ShareMode::Concurrent)
    return runThreaded(T, std::move(Policy), Config, Cancel);
  // The serial simulator; the defaults already say Exact, one guest, no
  // contention.
  SharedRunResult Result;
  static_cast<SimResult &>(Result) =
      sim::run(T, std::move(Policy), Config, Cancel);
  return Result;
}

} // namespace

SharedRunResult concurrent::runShared(const Trace &T,
                                      const GranularitySpec &Spec,
                                      const SharedRunConfig &Config,
                                      CancelToken *Cancel) {
  return runSharedImpl(T, Spec, Config, Cancel);
}

SharedRunResult concurrent::runShared(const trace::MappedTrace &T,
                                      const GranularitySpec &Spec,
                                      const SharedRunConfig &Config,
                                      CancelToken *Cancel) {
  return runSharedImpl(T, Spec, Config, Cancel);
}
