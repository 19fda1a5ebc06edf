//===- concurrent/SharedEngineRunner.h - K guest threads, one engine ------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays one trace through a SharedCacheEngine with K guest threads,
/// the thread-shared-cache regime of production DBTs. The determinism
/// contract, stated once and tested everywhere:
///
///   K = 1   is the serial simulator: runShared returns sim::run's result
///           (Mode = Exact, zero contention), so golden figure reports,
///           telemetry marks ("sim:<bench>/<policy>") and metric exports
///           are pinned unchanged.
///
///   K > 1   guests claim trace blocks from a shared cursor, so the miss
///           interleaving is schedule-dependent; results are validated
///           by the structural auditor at quiesce points plus the
///           conservation identities of CacheStats, never by byte pins.
///           Metrics are labeled with the guest count to keep them apart
///           from serial exports.
///
/// The split follows SharedCacheEngine::preferredMode: the serial path
/// runs exactly when it answers Exact, which for every policy a
/// GranularitySpec names means K = 1.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CONCURRENT_SHAREDENGINERUNNER_H
#define CCSIM_CONCURRENT_SHAREDENGINERUNNER_H

#include "check/AuditReport.h"
#include "concurrent/ThreadPool.h"
#include "core/SharedCacheEngine.h"
#include "sim/Simulator.h"

#include <functional>

namespace ccsim::concurrent {

/// Upper bound on guest threads per run. Each guest is an OS thread, so
/// it shares the thread pool's bound.
inline constexpr unsigned MaxGuestThreads = ThreadPool::MaxThreads;

/// Configuration of one shared-engine replay: the serial simulator's
/// knobs (pressure, capacity, costs, chaining, telemetry, audit,
/// cancellation) with identical semantics, plus the guest count.
struct SharedRunConfig : SimConfig {
  SharedRunConfig() = default;

  /// \p Base with \p K guests: the base carries over whole, so a K-guest
  /// replay means exactly what the serial replay of \p Base means.
  SharedRunConfig(const SimConfig &Base, unsigned K)
      : SimConfig(Base), GuestThreads(K) {}

  /// Guest threads sharing the engine, 1..MaxGuestThreads. 1 runs the
  /// serial simulator.
  unsigned GuestThreads = 1;

  /// K > 1: accesses between quiesce-point audits (0 = only the final
  /// one). The guest that crosses the threshold runs the audit. Any
  /// Audit level other than Off runs the full auditSharedEngine rule set
  /// at every quiesce point and once at the end of the run.
  uint64_t QuiesceInterval = 0;

  /// K > 1: receives non-clean quiesce-audit reports; default prints and
  /// aborts (the paranoid contract). K = 1 keeps sim::run's print-and-
  /// abort auditor.
  std::function<void(const check::AuditReport &, const char *Where)>
      OnViolation;
};

/// Outcome of a shared replay. Stats match the serial simulator exactly
/// for K = 1; for K > 1 they satisfy the conservation identities.
struct SharedRunResult : SimResult {
  ShareMode Mode = ShareMode::Exact;
  unsigned GuestThreads = 1;
  ContentionCounters Contention;
  uint64_t QuiesceAudits = 0;
};

/// Replays \p T under \p Spec with Config.GuestThreads guests.
SharedRunResult runShared(const Trace &T, const GranularitySpec &Spec,
                          const SharedRunConfig &Config);

/// Zero-copy variant: streams accesses straight out of a mapped trace
/// without materializing the access vector.
SharedRunResult runShared(const trace::MappedTrace &T,
                          const GranularitySpec &Spec,
                          const SharedRunConfig &Config);

} // namespace ccsim::concurrent

#endif // CCSIM_CONCURRENT_SHAREDENGINERUNNER_H
