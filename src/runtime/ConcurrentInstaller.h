//===- runtime/ConcurrentInstaller.h - Concurrent translate/install -------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-driven half of the thread-shared engine: K installer
/// threads model guest threads of one process hitting a shared code
/// cache through Figure 1's dispatch table. Each thread runs a
/// find/translate-and-install loop over a shared working set of
/// fragments:
///
///   find     SharedCacheEngine::probe() -- the concurrent fast path, no
///            engine lock;
///   install  SharedCacheEngine::install() on a probe miss -- fragment
///            payload (its dispatch entry) registered by the
///            OnInstallPayload hook under the engine lock, victim
///            entries torn down by the eviction payload hook under the
///            victims' region fences, exactly the lockstep contract the
///            dispatch.* audit family checks for the serial Translator.
///
/// Two threads can race to install the same fragment; the loser's
/// install() observes residency under the engine lock and counts an
/// install race instead of double-inserting, like DynamoRIO's
/// "duplicate translation" check at the monitor lock.
///
/// The dispatch table itself is guarded by one ccsim::Mutex acquired
/// after the engine locks (hooks) or alone (probing threads), so the
/// lock order EngineMu -> fences -> DispatchMu is acyclic.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_RUNTIME_CONCURRENTINSTALLER_H
#define CCSIM_RUNTIME_CONCURRENTINSTALLER_H

#include "core/EvictionPolicy.h"
#include "core/SharedCacheEngine.h"
#include "runtime/DispatchTable.h"
#include "support/ThreadSafety.h"

#include <cstdint>
#include <functional>

namespace ccsim {

/// Configuration of one concurrent install stress run. Deterministic
/// given a seed: every thread derives its operation stream from
/// Seed + thread index with a fixed mixer, never from global state.
struct InstallerConfig {
  /// Shared code cache capacity in bytes.
  uint64_t CapacityBytes = 1 << 20;

  /// Installer (guest) threads.
  unsigned Threads = 4;

  /// Total find/install operations across all threads.
  uint64_t Operations = 1000000;

  /// Distinct fragments in the working set; sizes are derived
  /// per-fragment from the seed so the set does not fit the cache.
  uint32_t WorkingSet = 4096;

  /// Mean fragment size in bytes (sizes vary deterministically in
  /// [MeanFragmentBytes/2, MeanFragmentBytes*3/2)).
  uint32_t MeanFragmentBytes = 64;

  /// Eviction granularity of the shared cache.
  GranularitySpec Granularity = GranularitySpec::units(8);

  bool EnableChaining = true;
  uint64_t Seed = 1;
  telemetry::TelemetrySink *Telemetry = nullptr;

  /// Run inside a final quiesce after the threads joined, with the
  /// whole engine locked. Benches and tests hang the structural audit
  /// here (runtime cannot link ccsim_check -- check layers above it).
  std::function<void(const SharedCacheEngine &)> OnFinalQuiesce;
};

/// Outcome of one stress run.
struct InstallerReport {
  uint64_t Finds = 0;        ///< probe() calls that hit.
  uint64_t Misses = 0;       ///< probe() calls that missed.
  uint64_t Installs = 0;     ///< Successful installs.
  uint64_t InstallRaces = 0; ///< install() lost to a racing thread.
  uint64_t TooBig = 0;       ///< install() rejected an oversized fragment.
  CacheStats Stats;
  ContentionCounters Contention;

  uint64_t DispatchEntries = 0; ///< Live entries after the join.
  /// Dispatch table mirrors residency exactly (entry per resident
  /// fragment, no stale entries), checked at the final quiesce.
  bool DispatchConsistent = false;
};

/// Runs the stress loop described in the file header and returns the
/// tallies. Spawns Config.Threads threads and joins them; the engine
/// and dispatch table live and die inside the call.
InstallerReport runConcurrentInstall(const InstallerConfig &Config);

} // namespace ccsim

#endif // CCSIM_RUNTIME_CONCURRENTINSTALLER_H
