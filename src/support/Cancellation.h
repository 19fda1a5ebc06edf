//===- support/Cancellation.h - Cooperative cancellation token -----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cooperative cancellation primitive shared by every long-running
/// replay loop (sim::run, the K-guest shared runner, the one-pass sweep,
/// MultiTenantSimulator::run) and their controllers (SimService workers,
/// tests, drivers). A token belongs to one run, not to a simulated
/// configuration: each runner takes it as an argument, and its replay
/// loop walks the access stream through sim::forEachChunk, the one
/// caller of throwIfStopped(), which polls once per trace chunk. The
/// controller requests cancellation or installs a deadline from any
/// thread. throwIfStopped() is the one place a stop becomes a
/// ReplayCancelled (discarding the partial run) and the one place the
/// deadline-versus-cancel rule (timedOut()) is written.
///
/// Thread-safety: CancelToken is deliberately lock-free — both fields
/// are atomics with release/acquire pairing — so it carries no
/// CCSIM_GUARDED_BY capabilities (support/ThreadSafety.h); there is no
/// mutex for the Clang analysis to track, and none is needed. Keep it
/// that way: the token is polled on every trace chunk of every replay
/// backend, where a lock would serialize the sweep workers.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SUPPORT_CANCELLATION_H
#define CCSIM_SUPPORT_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ccsim {

/// Cooperative cancellation endpoint shared between a replay and its
/// controller. All members are thread-safe.
class CancelToken {
public:
  /// Asks the replay to stop at its next chunk boundary.
  void requestCancel() { Cancelled.store(true, std::memory_order_release); }

  /// Installs an absolute deadline; the replay times out once
  /// steady_clock passes it. A zero time_point (the default) disarms.
  void setDeadline(std::chrono::steady_clock::time_point D) {
    DeadlineNs.store(D.time_since_epoch().count(), std::memory_order_release);
  }

  bool cancelRequested() const {
    return Cancelled.load(std::memory_order_acquire);
  }

  bool deadlineExpired() const {
    const int64_t D = DeadlineNs.load(std::memory_order_acquire);
    return D != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= D;
  }

  /// Null when the replay may continue; otherwise a static description of
  /// why it must stop ("cancelled" / "deadline expired"). An explicit
  /// cancellation request wins over a concurrently expired deadline.
  const char *stopReason() const {
    if (cancelRequested())
      return "cancelled";
    if (deadlineExpired())
      return "deadline expired";
    return nullptr;
  }

  /// True when a stop is a deadline expiry rather than an explicit
  /// cancellation request (which wins when both hold).
  bool timedOut() const { return deadlineExpired() && !cancelRequested(); }

  /// The replay loops' poll: returns when the replay may continue, else
  /// throws ReplayCancelled whose message is Where() + ": " + the stop
  /// reason. Where runs only on the stopping path, so a poll that does
  /// not stop builds no string.
  template <typename WhereFn>
  void throwIfStopped(WhereFn &&Where) const {
    if (const char *Reason = stopReason()) [[unlikely]]
      throwStopped(Where(), Reason);
  }

private:
  [[noreturn]] void throwStopped(const std::string &Where,
                                 const char *Reason) const;

  std::atomic<bool> Cancelled{false};
  std::atomic<int64_t> DeadlineNs{0};
};

/// Thrown by the replay loops honoring a CancelToken when the token asks
/// them to stop. The partially-replayed state is discarded; callers
/// translate TimedOut into their own status taxonomy.
class ReplayCancelled : public std::runtime_error {
public:
  ReplayCancelled(const std::string &What, bool DeadlineExpired)
      : std::runtime_error(What), TimedOut(DeadlineExpired) {}

  /// True when the stop was a deadline expiry rather than an explicit
  /// cancellation request.
  bool TimedOut;
};

inline void CancelToken::throwStopped(const std::string &Where,
                                      const char *Reason) const {
  throw ReplayCancelled(Where + ": " + Reason, timedOut());
}

} // namespace ccsim

#endif // CCSIM_SUPPORT_CANCELLATION_H
