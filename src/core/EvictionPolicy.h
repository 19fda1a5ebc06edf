//===- core/EvictionPolicy.h - Eviction granularity policies -------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eviction policies spanning the granularity spectrum of the paper:
///
///   FLUSH           whole-cache flush when full (coarsest; Dynamo, Mojo
///                   per-unit ancestor),
///   N-unit FIFO     cache partitioned into N equal units flushed FIFO
///                   (the paper's medium grain),
///   fine FIFO       evict just enough superblocks (DynamoRIO's bounded
///                   cache; circular buffer of Hazelwood & Smith),
///
/// plus the two policies the paper names as future work, implemented here
/// as extensions:
///
///   Adaptive        adjusts the unit count on-the-fly from perceived
///                   cache pressure (Section 5.4 future work),
///   Preemptive      Dynamo-style preemptive full flush on a detected
///                   program phase change (Section 2.3).
///
/// A policy's only placement-affecting decision is its eviction *quantum*;
/// the CacheEngine asks for it on every miss, so adaptive policies may
/// change their answer over time (an access-stateless policy is asked
/// once, at engine construction).
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_EVICTIONPOLICY_H
#define CCSIM_CORE_EVICTIONPOLICY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ccsim {

/// Abstract eviction policy. Stateless policies only implement name() and
/// quantumBytes(); adaptive policies additionally observe the access
/// stream through noteAccess() and may request preemptive flushes.
class EvictionPolicy {
public:
  virtual ~EvictionPolicy();

  /// Human-readable policy name, e.g. "FLUSH", "8-unit", "FIFO".
  virtual std::string name() const = 0;

  /// The eviction quantum in bytes for a cache of \p Capacity bytes.
  /// Capacity itself means whole-cache FLUSH; 1 means fine-grained FIFO.
  /// The manager clamps the result to [1, Capacity].
  virtual uint64_t quantumBytes(uint64_t Capacity) const = 0;

  /// Whether this policy needs a back-pointer table to repair dangling
  /// links. A whole-cache flush destroys all links simultaneously and
  /// needs no table (Section 3.1); everything else does. A system either
  /// has the table or not, so the answer must depend on \p Capacity
  /// alone: CacheEngine asks once, at construction.
  virtual bool usesBackPointerTable(uint64_t Capacity) const;

  /// Whether hits are pure reads for this policy: it never observes
  /// accesses (noteAccess is a no-op), never requests preemptive flushes,
  /// and its quantum is a pure function of capacity. Such policies mutate
  /// cache state only on misses, which is what qualifies them for the
  /// one-pass multi-configuration shortcuts in src/multisweep (the DEW
  /// single-pass FIFO property). Defaults to false; only the stateless
  /// FIFO family opts in.
  virtual bool isAccessStateless() const { return false; }

  /// Observes one access (hit or miss). Called before the miss handling.
  virtual void noteAccess(bool Hit);

  /// Polled after each access: returning true triggers an immediate
  /// whole-cache flush (Dynamo's preemptive flush).
  virtual bool shouldFlushNow();

  /// Notifies the policy that a preemptive flush was performed.
  virtual void noteFlush();
};

/// The paper's main policy family: the cache is divided into \p UnitCount
/// equal units; the oldest unit is flushed entirely when space is needed.
/// UnitCount == 1 is the coarsest grain (FLUSH).
class UnitFifoPolicy final : public EvictionPolicy {
public:
  explicit UnitFifoPolicy(unsigned UnitCount);

  std::string name() const override;
  uint64_t quantumBytes(uint64_t Capacity) const override;
  bool isAccessStateless() const override { return true; }

  unsigned unitCount() const { return UnitCount; }

private:
  unsigned UnitCount;
};

/// Finest grain: evict single superblocks until the incoming one fits
/// (DynamoRIO's circular-buffer FIFO).
class FineFifoPolicy final : public EvictionPolicy {
public:
  std::string name() const override { return "FIFO"; }
  uint64_t quantumBytes(uint64_t) const override { return 1; }
  bool isAccessStateless() const override { return true; }
};

/// Extension (paper future work): adapts the unit count to perceived
/// cache pressure. Pressure is estimated as an exponentially-weighted
/// moving average of the miss indicator; high pressure steers toward
/// coarser (medium) units, low pressure toward finer units, one rung of
/// the ladder per evaluation interval.
class AdaptiveGranularityPolicy final : public EvictionPolicy {
public:
  struct Options {
    /// Unit-count ladder from coarsest to finest. 0 means fine-grained.
    std::vector<unsigned> Ladder = {8, 32, 128, 0};
    /// Accesses between reevaluations.
    uint64_t IntervalAccesses = 4096;
    /// EWMA smoothing factor applied per interval.
    double Alpha = 0.5;
    /// Miss-rate thresholds (descending) selecting each ladder rung; must
    /// have Ladder.size() - 1 entries.
    std::vector<double> Thresholds = {0.15, 0.05, 0.01};
  };

  AdaptiveGranularityPolicy();
  explicit AdaptiveGranularityPolicy(Options Opts);

  std::string name() const override { return "Adaptive"; }
  uint64_t quantumBytes(uint64_t Capacity) const override;
  bool usesBackPointerTable(uint64_t) const override { return true; }
  void noteAccess(bool Hit) override;

  /// Current rung of the ladder (for tests and reports).
  unsigned currentUnitCount() const { return Opts.Ladder[Rung]; }
  double smoothedMissRate() const { return Ewma; }

private:
  Options Opts;
  size_t Rung = 0;
  double Ewma = 0.0;
  uint64_t IntervalAccesses = 0;
  uint64_t IntervalMisses = 0;
  bool EwmaPrimed = false;

  void reevaluate();
};

/// Extension (Section 2.3): Dynamo's preemptive flush. Behaves like FLUSH
/// for capacity evictions, and additionally flushes the whole cache when a
/// phase change is detected as a spike in the miss (fragment creation)
/// rate over a sliding window.
class PreemptiveFlushPolicy final : public EvictionPolicy {
public:
  struct Options {
    uint64_t WindowAccesses = 512; ///< Sliding window length.
    double SpikeMissRate = 0.30;   ///< Window miss rate that signals a
                                   ///< phase change.
    uint64_t MinAccessesBetweenFlushes = 2048;
  };

  PreemptiveFlushPolicy();
  explicit PreemptiveFlushPolicy(Options Opts);

  std::string name() const override { return "Preemptive"; }
  uint64_t quantumBytes(uint64_t Capacity) const override {
    return Capacity;
  }
  void noteAccess(bool Hit) override;
  bool shouldFlushNow() override;
  void noteFlush() override;

private:
  Options Opts;
  uint64_t WindowAccesses = 0;
  uint64_t WindowMisses = 0;
  uint64_t AccessesSinceFlush = 0;
  bool Triggered = false;
};

/// A point on the granularity spectrum, used to drive sweeps.
struct GranularitySpec {
  enum class KindType { Flush, Units, Fine };

  KindType Kind = KindType::Flush;
  unsigned Units = 1;

  static GranularitySpec flush() { return {KindType::Flush, 1}; }
  static GranularitySpec units(unsigned N) { return {KindType::Units, N}; }
  static GranularitySpec fine() { return {KindType::Fine, 0}; }

  /// Axis label as it appears in the paper's figures.
  std::string label() const;
};

/// Instantiates the policy for \p Spec.
std::unique_ptr<EvictionPolicy> makePolicy(const GranularitySpec &Spec);

/// The granularity axis used throughout the paper's figures: FLUSH,
/// 2-unit, 4-unit, ..., 256-unit, fine-grained FIFO.
std::vector<GranularitySpec> standardGranularitySweep();

} // namespace ccsim

#endif // CCSIM_CORE_EVICTIONPOLICY_H
