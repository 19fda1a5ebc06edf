//===- core/CodeCache.h - Circular-buffer code cache placement -----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The placement engine for a software code cache: a byte-addressed
/// circular buffer holding variable-size superblocks in FIFO order, with
/// reclamation performed at a configurable *quantum*:
///
///   - quantum == capacity  -> whole-cache FLUSH,
///   - quantum == capacity/N -> N-unit FIFO (the paper's medium grain:
///     the cache is partitioned into N equal units, and the oldest unit is
///     flushed entirely when space is needed),
///   - quantum == 1 byte    -> fine-grained FIFO (evict exactly enough
///     superblocks to fit the incoming one).
///
/// This unification mirrors the paper's observation that FLUSH and
/// fine-grained FIFO are the two extremes of a single granularity spectrum
/// (Section 4). Blocks never wrap around the end of the buffer (real code
/// cannot); skipped tail bytes are reported as waste. Blocks may straddle
/// unit boundaries; a straddler is evicted with the unit containing its
/// first byte, exactly like a fragment allocated across a unit seam in a
/// dense circular-buffer implementation.
///
/// Residents are kept oldest-first in a ring: a power-of-two vector with
/// a head index, so evicting from the front and appending at the back
/// touch one slot each and never allocate once the ring has grown to the
/// peak resident count.
///
/// The class tracks placement only. Links, costs, and policy decisions
/// live in LinkGraph, CostModel, and CacheEngine. LinkGraph derives every
/// link from contains()/startOf(), so residency is the single source of
/// truth for chaining too.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_CODECACHE_H
#define CCSIM_CORE_CODECACHE_H

#include "core/Superblock.h"
#include "support/Contracts.h"

#include <cstdint>
#include <vector>

namespace ccsim {

/// FIFO circular-buffer placement for variable-size code cache entries.
class CodeCache {
public:
  /// A resident superblock: identifier plus its byte placement.
  struct Resident {
    SuperblockId Id;
    uint64_t Start;
    uint32_t Size;

    uint64_t end() const { return Start + Size; }
  };

  /// Result of prepareInsert().
  struct PrepareOutcome {
    bool CanInsert = false;     ///< False only if Size > capacity.
    uint64_t WastedBytes = 0;   ///< Tail bytes skipped at a wrap point.
    uint64_t UnitsFlushed = 0;  ///< Distinct quantum units cleared.
  };

  explicit CodeCache(uint64_t CapacityBytes);

  uint64_t capacity() const { return Capacity; }
  uint64_t occupiedBytes() const { return Occupied; }
  size_t residentCount() const { return FifoSize; }
  bool empty() const { return FifoSize == 0; }

  /// True if \p Id currently resides in the cache.
  bool contains(SuperblockId Id) const {
    return Id < ResidentFlag.size() && ResidentFlag[Id];
  }

  /// Byte offset of resident \p Id. Must be resident.
  uint64_t startOf(SuperblockId Id) const {
    CCSIM_ASSERT(contains(Id), "block %u is not resident", Id);
    return StartById[Id];
  }

  /// Size in bytes of resident \p Id. Must be resident.
  uint32_t sizeOf(SuperblockId Id) const {
    CCSIM_ASSERT(contains(Id), "block %u is not resident", Id);
    return SizeById[Id];
  }

  /// Index of the cache unit containing byte \p Offset under \p Quantum.
  static uint64_t unitOf(uint64_t Offset, uint64_t Quantum) {
    CCSIM_ASSERT(Quantum > 0, "quantum must be positive");
    return Offset / Quantum;
  }

  /// Makes room for a block of \p SizeBytes, evicting at \p Quantum
  /// granularity. Evicted blocks are appended to \p EvictedOut in FIFO
  /// (oldest-first) order. After a successful prepare, commitInsert() for
  /// the same size is guaranteed to succeed without further eviction.
  PrepareOutcome prepareInsert(uint32_t SizeBytes, uint64_t Quantum,
                               std::vector<Resident> &EvictedOut);

  /// Places \p Id (of \p SizeBytes) at the write position reserved by the
  /// preceding prepareInsert(). Returns the placement offset.
  uint64_t commitInsert(SuperblockId Id, uint32_t SizeBytes);

  /// Evicts every resident block (appended FIFO-first to \p EvictedOut)
  /// and resets the write position.
  void flushAll(std::vector<Resident> &EvictedOut);

  /// Oldest resident block; cache must be non-empty.
  const Resident &front() const {
    CCSIM_ASSERT(!empty(), "cache is empty");
    return Ring[FifoHead];
  }

  /// Visits residents in FIFO (oldest-first) order.
  template <typename Fn> void forEachResident(Fn Visit) const {
    for (size_t I = 0; I < FifoSize; ++I)
      Visit(fifoAt(I));
  }

  /// Size of the dense per-id lookup tables; ids >= this were never
  /// inserted. Lets auditors enumerate the residency flags independently
  /// of the FIFO (check/CacheAuditor cross-checks the two views).
  size_t idTableSize() const { return ResidentFlag.size(); }

  /// Exhaustive internal consistency check for tests: flags match the
  /// FIFO contents, occupancy sums match, no overlapping placements, and
  /// no block wraps past the end of the buffer.
  bool checkInvariants() const;

private:
  uint64_t Capacity;
  uint64_t Tail = 0;     ///< Next write offset.
  uint64_t Occupied = 0; ///< Total resident bytes.

  // FIFO ring: FifoSize residents starting at Ring[FifoHead], wrapping at
  // Ring.size(), which is zero or a power of two.
  std::vector<Resident> Ring;
  size_t FifoHead = 0;
  size_t FifoSize = 0;

  // Dense per-id lookups (ids are small and dense by construction).
  std::vector<uint8_t> ResidentFlag;
  std::vector<uint64_t> StartById;
  std::vector<uint32_t> SizeById;

  /// Contiguous free bytes available at Tail without wrapping.
  uint64_t contiguousFreeAtTail() const;

  /// The \p I-th oldest resident; \p I < FifoSize.
  const Resident &fifoAt(size_t I) const {
    return Ring[(FifoHead + I) & (Ring.size() - 1)];
  }

  /// Appends \p R as the newest resident, doubling the ring when full.
  void pushBack(const Resident &R);

  /// Pops and returns the oldest block.
  Resident evictFront();

  void growTables(SuperblockId Id);
};

} // namespace ccsim

#endif // CCSIM_CORE_CODECACHE_H
