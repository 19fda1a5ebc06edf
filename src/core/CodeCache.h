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
/// Residency and placement share one 32-bit slot per id holding the
/// block's start + 1 (0 = not resident), so contains() and startOf() are
/// one load; a block's size lives only in its ring entry. That bounds the
/// capacity below 2^32 - 1 bytes (MaxCapacityBytes); front doors refuse
/// larger caches before building an engine.
///
/// The class tracks placement only. Links, costs, and policy decisions
/// live in LinkGraph, CostModel, and CacheEngine. LinkGraph derives every
/// link from slotOf(), so residency is the single source of truth for
/// chaining too.
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
  /// A resident superblock: identifier plus its byte placement. The
  /// fields are laid out Id, Size, Start so a ring slot packs into 16
  /// bytes; the constructor keeps the {Id, Start, Size} argument order.
  struct Resident {
    SuperblockId Id;
    uint32_t Size;
    uint64_t Start;

    Resident() = default;
    Resident(SuperblockId Id, uint64_t Start, uint32_t Size)
        : Id(Id), Size(Size), Start(Start) {}

    uint64_t end() const { return Start + Size; }
  };

  /// Result of prepareInsert().
  struct PrepareOutcome {
    bool CanInsert = false;     ///< False only if Size > capacity.
    uint64_t WastedBytes = 0;   ///< Tail bytes skipped at a wrap point.
    uint64_t UnitsFlushed = 0;  ///< Distinct quantum units cleared.
  };

  /// Largest capacity a cache accepts: every start + 1 must fit a 32-bit
  /// slot.
  static constexpr uint64_t MaxCapacityBytes = 0xFFFFFFFEull;

  /// \p CapacityBytes must be 1..MaxCapacityBytes.
  explicit CodeCache(uint64_t CapacityBytes);

  uint64_t capacity() const { return Capacity; }
  uint64_t occupiedBytes() const { return Occupied; }
  size_t residentCount() const { return FifoSize; }
  bool empty() const { return FifoSize == 0; }

  /// \p Id's start + 1 when resident, 0 when not: residency and
  /// placement in one load.
  uint32_t slotOf(SuperblockId Id) const {
    return Id < Slot.size() ? Slot[Id] : 0;
  }

  /// True if \p Id currently resides in the cache.
  bool contains(SuperblockId Id) const { return slotOf(Id) != 0; }

  /// Byte offset of resident \p Id. Must be resident.
  uint64_t startOf(SuperblockId Id) const {
    CCSIM_ASSERT(contains(Id), "block %u is not resident", Id);
    return Slot[Id] - 1;
  }

  /// Index of the cache unit containing byte \p Offset under \p Quantum.
  static uint64_t unitOf(uint64_t Offset, uint64_t Quantum) {
    CCSIM_ASSERT(Quantum > 0, "quantum must be positive");
    return Offset / Quantum;
  }

  /// First byte of the unit containing \p Offset: the unit is
  /// [unitBase, unitBase + Quantum). Both operands lie below the 32-bit
  /// capacity bound, so the division is a 32-bit one.
  static uint64_t unitBase(uint64_t Offset, uint64_t Quantum) {
    CCSIM_ASSERT(Quantum > 0 && Quantum <= MaxCapacityBytes &&
                     Offset <= MaxCapacityBytes,
                 "unit of offset %llu under quantum %llu",
                 static_cast<unsigned long long>(Offset),
                 static_cast<unsigned long long>(Quantum));
    const auto O = static_cast<uint32_t>(Offset);
    return O - O % static_cast<uint32_t>(Quantum);
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

  /// Size of the dense per-id lookup table; ids >= this were never
  /// inserted. Lets auditors enumerate the residency slots independently
  /// of the FIFO (check/CacheAuditor cross-checks the two views).
  size_t idTableSize() const { return Slot.size(); }

  /// Sizes the per-id table for ids below \p NumIds up front (a trace's
  /// superblock count), so inserts never grow it.
  void reserveIds(size_t NumIds) {
    if (NumIds > Slot.size())
      growTablesTo(static_cast<SuperblockId>(NumIds - 1));
  }

  /// Exhaustive internal consistency check for tests: slots match the
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

  // Dense per-id lookup (ids are small and dense by construction): start
  // + 1, 0 = not resident.
  std::vector<uint32_t> Slot;

  /// Contiguous free bytes available at Tail without wrapping.
  uint64_t contiguousFreeAtTail() const;

  /// The \p I-th oldest resident; \p I < FifoSize.
  const Resident &fifoAt(size_t I) const {
    return Ring[(FifoHead + I) & (Ring.size() - 1)];
  }

  /// Appends \p R as the newest resident, doubling the ring when full.
  void pushBack(const Resident &R) {
    if (FifoSize == Ring.size()) [[unlikely]]
      growRing();
    Ring[(FifoHead + FifoSize) & (Ring.size() - 1)] = R;
    ++FifoSize;
  }
  void growRing();

  /// Pops and returns the oldest block.
  Resident evictFront();

  /// Makes \p Id a valid index into the per-id table.
  void growTables(SuperblockId Id) {
    if (Id >= Slot.size()) [[unlikely]]
      growTablesTo(Id);
  }
  void growTablesTo(SuperblockId Id);
};

} // namespace ccsim

#endif // CCSIM_CORE_CODECACHE_H
