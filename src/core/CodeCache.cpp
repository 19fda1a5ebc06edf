//===- core/CodeCache.cpp - Circular-buffer code cache placement ---------===//

#include "core/CodeCache.h"

#include <algorithm>

using namespace ccsim;

CodeCache::CodeCache(uint64_t CapacityBytes) : Capacity(CapacityBytes) {
  CCSIM_REQUIRE(Capacity > 0, "cache capacity must be positive");
  CCSIM_REQUIRE(Capacity <= MaxCapacityBytes,
                "cache capacity %llu exceeds the %llu-byte limit",
                static_cast<unsigned long long>(Capacity),
                static_cast<unsigned long long>(MaxCapacityBytes));
}

void CodeCache::growTablesTo(SuperblockId Id) {
  const size_t NewSize = std::max<size_t>(size_t{Id} + 1, Slot.size() * 2);
  Slot.resize(NewSize, 0);
}

uint64_t CodeCache::contiguousFreeAtTail() const {
  if (empty())
    return Capacity - Tail;
  const uint64_t Head = front().Start;
  if (Head >= Tail) {
    // Either the occupied region wraps (free = [Tail, Head)) or the cache
    // is exactly full (Head == Tail with residents).
    return Head - Tail;
  }
  // Occupied region is [Head, Tail); free space runs to the buffer end.
  return Capacity - Tail;
}

void CodeCache::growRing() {
  // Full: unroll the ring oldest-first, then double it.
  std::rotate(Ring.begin(), Ring.begin() + FifoHead, Ring.end());
  FifoHead = 0;
  Ring.resize(std::max<size_t>(16, Ring.size() * 2));
}

CodeCache::Resident CodeCache::evictFront() {
  CCSIM_ASSERT(!empty(), "evicting from an empty cache");
  const Resident Victim = front();
  FifoHead = (FifoHead + 1) & (Ring.size() - 1);
  --FifoSize;
  Occupied -= Victim.Size;
  Slot[Victim.Id] = 0;
  if (empty())
    Tail = 0; // Empty cache: restart placement at the origin.
  return Victim;
}

CodeCache::PrepareOutcome
CodeCache::prepareInsert(uint32_t SizeBytes, uint64_t Quantum,
                         std::vector<Resident> &EvictedOut) {
  CCSIM_ASSERT(SizeBytes > 0, "cannot cache an empty superblock");
  CCSIM_ASSERT(Quantum > 0, "quantum must be positive");
  PrepareOutcome Out;
  if (SizeBytes > Capacity)
    return Out; // Cannot ever fit; CanInsert stays false.
  Out.CanInsert = true;

  // The last victim's unit as [UnitLo, UnitLo + Quantum): a victim inside
  // it costs a subtraction, and only one that opens a new unit divides.
  uint64_t UnitLo = 0;
  bool EvictedAny = false;
  auto NoteEvicted = [&](const Resident &Victim) {
    EvictedOut.push_back(Victim);
    if (!EvictedAny || Victim.Start - UnitLo >= Quantum) {
      UnitLo = unitBase(Victim.Start, Quantum);
      ++Out.UnitsFlushed;
      EvictedAny = true;
    }
  };

  for (;;) {
    if (empty()) {
      Tail = 0;
      return Out;
    }
    if (contiguousFreeAtTail() >= SizeBytes)
      return Out;

    if (front().Start < Tail) {
      // Free space is capped by the buffer end while the FIFO head sits
      // behind the write position: wrap, wasting the tail bytes (code
      // cannot span the wrap point).
      Out.WastedBytes += Capacity - Tail;
      Tail = 0;
      continue;
    }

    // The FIFO head is ahead of the write position: reclaim from it.
    // First evict until the incoming block fits in the free run between
    // the write position and the head ...
    while (!empty() && front().Start >= Tail &&
           front().Start - Tail < SizeBytes)
      NoteEvicted(evictFront());

    // ... then finish clearing the unit of the last victim, so that whole
    // units are always flushed together (no-op for the 1-byte quantum of
    // fine-grained FIFO, since distinct blocks have distinct starts).
    if (EvictedAny && Quantum > 1)
      while (!empty() && front().Start >= Tail &&
             front().Start - UnitLo < Quantum)
        NoteEvicted(evictFront());
    // Loop: re-check fit (the head may have wrapped to low offsets, in
    // which case the free region now runs to the buffer end).
  }
}

uint64_t CodeCache::commitInsert(SuperblockId Id, uint32_t SizeBytes) {
  CCSIM_ASSERT(!contains(Id), "block %u already resident", Id);
  CCSIM_ASSERT(SizeBytes > 0, "cannot cache an empty superblock");
  CCSIM_ASSERT(contiguousFreeAtTail() >= SizeBytes,
               "commitInsert of %u bytes without a successful prepareInsert",
               SizeBytes);
  growTables(Id);
  const uint64_t Start = Tail;
  pushBack(Resident{Id, Start, SizeBytes});
  Tail += SizeBytes;
  if (Tail == Capacity)
    Tail = 0; // Exact fit against the end: next write wraps cleanly.
  Occupied += SizeBytes;
  Slot[Id] = static_cast<uint32_t>(Start + 1);
  return Start;
}

void CodeCache::flushAll(std::vector<Resident> &EvictedOut) {
  while (!empty())
    EvictedOut.push_back(evictFront());
  Tail = 0;
}

bool CodeCache::checkInvariants() const {
  // Occupancy bookkeeping.
  uint64_t SumBytes = 0;
  size_t FlaggedResident = 0;
  for (uint32_t S : Slot)
    if (S != 0)
      ++FlaggedResident;
  if (FlaggedResident != FifoSize)
    return false;
  if ((Ring.size() & (Ring.size() - 1)) != 0 || FifoSize > Ring.size())
    return false; // The ring must be a power of two holding every resident.

  std::vector<std::pair<uint64_t, uint64_t>> Ranges;
  Ranges.reserve(FifoSize);
  for (size_t I = 0; I < FifoSize; ++I) {
    const Resident &R = fifoAt(I);
    if (R.Size == 0 || R.end() > Capacity)
      return false; // Blocks must not wrap past the buffer end.
    if (!contains(R.Id) || startOf(R.Id) != R.Start)
      return false;
    SumBytes += R.Size;
    Ranges.emplace_back(R.Start, R.end());
  }
  if (SumBytes != Occupied || Occupied > Capacity)
    return false;

  // No two residents overlap.
  std::sort(Ranges.begin(), Ranges.end());
  for (size_t I = 1; I < Ranges.size(); ++I)
    if (Ranges[I].first < Ranges[I - 1].second)
      return false;

  // FIFO starts must be cyclically increasing: at most one wrap point.
  size_t Wraps = 0;
  for (size_t I = 1; I < FifoSize; ++I)
    if (fifoAt(I).Start < fifoAt(I - 1).Start)
      ++Wraps;
  if (Wraps > 1)
    return false;
  return true;
}
