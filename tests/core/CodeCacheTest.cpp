//===- tests/core/CodeCacheTest.cpp - Placement engine tests ---------------===//

#include "core/CodeCache.h"

#include "gtest/gtest.h"

#include <deque>

using namespace ccsim;

namespace {

/// Inserts \p Id of \p Size at \p Quantum, returning the victims.
std::vector<CodeCache::Resident> insert(CodeCache &C, SuperblockId Id,
                                        uint32_t Size, uint64_t Quantum) {
  std::vector<CodeCache::Resident> Evicted;
  const CodeCache::PrepareOutcome Prep =
      C.prepareInsert(Size, Quantum, Evicted);
  EXPECT_TRUE(Prep.CanInsert);
  C.commitInsert(Id, Size);
  return Evicted;
}

std::vector<SuperblockId> residentIds(const CodeCache &C) {
  std::vector<SuperblockId> Ids;
  C.forEachResident(
      [&](const CodeCache::Resident &R) { Ids.push_back(R.Id); });
  return Ids;
}

} // namespace

// A ring slot packs into 16 bytes (Id, Size, Start).
static_assert(sizeof(CodeCache::Resident) == 16);

TEST(CodeCacheTest, ResidentKeepsIdStartSizeArgumentOrder) {
  const CodeCache::Resident R{7, 4096, 64};
  EXPECT_EQ(R.Id, 7u);
  EXPECT_EQ(R.Start, 4096u);
  EXPECT_EQ(R.Size, 64u);
  EXPECT_EQ(R.end(), 4160u);
}

TEST(CodeCacheTest, EmptyCacheState) {
  CodeCache C(1000);
  EXPECT_EQ(C.capacity(), 1000u);
  EXPECT_EQ(C.occupiedBytes(), 0u);
  EXPECT_EQ(C.residentCount(), 0u);
  EXPECT_TRUE(C.empty());
  EXPECT_FALSE(C.contains(0));
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, SequentialPlacement) {
  CodeCache C(1000);
  insert(C, 0, 100, 1);
  insert(C, 1, 200, 1);
  EXPECT_EQ(C.startOf(0), 0u);
  EXPECT_EQ(C.startOf(1), 100u);
  EXPECT_EQ(C.occupiedBytes(), 300u);
  std::vector<CodeCache::Resident> Ring;
  C.forEachResident(
      [&Ring](const CodeCache::Resident &R) { Ring.push_back(R); });
  ASSERT_EQ(Ring.size(), 2u);
  EXPECT_EQ(Ring[1].Id, 1u);
  EXPECT_EQ(Ring[1].Size, 200u);
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, FineQuantumEvictsMinimum) {
  CodeCache C(300);
  insert(C, 0, 100, 1);
  insert(C, 1, 100, 1);
  insert(C, 2, 100, 1);
  // Cache full; a fourth 100-byte block should evict exactly block 0.
  const auto Evicted = insert(C, 3, 100, 1);
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(Evicted[0].Id, 0u);
  EXPECT_TRUE(C.contains(1));
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, FifoOrderPreserved) {
  CodeCache C(300);
  insert(C, 5, 100, 1);
  insert(C, 9, 100, 1);
  insert(C, 2, 100, 1);
  EXPECT_EQ(residentIds(C), (std::vector<SuperblockId>{5, 9, 2}));
  insert(C, 7, 100, 1); // Evicts 5.
  EXPECT_EQ(residentIds(C), (std::vector<SuperblockId>{9, 2, 7}));
}

TEST(CodeCacheTest, FlushQuantumEvictsEverything) {
  CodeCache C(300);
  insert(C, 0, 100, 300);
  insert(C, 1, 100, 300);
  insert(C, 2, 100, 300);
  const auto Evicted = insert(C, 3, 50, 300);
  EXPECT_EQ(Evicted.size(), 3u); // Whole-cache flush.
  EXPECT_EQ(C.residentCount(), 1u);
  EXPECT_TRUE(C.contains(3));
  EXPECT_EQ(C.startOf(3), 0u);
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, TwoUnitQuantumFlushesHalf) {
  CodeCache C(400);
  // Unit 0 = [0, 200), unit 1 = [200, 400).
  insert(C, 0, 100, 200);
  insert(C, 1, 100, 200);
  insert(C, 2, 100, 200);
  insert(C, 3, 100, 200);
  // Cache full. Inserting evicts unit 0 entirely (blocks 0 and 1).
  const auto Evicted = insert(C, 4, 100, 200);
  ASSERT_EQ(Evicted.size(), 2u);
  EXPECT_EQ(Evicted[0].Id, 0u);
  EXPECT_EQ(Evicted[1].Id, 1u);
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
  EXPECT_EQ(C.startOf(4), 0u);
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, UnitFlushLeavesRoomForSeveralInserts) {
  CodeCache C(400);
  for (SuperblockId Id = 0; Id < 4; ++Id)
    insert(C, Id, 100, 200);
  // One unit flush (2 blocks out) leaves room for two 100-byte inserts:
  // the second one must not evict.
  auto Evicted = insert(C, 4, 100, 200);
  EXPECT_EQ(Evicted.size(), 2u);
  Evicted = insert(C, 5, 100, 200);
  EXPECT_TRUE(Evicted.empty());
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, StraddlingBlockEvictedWithItsUnit) {
  CodeCache C(100);
  // Quantum 50: units [0,50) and [50,100).
  insert(C, 0, 30, 50); // [0, 30)  - unit 0.
  insert(C, 1, 30, 50); // [30, 60) - straddles into unit 1.
  insert(C, 2, 30, 50); // [60, 90) - unit 1.
  // Insert 30 more: tail waste 10, wrap; flushing unit 0 must take the
  // straddler (block 1) with it.
  const auto Evicted = insert(C, 3, 30, 50);
  ASSERT_EQ(Evicted.size(), 2u);
  EXPECT_EQ(Evicted[0].Id, 0u);
  EXPECT_EQ(Evicted[1].Id, 1u);
  EXPECT_TRUE(C.contains(2));
  EXPECT_EQ(C.startOf(3), 0u);
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, WrapWasteReported) {
  CodeCache C(100);
  std::vector<CodeCache::Resident> Evicted;
  auto P1 = C.prepareInsert(60, 1, Evicted);
  EXPECT_EQ(P1.WastedBytes, 0u);
  C.commitInsert(0, 60);
  // 40 bytes free at the tail; a 50-byte block wraps, wasting them.
  auto P2 = C.prepareInsert(50, 1, Evicted);
  EXPECT_EQ(P2.WastedBytes, 40u);
  C.commitInsert(1, 50);
  EXPECT_EQ(C.startOf(1), 0u);
  EXPECT_FALSE(C.contains(0)); // Evicted to make room at offset 0.
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, ExactFitNoWaste) {
  CodeCache C(100);
  std::vector<CodeCache::Resident> Evicted;
  auto P = C.prepareInsert(100, 1, Evicted);
  EXPECT_TRUE(P.CanInsert);
  EXPECT_EQ(P.WastedBytes, 0u);
  C.commitInsert(0, 100);
  EXPECT_EQ(C.occupiedBytes(), 100u);
  // Next insert wraps cleanly to offset 0 after evicting block 0.
  auto P2 = C.prepareInsert(10, 1, Evicted);
  EXPECT_TRUE(P2.CanInsert);
  EXPECT_EQ(P2.WastedBytes, 0u);
  EXPECT_EQ(Evicted.size(), 1u);
  C.commitInsert(1, 10);
  EXPECT_EQ(C.startOf(1), 0u);
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, TooBigBlockRejected) {
  CodeCache C(100);
  std::vector<CodeCache::Resident> Evicted;
  const auto P = C.prepareInsert(101, 1, Evicted);
  EXPECT_FALSE(P.CanInsert);
  EXPECT_TRUE(Evicted.empty());
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, CapacitySizedBlockAccepted) {
  CodeCache C(100);
  std::vector<CodeCache::Resident> Evicted;
  const auto P = C.prepareInsert(100, 1, Evicted);
  EXPECT_TRUE(P.CanInsert);
  C.commitInsert(0, 100);
  EXPECT_TRUE(C.contains(0));
}

TEST(CodeCacheTest, BlockLargerThanUnitSpansUnits) {
  CodeCache C(100);
  // Quantum 25, but a 60-byte block must still be placeable.
  insert(C, 0, 60, 25);
  insert(C, 1, 30, 25);
  // Inserting another 60 forces flushing multiple units.
  const auto Evicted = insert(C, 2, 60, 25);
  EXPECT_GE(Evicted.size(), 1u);
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, UnitsFlushedCounted) {
  CodeCache C(400);
  for (SuperblockId Id = 0; Id < 4; ++Id)
    insert(C, Id, 100, 100); // 4 units, one block each.
  std::vector<CodeCache::Resident> Evicted;
  const auto P = C.prepareInsert(200, 100, Evicted);
  EXPECT_TRUE(P.CanInsert);
  EXPECT_EQ(Evicted.size(), 2u);
  EXPECT_EQ(P.UnitsFlushed, 2u);
  C.commitInsert(9, 200);
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, FlushAllEmptiesAndResets) {
  CodeCache C(300);
  insert(C, 0, 120, 1);
  insert(C, 1, 120, 1);
  std::vector<CodeCache::Resident> Evicted;
  C.flushAll(Evicted);
  EXPECT_EQ(Evicted.size(), 2u);
  EXPECT_EQ(Evicted[0].Id, 0u);
  EXPECT_TRUE(C.empty());
  EXPECT_EQ(C.occupiedBytes(), 0u);
  // Placement restarts at 0.
  insert(C, 2, 10, 1);
  EXPECT_EQ(C.startOf(2), 0u);
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, ReinsertionAfterEviction) {
  CodeCache C(200);
  insert(C, 0, 100, 1);
  insert(C, 1, 100, 1);
  insert(C, 2, 100, 1); // Evicts 0.
  EXPECT_FALSE(C.contains(0));
  insert(C, 0, 100, 1); // Reinsert 0; evicts 1.
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(1));
  EXPECT_TRUE(C.checkInvariants());
}

TEST(CodeCacheTest, UnitOfStatic) {
  EXPECT_EQ(CodeCache::unitOf(0, 100), 0u);
  EXPECT_EQ(CodeCache::unitOf(99, 100), 0u);
  EXPECT_EQ(CodeCache::unitOf(100, 100), 1u);
  EXPECT_EQ(CodeCache::unitOf(12345, 1), 12345u);
}

TEST(CodeCacheTest, FrontIsOldest) {
  CodeCache C(300);
  insert(C, 3, 100, 1);
  insert(C, 8, 100, 1);
  EXPECT_EQ(C.front().Id, 3u);
}

TEST(CodeCacheTest, RingGrowsWhileWrappedAndKeepsFifoOrder) {
  CodeCache C(320);
  std::deque<SuperblockId> Model; // Oldest first.
  const auto Insert = [&](SuperblockId Id, uint32_t Size) {
    for (const CodeCache::Resident &V : insert(C, Id, Size, 1)) {
      ASSERT_FALSE(Model.empty());
      EXPECT_EQ(V.Id, Model.front());
      Model.pop_front();
    }
    Model.push_back(Id);
  };
  const auto ModelIds = [&] {
    return std::vector<SuperblockId>(Model.begin(), Model.end());
  };

  // Sixteen 20-byte blocks fill both the cache and the initial ring.
  for (SuperblockId Id = 0; Id < 16; ++Id)
    Insert(Id, 20);
  // A 10-byte block evicts block 0: the ring's head leaves slot 0 and the
  // newest entry wraps into it. A second 10-byte block fits in the rest
  // of block 0's bytes, so the full ring grows while its head is
  // mid-buffer and its entries wrap.
  Insert(16, 10);
  Insert(17, 10);
  EXPECT_EQ(C.residentCount(), 17u);
  EXPECT_EQ(C.front().Id, 1u);
  EXPECT_EQ(residentIds(C), ModelIds());
  EXPECT_TRUE(C.checkInvariants());

  // Churn mixed sizes so the grown ring wraps (and grows) again.
  for (SuperblockId Id = 18; Id < 200; ++Id) {
    Insert(Id, Id % 3 == 0 ? 30 : 10);
    ASSERT_EQ(C.front().Id, Model.front()) << "after inserting " << Id;
    ASSERT_EQ(residentIds(C), ModelIds()) << "after inserting " << Id;
    ASSERT_TRUE(C.checkInvariants()) << "after inserting " << Id;
  }
}
