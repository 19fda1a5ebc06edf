//===- tests/core/CodeCachePropertyTest.cpp - Randomized invariants -------===//
//
// Property-style tests: random insertion streams at every granularity
// must preserve the placement invariants, never overflow the capacity,
// and respect FIFO eviction order.
//
//===----------------------------------------------------------------------===//

#include "core/CodeCache.h"

#include "support/Random.h"
#include "gtest/gtest.h"

#include <map>
#include <tuple>

using namespace ccsim;

namespace {

struct PropertyParams {
  uint64_t Capacity;
  uint64_t Quantum;
  uint64_t Seed;
};

class CodeCacheProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

} // namespace

TEST_P(CodeCacheProperty, RandomStreamKeepsInvariants) {
  const uint64_t Capacity = std::get<0>(GetParam());
  const uint64_t Quantum = std::get<1>(GetParam());
  if (Quantum > Capacity)
    GTEST_SKIP() << "quantum larger than capacity is clamped by the manager";

  Rng R(Capacity * 31 + Quantum);
  CodeCache C(Capacity);
  std::map<SuperblockId, uint32_t> Expected; // Resident model.
  uint64_t TotalEvicted = 0;

  for (int Step = 0; Step < 4000; ++Step) {
    const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(600));
    if (C.contains(Id))
      continue; // Hit: FIFO caches do nothing.
    const uint32_t Size = static_cast<uint32_t>(
        R.nextRange(1, static_cast<int64_t>(Capacity / 4) + 1));

    std::vector<CodeCache::Resident> Evicted;
    const auto Prep = C.prepareInsert(Size, Quantum, Evicted);
    if (!Prep.CanInsert) {
      EXPECT_GT(Size, Capacity);
      continue;
    }
    for (const auto &V : Evicted) {
      auto It = Expected.find(V.Id);
      ASSERT_NE(It, Expected.end()) << "evicted a non-resident block";
      EXPECT_EQ(It->second, V.Size);
      Expected.erase(It);
      ++TotalEvicted;
    }
    C.commitInsert(Id, Size);
    Expected[Id] = Size;

    // Invariants after every operation.
    ASSERT_TRUE(C.checkInvariants()) << "step " << Step;
    ASSERT_LE(C.occupiedBytes(), Capacity);
    ASSERT_EQ(C.residentCount(), Expected.size());
    std::map<SuperblockId, uint32_t> Resident;
    C.forEachResident([&Resident](const CodeCache::Resident &Res) {
      Resident[Res.Id] = Res.Size;
    });
    ASSERT_EQ(Resident, Expected);
    for (const auto &Entry : Expected)
      ASSERT_TRUE(C.contains(Entry.first));
  }
  // Under pressure the stream must actually exercise eviction.
  if (Capacity <= 4096) {
    EXPECT_GT(TotalEvicted, 0u);
  }
}

TEST_P(CodeCacheProperty, EvictionOrderIsFifo) {
  const uint64_t Capacity = std::get<0>(GetParam());
  const uint64_t Quantum = std::get<1>(GetParam());
  if (Quantum > Capacity)
    GTEST_SKIP();

  Rng R(Capacity * 7 + Quantum * 3);
  CodeCache C(Capacity);
  std::vector<SuperblockId> InsertOrder; // Residents, oldest first.
  SuperblockId NextId = 0;

  for (int Step = 0; Step < 2000; ++Step) {
    const uint32_t Size = static_cast<uint32_t>(
        R.nextRange(1, static_cast<int64_t>(Capacity / 5) + 1));
    std::vector<CodeCache::Resident> Evicted;
    const auto Prep = C.prepareInsert(Size, Quantum, Evicted);
    ASSERT_TRUE(Prep.CanInsert);
    // Victims must be exactly a prefix of the insertion order.
    ASSERT_LE(Evicted.size(), InsertOrder.size());
    for (size_t I = 0; I < Evicted.size(); ++I)
      ASSERT_EQ(Evicted[I].Id, InsertOrder[I]) << "non-FIFO eviction";
    InsertOrder.erase(InsertOrder.begin(),
                      InsertOrder.begin() + Evicted.size());
    C.commitInsert(NextId, Size);
    InsertOrder.push_back(NextId);
    ++NextId;
  }
}

TEST_P(CodeCacheProperty, PrepareGuaranteesCommit) {
  const uint64_t Capacity = std::get<0>(GetParam());
  const uint64_t Quantum = std::get<1>(GetParam());
  if (Quantum > Capacity)
    GTEST_SKIP();

  Rng R(Capacity ^ (Quantum << 8));
  CodeCache C(Capacity);
  for (SuperblockId Id = 0; Id < 1500; ++Id) {
    const uint32_t Size = static_cast<uint32_t>(
        R.nextRange(1, static_cast<int64_t>(Capacity)));
    std::vector<CodeCache::Resident> Evicted;
    if (!C.prepareInsert(Size, Quantum, Evicted).CanInsert)
      continue;
    // commitInsert must succeed without further eviction (asserted
    // internally) and place the block inside the buffer.
    const uint64_t Start = C.commitInsert(Id, Size);
    ASSERT_LE(Start + Size, Capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GranularityByCapacity, CodeCacheProperty,
    ::testing::Combine(
        /*Capacity=*/::testing::Values(256, 1024, 4096, 65536),
        /*Quantum=*/::testing::Values(1, 16, 64, 256, 1024, 4096, 65536)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, uint64_t>> &Info) {
      return "cap" + std::to_string(std::get<0>(Info.param)) + "_q" +
             std::to_string(std::get<1>(Info.param));
    });
