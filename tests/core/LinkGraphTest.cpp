//===- tests/core/LinkGraphTest.cpp - Chaining state tests -----------------===//

#include "core/LinkGraph.h"

#include "support/Random.h"
#include "gtest/gtest.h"

#include <algorithm>

using namespace ccsim;

namespace {

/// Test fixture managing a cache + link graph pair with convenience
/// insert/evict helpers mirroring the CacheManager's call order.
class LinkGraphFixture : public ::testing::Test {
protected:
  CodeCache Cache{1000};
  LinkGraph Links;
  CacheStats Stats;
  uint64_t Quantum = 1000; // Single unit by default.

  std::vector<uint32_t> insertBlock(SuperblockId Id, uint32_t Size,
                                    std::vector<SuperblockId> Edges) {
    std::vector<CodeCache::Resident> Evicted;
    std::vector<uint32_t> Dangling;
    EXPECT_TRUE(Cache.prepareInsert(Size, Quantum, Evicted).CanInsert);
    if (!Evicted.empty())
      Links.onEvict(Cache, Evicted, Dangling);
    Cache.commitInsert(Id, Size);
    Links.onInsert(Cache, Quantum, Id, Edges, Stats);
    EXPECT_TRUE(Links.checkInvariants(Cache));
    return Dangling;
  }
};

} // namespace

TEST_F(LinkGraphFixture, ForwardEdgeMaterializesWhenTargetArrives) {
  insertBlock(0, 100, {1}); // Target absent: edge pending.
  EXPECT_FALSE(Links.hasLink(Cache, 0, 1));
  EXPECT_EQ(Links.numLinks(), 0u);
  insertBlock(1, 100, {});
  EXPECT_TRUE(Links.hasLink(Cache, 0, 1));
  EXPECT_EQ(Links.numLinks(), 1u);
  EXPECT_EQ(Stats.LinksCreated, 1u);
}

TEST_F(LinkGraphFixture, BackwardEdgeMaterializesImmediately) {
  insertBlock(0, 100, {});
  insertBlock(1, 100, {0});
  EXPECT_TRUE(Links.hasLink(Cache, 1, 0));
  EXPECT_EQ(Links.outDegree(Cache, 1), 1u);
  EXPECT_EQ(Links.inDegree(Cache, 0), 1u);
}

TEST_F(LinkGraphFixture, SelfLinkCountsAsIntraUnit) {
  insertBlock(0, 100, {0});
  EXPECT_TRUE(Links.hasLink(Cache, 0, 0));
  EXPECT_EQ(Stats.SelfLinksCreated, 1u);
  EXPECT_EQ(Stats.InterUnitLinksCreated, 0u);
}

TEST_F(LinkGraphFixture, IntraVsInterUnitClassification) {
  Quantum = 250; // Units of 250 bytes.
  insertBlock(0, 100, {});  // [0,100)   unit 0.
  insertBlock(1, 100, {0}); // [100,200) unit 0: intra.
  EXPECT_EQ(Stats.InterUnitLinksCreated, 0u);
  insertBlock(2, 100, {0}); // [200,300) unit 0 start? 200/250 = 0: intra.
  EXPECT_EQ(Stats.InterUnitLinksCreated, 0u);
  insertBlock(3, 100, {0}); // [300,400) unit 1: inter.
  EXPECT_EQ(Stats.InterUnitLinksCreated, 1u);
  EXPECT_EQ(Stats.LinksCreated, 3u);
}

TEST_F(LinkGraphFixture, FineQuantumMakesAllNonSelfLinksInter) {
  Quantum = 1;
  insertBlock(0, 50, {});
  insertBlock(1, 50, {0, 1}); // One link to 0 (inter), one self (intra).
  EXPECT_EQ(Stats.LinksCreated, 2u);
  EXPECT_EQ(Stats.InterUnitLinksCreated, 1u);
  EXPECT_EQ(Stats.SelfLinksCreated, 1u);
}

TEST_F(LinkGraphFixture, ParallelEdgesKeepMultiplicity) {
  insertBlock(0, 100, {});
  insertBlock(1, 100, {0, 0}); // Two exits to the same target.
  EXPECT_EQ(Links.outDegree(Cache, 1), 2u);
  EXPECT_EQ(Links.inDegree(Cache, 0), 2u);
  EXPECT_EQ(Links.numLinks(), 2u);
}

TEST_F(LinkGraphFixture, EvictionReportsDanglingIncomingLinks) {
  insertBlock(0, 400, {});
  insertBlock(1, 300, {0});
  insertBlock(2, 300, {0});
  EXPECT_EQ(Links.inDegree(Cache, 0), 2u);
  // Insert a 400-byte block with fine quantum: evicts block 0 only.
  Quantum = 1;
  const auto Dangling = insertBlock(3, 400, {});
  ASSERT_EQ(Dangling.size(), 1u);
  EXPECT_EQ(Dangling[0], 2u); // Two survivor links dangled.
  EXPECT_EQ(Links.outDegree(Cache, 1), 0u);
  EXPECT_EQ(Links.outDegree(Cache, 2), 0u);
  EXPECT_EQ(Links.numLinks(), 0u);
}

TEST_F(LinkGraphFixture, LinksAmongVictimsAreFree) {
  Quantum = 1000; // Whole-cache flush.
  insertBlock(0, 300, {1});
  insertBlock(1, 300, {0});
  insertBlock(2, 300, {});
  EXPECT_EQ(Links.numLinks(), 2u);
  // A 500-byte insert flushes everything: no dangling links (all
  // endpoints die together).
  const auto Dangling = insertBlock(3, 500, {});
  ASSERT_EQ(Dangling.size(), 3u);
  EXPECT_EQ(Dangling[0], 0u);
  EXPECT_EQ(Dangling[1], 0u);
  EXPECT_EQ(Dangling[2], 0u);
  EXPECT_EQ(Links.numLinks(), 0u);
}

TEST_F(LinkGraphFixture, ReinsertionRematerializesWants) {
  insertBlock(0, 400, {});
  insertBlock(1, 300, {0});
  Quantum = 1;
  insertBlock(2, 400, {}); // Evicts 0; link 1->0 dangles and is removed.
  EXPECT_FALSE(Links.hasLink(Cache, 1, 0));
  // Reinsert 0 (evicts 1's neighbor as needed): the want from block 1
  // must rematerialize if block 1 survived.
  std::vector<CodeCache::Resident> Evicted;
  std::vector<uint32_t> Dangling;
  ASSERT_TRUE(Cache.prepareInsert(200, 1, Evicted).CanInsert);
  if (!Evicted.empty())
    Links.onEvict(Cache, Evicted, Dangling);
  Cache.commitInsert(0, 200);
  Links.onInsert(Cache, 1, 0, std::vector<SuperblockId>{}, Stats);
  if (Cache.contains(1)) {
    EXPECT_TRUE(Links.hasLink(Cache, 1, 0));
  }
  EXPECT_TRUE(Links.checkInvariants(Cache));
}

TEST_F(LinkGraphFixture, BackPointerMemoryAccounting) {
  insertBlock(0, 100, {});
  insertBlock(1, 100, {0});
  insertBlock(2, 100, {0, 1});
  EXPECT_EQ(Links.numLinks(), 3u);
  EXPECT_EQ(Links.backPointerBytes(), 3 * LinkGraph::BytesPerBackPointer);
}

TEST_F(LinkGraphFixture, DegreeQueriesOnUnknownIds) {
  EXPECT_EQ(Links.outDegree(Cache, 999), 0u);
  EXPECT_EQ(Links.inDegree(Cache, 999), 0u);
  EXPECT_FALSE(Links.hasLink(Cache, 999, 1000));
}

TEST_F(LinkGraphFixture, EvictedSourceDropsItsWants) {
  // Block 0 wants absent block 7. When 0 is evicted, the want must go
  // away: block 7's later insertion must not create a dangling link.
  insertBlock(0, 600, {7});
  Quantum = 1;
  insertBlock(1, 600, {}); // Evicts 0.
  EXPECT_FALSE(Cache.contains(0));
  insertBlock(7, 100, {});
  EXPECT_EQ(Links.inDegree(Cache, 7), 0u);
  EXPECT_EQ(Links.numLinks(), 0u);
  EXPECT_TRUE(Links.checkInvariants(Cache));
}

TEST_F(LinkGraphFixture, RetranslatedBlockLinksByItsNewShape) {
  insertBlock(2, 300, {0}); // Edge 2->0 waits for block 0.
  insertBlock(0, 300, {});
  insertBlock(1, 300, {});
  EXPECT_TRUE(Links.hasLink(Cache, 2, 0));

  // Flush everything, then bring 2 back re-translated with a new shape:
  // two exits to block 1 and none to block 0.
  std::vector<CodeCache::Resident> Evicted;
  std::vector<uint32_t> Dangling;
  Cache.flushAll(Evicted);
  Links.onEvict(Cache, Evicted, Dangling);
  EXPECT_EQ(Links.numLinks(), 0u);
  insertBlock(0, 300, {});
  insertBlock(1, 300, {});
  const uint64_t CreatedBefore = Stats.LinksCreated;
  insertBlock(2, 300, {1, 1});
  EXPECT_EQ(Stats.LinksCreated - CreatedBefore, 2u);
  EXPECT_FALSE(Links.hasLink(Cache, 2, 0));
  EXPECT_TRUE(Links.hasLink(Cache, 2, 1));
  EXPECT_EQ(Links.inDegree(Cache, 0), 0u);
  EXPECT_EQ(Links.inDegree(Cache, 1), 2u);
  EXPECT_TRUE(Links.sourcesOf(0).empty());

  // The old target no longer counts 2 as a source: evicting it leaves no
  // dangling link, while evicting the new target dangles both exits.
  Quantum = 1;
  const auto DanglingAtOld = insertBlock(5, 200, {}); // Evicts block 0.
  ASSERT_EQ(DanglingAtOld.size(), 1u);
  EXPECT_EQ(DanglingAtOld[0], 0u);
  const auto DanglingAtNew = insertBlock(6, 300, {}); // Evicts block 1.
  ASSERT_EQ(DanglingAtNew.size(), 1u);
  EXPECT_EQ(DanglingAtNew[0], 2u);
  EXPECT_EQ(Links.numLinks(), 0u);
}

TEST(LinkGraphRandomTest, InvariantsUnderRandomChurn) {
  constexpr SuperblockId NumIds = 60;
  for (uint64_t Seed : {1ULL, 2ULL, 3ULL}) {
    Rng R(Seed);
    CodeCache Cache(2000);
    LinkGraph Links;
    CacheStats Stats;
    // Brute-force reference: each block's shape as last inserted, links
    // recomputed from residency alone.
    std::vector<std::vector<SuperblockId>> Shape(NumIds);
    const auto Multiplicity = [&](SuperblockId From, SuperblockId To) {
      return static_cast<uint32_t>(
          std::count(Shape[From].begin(), Shape[From].end(), To));
    };
    const auto LiveLinks = [&] {
      uint64_t Live = 0;
      for (SuperblockId S = 0; S < NumIds; ++S)
        if (Cache.contains(S))
          for (SuperblockId T : Shape[S])
            Live += Cache.contains(T) ? 1 : 0;
      return Live;
    };
    uint64_t Reshaped = 0;
    for (int Step = 0; Step < 1500; ++Step) {
      const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(NumIds));
      if (Cache.contains(Id))
        continue;
      const uint32_t Size = static_cast<uint32_t>(R.nextRange(20, 400));
      const uint64_t Quantum = 1ULL << R.nextBelow(12);
      // A first insert draws the block's shape; a later one re-translates
      // it with a new shape one time in four.
      std::vector<SuperblockId> Edges = Shape[Id];
      if (Edges.empty() || R.nextBelow(4) == 0) {
        Edges.clear();
        const uint64_t Degree = R.nextPoisson(1.7);
        for (uint64_t E = 0; E < Degree; ++E)
          Edges.push_back(static_cast<SuperblockId>(R.nextBelow(NumIds)));
        Reshaped += !Shape[Id].empty() && Edges != Shape[Id] ? 1 : 0;
      }

      std::vector<CodeCache::Resident> Evicted;
      std::vector<uint32_t> Dangling;
      if (!Cache.prepareInsert(Size, Quantum, Evicted).CanInsert)
        continue;
      if (!Evicted.empty()) {
        Links.onEvict(Cache, Evicted, Dangling);
        ASSERT_EQ(Dangling.size(), Evicted.size());
        for (size_t V = 0; V < Evicted.size(); ++V) {
          uint32_t Expected = 0;
          for (SuperblockId S = 0; S < NumIds; ++S)
            if (Cache.contains(S))
              Expected += Multiplicity(S, Evicted[V].Id);
          ASSERT_EQ(Dangling[V], Expected)
              << "seed " << Seed << " step " << Step << " victim "
              << Evicted[V].Id;
        }
      }
      Cache.commitInsert(Id, Size);
      Shape[Id] = Edges;

      uint64_t Created = 0, Inter = 0;
      const uint64_t Unit = CodeCache::unitOf(Cache.startOf(Id), Quantum);
      const auto Count = [&](SuperblockId Other, uint32_t Times) {
        Created += Times;
        if (Other != Id &&
            CodeCache::unitOf(Cache.startOf(Other), Quantum) != Unit)
          Inter += Times;
      };
      for (SuperblockId T = 0; T < NumIds; ++T)
        if (Cache.contains(T))
          Count(T, Multiplicity(Id, T));
      for (SuperblockId S = 0; S < NumIds; ++S)
        if (S != Id && Cache.contains(S))
          Count(S, Multiplicity(S, Id));
      const CacheStats Before = Stats;
      Links.onInsert(Cache, Quantum, Id, Edges, Stats);
      ASSERT_EQ(Stats.LinksCreated - Before.LinksCreated, Created)
          << "seed " << Seed << " step " << Step;
      ASSERT_EQ(Stats.InterUnitLinksCreated - Before.InterUnitLinksCreated,
                Inter)
          << "seed " << Seed << " step " << Step;

      ASSERT_EQ(Links.numLinks(), LiveLinks())
          << "seed " << Seed << " step " << Step;
      ASSERT_TRUE(Cache.checkInvariants()) << "seed " << Seed;
      ASSERT_TRUE(Links.checkInvariants(Cache))
          << "seed " << Seed << " step " << Step;
    }
    EXPECT_GT(Stats.LinksCreated, 0u);
    EXPECT_GT(Reshaped, 0u) << "churn never re-translated a block";
  }
}
