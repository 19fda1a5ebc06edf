//===- examples/quickstart.cpp - Five-minute tour of the public API -------===//
//
// Builds a bounded code cache managed at a medium granularity (8 units),
// streams a handful of superblock dispatches through it, and prints the
// resulting statistics. This is the smallest end-to-end use of the core
// library.
//
// Run: ./quickstart
//
//===----------------------------------------------------------------------===//

#include "core/CacheEngine.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <vector>

using namespace ccsim;

int main() {
  // 1. Configure a 4 KB code cache with the paper's cost model.
  CacheEngineConfig Config;
  Config.CapacityBytes = 4096;
  Config.Costs = CostModel::paperDefaults();

  // 2. Pick an eviction policy: the cache is split into 8 equal units and
  //    the oldest unit is flushed whole when space runs out. Try
  //    GranularitySpec::flush() or ::fine() to see the extremes.
  CacheEngine Manager(Config, makePolicy(GranularitySpec::units(8)));

  // 3. Describe a few superblocks: id, translated size, and static
  //    control-flow edges (candidate chain links).
  struct Block {
    SuperblockId Id;
    uint32_t Size;
    std::vector<SuperblockId> Edges;
  };
  const std::vector<Block> Blocks = {
      {0, 300, {1}},    // Block 0 chains to block 1.
      {1, 250, {2, 0}}, // A loop back to 0 and a forward edge.
      {2, 500, {2}},    // Self-loop.
      {3, 800, {0}},    {4, 700, {3}}, {5, 900, {4}},
      {6, 650, {5}},    {7, 450, {6}},
  };

  // 4. Replay a dispatch stream: a hot loop over blocks 0-2, then a
  //    cold sweep that overflows the cache, then the loop again.
  std::vector<SuperblockId> Stream;
  for (int Rep = 0; Rep < 50; ++Rep)
    for (SuperblockId Id : {0u, 1u, 2u})
      Stream.push_back(Id);
  for (SuperblockId Id = 3; Id < 8; ++Id)
    Stream.push_back(Id);
  for (int Rep = 0; Rep < 50; ++Rep)
    for (SuperblockId Id : {0u, 1u, 2u})
      Stream.push_back(Id);

  for (SuperblockId Id : Stream) {
    SuperblockRecord Rec;
    Rec.Id = Id;
    Rec.SizeBytes = Blocks[Id].Size;
    Rec.OutEdges = std::span<const SuperblockId>(Blocks[Id].Edges);
    Manager.access(Rec);
  }

  // 5. Read the results.
  const CacheStats &S = Manager.stats();
  std::printf("policy:               %s\n", Manager.policy().name().c_str());
  std::printf("accesses:             %s\n",
              formatWithCommas(S.Accesses).c_str());
  std::printf("miss rate:            %s (%llu cold + %llu capacity)\n",
              formatPercent(S.missRate(), 2).c_str(),
              static_cast<unsigned long long>(S.ColdMisses),
              static_cast<unsigned long long>(S.CapacityMisses));
  std::printf("eviction invocations: %llu (%llu superblocks, %s)\n",
              static_cast<unsigned long long>(S.EvictionInvocations),
              static_cast<unsigned long long>(S.EvictedBlocks),
              formatBytes(S.EvictedBytes).c_str());
  std::printf("links created:        %llu (%s inter-unit)\n",
              static_cast<unsigned long long>(S.LinksCreated),
              formatPercent(S.interUnitLinkFraction(), 1).c_str());
  std::printf("modeled overhead:     %.0f instructions (miss %.0f + "
              "eviction %.0f + unlinking %.0f)\n",
              S.totalOverhead(true), S.MissOverhead, S.EvictionOverhead,
              S.UnlinkOverhead);
  std::printf("cache occupancy:      %s of %s\n",
              formatBytes(Manager.cache().occupiedBytes()).c_str(),
              formatBytes(Manager.cache().capacity()).c_str());
  return 0;
}
