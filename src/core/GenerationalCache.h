//===- core/GenerationalCache.h - Lifetime-segregated code caches --------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-cache extension the paper cites in Section 2.2: "This idea
/// has been extended to support multiple superblock code caches that are
/// distinguished by the lifetimes of the superblocks they contain [15]"
/// (Hazelwood & Smith, MICRO 2003: generational cache management).
///
/// Two caches share the capacity budget: a *nursery* absorbs newly
/// translated superblocks, and blocks that keep getting regenerated
/// (evicted and re-translated PromoteAfterInserts times) are classified
/// long-lived and placed in the *tenured* cache, where phase-change
/// churn cannot evict them. Both caches evict with unit-FIFO policies.
///
/// Chaining state is not modeled across the generations (the comparison
/// bench evaluates miss + eviction overheads, the Figure 10/11 model).
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_GENERATIONALCACHE_H
#define CCSIM_CORE_GENERATIONALCACHE_H

#include "core/CacheEngine.h" // AccessKind
#include "core/CacheStats.h"
#include "core/CodeCache.h"
#include "core/CostModel.h"
#include "core/Superblock.h"

#include <cstdint>
#include <vector>

namespace ccsim {

/// Configuration for the two-generation cache.
struct GenerationalConfig {
  uint64_t CapacityBytes = 1 << 20; ///< Total budget across generations.
  double TenuredFraction = 0.5;     ///< Share given to the tenured cache.
  uint32_t PromoteAfterInserts = 3; ///< Regenerations before tenuring.
  unsigned NurseryUnits = 8;        ///< Unit-FIFO grain of the nursery.
  unsigned TenuredUnits = 8;        ///< Unit-FIFO grain of tenured.
  CostModel Costs = CostModel::paperDefaults();
};

/// A two-generation code cache manager (nursery + tenured).
class GenerationalCacheManager {
public:
  explicit GenerationalCacheManager(const GenerationalConfig &Config);

  /// Processes one superblock dispatch event.
  AccessKind access(const SuperblockRecord &Rec);

  const CacheStats &stats() const { return Stats; }
  const CodeCache &nursery() const { return Nursery; }
  const CodeCache &tenured() const { return Tenured; }
  uint64_t promotions() const { return Promotions; }
  uint64_t nurseryEvictions() const { return NurseryEvictions; }
  uint64_t tenuredEvictions() const { return TenuredEvictions; }

  /// A block must reside in at most one generation; caches must be
  /// individually consistent.
  bool checkInvariants() const;

private:
  GenerationalConfig Config;
  CodeCache Nursery;
  CodeCache Tenured;
  CacheStats Stats;
  uint64_t Promotions = 0;
  uint64_t NurseryEvictions = 0;
  uint64_t TenuredEvictions = 0;

  std::vector<uint32_t> InsertCount; ///< Regenerations per id.
  std::vector<CodeCache::Resident> EvictedScratch;

  void chargeEvictions(uint64_t Bytes, size_t Blocks, uint64_t Units);
  uint32_t bumpInsertCount(SuperblockId Id);
};

} // namespace ccsim

#endif // CCSIM_CORE_GENERATIONALCACHE_H
