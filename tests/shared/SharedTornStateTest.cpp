//===- tests/shared/SharedTornStateTest.cpp - Forged torn index states ----===//
//
// Negative coverage for the shared.* audit family: forge the exact torn
// states a racy residency index could reach -- a stale entry pointing at
// an evicted block, a resident block the index forgot, an entry filed
// under the wrong eviction-fence region -- and assert checkSharedIndex
// names each with its precise rule. The positive side (clean states stay
// clean) rides along; live-engine audits are in SharedEngineTest and the
// stress suite, this file owns the seeded-corruption matrix.
//
//===----------------------------------------------------------------------===//

#include "check/CacheAuditor.h"

#include "check/AuditReport.h"
#include "core/SharedCacheEngine.h"

#include "gtest/gtest.h"

#include <string>

using namespace ccsim;
using check::AuditReport;
using check::AuditRule;

namespace {

/// A cache with blocks 1, 2, 3 resident at 0/100/200, 50 bytes each.
check::CodeCacheState makeCache() {
  check::CodeCacheState Cache;
  Cache.Capacity = 400;
  Cache.OccupiedBytes = 150;
  Cache.Fifo = {{1, 0, 50}, {2, 100, 50}, {3, 200, 50}};
  Cache.Lookup = {{1, 0}, {2, 100}, {3, 200}};
  return Cache;
}

/// The matching healthy index: 4 fence regions of 100 bytes over the
/// 400-byte cache, every resident block filed under start/100.
SharedIndexState makeIndex() {
  SharedIndexState Index;
  Index.Shards = 4;
  Index.Fences = 4;
  Index.FenceBytes = 100;
  Index.Entries = {{1, 0}, {2, 1}, {3, 2}};
  return Index;
}

AuditReport audit(const SharedIndexState &Index,
                  const check::CodeCacheState &Cache) {
  AuditReport Report;
  check::checkSharedIndex(Index, Cache, Report);
  return Report;
}

} // namespace

TEST(SharedTornStateTest, HealthyIndexIsClean) {
  const AuditReport Report = audit(makeIndex(), makeCache());
  EXPECT_TRUE(Report.clean()) << Report.render();
}

TEST(SharedTornStateTest, EmptyIndexOverEmptyCacheIsClean) {
  check::CodeCacheState Cache;
  Cache.Capacity = 400;
  SharedIndexState Index;
  Index.Shards = 4;
  Index.Fences = 4;
  Index.FenceBytes = 100;
  const AuditReport Report = audit(Index, Cache);
  EXPECT_TRUE(Report.clean()) << Report.render();
}

TEST(SharedTornStateTest, StaleEntryForEvictedBlockIsNamed) {
  // Torn state: an eviction batch removed block 7 but the index teardown
  // never ran, so a guest could fast-hit into freed cache space.
  SharedIndexState Index = makeIndex();
  Index.Entries.push_back({7, 3});
  const AuditReport Report = audit(Index, makeCache());
  EXPECT_FALSE(Report.clean());
  EXPECT_EQ(Report.countOf(AuditRule::SharedIndexStaleEntry), 1u);
  EXPECT_FALSE(Report.has(AuditRule::SharedIndexMissingEntry));
  EXPECT_FALSE(Report.has(AuditRule::SharedIndexRegionMismatch));
  EXPECT_NE(Report.render().find("shared.index-stale-entry"),
            std::string::npos);
}

TEST(SharedTornStateTest, MissingEntryForResidentBlockIsNamed) {
  // Torn state: install committed to the cache but the index publish was
  // lost -- every future access to block 2 would miss spuriously.
  SharedIndexState Index = makeIndex();
  Index.Entries.erase(Index.Entries.begin() + 1);
  const AuditReport Report = audit(Index, makeCache());
  EXPECT_FALSE(Report.clean());
  EXPECT_EQ(Report.countOf(AuditRule::SharedIndexMissingEntry), 1u);
  EXPECT_FALSE(Report.has(AuditRule::SharedIndexStaleEntry));
  EXPECT_NE(Report.render().find("shared.index-missing-entry"),
            std::string::npos);
}

TEST(SharedTornStateTest, WrongFenceRegionIsNamed) {
  // Torn state: block 3 sits at offset 200 (region 2) but is indexed
  // under region 0, so its teardown fence would not cover it.
  SharedIndexState Index = makeIndex();
  Index.Entries[2].Region = 0;
  const AuditReport Report = audit(Index, makeCache());
  EXPECT_FALSE(Report.clean());
  EXPECT_EQ(Report.countOf(AuditRule::SharedIndexRegionMismatch), 1u);
  EXPECT_FALSE(Report.has(AuditRule::SharedIndexStaleEntry));
  EXPECT_NE(Report.render().find("shared.index-region-mismatch"),
            std::string::npos);
}

TEST(SharedTornStateTest, RegionBeyondLastFenceClampsToLast) {
  // Placement past the last fence boundary files under the final region
  // (the fences tile [0, capacity) with the tail region absorbing
  // overflow); an entry that agrees with the clamp is legal.
  check::CodeCacheState Cache = makeCache();
  Cache.Lookup.push_back({9, 390});
  Cache.Fifo.push_back({9, 390, 10});
  Cache.OccupiedBytes += 10;

  SharedIndexState Index = makeIndex();
  Index.Entries.push_back({9, 3}); // 390 / 100 = 3, already the last.
  EXPECT_TRUE(audit(Index, Cache).clean());

  // A fence width that would compute region 7 out of 4 must clamp to 3:
  // claiming region 3 is correct, claiming the unclamped 7 is torn.
  Index.FenceBytes = 50;
  Index.Entries = {{1, 0}, {2, 2}, {3, 3}, {9, 3}};
  EXPECT_TRUE(audit(Index, Cache).clean());
  Index.Entries.back().Region = 7;
  const AuditReport Report = audit(Index, Cache);
  EXPECT_EQ(Report.countOf(AuditRule::SharedIndexRegionMismatch), 1u);
}

TEST(SharedTornStateTest, MultipleCorruptionsAreAllReported) {
  // One torn batch can leave several inconsistencies at once; the audit
  // must enumerate all of them, not stop at the first.
  check::CodeCacheState Cache = makeCache();
  SharedIndexState Index = makeIndex();
  Index.Entries[0].Region = 2;      // Block 1: wrong region.
  Index.Entries.erase(Index.Entries.begin() + 1); // Block 2: missing.
  Index.Entries.push_back({42, 1}); // Block 42: stale.
  const AuditReport Report = audit(Index, Cache);
  EXPECT_EQ(Report.size(), 3u);
  EXPECT_TRUE(Report.has(AuditRule::SharedIndexRegionMismatch));
  EXPECT_TRUE(Report.has(AuditRule::SharedIndexMissingEntry));
  EXPECT_TRUE(Report.has(AuditRule::SharedIndexStaleEntry));
}
