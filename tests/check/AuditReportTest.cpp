//===- tests/check/AuditReportTest.cpp - Audit report type tests ----------===//

#include "check/AuditReport.h"

#include "gtest/gtest.h"

#include <set>
#include <string>

using namespace ccsim;
using namespace ccsim::check;

namespace {

constexpr AuditRule AllRules[] = {
    AuditRule::CacheResidencyFlagMismatch,
    AuditRule::CacheLookupStale,
    AuditRule::CacheBlockOutOfBounds,
    AuditRule::CacheBlockOverlap,
    AuditRule::CacheOccupancyMismatch,
    AuditRule::CacheOverCapacity,
    AuditRule::CacheFifoOrderBroken,
    AuditRule::LinkEndpointNotResident,
    AuditRule::LinkBackPointerMissing,
    AuditRule::LinkBackPointerStale,
    AuditRule::LinkCountMismatch,
    AuditRule::LinkWithoutStaticEdge,
    AuditRule::LinkStaticEdgeDropped,
    AuditRule::LinkWantsStale,
    AuditRule::LinkStateLeak,
    AuditRule::LinkReverseEdgeMismatch,
    AuditRule::FreeListExtentInvalid,
    AuditRule::FreeListOutOfOrder,
    AuditRule::FreeListUncoalesced,
    AuditRule::FreeListOverlap,
    AuditRule::FreeListArenaLeak,
    AuditRule::FreeListOccupancyMismatch,
    AuditRule::FreeListLruMismatch,
    AuditRule::GenerationalDualResidency,
    AuditRule::StatsAccessSplitMismatch,
    AuditRule::StatsResidencyMismatch,
    AuditRule::StatsByteAccountingMismatch,
    AuditRule::StatsLinkAccountingMismatch,
    AuditRule::StatsEvictionAccountingMismatch,
    AuditRule::StatsBackPointerPeakLow,
    AuditRule::DispatchEntryNotResident,
    AuditRule::DispatchEntryStale,
    AuditRule::DispatchResidentUnreachable,
    AuditRule::DispatchSizeMismatch,
};

} // namespace

// Rule ids are a public testing contract (the corruption tests match on
// them); pin the exact spelling of each.
TEST(AuditReportTest, RuleIdsAreStable) {
  EXPECT_STREQ(ruleId(AuditRule::CacheResidencyFlagMismatch),
               "cache.residency-flag-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::CacheLookupStale), "cache.lookup-stale");
  EXPECT_STREQ(ruleId(AuditRule::CacheBlockOutOfBounds),
               "cache.block-out-of-bounds");
  EXPECT_STREQ(ruleId(AuditRule::CacheBlockOverlap), "cache.block-overlap");
  EXPECT_STREQ(ruleId(AuditRule::CacheOccupancyMismatch),
               "cache.occupancy-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::CacheOverCapacity), "cache.over-capacity");
  EXPECT_STREQ(ruleId(AuditRule::CacheFifoOrderBroken),
               "cache.fifo-order-broken");
  EXPECT_STREQ(ruleId(AuditRule::LinkEndpointNotResident),
               "link.endpoint-not-resident");
  EXPECT_STREQ(ruleId(AuditRule::LinkBackPointerMissing),
               "link.backpointer-missing");
  EXPECT_STREQ(ruleId(AuditRule::LinkBackPointerStale),
               "link.backpointer-stale");
  EXPECT_STREQ(ruleId(AuditRule::LinkCountMismatch), "link.count-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::LinkWithoutStaticEdge),
               "link.without-static-edge");
  EXPECT_STREQ(ruleId(AuditRule::LinkStaticEdgeDropped),
               "link.static-edge-dropped");
  EXPECT_STREQ(ruleId(AuditRule::LinkWantsStale), "link.wants-stale");
  EXPECT_STREQ(ruleId(AuditRule::LinkStateLeak), "link.state-leak");
  EXPECT_STREQ(ruleId(AuditRule::LinkReverseEdgeMismatch),
               "link.reverse-edge-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::FreeListExtentInvalid),
               "freelist.extent-invalid");
  EXPECT_STREQ(ruleId(AuditRule::FreeListOutOfOrder),
               "freelist.out-of-order");
  EXPECT_STREQ(ruleId(AuditRule::FreeListUncoalesced),
               "freelist.uncoalesced");
  EXPECT_STREQ(ruleId(AuditRule::FreeListOverlap), "freelist.overlap");
  EXPECT_STREQ(ruleId(AuditRule::FreeListArenaLeak), "freelist.arena-leak");
  EXPECT_STREQ(ruleId(AuditRule::FreeListOccupancyMismatch),
               "freelist.occupancy-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::FreeListLruMismatch),
               "freelist.lru-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::GenerationalDualResidency),
               "generational.dual-residency");
  EXPECT_STREQ(ruleId(AuditRule::StatsAccessSplitMismatch),
               "stats.access-split-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::StatsResidencyMismatch),
               "stats.residency-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::StatsByteAccountingMismatch),
               "stats.byte-accounting-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::StatsLinkAccountingMismatch),
               "stats.link-accounting-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::StatsEvictionAccountingMismatch),
               "stats.eviction-accounting-mismatch");
  EXPECT_STREQ(ruleId(AuditRule::StatsBackPointerPeakLow),
               "stats.backpointer-peak-low");
  EXPECT_STREQ(ruleId(AuditRule::DispatchEntryNotResident),
               "dispatch.entry-not-resident");
  EXPECT_STREQ(ruleId(AuditRule::DispatchEntryStale),
               "dispatch.entry-stale");
  EXPECT_STREQ(ruleId(AuditRule::DispatchResidentUnreachable),
               "dispatch.resident-unreachable");
  EXPECT_STREQ(ruleId(AuditRule::DispatchSizeMismatch),
               "dispatch.size-mismatch");
}

TEST(AuditReportTest, RuleIdsAreUniqueAndHintsNonEmpty) {
  std::set<std::string> Ids;
  for (AuditRule Rule : AllRules) {
    EXPECT_TRUE(Ids.insert(ruleId(Rule)).second)
        << "duplicate id " << ruleId(Rule);
    EXPECT_NE(std::string(ruleFixHint(Rule)), "");
    EXPECT_EQ(ruleSeverity(Rule), AuditSeverity::Error);
  }
  EXPECT_EQ(Ids.size(), std::size(AllRules));
}

TEST(AuditReportTest, StartsClean) {
  AuditReport Report;
  EXPECT_TRUE(Report.clean());
  EXPECT_EQ(Report.size(), 0u);
  EXPECT_EQ(Report.render(), "");
  EXPECT_FALSE(Report.has(AuditRule::CacheBlockOverlap));
}

TEST(AuditReportTest, AddFormatsMessageAndKeepsIds) {
  AuditReport Report;
  Report.add(AuditRule::CacheBlockOverlap, {3, 7},
             "blocks %u and %u collide", 3u, 7u);
  ASSERT_EQ(Report.size(), 1u);
  EXPECT_FALSE(Report.clean());
  EXPECT_TRUE(Report.has(AuditRule::CacheBlockOverlap));
  const AuditViolation &V = Report.violations().front();
  EXPECT_EQ(V.Rule, AuditRule::CacheBlockOverlap);
  EXPECT_EQ(V.Severity, AuditSeverity::Error);
  EXPECT_EQ(V.OffendingIds, (std::vector<uint64_t>{3, 7}));
  EXPECT_EQ(V.Message, "blocks 3 and 7 collide");
}

TEST(AuditReportTest, RenderCarriesIdMessageAndHint) {
  AuditReport Report;
  Report.add(AuditRule::FreeListArenaLeak, {128}, "gap at %u", 128u);
  const std::string Text = Report.render();
  EXPECT_NE(Text.find("freelist.arena-leak"), std::string::npos);
  EXPECT_NE(Text.find("[128]"), std::string::npos);
  EXPECT_NE(Text.find("gap at 128"), std::string::npos);
  EXPECT_NE(Text.find("hint:"), std::string::npos);
}

TEST(AuditReportTest, MergeAndCountOf) {
  AuditReport A;
  A.add(AuditRule::LinkCountMismatch, {}, "a");
  A.add(AuditRule::LinkCountMismatch, {}, "b");
  AuditReport B;
  B.add(AuditRule::CacheOverCapacity, {}, "c");
  A.merge(B);
  EXPECT_EQ(A.size(), 3u);
  EXPECT_EQ(A.countOf(AuditRule::LinkCountMismatch), 2u);
  EXPECT_EQ(A.countOf(AuditRule::CacheOverCapacity), 1u);
  EXPECT_EQ(A.countOf(AuditRule::CacheLookupStale), 0u);
}
