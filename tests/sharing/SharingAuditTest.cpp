//===- tests/sharing/SharingAuditTest.cpp - share.* audit family ----------===//
//
// checkContentIndex against forged snapshots: every share.* audit rule
// must fire on exactly the corruption it names and stay silent on a
// healthy fleet. Then the live path: armSharedTenancyAuditors over real
// engines sharing one index, auditing after every mutation including the
// unshare drain, must come back clean.
//
//===----------------------------------------------------------------------===//

#include "check/CacheAuditor.h"
#include "check/Paranoia.h"
#include "core/CacheEngine.h"

#include "gtest/gtest.h"

#include <vector>

using namespace ccsim;
using namespace ccsim::check;

namespace {

SuperblockRecord srec(SuperblockId Id, uint32_t Size, uint64_t Key,
                      TenantId Tenant = 0) {
  SuperblockRecord R;
  R.Id = Id;
  R.SizeBytes = Size;
  R.Tenant = Tenant;
  R.ContentKey = Key;
  return R;
}

CacheEngine makeManager(SharedContentIndex *Index) {
  CacheEngineConfig Config;
  Config.CapacityBytes = 1 << 16;
  Config.ContentIndex = Index;
  return CacheEngine(Config, makePolicy(GranularitySpec::units(8)));
}

/// Two managers spanning one index: A owns the representative of key 7,
/// B holds the only live link to it.
struct SharedFleet {
  SharedContentIndex Idx;
  CacheEngine A;
  CacheEngine B;

  SharedFleet() : A(makeManager(&Idx)), B(makeManager(&Idx)) {
    EXPECT_EQ(A.access(srec(0, 256, 7, 0)), AccessKind::Miss);
    EXPECT_EQ(B.access(srec(100, 256, 7, 1)), AccessKind::SharedHit);
  }

  ContentIndexState snapshot() const { return captureContentIndex(Idx); }

  std::vector<CodeCacheState> caches() const {
    return {captureCodeCache(A.cache()), captureCodeCache(B.cache())};
  }

  CacheStats merged() const {
    CacheStats Merged;
    Merged.merge(A.stats());
    Merged.merge(B.stats());
    return Merged;
  }
};

} // namespace

TEST(SharingAuditTest, HealthyFleetAuditsClean) {
  SharedFleet F;
  AuditReport Report;
  checkContentIndex(F.snapshot(), F.caches(), F.merged(), Report);
  EXPECT_TRUE(Report.clean()) << Report.render();
}

TEST(SharingAuditTest, RefCountDriftIsCaught) {
  SharedFleet F;
  ContentIndexState S = F.snapshot();
  ASSERT_EQ(S.Entries.size(), 1u);
  S.Entries[0].RefCount += 1; // No longer 1 + live links.
  AuditReport Report;
  checkContentIndex(S, F.caches(), F.merged(), Report);
  EXPECT_TRUE(Report.has(AuditRule::ShareRefCountMismatch));
}

TEST(SharingAuditTest, NonResidentRepresentativeIsAnOrphan) {
  SharedFleet F;
  ContentIndexState S = F.snapshot();
  S.Entries[0].Representative = 999; // Resident in no spanned cache.
  AuditReport Report;
  checkContentIndex(S, F.caches(), F.merged(), Report);
  EXPECT_TRUE(Report.has(AuditRule::ShareOrphanEntry));
  EXPECT_FALSE(Report.has(AuditRule::ShareRefCountMismatch));
}

TEST(SharingAuditTest, ResidentAliasDefeatsSharing) {
  SharedFleet F;
  ContentIndexState S = F.snapshot();
  ASSERT_EQ(S.Entries[0].Links.size(), 1u);
  // Point the link at a block that is itself resident: a duplicate copy
  // the sharing machinery should have prevented.
  S.Entries[0].Links[0].Alias = 0;
  AuditReport Report;
  checkContentIndex(S, F.caches(), F.merged(), Report);
  EXPECT_TRUE(Report.has(AuditRule::ShareAliasResident));
}

TEST(SharingAuditTest, LiveLinkMirrorDriftIsCaught) {
  SharedFleet F;
  ContentIndexState S = F.snapshot();
  S.LiveLinks += 1; // Counter disagrees with the sum of entry link sets.
  AuditReport Report;
  checkContentIndex(S, F.caches(), F.merged(), Report);
  EXPECT_TRUE(Report.has(AuditRule::ShareMirrorMismatch));
}

TEST(SharingAuditTest, StatsConservationChecksMergedCounters) {
  SharedFleet F;
  CacheStats Merged = F.merged();
  Merged.SharedInstalls += 1; // Installs != unshares + live links.
  AuditReport Report;
  checkContentIndex(F.snapshot(), F.caches(), Merged, Report);
  EXPECT_TRUE(Report.has(AuditRule::ShareStatsConservation));
  EXPECT_EQ(Report.size(), 1u) << Report.render();

  // The conservation rule is gated on SharingActive: a merged stats block
  // from a sharing-disabled run never runs it.
  Merged.SharingActive = false;
  AuditReport Gated;
  checkContentIndex(F.snapshot(), F.caches(), Merged, Gated);
  EXPECT_TRUE(Gated.clean()) << Gated.render();
}

TEST(SharingAuditTest, ArmedFleetStaysCleanThroughUnshareDrains) {
  SharedFleet F;
  std::vector<std::string> Violations;
  ParanoiaOptions Options;
  Options.Level = AuditLevel::Full;
  Options.OnViolation = [&Violations](const AuditReport &Report,
                                      const char *Where) {
    Violations.push_back(std::string(Where) + ":\n" + Report.render());
  };
  armSharedTenancyAuditors({&F.A, &F.B}, F.Idx, Options);

  // More cross-engine shares, then evict the representatives: the hook
  // audits after every access and after the flush, so a drain that left
  // the index or the stats inconsistent would surface here.
  EXPECT_EQ(F.B.access(srec(101, 128, 9, 1)), AccessKind::Miss);
  EXPECT_EQ(F.A.access(srec(1, 128, 9, 0)), AccessKind::SharedHit);
  F.A.flushEntireCache();
  F.B.flushEntireCache();

  EXPECT_TRUE(Violations.empty()) << Violations.front();
  EXPECT_EQ(F.Idx.entryCount(), 0u);
  EXPECT_EQ(F.Idx.liveLinkCount(), 0u);

  // Teardown conservation over the whole fleet.
  const CacheStats Merged = F.merged();
  EXPECT_EQ(Merged.SharedInstalls, Merged.UnshareUnlinks);
}
