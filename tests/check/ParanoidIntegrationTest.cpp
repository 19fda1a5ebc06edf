//===- tests/check/ParanoidIntegrationTest.cpp - Paranoid mode plumbing ---===//
//
// The audit hook itself: when it fires, what it observes, and that a
// fully-audited replay neither finds violations nor changes results.
//
//===----------------------------------------------------------------------===//

#include "check/Paranoia.h"

#include "check/CacheAuditor.h"
#include "concurrent/MultiTenantSimulator.h"
#include "concurrent/SharedEngineRunner.h"
#include "isa/ProgramGenerator.h"
#include "runtime/Translator.h"
#include "sim/Simulator.h"
#include "trace/TraceGenerator.h"
#include "gtest/gtest.h"

using namespace ccsim;
using namespace ccsim::check;

namespace {

SuperblockRecord rec(SuperblockId Id, uint32_t Size) {
  SuperblockRecord R;
  R.Id = Id;
  R.SizeBytes = Size;
  return R;
}

CacheEngine makeManager(uint64_t Capacity, GranularitySpec Spec) {
  CacheEngineConfig Config;
  Config.CapacityBytes = Capacity;
  return CacheEngine(Config, makePolicy(Spec));
}

Trace scaledTrace(const char *Name, double Factor) {
  const WorkloadModel *M = findWorkload(Name);
  return TraceGenerator::generateBenchmark(scaledWorkload(*M, Factor), 42);
}

} // namespace

TEST(ParanoidIntegrationTest, FullLevelAuditsEveryAccess) {
  CacheEngine M = makeManager(400, GranularitySpec::fine());
  size_t Calls = 0;
  M.setAuditLevel(AuditLevel::Full);
  M.setAuditHook([&Calls](const CacheEngine &, const char *) { ++Calls; });
  for (SuperblockId Id = 0; Id < 10; ++Id)
    M.access(rec(Id, 100)); // Capacity 400: evictions from the 5th insert.
  EXPECT_EQ(Calls, 10u);
}

TEST(ParanoidIntegrationTest, EvictionsLevelAuditsOnlyEvictingAccesses) {
  CacheEngine M = makeManager(400, GranularitySpec::fine());
  size_t Calls = 0;
  M.setAuditLevel(AuditLevel::Evictions);
  M.setAuditHook([&Calls](const CacheEngine &, const char *) { ++Calls; });
  for (SuperblockId Id = 0; Id < 4; ++Id)
    M.access(rec(Id, 100)); // Fills the cache; nothing evicted yet.
  EXPECT_EQ(Calls, 0u);
  M.access(rec(4, 100)); // First eviction.
  EXPECT_EQ(Calls, 1u);
  M.access(rec(4, 100)); // Hit: no mutation, no audit.
  EXPECT_EQ(Calls, 1u);
}

TEST(ParanoidIntegrationTest, OffLevelNeverCallsHook) {
  CacheEngine M = makeManager(400, GranularitySpec::fine());
  size_t Calls = 0;
  M.setAuditLevel(AuditLevel::Off);
  M.setAuditHook([&Calls](const CacheEngine &, const char *) { ++Calls; });
  for (SuperblockId Id = 0; Id < 10; ++Id)
    M.access(rec(Id, 100));
  EXPECT_EQ(Calls, 0u);
}

TEST(ParanoidIntegrationTest, FlushSiteIsLabeled) {
  CacheEngine M = makeManager(400, GranularitySpec::fine());
  std::vector<std::string> Sites;
  M.setAuditLevel(AuditLevel::Full);
  M.setAuditHook([&Sites](const CacheEngine &, const char *Where) {
    Sites.push_back(Where);
  });
  M.access(rec(0, 100));
  M.flushEntireCache();
  ASSERT_EQ(Sites.size(), 2u);
  EXPECT_EQ(Sites[0], "access");
  EXPECT_EQ(Sites[1], "flush");
}

TEST(ParanoidIntegrationTest, ArmedAuditorStaysQuietOnCorrectManager) {
  for (const GranularitySpec &Spec :
       {GranularitySpec::flush(), GranularitySpec::units(8),
        GranularitySpec::fine()}) {
    const Trace T = scaledTrace("gzip", 0.05);
    CacheEngineConfig Config;
    Config.CapacityBytes = T.maxCacheBytes() / 8;
    CacheEngine Manager(Config, makePolicy(Spec));

    size_t Violations = 0;
    ParanoiaOptions Opts;
    Opts.Level = AuditLevel::Full;
    Opts.OnViolation = [&Violations](const AuditReport &Report,
                                     const char *) {
      Violations += Report.size();
      ADD_FAILURE() << Report.render();
    };
    armAuditor(Manager, Opts);
    EXPECT_EQ(Manager.auditLevel(), AuditLevel::Full);

    for (SuperblockId Id : T.Accesses)
      Manager.access(T.recordFor(Id));
    EXPECT_EQ(Violations, 0u) << Spec.label();
    EXPECT_GT(Manager.stats().EvictedBlocks, 0u)
        << "run too small to exercise eviction under " << Spec.label();
  }
}

TEST(ParanoidIntegrationTest, ArmedAuditorReportsSeededStatsCorruption) {
  // End-to-end detection: corrupt a StatsState the way a lost counter
  // update would and confirm the deep checker (the same one the armed
  // hook runs) pinpoints the rule.
  CacheEngine M = makeManager(400, GranularitySpec::fine());
  for (SuperblockId Id = 0; Id < 8; ++Id)
    M.access(rec(Id, 100));
  StatsState State = captureStats(M);
  AuditReport Clean;
  checkStats(State, Clean);
  ASSERT_TRUE(Clean.clean()) << Clean.render();

  State.Stats.Inserts -= 1; // Simulate a skipped ++Stats.Inserts.
  AuditReport Report;
  checkStats(State, Report);
  EXPECT_TRUE(Report.has(AuditRule::StatsAccessSplitMismatch));
  EXPECT_TRUE(Report.has(AuditRule::StatsResidencyMismatch));
}

TEST(ParanoidIntegrationTest, AuditedSimulationMatchesUnaudited) {
  const Trace T = scaledTrace("vpr", 0.05);
  SimConfig Plain;
  Plain.PressureFactor = 8.0;
  Plain.Audit = AuditLevel::Off;
  SimConfig Audited = Plain;
  Audited.Audit = AuditLevel::Full;
  // Every runner hands the base config's handler to its auditor.
  size_t Violations = 0;
  Audited.OnViolation = [&Violations](const AuditReport &Report,
                                      const char *Where) {
    Violations += Report.size();
    ADD_FAILURE() << "after " << Where << ":\n" << Report.render();
  };

  const SimResult A = sim::run(T, GranularitySpec::units(8), Plain);
  const SimResult B = sim::run(T, GranularitySpec::units(8), Audited);
  EXPECT_EQ(A.Stats.Accesses, B.Stats.Accesses);
  EXPECT_EQ(A.Stats.Misses, B.Stats.Misses);
  EXPECT_EQ(A.Stats.EvictedBlocks, B.Stats.EvictedBlocks);
  EXPECT_EQ(A.Stats.LinksCreated, B.Stats.LinksCreated);
  EXPECT_DOUBLE_EQ(A.Stats.totalOverhead(true), B.Stats.totalOverhead(true));

  // One guest through the thread-shared runner is sim::run, audit
  // included.
  const concurrent::SharedRunResult Shared = concurrent::runShared(
      T, GranularitySpec::units(8), concurrent::SharedRunConfig(Audited, 1));
  EXPECT_TRUE(Shared.Stats == A.Stats);

  // The tenant runner arms the same auditor from the same base config.
  const std::vector<Trace> Tenants = {scaledTrace("vpr", 0.02),
                                      scaledTrace("gzip", 0.02)};
  TenancyPolicy PlainTenancy(Plain);
  PlainTenancy.Granularity = GranularitySpec::units(8);
  TenancyPolicy AuditedTenancy(Audited);
  AuditedTenancy.Granularity = GranularitySpec::units(8);
  const MultiTenantResult C =
      MultiTenantSimulator(Tenants, PlainTenancy).run();
  const MultiTenantResult D =
      MultiTenantSimulator(Tenants, AuditedTenancy).run();
  EXPECT_TRUE(C.Global == D.Global);
  EXPECT_GT(D.Global.EvictedBlocks, 0u);
  EXPECT_EQ(Violations, 0u);
}

TEST(ParanoidIntegrationTest, ArmedTranslatorStaysQuietOnCorrectRun) {
  // The execution-driven twin of ArmedAuditorStaysQuietOnCorrectManager:
  // a two-tier mini-DBT run with every install on either tier re-audited
  // (including the dispatch.* table-vs-residency family).
  ProgramSpec Spec;
  Spec.NumFunctions = 12;
  Spec.OuterIterations = 300;
  Spec.MeanCallsPerFunction = 0.5;
  Spec.RareBranchProb = 0.1;
  Spec.Seed = 2004;
  const Program P = generateProgram(Spec);
  for (const GranularitySpec &G :
       {GranularitySpec::flush(), GranularitySpec::units(8),
        GranularitySpec::fine()}) {
    TranslatorConfig Config;
    Config.CacheBytes = 2048;
    Config.BBCacheBytes = 1024;
    Config.Policy = G;
    Config.UseBasicBlockCache = true;
    Translator T(P, Config);

    size_t Violations = 0;
    ParanoiaOptions Opts;
    Opts.Level = AuditLevel::Full;
    Opts.OnViolation = [&Violations](const AuditReport &Report,
                                     const char *) {
      Violations += Report.size();
      ADD_FAILURE() << Report.render();
    };
    armAuditor(T, Opts);
    EXPECT_EQ(T.engine().auditLevel(), AuditLevel::Full);
    EXPECT_EQ(T.basicBlockEngine().auditLevel(), AuditLevel::Full);

    const TranslatorStats &S = T.run(1ULL << 40);
    EXPECT_EQ(Violations, 0u) << G.label();
    EXPECT_GT(S.EvictionInvocations, 0u)
        << "run too small to evict under " << G.label();
    EXPECT_GT(S.BBEvictionInvocations, 0u);
    EXPECT_TRUE(T.checkInvariants());
  }
}

TEST(ParanoidIntegrationTest, TranslatorInstallSitesAreLabeled) {
  ProgramSpec Spec;
  Spec.NumFunctions = 8;
  Spec.OuterIterations = 150;
  Spec.Seed = 3;
  const Program P = generateProgram(Spec);
  TranslatorConfig Config;
  Config.CacheBytes = 2048;
  Config.BBCacheBytes = 1024;
  Config.UseBasicBlockCache = true;
  Translator T(P, Config);
  armAuditor(T, {});
  std::vector<std::string> MainSites, BBSites;
  T.engine().setAuditLevel(AuditLevel::Full);
  T.engine().setAuditHook([&MainSites](const CacheEngine &, const char *Where) {
    MainSites.push_back(Where);
  });
  T.basicBlockEngine().setAuditLevel(AuditLevel::Full);
  T.basicBlockEngine().setAuditHook(
      [&BBSites](const CacheEngine &, const char *Where) {
        BBSites.push_back(Where);
      });
  T.run(1ULL << 40);
  ASSERT_FALSE(MainSites.empty());
  ASSERT_FALSE(BBSites.empty());
  for (const std::string &Site : MainSites)
    EXPECT_EQ(Site, "install");
  for (const std::string &Site : BBSites)
    EXPECT_EQ(Site, "bb-install");
}
