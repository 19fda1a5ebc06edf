//===- tests/concurrent/MultiTenantTest.cpp - Shared-cache tenancy tests --===//

#include "concurrent/MultiTenantSimulator.h"

#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"

#include "gtest/gtest.h"

#include <cmath>

using namespace ccsim;

namespace {

/// Small three-tenant trace set shared by the tests (generation is the
/// expensive part).
const std::vector<Trace> &tenantTraces() {
  static const std::vector<Trace> Traces = []() {
    std::vector<Trace> T;
    for (const char *Name : {"gzip", "vpr", "crafty"})
      T.push_back(TraceGenerator::generateBenchmark(
          scaledWorkload(*findWorkload(Name), 0.05), 42));
    return T;
  }();
  return Traces;
}

TenancyPolicy baseConfig() {
  TenancyPolicy Config;
  Config.Granularity = GranularitySpec::units(8);
  Config.PressureFactor = 2.0;
  return Config;
}

void expectTenantSumsMatchGlobal(const MultiTenantResult &R) {
  uint64_t Accesses = 0, Hits = 0, Misses = 0, Cold = 0, Capacity = 0;
  uint64_t Invocations = 0, Blocks = 0, Bytes = 0, UnlinkOps = 0, Links = 0;
  double MissOv = 0.0, EvictOv = 0.0, UnlinkOv = 0.0;
  for (const TenantResult &T : R.Tenants) {
    Accesses += T.Accesses;
    Hits += T.Hits;
    Misses += T.Misses;
    Cold += T.ColdMisses;
    Capacity += T.CapacityMisses;
    Invocations += T.EvictionInvocationsTriggered;
    Blocks += T.BlocksEvicted;
    Bytes += T.BytesEvicted;
    UnlinkOps += T.UnlinkOperations;
    Links += T.UnlinkedLinks;
    MissOv += T.MissOverhead;
    EvictOv += T.EvictionOverhead;
    UnlinkOv += T.UnlinkOverhead;
  }
  EXPECT_EQ(Accesses, R.Global.Accesses);
  EXPECT_EQ(Hits, R.Global.Hits);
  EXPECT_EQ(Misses, R.Global.Misses);
  EXPECT_EQ(Cold, R.Global.ColdMisses);
  EXPECT_EQ(Capacity, R.Global.CapacityMisses);
  EXPECT_EQ(Invocations, R.Global.EvictionInvocations);
  EXPECT_EQ(Blocks, R.Global.EvictedBlocks);
  EXPECT_EQ(Bytes, R.Global.EvictedBytes);
  EXPECT_EQ(UnlinkOps, R.Global.UnlinkOperations);
  EXPECT_EQ(Links, R.Global.UnlinkedLinks);
  // Overheads are sums of the same terms in a different order; allow
  // floating-point reassociation slack only.
  EXPECT_NEAR(MissOv, R.Global.MissOverhead, 1e-6 * (1.0 + MissOv));
  EXPECT_NEAR(EvictOv, R.Global.EvictionOverhead, 1e-6 * (1.0 + EvictOv));
  EXPECT_NEAR(UnlinkOv, R.Global.UnlinkOverhead, 1e-6 * (1.0 + UnlinkOv));

  // The cross matrix accounts for every evicted block.
  uint64_t CrossTotal = 0;
  for (uint64_t C : R.CrossEvictedBlocks)
    CrossTotal += C;
  EXPECT_EQ(CrossTotal, R.Global.EvictedBlocks);
}

} // namespace

TEST(MultiTenantTest, SharedModeSumsToGlobalStats) {
  TenancyPolicy Config = baseConfig();
  Config.Mode = PartitionMode::Shared;
  MultiTenantSimulator Sim(tenantTraces(), Config);
  const MultiTenantResult R = Sim.run();

  ASSERT_EQ(R.Tenants.size(), 3u);
  EXPECT_EQ(R.ModeLabel, "shared");
  for (const TenantResult &T : R.Tenants) {
    EXPECT_GT(T.Accesses, 0u);
    EXPECT_EQ(T.Hits + T.Misses, T.Accesses);
    EXPECT_EQ(T.ColdMisses + T.CapacityMisses, T.Misses);
  }
  expectTenantSumsMatchGlobal(R);

  // Every access of every trace was replayed.
  uint64_t Expected = 0;
  for (const Trace &T : tenantTraces())
    Expected += T.numAccesses();
  EXPECT_EQ(R.Global.Accesses, Expected);
}

TEST(MultiTenantTest, PartitionedModesSumToGlobalStats) {
  for (PartitionMode Mode :
       {PartitionMode::StaticPartition, PartitionMode::UnitQuota}) {
    TenancyPolicy Config = baseConfig();
    Config.Mode = Mode;
    MultiTenantSimulator Sim(tenantTraces(), Config);
    expectTenantSumsMatchGlobal(Sim.run());
  }
}

TEST(MultiTenantTest, SharedModeShowsCrossTenantEvictions) {
  // Under real pressure a fully shared FIFO cannot protect tenants from
  // each other: some block must eventually be evicted by a foreign miss.
  TenancyPolicy Config = baseConfig();
  Config.Mode = PartitionMode::Shared;
  Config.PressureFactor = 4.0;
  MultiTenantSimulator Sim(tenantTraces(), Config);
  const MultiTenantResult R = Sim.run();
  uint64_t LostToOthers = 0;
  for (size_t T = 0; T < R.Tenants.size(); ++T) {
    EXPECT_EQ(R.Tenants[T].BlocksLostToOthers, R.blocksLostToOthers(T));
    LostToOthers += R.Tenants[T].BlocksLostToOthers;
  }
  EXPECT_GT(LostToOthers, 0u);
}

TEST(MultiTenantTest, StaticPartitioningIsolatesTenants) {
  // Thrash the cache hard: even then, a tenant's blocks may only be
  // evicted by its own misses under static partitioning.
  TenancyPolicy Config = baseConfig();
  Config.Mode = PartitionMode::StaticPartition;
  Config.PressureFactor = 8.0;
  MultiTenantSimulator Sim(tenantTraces(), Config);
  const MultiTenantResult R = Sim.run();

  const size_t K = R.Tenants.size();
  uint64_t Evictions = 0;
  for (size_t E = 0; E < K; ++E)
    for (size_t V = 0; V < K; ++V) {
      if (E != V) {
        EXPECT_EQ(R.crossEvictions(E, V), 0u)
            << R.Tenants[E].Name << " evicted " << R.Tenants[V].Name;
      }
      Evictions += R.crossEvictions(E, V);
    }
  EXPECT_GT(Evictions, 0u) << "test must actually exercise eviction";
  for (const TenantResult &T : R.Tenants)
    EXPECT_EQ(T.BlocksLostToOthers, 0u);
}

TEST(MultiTenantTest, UnitQuotaIsolatesAndUsesWholeUnits) {
  TenancyPolicy Config = baseConfig();
  Config.Mode = PartitionMode::UnitQuota;
  Config.PressureFactor = 8.0;
  MultiTenantSimulator Sim(tenantTraces(), Config);

  // Quotas are whole units of the shared cache.
  const uint64_t UnitBytes =
      std::max<uint64_t>(1, Sim.totalCapacityBytes() / 8);
  for (size_t T = 0; T < tenantTraces().size(); ++T)
    EXPECT_EQ(Sim.tenantCapacityBytes(T) % UnitBytes, 0u);

  const MultiTenantResult R = Sim.run();
  for (const TenantResult &T : R.Tenants)
    EXPECT_EQ(T.BlocksLostToOthers, 0u);
}

TEST(MultiTenantTest, RunsAreDeterministic) {
  for (InterleaveKind Schedule :
       {InterleaveKind::RoundRobin, InterleaveKind::Weighted}) {
    TenancyPolicy Config = baseConfig();
    Config.Mode = PartitionMode::Shared;
    Config.Schedule = Schedule;
    Config.Tenants = {{1.0}, {2.5}, {0.5}};
    MultiTenantSimulator A(tenantTraces(), Config);
    MultiTenantSimulator B(tenantTraces(), Config);
    const MultiTenantResult RA = A.run();
    const MultiTenantResult RB = B.run();
    ASSERT_EQ(RA.Tenants.size(), RB.Tenants.size());
    for (size_t T = 0; T < RA.Tenants.size(); ++T) {
      EXPECT_EQ(RA.Tenants[T].Accesses, RB.Tenants[T].Accesses);
      EXPECT_EQ(RA.Tenants[T].Misses, RB.Tenants[T].Misses);
      EXPECT_EQ(RA.Tenants[T].BlocksEvicted, RB.Tenants[T].BlocksEvicted);
      EXPECT_EQ(RA.Tenants[T].MissOverhead, RB.Tenants[T].MissOverhead);
    }
    EXPECT_EQ(RA.CrossEvictedBlocks, RB.CrossEvictedBlocks);
  }
}

TEST(MultiTenantTest, WeightedScheduleConsumesEveryStream) {
  TenancyPolicy Config = baseConfig();
  Config.Mode = PartitionMode::StaticPartition;
  Config.Schedule = InterleaveKind::Weighted;
  Config.Tenants = {{4.0}, {1.0}, {1.0}};
  MultiTenantSimulator Sim(tenantTraces(), Config);
  const MultiTenantResult R = Sim.run();
  for (size_t T = 0; T < R.Tenants.size(); ++T)
    EXPECT_EQ(R.Tenants[T].Accesses, tenantTraces()[T].numAccesses());
}

TEST(MultiTenantTest, FullyAuditedRunMatchesUnaudited) {
  // Arming the deep auditor on every tenant manager (which aborts on the
  // first violation) both certifies the shared-cache structures after
  // every mutation and must not perturb the simulation itself.
  TenancyPolicy Plain = baseConfig();
  Plain.Mode = PartitionMode::Shared;
  Plain.Audit = AuditLevel::Off;
  TenancyPolicy Audited = Plain;
  Audited.Audit = AuditLevel::Full;

  MultiTenantSimulator A(tenantTraces(), Plain);
  MultiTenantSimulator B(tenantTraces(), Audited);
  const MultiTenantResult RA = A.run();
  const MultiTenantResult RB = B.run();

  EXPECT_EQ(RA.Global.Accesses, RB.Global.Accesses);
  EXPECT_EQ(RA.Global.Misses, RB.Global.Misses);
  EXPECT_EQ(RA.Global.EvictedBlocks, RB.Global.EvictedBlocks);
  EXPECT_EQ(RA.Global.LinksCreated, RB.Global.LinksCreated);
  ASSERT_EQ(RA.Tenants.size(), RB.Tenants.size());
  for (size_t T = 0; T < RA.Tenants.size(); ++T) {
    EXPECT_EQ(RA.Tenants[T].Misses, RB.Tenants[T].Misses);
    EXPECT_EQ(RA.Tenants[T].BlocksEvicted, RB.Tenants[T].BlocksEvicted);
  }
  EXPECT_GT(RB.Global.EvictedBlocks, 0u);
  expectTenantSumsMatchGlobal(RB);
}

TEST(MultiTenantTest, PolicyIsBuiltOnAValidatedSimConfig) {
  // The base carries over whole; only the tenancy fields take defaults.
  SimConfig Base;
  Base.PressureFactor = 6.0;
  Base.EnableChaining = false;
  Base.CancelCheckInterval = 7;
  const TenancyPolicy Policy(Base);
  EXPECT_DOUBLE_EQ(Policy.PressureFactor, 6.0);
  EXPECT_FALSE(Policy.EnableChaining);
  EXPECT_EQ(Policy.CancelCheckInterval, 7u);
  EXPECT_EQ(Policy.Mode, PartitionMode::Shared);
  EXPECT_TRUE(Policy.validate().empty());

  // The capacity is the serial simulator's derivation over the summed
  // maxCache, not a copy of it.
  uint64_t SuiteMaxCache = 0;
  for (const Trace &T : tenantTraces())
    SuiteMaxCache += T.maxCacheBytes();
  MultiTenantSimulator Sim(tenantTraces(), Policy);
  EXPECT_EQ(Sim.totalCapacityBytes(), sim::capacityFor(SuiteMaxCache, Base));
}

TEST(MultiTenantTest, TenantListIsEmptyOrOneSpecPerTrace) {
  TenancyPolicy Policy = baseConfig();
  EXPECT_TRUE(Policy.validateTenantCount(3).empty()); // All weigh 1.0.
  Policy.Tenants = {{1.0}, {2.0}, {3.0}};
  EXPECT_TRUE(Policy.validateTenantCount(3).empty());
  EXPECT_EQ(Policy.validateTenantCount(2), "2 traces but 3 tenant specs");
  EXPECT_EQ(Policy.validateTenantCount(4), "4 traces but 3 tenant specs");
  // The count is its own rule: validate() knows no trace list.
  EXPECT_TRUE(Policy.validate().empty());
}

TEST(MultiTenantTest, TenancyGridIsStrictAndGranularityMajor) {
  TenancyPolicy Base = baseConfig();
  Base.PressureFactor = 3.0;
  std::string Error;
  const auto Grid = makeTenancyGrid(Base, "flush,8", "shared,quota", &Error);
  ASSERT_TRUE(Grid) << Error;
  ASSERT_EQ(Grid->size(), 4u);
  EXPECT_EQ((*Grid)[1].Granularity.label(), "FLUSH");
  EXPECT_EQ((*Grid)[1].Mode, PartitionMode::UnitQuota);
  EXPECT_EQ((*Grid)[2].Granularity.label(), "8-unit");
  EXPECT_EQ((*Grid)[2].Mode, PartitionMode::Shared);
  for (const TenancyPolicy &P : *Grid)
    EXPECT_DOUBLE_EQ(P.PressureFactor, 3.0);

  EXPECT_FALSE(makeTenancyGrid(Base, "8,bogus", "shared", &Error));
  EXPECT_NE(Error.find("bad policy"), std::string::npos) << Error;
  EXPECT_FALSE(makeTenancyGrid(Base, "8", "shared,split", &Error));
  EXPECT_NE(Error.find("unknown mode"), std::string::npos) << Error;
  Base.PressureFactor = std::nan("");
  EXPECT_FALSE(makeTenancyGrid(Base, "8", "shared", &Error));
  EXPECT_NE(Error.find("pressure factor"), std::string::npos) << Error;
}
