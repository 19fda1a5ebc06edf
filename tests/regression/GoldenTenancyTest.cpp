//===- tests/regression/GoldenTenancyTest.cpp - Pinned multi-tenant runs --===//
//
// Bit-exact regression pins for the multi-tenant runner
// (MultiTenantSimulator). Tenants gzip, vpr and crafty at scale 0.05
// (trace seed 42, the `ccsim_cli tenants` default) run under
//
//   every partition mode x {FLUSH, 8-unit, FIFO} at pressure 4,
//   a weighted schedule with unequal tenant weights (unit quotas),
//   chaining off at an explicit capacity,
//
// and the overlap:3@0.75 suite (scale 0.25) runs once with cross-tenant
// code sharing. Each run pins its capacity, the merged counters, every
// tenant's misses and blocks lost to other tenants, and for the sharing
// run the share counters. MultiTenantTest and TenantSharingTest check
// conservation and run-to-run agreement; this table is what catches
// drift in capacity derivation, partition planning, interleaving or
// attribution. The same table is checked through the simulator directly
// and through the job path (service::executeJob), so the service's
// TenantJob is part of the pin.
//
// The values were produced by this repository. If a change legitimately
// alters them, rerun and update the table in the same commit as the
// behavioral change.
//
//===----------------------------------------------------------------------===//

#include "concurrent/MultiTenantSimulator.h"
#include "service/Job.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"
#include "workloads/Adversary.h"

#include "gtest/gtest.h"

#include <vector>

using namespace ccsim;

namespace {

constexpr size_t NumTenants = 3;

struct TenantPin {
  uint64_t Misses;
  uint64_t BlocksLostToOthers;
};

struct GoldenRun {
  const char *Label;

  // What runs.
  PartitionMode Mode;
  GranularitySpec Granularity;
  bool Weighted;          ///< Weighted schedule, tenant weights 1:2:3.
  uint64_t CapacityBytes; ///< 0 = derive from pressure 4.
  bool Chaining;
  bool ShareOverlap; ///< The overlap:3@0.75 suite with ShareCode.

  // What it must produce.
  uint64_t TotalCapacityBytes;
  uint64_t Accesses;
  uint64_t Misses;
  uint64_t EvictionInvocations;
  uint64_t EvictedBlocks;
  uint64_t UnlinkedLinks;
  TenantPin Tenants[NumTenants];
  uint64_t SharedInstalls;
  uint64_t UnshareUnlinks;
  uint64_t FinalShareLinks;
};

const GranularitySpec Flush = GranularitySpec::flush();
const GranularitySpec Unit8 = GranularitySpec::units(8);
const GranularitySpec Fine = GranularitySpec::fine();
constexpr PartitionMode Shared = PartitionMode::Shared;
constexpr PartitionMode Static = PartitionMode::StaticPartition;
constexpr PartitionMode Quota = PartitionMode::UnitQuota;

// Generated with MultiTenantSimulator over the traces below.
const GoldenRun kGolden[] = {
    // clang-format off
    // Label            Mode    Gran   Wtd    Cap    Chain  ShareOv
    //   capacity, accesses, misses, invocations, evicted, unlinked links,
    //   {tenant misses, lost to others} x 3, shared installs, unshares,
    //   final share links
    {"shared/FLUSH",    Shared, Flush, false, 0,     true,  false,
     22927, 120134, 19173, 767, 19124, 0,
     {{6210, 4882}, {6027, 3904}, {6936, 4157}}, 0, 0, 0},
    {"shared/8-unit",   Shared, Unit8, false, 0,     true,  false,
     22927, 120134, 13514, 2793, 13467, 3858,
     {{4293, 3728}, {4218, 2877}, {5003, 2506}}, 0, 0, 0},
    {"shared/FIFO",     Shared, Fine,  false, 0,     true,  false,
     22927, 120134, 12921, 5008, 12876, 4022,
     {{4116, 3536}, {4031, 2726}, {4774, 2474}}, 0, 0, 0},
    {"static/FLUSH",    Static, Flush, false, 0,     true,  false,
     22927, 120134, 14238, 1857, 12485, 0,
     {{281, 0}, {4855, 0}, {9102, 0}}, 0, 0, 0},
    {"static/8-unit",   Static, Unit8, false, 0,     true,  false,
     22927, 120134, 11965, 3597, 10214, 1983,
     {{189, 0}, {3482, 0}, {8294, 0}}, 0, 0, 0},
    {"static/FIFO",     Static, Fine,  false, 0,     true,  false,
     22927, 120134, 11881, 4236, 10129, 2088,
     {{197, 0}, {3431, 0}, {8253, 0}}, 0, 0, 0},
    {"quota/FLUSH",     Quota,  Flush, false, 0,     true,  false,
     22927, 120134, 14238, 1857, 12485, 0,
     {{281, 0}, {4855, 0}, {9102, 0}}, 0, 0, 0},
    {"quota/8-unit",    Quota,  Unit8, false, 0,     true,  false,
     22927, 120134, 13703, 3658, 13650, 1095,
     {{141, 0}, {2303, 0}, {11259, 0}}, 0, 0, 0},
    {"quota/FIFO",      Quota,  Fine,  false, 0,     true,  false,
     22927, 120134, 11881, 4236, 10129, 2088,
     {{197, 0}, {3431, 0}, {8253, 0}}, 0, 0, 0},
    {"quota/weighted",  Quota,  Unit8, true,  0,     true,  false,
     22927, 120134, 18440, 3740, 18174, 1284,
     {{7373, 0}, {2303, 0}, {8764, 0}}, 0, 0, 0},
    {"shared/no-chain", Shared, Unit8, false, 20000, false, false,
     20000, 120134, 19523, 4145, 19481, 0,
     {{6090, 5403}, {6031, 4445}, {7402, 3282}}, 0, 0, 0},
    {"shared/overlap",  Shared, Unit8, false, 0,     true,  true,
     9216, 2304, 1481, 321, 1445, 44,
     {{768, 363}, {408, 305}, {305, 243}}, 823, 809, 14},
    // clang-format on
};

const std::vector<Trace> &table1Tenants() {
  static const std::vector<Trace> Traces = [] {
    std::vector<Trace> T;
    for (const char *Name : {"gzip", "vpr", "crafty"})
      T.push_back(TraceGenerator::generateBenchmark(
          scaledWorkload(*findWorkload(Name), 0.05), 42));
    return T;
  }();
  return Traces;
}

const std::vector<Trace> &overlapTenants() {
  static const std::vector<Trace> Traces = [] {
    workloads::AdversarySpec Spec = workloads::scaledAdversary(
        *workloads::findAdversarial("overlap"), 0.25);
    Spec.Tenants = NumTenants;
    Spec.OverlapFraction = 0.75;
    return workloads::generateTenantOverlapSuite(Spec, 42);
  }();
  return Traces;
}

const std::vector<Trace> &tracesFor(const GoldenRun &Run) {
  return Run.ShareOverlap ? overlapTenants() : table1Tenants();
}

TenancyPolicy policyFor(const GoldenRun &Run) {
  TenancyPolicy Policy;
  Policy.PressureFactor = 4.0;
  Policy.ExplicitCapacityBytes = Run.CapacityBytes;
  Policy.EnableChaining = Run.Chaining;
  Policy.Mode = Run.Mode;
  Policy.Granularity = Run.Granularity;
  if (Run.Weighted) {
    Policy.Schedule = InterleaveKind::Weighted;
    Policy.Tenants = {{1.0}, {2.0}, {3.0}};
  }
  Policy.ShareCode = Run.ShareOverlap;
  return Policy;
}

void expectMatchesGolden(const GoldenRun &Want, const MultiTenantResult &Got) {
  SCOPED_TRACE(Want.Label);
  EXPECT_EQ(Got.TotalCapacityBytes, Want.TotalCapacityBytes);
  EXPECT_EQ(Got.Global.Accesses, Want.Accesses);
  EXPECT_EQ(Got.Global.Misses, Want.Misses);
  EXPECT_EQ(Got.Global.EvictionInvocations, Want.EvictionInvocations);
  EXPECT_EQ(Got.Global.EvictedBlocks, Want.EvictedBlocks);
  EXPECT_EQ(Got.Global.UnlinkedLinks, Want.UnlinkedLinks);
  ASSERT_EQ(Got.Tenants.size(), NumTenants);
  for (size_t T = 0; T < NumTenants; ++T) {
    EXPECT_EQ(Got.Tenants[T].Misses, Want.Tenants[T].Misses) << "tenant " << T;
    EXPECT_EQ(Got.Tenants[T].BlocksLostToOthers,
              Want.Tenants[T].BlocksLostToOthers)
        << "tenant " << T;
  }
  EXPECT_EQ(Got.Global.SharedInstalls, Want.SharedInstalls);
  EXPECT_EQ(Got.Global.UnshareUnlinks, Want.UnshareUnlinks);
  EXPECT_EQ(Got.FinalShareLinks, Want.FinalShareLinks);
}

} // namespace

TEST(GoldenTenancyTest, SimulatorMatchesPinnedRuns) {
  for (const GoldenRun &Run : kGolden)
    expectMatchesGolden(
        Run, MultiTenantSimulator(tracesFor(Run), policyFor(Run)).run());
}

TEST(GoldenTenancyTest, TenantJobMatchesPinnedRuns) {
  for (const GoldenRun &Run : kGolden) {
    service::TenantJob Job;
    Job.Traces = tracesFor(Run);
    Job.Policy = policyFor(Run);
    const service::JobOutcome Out = service::executeJob(Job, nullptr);
    ASSERT_EQ(Out.Status, service::JobStatus::Done) << Out.Error;
    ASSERT_TRUE(Out.Tenants.has_value());
    expectMatchesGolden(Run, *Out.Tenants);
  }
}

TEST(GoldenTenancyTest, PinnedRunsKeepTheTenancyInvariants) {
  // The table itself obeys the properties the partition modes and the
  // content index promise, so a regenerated table cannot silently pin a
  // broken run.
  for (const GoldenRun &Run : kGolden) {
    SCOPED_TRACE(Run.Label);
    uint64_t Misses = 0;
    for (const TenantPin &T : Run.Tenants) {
      Misses += T.Misses;
      if (Run.Mode != PartitionMode::Shared) {
        EXPECT_EQ(T.BlocksLostToOthers, 0u) << "partitions isolate";
      }
    }
    EXPECT_EQ(Misses, Run.Misses);
    EXPECT_EQ(Run.SharedInstalls, Run.UnshareUnlinks + Run.FinalShareLinks);
    if (!Run.ShareOverlap) {
      EXPECT_EQ(Run.SharedInstalls, 0u);
    }
  }
}
