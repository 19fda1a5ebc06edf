//===- bench/multitenant_contention.cpp - Shared vs partitioned caches ----===//
//
// Extension experiment (multi-tenant serving): K Table 1 benchmarks run as
// tenants of ONE code cache, their dispatch streams deterministically
// interleaved. We compare the paper's eviction granularities under three
// capacity regimes:
//
//   shared           one FIFO over everyone's code: tenants evict each
//                    other (the cross-tenant matrix quantifies it),
//   static-partition capacity split by weight, full isolation,
//   unit-quota       capacity split in whole eviction units, unit-FIFO
//                    eviction inside each tenant's own quota.
//
// Output per (granularity, mode): per-tenant and aggregate miss rates and
// modeled overheads (Eqs. 2-4), plus blocks lost to other tenants.
//
// Every list is parsed before the first run: a bad granularity, mode or
// schedule, or a policy that fails validate(), exits 1 with nothing run.
//
// Run: ./multitenant_contention --tenants=gzip,vpr,crafty,twolf --scale=0.2
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "concurrent/MultiTenantSimulator.h"
#include "trace/TraceGenerator.h"

#include <cstdio>

using namespace ccsim;

namespace {

void printRun(const MultiTenantResult &R) {
  std::printf("-- %s / %s (schedule %s, capacity %s)\n", R.PolicyLabel.c_str(),
              R.ModeLabel.c_str(), R.ScheduleLabel.c_str(),
              formatBytes(R.TotalCapacityBytes).c_str());
  Table Out({"Tenant", "Capacity", "Miss rate", "Evictions", "Lost blocks",
             "Lost to others", "Overhead (instr)"});
  for (size_t T = 0; T < R.Tenants.size(); ++T) {
    const TenantResult &TR = R.Tenants[T];
    Out.beginRow();
    Out.cell(TR.Name);
    Out.cell(TR.CapacityBytes ? formatBytes(TR.CapacityBytes)
                              : std::string("(shared)"));
    Out.cell(formatPercent(TR.missRate(), 3));
    Out.cell(TR.EvictionInvocationsTriggered);
    Out.cell(TR.BlocksEvicted);
    Out.cell(TR.BlocksLostToOthers);
    Out.cell(TR.totalOverhead(true), 0);
  }
  double TenantOverhead = 0.0;
  uint64_t LostToOthers = 0;
  for (const TenantResult &TR : R.Tenants) {
    TenantOverhead += TR.totalOverhead(true);
    LostToOthers += TR.BlocksLostToOthers;
  }
  Out.beginRow();
  Out.cell("ALL");
  Out.cell(formatBytes(R.TotalCapacityBytes));
  Out.cell(formatPercent(R.aggregateMissRate(), 3));
  Out.cell(R.Global.EvictionInvocations);
  Out.cell(R.Global.EvictedBlocks);
  Out.cell(LostToOthers);
  Out.cell(TenantOverhead, 0);
  std::fputs(Out.render().c_str(), stdout);

  if (LostToOthers > 0) {
    std::printf("cross-tenant evictions (row evicts column, blocks):\n");
    std::vector<std::string> Header = {"evictor \\ victim"};
    for (const TenantResult &TR : R.Tenants)
      Header.push_back(TR.Name);
    Table Cross(Header);
    for (size_t E = 0; E < R.Tenants.size(); ++E) {
      Cross.beginRow();
      Cross.cell(R.Tenants[E].Name);
      for (size_t V = 0; V < R.Tenants.size(); ++V)
        Cross.cell(R.crossEvictions(E, V));
    }
    std::fputs(Cross.render().c_str(), stdout);
  }
  std::printf("\n");
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Multi-tenant contention: shared vs partitioned code "
                "caches across eviction granularities.");
  Flags.addString("tenants", "gzip,vpr,crafty,twolf",
                  "Comma-separated Table 1 benchmark names.");
  Flags.addString("granularities", "flush,8,fine",
                  "Comma-separated granularities (flush | fine | <units>).");
  Flags.addString("modes", "shared,static,quota",
                  "Comma-separated partition modes.");
  Flags.addString("schedule", "rr", "Interleaving: rr | weighted.");
  Flags.addDouble("pressure", 2.0,
                  "Cache pressure (capacity = sum maxCache / pressure).");
  Flags.addDouble("scale", 0.25, "Workload size multiplier.");
  Flags.addInt("seed", 42, "Trace generation seed.");
  Flags.addInt("schedule-seed", 0x7e9a9751LL, "Weighted schedule seed.");
  if (!Flags.parse(Argc, Argv))
    return 1;

  std::string Error;
  const auto Schedule =
      parseInterleaveKind(Flags.getString("schedule"), &Error);
  if (!Schedule) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  TenancyPolicy Base;
  Base.PressureFactor = Flags.getDouble("pressure");
  Base.Schedule = *Schedule;
  Base.ScheduleSeed = static_cast<uint64_t>(Flags.getInt("schedule-seed"));
  const auto Grid = makeTenancyGrid(Base, Flags.getString("granularities"),
                                    Flags.getString("modes"), &Error);
  if (!Grid) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  benchutil::printHeader(
      "Multi-tenant contention: shared code caches across guests",
      "extension of Sections 4-5 (ShareJIT/Memshare-style multi-tenancy)");

  std::vector<Trace> Traces;
  for (const std::string &Name : splitList(Flags.getString("tenants"))) {
    const WorkloadModel *M = findWorkload(Name);
    if (!M) {
      std::fprintf(stderr, "error: unknown benchmark '%s'\n", Name.c_str());
      return 1;
    }
    WorkloadModel Chosen = *M;
    if (Flags.getDouble("scale") < 0.999)
      Chosen = scaledWorkload(*M, Flags.getDouble("scale"));
    Traces.push_back(TraceGenerator::generateBenchmark(
        Chosen, static_cast<uint64_t>(Flags.getInt("seed"))));
  }
  if (Traces.size() < 2) {
    std::fprintf(stderr, "error: need at least two tenants\n");
    return 1;
  }

  for (const TenancyPolicy &Policy : *Grid)
    printRun(MultiTenantSimulator(Traces, Policy).run());
  return 0;
}
