//===- bench/service_stress.cpp - Thread-shared engine stress record ------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
//
// The scaling record of the thread-shared CacheEngine, in two sections:
//
//   1. Engine stress: a fixed budget of find/add/evict operations (20M by
//      default) hammered through one SharedCacheEngine by 1..K installer
//      threads (runConcurrentInstall). Every row replays the same total
//      work, so rows compare directly; each row ends in a full structural
//      audit (auditSharedEngine at the final quiesce) plus the operation
//      conservation identities.
//
//   2. Service scale-out: thousands of replay jobs (K guest threads each)
//      pushed through a bounded SimService queue faster than the workers
//      drain it, once per backpressure policy. The gate is exact
//      accounting: every submitted job ends in exactly one terminal state
//      and the tallies sum back to the submission count.
//
// Correctness (conservation, audits, accounting) is gated by
// bench/record_bench.cmake; wall-clock numbers are recorded but never
// gated. Scaling is reported honestly: misses serialize on the engine
// lock by design (the deferred-settlement contract), so find-dominated
// mixes scale and miss-dominated mixes flatten -- the record keeps both
// the rates and the contention counters that explain them.
//
// Run: ./service_stress --ops=20000000 --threads=8 --out=BENCH_service.json
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "check/CacheAuditor.h"
#include "concurrent/SharedEngineRunner.h"
#include "concurrent/ThreadPool.h"
#include "runtime/ConcurrentInstaller.h"
#include "service/LoadDriver.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ccsim;

namespace {

struct EngineRow {
  unsigned Threads = 0;
  double ElapsedMs = 0.0;
  double MopsPerSec = 0.0;
  double Speedup = 1.0;
  InstallerReport Report;
  bool ConservationOk = false;
  bool AuditClean = false;
};

struct LoadRow {
  const char *Policy = "";
  double ElapsedMs = 0.0;
  service::LoadDriverReport Report;
};

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Stress the thread-shared CacheEngine over 1..K guest "
                "threads and the SimService under sustained load, "
                "recording scaling and contention as JSON.");
  Flags.addInt("ops", 20000000,
               "Total find/add/evict operations per engine-stress row.");
  Flags.addInt("threads", 8, "Max installer threads (rows double up to "
                             "this).");
  Flags.addInt("working-set", 16384, "Distinct fragments in the shared "
                                     "working set.");
  Flags.addInt("fragment-bytes", 64, "Mean fragment size in bytes.");
  Flags.addInt("capacity-kb", 512, "Shared cache capacity in KB.");
  Flags.addInt("seed", 1, "Operation-stream seed.");
  Flags.addInt("load-jobs", 2000,
               "Shared-replay jobs per sustained-load row.");
  Flags.addInt("load-workers", 2, "Service worker threads under load.");
  Flags.addInt("load-queue", 64, "Service admission-queue capacity.");
  Flags.addInt("load-guests", 2, "Guest threads per load job.");
  Flags.addString("benchmark", "gzip",
                  "Table 1 benchmark replayed by the load jobs.");
  Flags.addDouble("load-scale", 0.05,
                  "Workload scale of the load-job trace.");
  Flags.addString("out", "BENCH_service.json",
                  "Path for the machine-readable result record.");
  if (!Flags.parse(Argc, Argv))
    return 1;
  // Every count and size is bounded before any thread starts.
  std::string Error;
  const auto OpsFlag =
      boundedIntFlag(Flags, "ops", 1, int64_t(1) << 40, &Error);
  const auto ThreadsFlag = boundedIntFlag(
      Flags, "threads", 1, concurrent::MaxGuestThreads, &Error);
  const auto WorkingSet =
      boundedIntFlag(Flags, "working-set", 1, 1 << 24, &Error);
  const auto FragmentBytes =
      boundedIntFlag(Flags, "fragment-bytes", 1, 1 << 16, &Error);
  const auto CapacityKB =
      boundedIntFlag(Flags, "capacity-kb", 1, 1 << 20, &Error);
  const auto LoadJobs =
      boundedIntFlag(Flags, "load-jobs", 1, int64_t(1) << 32, &Error);
  const auto LoadWorkers =
      boundedIntFlag(Flags, "load-workers", 0, ThreadPool::MaxThreads, &Error);
  const auto LoadQueue =
      boundedIntFlag(Flags, "load-queue", 1, 1 << 20, &Error);
  const auto LoadGuests = boundedIntFlag(
      Flags, "load-guests", 1, concurrent::MaxGuestThreads, &Error);
  if (!OpsFlag || !ThreadsFlag || !WorkingSet || !FragmentBytes || !CapacityKB ||
      !LoadJobs || !LoadWorkers || !LoadQueue || !LoadGuests) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  benchutil::printHeader("service stress",
                         "thread-shared engine scaling + service "
                         "scale-out (no paper counterpart)");

  //===--------------------------------------------------------------------===//
  // Section 1: find/add/evict stress over 1..K threads.
  //===--------------------------------------------------------------------===//

  const uint64_t Ops = static_cast<uint64_t>(*OpsFlag);
  const unsigned MaxThreads = static_cast<unsigned>(*ThreadsFlag);
  std::vector<EngineRow> Rows;
  bool ConservationOk = true;
  bool AuditClean = true;
  bool DispatchConsistent = true;
  for (unsigned T = 1; T <= MaxThreads; T *= 2) {
    InstallerConfig Config;
    Config.CapacityBytes = static_cast<uint64_t>(*CapacityKB) << 10;
    Config.Threads = T;
    Config.Operations = Ops;
    Config.WorkingSet = static_cast<uint32_t>(*WorkingSet);
    Config.MeanFragmentBytes = static_cast<uint32_t>(*FragmentBytes);
    Config.Seed = static_cast<uint64_t>(Flags.getInt("seed"));

    EngineRow Row;
    Row.Threads = T;
    Config.OnFinalQuiesce = [&Row](const SharedCacheEngine &Engine) {
      const check::AuditReport Report = check::auditSharedEngine(Engine);
      Row.AuditClean = Report.clean();
      if (!Report.clean())
        std::fprintf(stderr, "audit FAILED (%u threads):\n%s", Row.Threads,
                     Report.render().c_str());
    };

    const auto Start = std::chrono::steady_clock::now();
    Row.Report = runConcurrentInstall(Config);
    Row.ElapsedMs = msSince(Start);
    Row.MopsPerSec =
        Row.ElapsedMs > 0.0
            ? static_cast<double>(Ops) / (Row.ElapsedMs * 1000.0)
            : 0.0;
    Row.Speedup = Rows.empty() || Rows.front().MopsPerSec <= 0.0
                      ? 1.0
                      : Row.MopsPerSec / Rows.front().MopsPerSec;

    const InstallerReport &R = Row.Report;
    Row.ConservationOk =
        R.Finds + R.Misses == Ops &&
        R.Installs + R.InstallRaces + R.TooBig == R.Misses;
    ConservationOk = ConservationOk && Row.ConservationOk;
    AuditClean = AuditClean && Row.AuditClean;
    DispatchConsistent = DispatchConsistent && R.DispatchConsistent;
    Rows.push_back(Row);
  }

  Table EngineOut({"Threads", "Mops/s", "Speedup", "Finds", "Installs",
                   "Races", "Lock stalls", "Fence stalls", "Audit"});
  for (const EngineRow &Row : Rows) {
    const InstallerReport &R = Row.Report;
    EngineOut.beginRow();
    EngineOut.cell(Row.Threads);
    EngineOut.cell(Row.MopsPerSec, 2);
    EngineOut.cell(Row.Speedup, 2);
    EngineOut.cell(R.Finds);
    EngineOut.cell(R.Installs);
    EngineOut.cell(R.InstallRaces);
    EngineOut.cell(R.Contention.EngineLockStalls);
    EngineOut.cell(R.Contention.FenceSharedStalls +
                   R.Contention.FenceExclusiveStalls);
    EngineOut.cell(Row.ConservationOk && Row.AuditClean &&
                           R.DispatchConsistent
                       ? "clean"
                       : "FAILED");
  }
  std::fputs(EngineOut.render().c_str(), stdout);

  //===--------------------------------------------------------------------===//
  // Section 2: sustained service load, one row per backpressure policy.
  //===--------------------------------------------------------------------===//

  const WorkloadModel *Model = findWorkload(Flags.getString("benchmark"));
  if (!Model) {
    std::fprintf(stderr, "error: unknown benchmark '%s'\n",
                 Flags.getString("benchmark").c_str());
    return 1;
  }
  const WorkloadModel Scaled =
      Flags.getDouble("load-scale") < 0.999
          ? scaledWorkload(*Model, Flags.getDouble("load-scale"))
          : *Model;
  const Trace LoadTrace = TraceGenerator::generateBenchmark(
      Scaled, static_cast<uint64_t>(Flags.getInt("seed")));

  const service::BackpressurePolicy Policies[] = {
      service::BackpressurePolicy::ShedOldest,
      service::BackpressurePolicy::Reject,
  };
  std::vector<LoadRow> LoadRows;
  bool AccountedOk = true;
  for (service::BackpressurePolicy Policy : Policies) {
    service::LoadDriverConfig Config;
    Config.TraceData = LoadTrace;
    Config.GuestThreads = static_cast<unsigned>(*LoadGuests);
    Config.TotalJobs = static_cast<uint64_t>(*LoadJobs);
    Config.Workers = static_cast<unsigned>(*LoadWorkers);
    Config.QueueCapacity = static_cast<size_t>(*LoadQueue);
    Config.Pressure = Policy;

    LoadRow Row;
    Row.Policy = service::backpressurePolicyName(Policy);
    const auto Start = std::chrono::steady_clock::now();
    Row.Report = service::runSustainedLoad(Config);
    Row.ElapsedMs = msSince(Start);
    AccountedOk = AccountedOk && Row.Report.Accounted;
    LoadRows.push_back(Row);
  }

  Table LoadOut({"Backpressure", "Jobs", "Done", "Shed", "Rejected",
                 "Jobs/s", "Accounted"});
  for (const LoadRow &Row : LoadRows) {
    const service::LoadDriverReport &R = Row.Report;
    LoadOut.beginRow();
    LoadOut.cell(Row.Policy);
    LoadOut.cell(R.Submitted);
    LoadOut.cell(R.Done);
    LoadOut.cell(R.Shed);
    LoadOut.cell(R.Rejected);
    LoadOut.cell(Row.ElapsedMs > 0.0
                     ? static_cast<double>(R.Submitted) /
                           (Row.ElapsedMs / 1000.0)
                     : 0.0,
                 0);
    LoadOut.cell(R.Accounted ? "yes" : "NO");
  }
  std::fputs(LoadOut.render().c_str(), stdout);

  const bool AllClean =
      ConservationOk && AuditClean && DispatchConsistent && AccountedOk;
  std::printf("\n%s: conservation %s, audits %s, dispatch %s, "
              "accounting %s\n",
              AllClean ? "clean" : "FAILED",
              ConservationOk ? "ok" : "VIOLATED",
              AuditClean ? "clean" : "VIOLATED",
              DispatchConsistent ? "consistent" : "VIOLATED",
              AccountedOk ? "exact" : "VIOLATED");

  //===--------------------------------------------------------------------===//
  // Record
  //===--------------------------------------------------------------------===//

  const std::string OutPath = Flags.getString("out");
  std::FILE *Json = std::fopen(OutPath.c_str(), "w");
  if (!Json) {
    std::fprintf(stderr, "error: could not write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Json,
               "{\n"
               "  \"bench\": \"service_stress\",\n"
               "  \"ops\": %llu,\n"
               "  \"threads_max\": %u,\n"
               "  \"working_set\": %lld,\n"
               "  \"capacity_bytes\": %llu,\n"
               "  \"seed\": %lld,\n"
               "  \"conservation_ok\": %s,\n"
               "  \"audit_clean\": %s,\n"
               "  \"dispatch_consistent\": %s,\n"
               "  \"accounted_ok\": %s,\n"
               "  \"engine_rows\": [\n",
               static_cast<unsigned long long>(Ops), MaxThreads,
               static_cast<long long>(*WorkingSet),
               static_cast<unsigned long long>(
                   static_cast<uint64_t>(*CapacityKB) << 10),
               static_cast<long long>(Flags.getInt("seed")),
               ConservationOk ? "true" : "false",
               AuditClean ? "true" : "false",
               DispatchConsistent ? "true" : "false",
               AccountedOk ? "true" : "false");
  for (size_t I = 0; I < Rows.size(); ++I) {
    const EngineRow &Row = Rows[I];
    const InstallerReport &R = Row.Report;
    std::fprintf(
        Json,
        "    {\"threads\": %u, \"elapsed_ms\": %.3f, "
        "\"mops_per_sec\": %.3f, \"speedup\": %.3f, "
        "\"finds\": %llu, \"misses\": %llu, \"installs\": %llu, "
        "\"install_races\": %llu, \"too_big\": %llu, "
        "\"evicted_blocks\": %llu, \"fast_hits\": %llu, "
        "\"engine_lock_stalls\": %llu, \"engine_lock_wait_us\": %llu, "
        "\"fence_shared_stalls\": %llu, \"fence_exclusive_stalls\": %llu, "
        "\"dispatch_entries\": %llu}%s\n",
        Row.Threads, Row.ElapsedMs, Row.MopsPerSec, Row.Speedup,
        static_cast<unsigned long long>(R.Finds),
        static_cast<unsigned long long>(R.Misses),
        static_cast<unsigned long long>(R.Installs),
        static_cast<unsigned long long>(R.InstallRaces),
        static_cast<unsigned long long>(R.TooBig),
        static_cast<unsigned long long>(R.Stats.EvictedBlocks),
        static_cast<unsigned long long>(R.Contention.FastHits),
        static_cast<unsigned long long>(R.Contention.EngineLockStalls),
        static_cast<unsigned long long>(R.Contention.EngineLockWaitMicros),
        static_cast<unsigned long long>(R.Contention.FenceSharedStalls),
        static_cast<unsigned long long>(R.Contention.FenceExclusiveStalls),
        static_cast<unsigned long long>(R.DispatchEntries),
        I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(Json, "  ],\n  \"load_rows\": [\n");
  for (size_t I = 0; I < LoadRows.size(); ++I) {
    const LoadRow &Row = LoadRows[I];
    const service::LoadDriverReport &R = Row.Report;
    std::fprintf(
        Json,
        "    {\"backpressure\": \"%s\", \"elapsed_ms\": %.3f, "
        "\"submitted\": %llu, \"done\": %llu, \"failed\": %llu, "
        "\"cancelled\": %llu, \"timed_out\": %llu, \"rejected\": %llu, "
        "\"shed\": %llu, \"accesses_replayed\": %llu, "
        "\"accounted\": %s}%s\n",
        Row.Policy, Row.ElapsedMs,
        static_cast<unsigned long long>(R.Submitted),
        static_cast<unsigned long long>(R.Done),
        static_cast<unsigned long long>(R.Failed),
        static_cast<unsigned long long>(R.Cancelled),
        static_cast<unsigned long long>(R.TimedOut),
        static_cast<unsigned long long>(R.Rejected),
        static_cast<unsigned long long>(R.Shed),
        static_cast<unsigned long long>(R.AccessesReplayed),
        R.Accounted ? "true" : "false",
        I + 1 < LoadRows.size() ? "," : "");
  }
  std::fprintf(Json, "  ]\n}\n");
  std::fclose(Json);
  std::printf("record written to %s\n", OutPath.c_str());
  return AllClean ? 0 : 2;
}
