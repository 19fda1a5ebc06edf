//===- examples/ccsim_cli.cpp - Unified command-line driver ---------------===//
//
// One binary exposing the library's main workflows as subcommands:
//
//   ccsim_cli simulate --benchmark=crafty --policy=8 --pressure=10
//       Trace-driven simulation of one Table 1 benchmark.
//   ccsim_cli record --out=run.cct [--functions=N] [--iterations=N]
//       Run the mini-DBT on a synthetic program and save its superblock
//       log.
//   ccsim_cli gen --workload=adversarial:chain --out=chain.cct
//       Generate a synthetic workload trace and save it: the statistical
//       Table 1 --benchmark by default, or one of the adversarial
//       generators (--list prints the catalog). Every trace-consuming
//       subcommand also accepts --workload=adversarial:<name> directly.
//   ccsim_cli replay run.cct --policy=fine --pressure=4
//       Replay a saved log through the cache simulator.
//   ccsim_cli replay run.cct --guest-threads=4 [--mmap]
//       Replay through the thread-shared engine with K guest threads.
//       K=1 is the serial simulator itself; K>1 interleaves
//       guests over one sharded engine. --mmap streams the trace out of
//       a read-only mapping instead of loading it (a batch manifest's
//       replay --mmap line copies the mapping into memory instead).
//   ccsim_cli fit
//       Re-derive the paper's overhead equations from a mini-DBT run.
//   ccsim_cli suite --pressure=2 [--scale=0.2] [--jobs=N]
//       Granularity sweep over the whole Table 1 suite, parallelized over
//       N worker threads (0..256; default 0 = one per usable CPU). The
//       grid runs through the one-pass multi-configuration engine by
//       default; --sweep-mode=per-config selects dense per-point replay
//       (results are byte-identical either way).
//   ccsim_cli tenants --tenants=gzip,vpr,crafty --mode=shared
//       Multi-tenant simulation: interleave several benchmarks into one
//       shared (or partitioned) code cache.
//   ccsim_cli audit [run.cct] --policies=flush,8,fine
//       Replay a trace with the structural auditor validating every cache
//       mutation; exits nonzero at the first violated invariant.
//   ccsim_cli audit --dbt --policies=flush,8,fine
//       Same auditor over the execution-driven path: the mini-DBT runs
//       two-tier with every install re-validated (including the
//       dispatch-table-vs-residency rules).
//   ccsim_cli audit run.cct --guest-threads=4 [--quiesce-interval=N]
//       Audit the thread-shared engine under K concurrent guests: the
//       full shared-engine rule set (placement, chaining, stats,
//       residency index) runs at every quiesce point and at the end.
//   ccsim_cli batch jobs.mf [--jobs=N] [--queue=N] [--backpressure=...]
//       Run a manifest of simulate/replay/suite/tenants jobs through the
//       asynchronous SimService. Output is byte-identical to running the
//       same manifest with --serial (one job at a time on this thread);
//       --verify-serial checks that property on every run.
//   ccsim_cli help [subcommand]
//       This overview, or the full flag reference of one subcommand.
//
// The Subcommands table is the one list of verbs. A row with a job
// builder is a job verb: one generic runner executes it as a subcommand,
// and a batch manifest accepts exactly those verbs, built by the same
// builder from the same flags.
//
// Exit codes are uniform across subcommands: 0 on success, 1 on usage
// errors (bad flags, unknown benchmarks/policies, an out-of-range count
// or size such as --jobs, --guest-threads or the mini-DBT's --functions,
// malformed manifests), 2 on runtime failures (I/O such as an unreadable
// trace or manifest, failed jobs, audit violations). A usage error ends
// the run before any replay: audit parses its whole --policies list first.
//
//===----------------------------------------------------------------------===//

#include "analysis/Aggregate.h"
#include "analysis/OverheadFit.h"
#include "check/CacheAuditor.h"
#include "check/Paranoia.h"
#include "concurrent/MultiTenantSimulator.h"
#include "concurrent/SharedEngineRunner.h"
#include "isa/ProgramGenerator.h"
#include "runtime/SystemProfiles.h"
#include "runtime/Translator.h"
#include "service/SimService.h"
#include "sim/Sweep.h"
#include "support/Flags.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "telemetry/Exporters.h"
#include "trace/MappedTrace.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceIO.h"

#include "SimFlags.h"
#include "TelemetryFlags.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>
#include <vector>

using namespace ccsim;

namespace {

// Uniform exit codes (see the file header).
constexpr int ExitOk = 0;
constexpr int ExitUsage = 1;
constexpr int ExitRuntime = 2;

/// Reports a flag or config error; returns the usage exit code.
int usageError(const std::string &Error) {
  std::fprintf(stderr, "error: %s\n", Error.c_str());
  return ExitUsage;
}

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

//===----------------------------------------------------------------------===//
// Result rendering, shared between the serial subcommands and `batch`.
// Rendering is a pure function of the results, so identical results render
// to identical bytes -- the property the batch round-trip test pins.
//===----------------------------------------------------------------------===//

std::string renderSimResult(const SimResult &R) {
  std::string Out;
  appendf(Out, "benchmark %s under %s (cache %s of maxCache %s)\n",
          R.BenchmarkName.c_str(), R.PolicyName.c_str(),
          formatBytes(R.CapacityBytes).c_str(),
          formatBytes(R.MaxCacheBytes).c_str());
  const CacheStats &S = R.Stats;
  appendf(Out,
          "  accesses %s | miss rate %s | evictions %s | inter-unit "
          "links %s\n",
          formatWithCommas(S.Accesses).c_str(),
          formatPercent(S.missRate(), 3).c_str(),
          formatWithCommas(S.EvictionInvocations).c_str(),
          formatPercent(S.interUnitLinkFraction(), 1).c_str());
  appendf(Out,
          "  overhead: %.0f instructions (miss %.0f + eviction %.0f "
          "+ unlink %.0f)\n",
          S.totalOverhead(true), S.MissOverhead, S.EvictionOverhead,
          S.UnlinkOverhead);
  return Out;
}

std::string renderSuiteResults(const std::vector<SuiteResult> &Results) {
  const auto Rel = relativeOverheadPerBenchmarkMean(Results, true);
  Table Out({"Granularity", "Miss rate", "Evictions", "Rel overhead"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(formatPercent(Results[I].Combined.missRate(), 3));
    Out.cell(Results[I].Combined.EvictionInvocations);
    Out.cell(Rel[I], 3);
  }
  return Out.render();
}

std::string renderTenantResult(const MultiTenantResult &R) {
  std::string Head;
  appendf(Head, "%s / %s over %zu tenants (capacity %s, schedule %s)\n",
          R.PolicyLabel.c_str(), R.ModeLabel.c_str(), R.Tenants.size(),
          formatBytes(R.TotalCapacityBytes).c_str(),
          R.ScheduleLabel.c_str());
  Table Out({"Tenant", "Miss rate", "Lost blocks", "Lost to others",
             "Overhead (instr)"});
  for (const TenantResult &TR : R.Tenants) {
    Out.beginRow();
    Out.cell(TR.Name);
    Out.cell(formatPercent(TR.missRate(), 3));
    Out.cell(TR.BlocksEvicted);
    Out.cell(TR.BlocksLostToOthers);
    Out.cell(TR.totalOverhead(true), 0);
  }
  Out.beginRow();
  Out.cell("ALL");
  Out.cell(formatPercent(R.aggregateMissRate(), 3));
  Out.cell(R.Global.EvictedBlocks);
  uint64_t Lost = 0;
  for (size_t T = 0; T < R.Tenants.size(); ++T)
    Lost += R.Tenants[T].BlocksLostToOthers;
  Out.cell(Lost);
  Out.cell(R.Global.totalOverhead(true), 0);
  std::string Tail;
  if (R.Global.SharingActive)
    appendf(Tail,
            "sharing: %llu shared installs (%s duplicate bytes avoided), "
            "%llu unshare unlinks; %llu entries / %llu links live at end\n",
            static_cast<unsigned long long>(R.Global.SharedInstalls),
            formatBytes(R.Global.SharedBytesSaved).c_str(),
            static_cast<unsigned long long>(R.Global.UnshareUnlinks),
            static_cast<unsigned long long>(R.FinalSharedEntries),
            static_cast<unsigned long long>(R.FinalShareLinks));
  return Head + Out.render() + Tail;
}

/// Renders whatever payload a terminal outcome carries.
std::string renderOutcome(const service::JobOutcome &O) {
  std::string Out;
  for (const SimResult &R : O.Replay)
    Out += renderSimResult(R);
  if (!O.Suite.empty())
    Out += renderSuiteResults(O.Suite);
  if (O.Tenants)
    Out += renderTenantResult(*O.Tenants);
  return Out;
}

//===----------------------------------------------------------------------===//
// Job builders, shared between the serial subcommands and the batch
// manifest parser. Each consumes the same FlagSet its subcommand declares,
// so a manifest line means exactly what the equivalent command line means.
//===----------------------------------------------------------------------===//

/// Suite engines are expensive (trace generation for the whole Table 1
/// suite), so manifest lines with the same (workload, scale, seed, jobs)
/// share one.
using EngineCache =
    std::map<std::tuple<std::string, double, int64_t, unsigned>,
             std::shared_ptr<const SweepEngine>>;

/// Why a job builder failed, and the exit code that maps to: flag and
/// config errors are usage errors, an unreadable trace is a runtime
/// failure.
struct BuildFailure {
  int Exit = ExitUsage;
  std::string Message;
};

/// The one signature of every job verb's builder.
using JobBuilder = std::optional<service::Job> (*)(const FlagSet &Flags,
                                                   EngineCache &Engines,
                                                   BuildFailure *Failure);

std::optional<service::Job> buildSimulateJob(const FlagSet &Flags,
                                             EngineCache &,
                                             BuildFailure *Failure) {
  std::string *Error = &Failure->Message;
  const auto Spec = parsePolicySpec(Flags.getString("policy"), Error);
  if (!Spec)
    return std::nullopt;
  const auto Config = simConfigFromFlags(Flags, Error);
  if (!Config)
    return std::nullopt;
  auto T = workloadTraceFromFlags(Flags, Error);
  if (!T)
    return std::nullopt;
  service::ReplayJob Job;
  Job.TraceData = std::move(*T);
  Job.Spec = *Spec;
  Job.Config = *Config;
  return service::Job(std::move(Job));
}

/// Everything a `replay` line means except its trace: policy, config and
/// guest count. The job builder and runReplay's streaming arm share it.
std::optional<service::ReplayJob>
replaySettingsFromFlags(const FlagSet &Flags, std::string *Error) {
  if (Flags.positional().empty()) {
    *Error = "replay needs a trace file: replay <file.cct> [flags]";
    return std::nullopt;
  }
  const auto Spec = parsePolicySpec(Flags.getString("policy"), Error);
  if (!Spec)
    return std::nullopt;
  const auto Config = simConfigFromFlags(Flags, Error);
  if (!Config)
    return std::nullopt;
  const auto GuestThreads = guestThreadsFromFlags(Flags, Error);
  if (!GuestThreads)
    return std::nullopt;
  service::ReplayJob Job;
  Job.Spec = *Spec;
  Job.Config = *Config;
  Job.GuestThreads = *GuestThreads;
  return Job;
}

/// Reads a trace file into memory, through a read-only mapping when
/// \p Mapped (the --mmap of `audit` and of manifest `replay` lines).
std::optional<Trace> loadTrace(const std::string &Path, bool Mapped) {
  if (!Mapped)
    return readTrace(Path);
  if (const auto M = trace::MappedTrace::open(Path))
    return M->toTrace();
  return std::nullopt;
}

/// The job a `replay` line means. A job owns its trace, so --mmap here
/// copies the mapped trace into memory; only the `replay` subcommand
/// itself streams out of the mapping (runReplay).
std::optional<service::Job> buildReplayJob(const FlagSet &Flags,
                                           EngineCache &,
                                           BuildFailure *Failure) {
  auto Job = replaySettingsFromFlags(Flags, &Failure->Message);
  if (!Job)
    return std::nullopt;
  const std::string &Path = Flags.positional().front();
  auto T = loadTrace(Path, Flags.getBool("mmap"));
  if (!T) {
    Failure->Exit = ExitRuntime;
    Failure->Message = "cannot read " + Path;
    return std::nullopt;
  }
  Job->TraceData = std::move(*T);
  return service::Job(std::move(*Job));
}

std::optional<service::Job> buildSuiteJob(const FlagSet &Flags,
                                          EngineCache &Engines,
                                          BuildFailure *Failure) {
  std::string *Error = &Failure->Message;
  const auto Config = simConfigFromFlags(Flags, Error);
  if (!Config)
    return std::nullopt;
  const auto Mode = sweepModeFromFlags(Flags, Error);
  if (!Mode)
    return std::nullopt;
  const auto Jobs = jobsFromFlags(Flags, Error);
  if (!Jobs)
    return std::nullopt;
  const std::string Workload = Flags.getString("workload");
  const double Scale = Flags.getDouble("scale");
  const int64_t Seed = Flags.getInt("seed");
  auto &Slot = Engines[{Workload, Scale, Seed, *Jobs}];
  if (!Slot) {
    std::optional<SweepEngine> Engine;
    if (Workload.empty()) {
      Engine = Scale >= 0.999
                   ? SweepEngine::forTable1(static_cast<uint64_t>(Seed))
                   : SweepEngine::forScaledTable1(
                         Scale, static_cast<uint64_t>(Seed));
    } else {
      // Adversarial suite: the catalog entry (or all of them) in place
      // of the Table 1 benchmarks.
      auto Traces = adversarialTracesFromSpec(
          Workload, Scale, static_cast<uint64_t>(Seed), Error);
      if (!Traces)
        return std::nullopt;
      Engine.emplace(std::move(*Traces));
    }
    Engine->setNumThreads(*Jobs);
    Slot = std::make_shared<const SweepEngine>(std::move(*Engine));
  }
  service::SweepBatchJob Job;
  Job.Engine = Slot;
  Job.Jobs = makeSweepGrid(standardGranularitySweep(),
                           {Config->PressureFactor}, *Config);
  Job.Mode = *Mode;
  return service::Job(std::move(Job));
}

/// Parses "overlap:<K>@<F>" into K tagged per-tenant traces sharing
/// fraction F of their working set (the --share-code sweep workload).
std::optional<std::vector<Trace>>
overlapSuiteFromEntry(const std::string &Name, double Scale, uint64_t Seed,
                      std::string *Error) {
  const std::string Body = Name.substr(std::string("overlap:").size());
  const size_t At = Body.find('@');
  char *End = nullptr;
  const long K = std::strtol(Body.c_str(), &End, 10);
  const bool KOk =
      End && End != Body.c_str() &&
      (At == std::string::npos ? *End == '\0'
                               : End == Body.c_str() + At);
  double F = -1.0;
  if (At != std::string::npos) {
    F = std::strtod(Body.c_str() + At + 1, &End);
    if (!End || *End != '\0')
      F = -1.0;
  }
  if (!KOk || K < 1 || At == std::string::npos || F < 0.0 || F > 1.0) {
    *Error = "bad tenant entry '" + Name +
             "' (expected overlap:<tenants>@<fraction in [0,1]>)";
    return std::nullopt;
  }
  workloads::AdversarySpec Spec = *workloads::findAdversarial("overlap");
  if (Scale < 0.999)
    Spec = workloads::scaledAdversary(Spec, Scale);
  Spec.Tenants = static_cast<uint32_t>(K);
  Spec.OverlapFraction = F;
  const std::string Err = Spec.validate();
  if (!Err.empty()) {
    *Error = "bad tenant entry '" + Name + "': " + Err;
    return std::nullopt;
  }
  return workloads::generateTenantOverlapSuite(Spec, Seed);
}

std::optional<service::Job> buildTenantsJob(const FlagSet &Flags,
                                            EngineCache &,
                                            BuildFailure *Failure) {
  std::string *Error = &Failure->Message;
  const auto Policy = tenancyPolicyFromFlags(Flags, Error);
  if (!Policy)
    return std::nullopt;
  std::vector<Trace> Traces;
  for (const std::string &Name : splitList(Flags.getString("tenants"))) {
    // A tenant entry is a Table 1 benchmark, an adversarial workload
    // ("adversarial:<name>"; "adversarial:all" adds the whole catalog),
    // or "overlap:<K>@<F>" — K tenants whose working sets share content
    // fraction F, tagged for the --share-code path.
    if (Name.rfind("overlap:", 0) == 0) {
      auto Suite = overlapSuiteFromEntry(
          Name, Flags.getDouble("scale"),
          static_cast<uint64_t>(Flags.getInt("seed")), Error);
      if (!Suite)
        return std::nullopt;
      for (Trace &T : *Suite)
        Traces.push_back(std::move(T));
      continue;
    }
    if (Name.rfind("adversarial:", 0) == 0) {
      auto Generated = adversarialTracesFromSpec(
          Name, Flags.getDouble("scale"),
          static_cast<uint64_t>(Flags.getInt("seed")), Error);
      if (!Generated)
        return std::nullopt;
      for (Trace &T : *Generated)
        Traces.push_back(std::move(T));
      continue;
    }
    const auto Model = workloadModelFor(Name, Flags.getDouble("scale"), Error);
    if (!Model)
      return std::nullopt;
    Traces.push_back(TraceGenerator::generateBenchmark(
        *Model, static_cast<uint64_t>(Flags.getInt("seed"))));
  }
  if (Traces.size() < 2) {
    *Error = "need at least two tenants";
    return std::nullopt;
  }
  service::TenantJob Job;
  Job.Traces = std::move(Traces);
  Job.Policy = *Policy;
  return service::Job(std::move(Job));
}

//===----------------------------------------------------------------------===//
// Subcommand flag factories. Exposed as factories (not locals) so
// `help <subcommand>` can render any subcommand's full flag reference.
//===----------------------------------------------------------------------===//

FlagSet makeSimulateFlags() {
  FlagSet Flags("ccsim_cli simulate: trace-driven simulation.");
  addWorkloadFlags(Flags);
  addPolicyFlag(Flags);
  addSimConfigFlags(Flags, 10.0);
  addTelemetryFlags(Flags);
  return Flags;
}

FlagSet makeRecordFlags() {
  FlagSet Flags("ccsim_cli record: run the mini-DBT and save its log.");
  Flags.addString("out", "ccsim_run.cct", "Output trace path.");
  Flags.addInt("functions", 48, "Guest call-graph size, 1..4096.");
  Flags.addInt("iterations", 1500, "Main loop trips per phase, 1..32000.");
  Flags.addInt("phases", 6, "Program phases, 1..256.");
  Flags.addInt("seed", 7, "Program seed.");
  addTelemetryFlags(Flags);
  return Flags;
}

FlagSet makeReplayFlags() {
  FlagSet Flags("ccsim_cli replay: replay a saved log (replay <file.cct>).");
  addPolicyFlag(Flags);
  addSimConfigFlags(Flags, 4.0);
  Flags.addInt("guest-threads", 1,
               "Guest threads sharing one engine (1 = exact serial "
               "replay; >1 = concurrent shared-engine replay, validated "
               "by the structural auditor).");
  Flags.addBool("mmap", false,
                "Read the trace through a read-only mapping: the replay "
                "subcommand streams accesses out of it, a batch manifest "
                "line copies it into memory (jobs own their trace). Falls "
                "back to a buffered read when mmap is unavailable.");
  addTelemetryFlags(Flags);
  return Flags;
}

FlagSet makeFitFlags() {
  FlagSet Flags("ccsim_cli fit: re-derive Equations 2-4.");
  Flags.addInt("cache-kb", 24, "Mini-DBT cache size in KB, 1..1048576.");
  Flags.addInt("budget", 20000000,
               "Guest instruction budget, 1..1099511627776 (2^40).");
  return Flags;
}

FlagSet makeSuiteFlags() {
  FlagSet Flags("ccsim_cli suite: granularity sweep over a benchmark "
                "suite (Table 1 by default).");
  addSimConfigFlags(Flags, 2.0);
  Flags.addString("workload", "",
                  "Suite source: '' = the Table 1 benchmarks | "
                  "adversarial:<name> | adversarial:all (the whole "
                  "adversarial catalog; see `ccsim_cli gen --list`).");
  Flags.addDouble("scale", 1.0, "Suite size multiplier.");
  Flags.addInt("seed", static_cast<int64_t>(DefaultSuiteSeed),
               "Suite seed.");
  Flags.addInt("jobs", 0,
               "Worker threads, 0..256 (0 = one per CPU this process may "
               "run on, 1 = serial).");
  addSweepModeFlag(Flags);
  addTelemetryFlags(Flags);
  return Flags;
}

FlagSet makeTenantsFlags() {
  FlagSet Flags("ccsim_cli tenants: multi-tenant shared-cache simulation.");
  Flags.addString("tenants", "gzip,vpr,crafty",
                  "Comma-separated tenants: Table 1 benchmark names, "
                  "adversarial:<name> workloads, and/or "
                  "overlap:<K>@<F> (K tenants sharing content fraction "
                  "F of their working sets — pair with --share-code).");
  addTenancyFlags(Flags);
  addPolicyFlag(Flags);
  addSimConfigFlags(Flags, 2.0);
  Flags.addDouble("scale", 1.0, "Workload size multiplier.");
  Flags.addInt("seed", 42, "Trace seed.");
  addTelemetryFlags(Flags);
  return Flags;
}

FlagSet makeGenFlags() {
  FlagSet Flags("ccsim_cli gen: generate a synthetic workload trace and "
                "save it as a .cct file. The statistical Table 1 "
                "--benchmark by default; --workload=adversarial:<name> "
                "selects an adversarial generator instead (--list prints "
                "the catalog).");
  addWorkloadFlags(Flags);
  Flags.addString("out", "workload.cct",
                  "Output trace path ('' = print the summary only).");
  Flags.addBool("list", false,
                "Print the adversarial workload catalog and exit.");
  return Flags;
}

FlagSet makeAuditFlags() {
  FlagSet Flags("ccsim_cli audit: replay a trace with the structural "
                "auditor checking every cache mutation.");
  addWorkloadFlags(Flags);
  Flags.addString("policies", "flush,8,fine",
                  "Comma-separated policies to audit (flush | fine | "
                  "<unit count>).");
  addSimConfigFlags(Flags, 8.0);
  Flags.addBool("dbt", false,
                "Audit the execution-driven path instead: run the "
                "mini-DBT (two-tier) with the auditor armed on every "
                "install.");
  Flags.addInt("functions", 32, "Guest call-graph size, 1..4096 (--dbt).");
  Flags.addInt("iterations", 600,
               "Main loop trip count, 1..32000 (--dbt).");
  Flags.addInt("cache-kb", 2, "Code cache size in KB, 1..1048576 (--dbt).");
  Flags.addInt("guest-threads", 1,
               "Audit the thread-shared engine under this many "
               "concurrent guests instead of the serial manager (trace "
               "mode only).");
  Flags.addInt("quiesce-interval", 65536,
               "Accesses between quiesce-point audits with "
               "--guest-threads > 1 (0 = only the final audit).");
  Flags.addBool("mmap", false,
                "Read a file trace through a read-only mapping instead of "
                "the buffered reader (the trace is copied into memory "
                "before the audit).");
  return Flags;
}

FlagSet makeBatchFlags() {
  FlagSet Flags(
      "ccsim_cli batch: run a manifest of jobs through the asynchronous "
      "SimService.\n\nThe manifest holds one job per line in subcommand "
      "syntax (simulate/replay/suite/tenants plus their usual flags), "
      "with optional per-job --priority=N, --deadline-ms=N, and "
      "--label=NAME. Blank lines and '#' comments are skipped. Results "
      "print in manifest order and are byte-identical to --serial "
      "execution (except replay --guest-threads > 1 lines, whose "
      "interleaving is schedule-dependent by design).");
  Flags.addInt("jobs", 0,
               "Service worker threads, 0..256 (0 = one per usable CPU).");
  Flags.addInt("queue", 64, "Admission queue capacity.");
  Flags.addString("backpressure", "block",
                  "Full-queue policy: block | reject | shed-oldest.");
  Flags.addBool("serial", false,
                "Run the manifest on this thread without the service "
                "(the byte-identical baseline).");
  Flags.addBool("verify-serial", false,
                "Run through the service, then re-run serially and fail "
                "unless every job's output and metrics match "
                "byte-for-byte.");
  Flags.addString("service-metrics-out", "",
                  "Write the service's own queue/latency/outcome metrics "
                  "to this path ('' = off).");
  return Flags;
}

//===----------------------------------------------------------------------===//
// Serial subcommands
//===----------------------------------------------------------------------===//

/// The tail every job subcommand shares: make the sink the telemetry
/// flags ask for, run (\p Run maps the sink to an outcome), print the
/// outcome, write the exports.
template <typename RunFn>
int runAndReport(const FlagSet &Flags, const RunFn &Run) {
  const auto Sink = makeSinkIfRequested(Flags);
  const service::JobOutcome O = Run(Sink.get());
  if (O.Status != service::JobStatus::Done) {
    std::fprintf(stderr, "error: %s\n", O.Error.c_str());
    return ExitRuntime;
  }
  std::fputs(renderOutcome(O).c_str(), stdout);
  return exportTelemetry(Flags, Sink.get()) == 0 ? ExitOk : ExitRuntime;
}

/// The generic runner of every job verb: build the job the flags mean,
/// then execute it on this thread.
int runJob(JobBuilder Build, const FlagSet &Flags) {
  EngineCache Engines;
  BuildFailure Failure;
  auto Job = Build(Flags, Engines, &Failure);
  if (!Job) {
    std::fprintf(stderr, "error: %s\n", Failure.Message.c_str());
    return Failure.Exit;
  }
  return runAndReport(Flags, [&Job](telemetry::TelemetrySink *Sink) {
    service::setJobTelemetry(*Job, Sink);
    return service::executeJob(*Job, nullptr);
  });
}

/// The mini-DBT guest program --functions, --iterations and --seed
/// describe (`record`, `audit --dbt`). Both counts are bounded: the
/// generator needs at least one function, and a main-loop trip count must
/// fit its 16-bit loop immediate.
std::optional<ProgramSpec> guestProgramFromFlags(const FlagSet &Flags,
                                                 std::string *Error) {
  const auto Functions = boundedIntFlag(Flags, "functions", 1, 4096, Error);
  if (!Functions)
    return std::nullopt;
  const auto Iterations = boundedIntFlag(Flags, "iterations", 1, 32000, Error);
  if (!Iterations)
    return std::nullopt;
  ProgramSpec Spec;
  Spec.NumFunctions = static_cast<uint32_t>(*Functions);
  Spec.OuterIterations = static_cast<uint32_t>(*Iterations);
  Spec.MeanCallsPerFunction = 0.6;
  Spec.RareBranchProb = 0.1;
  Spec.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  return Spec;
}

/// --cache-kb in bytes, 1 KB up to 1 GB (`fit`, `audit --dbt`).
std::optional<uint64_t> cacheBytesFromFlags(const FlagSet &Flags,
                                            std::string *Error) {
  const auto KB = boundedIntFlag(Flags, "cache-kb", 1, 1 << 20, Error);
  if (!KB)
    return std::nullopt;
  return static_cast<uint64_t>(*KB) << 10;
}

int runRecord(FlagSet &Flags) {
  std::string Error;
  auto Spec = guestProgramFromFlags(Flags, &Error);
  if (!Spec)
    return usageError(Error);
  const auto Phases = boundedIntFlag(Flags, "phases", 1, 256, &Error);
  if (!Phases)
    return usageError(Error);
  Spec->MainPhases = static_cast<uint32_t>(*Phases);
  const Program P = generateProgram(*Spec);

  TranslatorConfig Config;
  Config.CacheBytes = 64ULL << 20;
  Config.RecordTrace = true;
  const auto Sink = makeSinkIfRequested(Flags);
  Config.Telemetry = Sink.get();
  Translator T(P, Config);
  const TranslatorStats &S = T.run(50000000);
  const Trace Log = T.exportTrace();
  if (!writeTrace(Log, Flags.getString("out"))) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Flags.getString("out").c_str());
    return ExitRuntime;
  }
  std::printf("recorded %s guest instructions into %zu superblocks / %s "
              "events -> %s\n",
              formatWithCommas(S.GuestInstructions).c_str(),
              Log.numSuperblocks(),
              formatWithCommas(Log.numAccesses()).c_str(),
              Flags.getString("out").c_str());
  return exportTelemetry(Flags, Sink.get()) == 0 ? ExitOk : ExitRuntime;
}

/// `replay`: the generic job runner, except that --mmap streams straight
/// out of the mapping through runShared (K = 1 is sim::run over the
/// mapped trace), so the access stream is never materialized. A job owns
/// its Trace, so that arm runs outside the job path.
int runReplay(FlagSet &Flags) {
  if (!Flags.getBool("mmap"))
    return runJob(buildReplayJob, Flags);
  std::string Error;
  const auto Settings = replaySettingsFromFlags(Flags, &Error);
  if (!Settings)
    return usageError(Error);
  const auto Mapped = trace::MappedTrace::open(Flags.positional().front());
  if (!Mapped) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 Flags.positional().front().c_str());
    return ExitRuntime;
  }
  // The buffered arm's Job::validate() check, before any engine exists.
  Error = Settings->Config.validateFor(Mapped->maxCacheBytes());
  if (!Error.empty()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitRuntime;
  }
  return runAndReport(Flags, [&](telemetry::TelemetrySink *Sink) {
    concurrent::SharedRunConfig Config(Settings->Config,
                                       Settings->GuestThreads);
    Config.Telemetry = Sink;
    service::JobOutcome O;
    O.Status = service::JobStatus::Done;
    O.Replay.push_back(concurrent::runShared(*Mapped, Settings->Spec, Config));
    return O;
  });
}

int runGen(FlagSet &Flags) {
  if (Flags.getBool("list")) {
    Table Out({"Name", "Kind", "Blocks", "Accesses", "Tuned cache",
               "Attack"});
    for (const workloads::AdversarySpec &Spec :
         workloads::adversarialCatalog()) {
      Out.beginRow();
      Out.cell(Spec.Name);
      Out.cell(workloads::adversaryKindName(Spec.Kind));
      Out.cell(Spec.plannedBlocks());
      Out.cell(Spec.derivedAccesses());
      Out.cell(formatBytes(Spec.tunedCapacityBytes()));
      Out.cell(Spec.Summary);
    }
    std::fputs(Out.render().c_str(), stdout);
    return ExitOk;
  }

  std::string Error;
  auto T = workloadTraceFromFlags(Flags, &Error);
  if (!T)
    return usageError(Error);
  std::printf("generated %s: %zu superblocks / %s accesses, maxCache %s\n",
              T->Name.c_str(), T->numSuperblocks(),
              formatWithCommas(T->numAccesses()).c_str(),
              formatBytes(T->maxCacheBytes()).c_str());

  // For adversarial workloads, tell the user the cache size the pattern
  // is engineered to defeat, so `replay --capacity=...` hits the worst
  // case without guessing.
  const std::string Workload = Flags.getString("workload");
  const std::string Prefix = "adversarial:";
  if (Workload.rfind(Prefix, 0) == 0) {
    if (const workloads::AdversarySpec *Spec =
            workloads::findAdversarial(Workload.substr(Prefix.size()))) {
      const workloads::AdversarySpec Tuned =
          Flags.getDouble("scale") < 0.999
              ? workloads::scaledAdversary(*Spec, Flags.getDouble("scale"))
              : *Spec;
      std::printf("worst case at --capacity=%llu (pressure %.2f)\n",
                  static_cast<unsigned long long>(
                      Tuned.tunedCapacityBytes()),
                  double(T->maxCacheBytes()) /
                      double(Tuned.tunedCapacityBytes()));
    }
  }

  const std::string Out = Flags.getString("out");
  if (Out.empty())
    return ExitOk;
  if (!writeTrace(*T, Out)) {
    std::fprintf(stderr, "error: cannot write %s\n", Out.c_str());
    return ExitRuntime;
  }
  std::printf("wrote %s\n", Out.c_str());
  return ExitOk;
}

int runFit(FlagSet &Flags) {
  std::string Error;
  const auto CacheBytes = cacheBytesFromFlags(Flags, &Error);
  if (!CacheBytes)
    return usageError(Error);
  const auto Budget =
      boundedIntFlag(Flags, "budget", 1, int64_t(1) << 40, &Error);
  if (!Budget)
    return usageError(Error);
  const Program P = generateProgram(fig9ProgramSpec());
  TranslatorConfig Config;
  Config.CacheBytes = *CacheBytes;
  Translator T(P, Config);
  const OverheadFits Fits =
      fitOverheads(T.run(static_cast<uint64_t>(*Budget)).Ops);
  std::printf("eviction: %.2f * bytes + %.1f   (paper 2.77x + 3055)\n",
              Fits.Eviction.Slope, Fits.Eviction.Intercept);
  std::printf("miss:     %.2f * bytes + %.1f   (paper 75.4x + 1922)\n",
              Fits.Miss.Slope, Fits.Miss.Intercept);
  std::printf("unlink:   %.2f * links + %.1f   (paper 296.5x + 95.7)\n",
              Fits.Unlink.Slope, Fits.Unlink.Intercept);
  return ExitOk;
}

/// The --dbt arm of runAudit: run the mini-DBT (two-tier) with the deep
/// auditor armed on both engines, so every install re-validates placement,
/// chaining, stats, and the dispatch.* table-vs-residency rules.
int auditTranslatorRun(const FlagSet &Flags,
                       const std::vector<GranularitySpec> &Policies) {
  std::string Error;
  const auto Spec = guestProgramFromFlags(Flags, &Error);
  if (!Spec)
    return usageError(Error);
  const auto CacheBytes = cacheBytesFromFlags(Flags, &Error);
  if (!CacheBytes)
    return usageError(Error);
  const Program P = generateProgram(*Spec);

  for (const GranularitySpec &Policy : Policies) {
    TranslatorConfig Config;
    Config.CacheBytes = *CacheBytes;
    Config.BBCacheBytes = Config.CacheBytes / 2;
    Config.Policy = Policy;
    Config.UseBasicBlockCache = true; // Exercise both tier engines.
    Translator T(P, Config);

    size_t Violations = 0;
    check::ParanoiaOptions Opts;
    Opts.Level = AuditLevel::Full;
    Opts.OnViolation = [&Violations, &Policy](
                           const check::AuditReport &Report,
                           const char *Where) {
      Violations += Report.size();
      std::fprintf(stderr, "audit FAILED (policy %s, after %s):\n%s",
                   Policy.label().c_str(), Where, Report.render().c_str());
    };
    check::armAuditor(T, Opts);

    const TranslatorStats &S = T.run(1ULL << 40);
    const check::AuditReport Final = check::CacheAuditor().auditTranslator(T);
    if (!Final.clean()) {
      Violations += Final.size();
      std::fprintf(stderr, "audit FAILED (policy %s, final state):\n%s",
                   Policy.label().c_str(), Final.render().c_str());
    }
    if (Violations > 0)
      return ExitRuntime;
    std::printf("policy %-8s %s guest instrs, %llu fragments, %llu "
                "evictions (+%llu BB) -- audit clean\n",
                T.engine().policy().name().c_str(),
                formatWithCommas(S.GuestInstructions).c_str(),
                static_cast<unsigned long long>(S.FragmentsBuilt),
                static_cast<unsigned long long>(S.EvictionInvocations),
                static_cast<unsigned long long>(S.BBEvictionInvocations));
  }
  std::printf("mini-DBT: every install audited on both tiers, all "
              "invariants held\n");
  return ExitOk;
}

/// The --guest-threads > 1 arm of runAudit: replays each policy through
/// the shared engine with the full auditSharedEngine rule set firing at
/// every quiesce point and once over the drained final state.
int auditSharedRun(const Trace &T,
                   const std::vector<GranularitySpec> &Policies,
                   const SimConfig &Config, unsigned GuestThreads,
                   uint64_t QuiesceInterval) {
  for (const GranularitySpec &Policy : Policies) {
    size_t Violations = 0;
    concurrent::SharedRunConfig SC(Config, GuestThreads);
    SC.Audit = AuditLevel::Full;
    SC.QuiesceInterval = QuiesceInterval;
    SC.OnViolation = [&Violations, &Policy](const check::AuditReport &Report,
                                            const char *Where) {
      Violations += Report.size();
      std::fprintf(stderr, "audit FAILED (policy %s, after %s):\n%s",
                   Policy.label().c_str(), Where, Report.render().c_str());
    };
    const concurrent::SharedRunResult R = concurrent::runShared(T, Policy, SC);
    if (Violations > 0)
      return ExitRuntime;
    std::printf("policy %-8s %s accesses, %s evictions, %u guests, "
                "%llu quiesce audits -- audit clean\n",
                R.PolicyName.c_str(),
                formatWithCommas(R.Stats.Accesses).c_str(),
                formatWithCommas(R.Stats.EvictedBlocks).c_str(),
                R.GuestThreads,
                static_cast<unsigned long long>(R.QuiesceAudits));
  }
  std::printf("trace %s: every quiesce point audited, all invariants "
              "held\n",
              T.Name.c_str());
  return ExitOk;
}

/// `audit`: every flag, the whole --policies list included, is checked
/// before the first replay, so a usage error never follows a partial
/// audit.
int runAudit(FlagSet &Flags) {
  std::string Error;
  const auto Policies = parsePolicyList(Flags.getString("policies"), &Error);
  if (!Policies)
    return usageError(Error);
  const auto Quiesce = boundedIntFlag(Flags, "quiesce-interval", 0,
                                      std::numeric_limits<int64_t>::max(),
                                      &Error);
  if (!Quiesce)
    return usageError(Error);
  if (Flags.getBool("dbt"))
    return auditTranslatorRun(Flags, *Policies);

  const auto Config = simConfigFromFlags(Flags, &Error);
  if (!Config)
    return usageError(Error);
  const auto GuestThreads = guestThreadsFromFlags(Flags, &Error);
  if (!GuestThreads)
    return usageError(Error);

  Trace T;
  if (!Flags.positional().empty()) {
    auto Loaded = loadTrace(Flags.positional().front(), Flags.getBool("mmap"));
    if (!Loaded) {
      std::fprintf(stderr, "error: cannot read %s\n",
                   Flags.positional().front().c_str());
      return ExitRuntime;
    }
    T = std::move(*Loaded);
  } else {
    auto Generated = workloadTraceFromFlags(Flags, &Error);
    if (!Generated)
      return usageError(Error);
    T = std::move(*Generated);
  }
  Error = Config->validateFor(T.maxCacheBytes());
  if (!Error.empty()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitRuntime;
  }
  if (*GuestThreads > 1)
    return auditSharedRun(T, *Policies, *Config, *GuestThreads,
                          static_cast<uint64_t>(*Quiesce));

  for (const GranularitySpec &Policy : *Policies) {
    // The engine sim::run would build: capacity, costs and chaining.
    CacheEngineConfig MC(sim::capacityFor(T, *Config), Config->EnableChaining);
    MC.Costs = Config->Costs;
    CacheEngine Manager(MC, makePolicy(Policy));

    size_t Violations = 0;
    check::ParanoiaOptions Opts;
    Opts.Level = AuditLevel::Full;
    Opts.OnViolation = [&Violations, &Policy](const check::AuditReport &Report,
                                              const char *Where) {
      Violations += Report.size();
      std::fprintf(stderr, "audit FAILED (policy %s, after %s):\n%s",
                   Policy.label().c_str(), Where, Report.render().c_str());
    };
    check::armAuditor(Manager, Opts);

    for (SuperblockId Id : T.Accesses) {
      Manager.access(T.recordFor(Id));
      if (Violations > 0)
        return ExitRuntime; // First corrupt state wins; report is out.
    }
    std::printf("policy %-8s %s accesses, %s evictions, %s links peak "
                "-- audit clean\n",
                Manager.policy().name().c_str(),
                formatWithCommas(Manager.stats().Accesses).c_str(),
                formatWithCommas(Manager.stats().EvictedBlocks).c_str(),
                formatBytes(Manager.stats().BackPointerBytesPeak).c_str());
  }
  std::printf("trace %s: every mutation audited, all invariants held\n",
              T.Name.c_str());
  return ExitOk;
}

//===----------------------------------------------------------------------===//
// The subcommand table: the one list of verbs
//===----------------------------------------------------------------------===//

int runBatch(FlagSet &Flags);

/// One subcommand. Job verbs carry a Build; they run through runJob unless
/// the row names its own Run, and they are the verbs a batch manifest
/// accepts.
struct SubcommandDef {
  const char *Name;
  const char *Brief;
  FlagSet (*Make)();
  int (*Run)(FlagSet &);
  JobBuilder Build;
};

constexpr SubcommandDef Subcommands[] = {
    {"simulate", "trace-driven simulation of a Table 1 benchmark",
     makeSimulateFlags, nullptr, buildSimulateJob},
    {"record", "run the mini-DBT, save its superblock log", makeRecordFlags,
     runRecord, nullptr},
    {"replay", "replay a saved log through the simulator", makeReplayFlags,
     runReplay, buildReplayJob},
    {"gen",
     "generate a workload trace (--list: adversarial catalog)",
     makeGenFlags, runGen, nullptr},
    {"fit", "re-derive the paper's overhead equations", makeFitFlags,
     runFit, nullptr},
    {"suite", "granularity sweep over the whole suite (--jobs)",
     makeSuiteFlags, nullptr, buildSuiteJob},
    {"tenants", "multi-tenant shared-cache simulation", makeTenantsFlags,
     nullptr, buildTenantsJob},
    {"audit",
     "replay under the paranoid structural auditor (--dbt: audit a "
     "mini-DBT run instead)",
     makeAuditFlags, runAudit, nullptr},
    {"batch", "run a job manifest through the async SimService",
     makeBatchFlags, runBatch, nullptr},
};

//===----------------------------------------------------------------------===//
// batch: the asynchronous SimService front-end
//===----------------------------------------------------------------------===//

/// One parsed manifest line: the job it means (telemetry unset), its
/// scheduling options, and the per-job outputs it requested.
struct JobRecipe {
  std::string Verb;
  service::Job Proto;
  int64_t DeadlineMs = 0;
  std::string MetricsOut;
  std::string TraceOut;
  std::string TraceFormat;
};

/// Scheduling and output flags every manifest line accepts on top of its
/// subcommand's own flags.
void addManifestLineFlags(FlagSet &Flags) {
  Flags.addInt("priority", 0,
               "Service scheduling priority (higher runs first).");
  Flags.addInt("deadline-ms", 0,
               "Cancel the job this many ms after submission (0 = none).");
  Flags.addString("label", "",
                  "Telemetry label (default: line-<n> in batch mode).");
}

/// Parses a manifest into recipes. A line's verb must name a job row of
/// the Subcommands table; the row's flags and builder turn the line into
/// its job. On failure \p Failure says why and which exit code that is.
std::optional<std::vector<JobRecipe>>
parseManifest(const std::string &Path, EngineCache &Engines,
              BuildFailure *Failure) {
  std::string *Error = &Failure->Message;
  std::ifstream In(Path);
  if (!In) {
    Failure->Exit = ExitRuntime;
    *Error = "cannot read manifest " + Path;
    return std::nullopt;
  }
  std::vector<JobRecipe> Recipes;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::istringstream Tok(Line);
    std::vector<std::string> Tokens;
    std::string T;
    while (Tok >> T)
      Tokens.push_back(T);
    if (Tokens.empty() || Tokens.front()[0] == '#')
      continue;

    char Prefix[48];
    std::snprintf(Prefix, sizeof(Prefix), "manifest line %zu: ", LineNo);
    const std::string &Verb = Tokens.front();
    const SubcommandDef *Row = nullptr;
    std::string JobVerbs;
    for (const SubcommandDef &Def : Subcommands) {
      if (!Def.Build)
        continue;
      if (!JobVerbs.empty())
        JobVerbs += '|';
      JobVerbs += Def.Name;
      if (Verb == Def.Name)
        Row = &Def;
    }
    if (!Row) {
      *Error = Prefix + ("unknown verb '" + Verb + "' (" + JobVerbs + ")");
      return std::nullopt;
    }
    FlagSet Flags = Row->Make();
    addManifestLineFlags(Flags);
    std::vector<const char *> Argv;
    Argv.reserve(Tokens.size());
    for (const std::string &Arg : Tokens)
      Argv.push_back(Arg.c_str());
    if (!Flags.parse(static_cast<int>(Argv.size()), Argv.data())) {
      *Error = Prefix + std::string("bad flags (see above)");
      return std::nullopt;
    }

    auto Proto = Row->Build(Flags, Engines, Failure);
    if (!Proto) {
      *Error = Prefix + *Error;
      return std::nullopt;
    }
    JobRecipe R;
    R.Verb = Verb;
    R.Proto = std::move(*Proto);
    R.Proto.Options.Priority =
        static_cast<int>(Flags.getInt("priority"));
    R.Proto.Options.Label = Flags.getString("label");
    if (R.Proto.Options.Label.empty())
      R.Proto.Options.Label = "line-" + std::to_string(LineNo);
    R.DeadlineMs = Flags.getInt("deadline-ms");
    R.MetricsOut = Flags.getString("metrics-out");
    R.TraceOut = Flags.getString("trace-out");
    R.TraceFormat = Flags.getString("trace-format");
    Recipes.push_back(std::move(R));
  }
  if (Recipes.empty()) {
    *Error = "manifest " + Path + " holds no jobs";
    return std::nullopt;
  }
  return Recipes;
}

/// The per-job report `batch` prints, in manifest order. A pure function
/// of (recipe, outcome), so service and serial execution render identical
/// bytes for identical outcomes.
std::string renderJobReport(size_t Index, const JobRecipe &R,
                            const service::JobOutcome &O) {
  std::string Out;
  appendf(Out, "=== job %zu [%s] %s -> %s\n", Index + 1,
          R.Proto.Options.Label.c_str(), R.Verb.c_str(),
          service::jobStatusName(O.Status));
  if (O.Status == service::JobStatus::Done)
    Out += renderOutcome(O);
  else
    appendf(Out, "error: %s\n", O.Error.c_str());
  return Out;
}

/// Writes the per-job outputs a manifest line requested.
int writeJobOutputs(const JobRecipe &R,
                    const telemetry::TelemetrySink &Sink) {
  if (!R.TraceOut.empty()) {
    const auto Format = telemetry::parseTraceFormat(R.TraceFormat);
    if (!Format) {
      std::fprintf(stderr,
                   "error: unknown trace format '%s' (chrome|jsonl|csv)\n",
                   R.TraceFormat.c_str());
      return ExitRuntime;
    }
    if (!telemetry::writeTraceFile(Sink.Tracer, R.TraceOut, *Format)) {
      std::fprintf(stderr, "error: cannot write %s\n", R.TraceOut.c_str());
      return ExitRuntime;
    }
  }
  if (!R.MetricsOut.empty() &&
      !telemetry::writeMetricsFile(Sink.Metrics, R.MetricsOut)) {
    std::fprintf(stderr, "error: cannot write %s\n", R.MetricsOut.c_str());
    return ExitRuntime;
  }
  return ExitOk;
}

/// One job's authoritative result: the printed report plus the canonical
/// metrics rendering (what --verify-serial compares).
struct JobRun {
  service::JobStatus Status = service::JobStatus::Queued;
  std::string Report;
  std::string MetricsCsv;
  bool OutputsWritten = true;
};

/// The record of one finished job, service or serial alike; with
/// \p WriteOutputs it also writes the per-job files the line asked for.
JobRun finishJob(size_t Index, const JobRecipe &R, const service::JobOutcome &O,
                 const telemetry::TelemetrySink &Sink, bool WriteOutputs) {
  JobRun Run;
  Run.Status = O.Status;
  Run.Report = renderJobReport(Index, R, O);
  Run.MetricsCsv = telemetry::renderMetricsCsv(Sink.Metrics);
  Run.OutputsWritten = !WriteOutputs || writeJobOutputs(R, Sink) == ExitOk;
  return Run;
}

/// Runs one recipe on this thread: the `--serial` execution, and the
/// reference `--verify-serial` compares the service against.
JobRun runRecipeSerial(size_t Index, const JobRecipe &R, bool WriteOutputs) {
  telemetry::TelemetrySink Sink(1 << 20);
  service::Job Job = R.Proto;
  service::setJobTelemetry(Job, &Sink);
  return finishJob(Index, R, service::executeJob(Job, nullptr), Sink,
                   WriteOutputs);
}

int runBatch(FlagSet &Flags) {
  if (Flags.positional().empty()) {
    std::fprintf(stderr,
                 "error: batch needs a manifest: batch <jobs.mf> [flags]\n");
    return ExitUsage;
  }
  const auto Pressure =
      service::parseBackpressurePolicy(Flags.getString("backpressure"));
  if (!Pressure) {
    std::fprintf(stderr,
                 "error: unknown backpressure policy '%s' "
                 "(block|reject|shed-oldest)\n",
                 Flags.getString("backpressure").c_str());
    return ExitUsage;
  }

  std::string Error;
  const auto Workers = jobsFromFlags(Flags, &Error);
  if (!Workers)
    return usageError(Error);

  EngineCache Engines;
  BuildFailure Failure;
  const auto Recipes =
      parseManifest(Flags.positional().front(), Engines, &Failure);
  if (!Recipes) {
    std::fprintf(stderr, "error: %s\n", Failure.Message.c_str());
    return Failure.Exit;
  }

  int Exit = ExitOk;
  std::vector<JobRun> ServiceRuns;

  if (Flags.getBool("serial")) {
    for (size_t I = 0; I < Recipes->size(); ++I) {
      const JobRun Run =
          runRecipeSerial(I, (*Recipes)[I], /*WriteOutputs=*/true);
      std::fputs(Run.Report.c_str(), stdout);
      if (Run.Status != service::JobStatus::Done || !Run.OutputsWritten)
        Exit = ExitRuntime;
    }
    return Exit;
  }

  telemetry::TelemetrySink ServiceSink(1 << 20);
  service::SimServiceConfig SC;
  SC.Threads = *Workers;
  SC.QueueCapacity = static_cast<size_t>(std::max<int64_t>(
      1, Flags.getInt("queue")));
  SC.Pressure = *Pressure;
  // Pausing lets priorities order the whole manifest deterministically,
  // but a paused Block-policy service would deadlock the submitter once
  // the queue fills; fall back to free-running admission in that case.
  SC.StartPaused = *Pressure != service::BackpressurePolicy::Block ||
                   Recipes->size() <= SC.QueueCapacity;
  SC.Telemetry = &ServiceSink;

  std::vector<std::unique_ptr<telemetry::TelemetrySink>> Sinks;
  std::vector<service::JobHandle> Handles;
  size_t StatusCounts[8] = {};
  {
    service::SimService Service(SC);
    for (const JobRecipe &R : *Recipes) {
      Sinks.push_back(std::make_unique<telemetry::TelemetrySink>(1 << 20));
      service::Job Job = R.Proto;
      service::setJobTelemetry(Job, Sinks.back().get());
      if (R.DeadlineMs > 0)
        Job.Options.withDeadlineIn(std::chrono::milliseconds(R.DeadlineMs));
      Handles.push_back(Service.submit(std::move(Job)));
    }
    Service.start();
    for (size_t I = 0; I < Handles.size(); ++I) {
      JobRun Run = finishJob(I, (*Recipes)[I], Handles[I].wait(), *Sinks[I],
                             /*WriteOutputs=*/true);
      std::fputs(Run.Report.c_str(), stdout);
      ++StatusCounts[static_cast<size_t>(Run.Status)];
      if (Run.Status != service::JobStatus::Done || !Run.OutputsWritten)
        Exit = ExitRuntime;
      ServiceRuns.push_back(std::move(Run));
    }
    Service.drain();
  }

  std::printf("service: %zu jobs over %s backpressure -- ",
              Recipes->size(),
              service::backpressurePolicyName(*Pressure));
  for (size_t S = 0; S < 8; ++S)
    if (StatusCounts[S] > 0)
      std::printf("%zu %s ", StatusCounts[S],
                  service::jobStatusName(
                      static_cast<service::JobStatus>(S)));
  std::printf("(queue peak %.0f)\n",
              ServiceSink.Metrics.gaugeValue("service_queue_depth_peak"));

  const std::string ServiceMetricsOut =
      Flags.getString("service-metrics-out");
  if (!ServiceMetricsOut.empty()) {
    if (!telemetry::writeMetricsFile(ServiceSink.Metrics,
                                     ServiceMetricsOut)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   ServiceMetricsOut.c_str());
      Exit = ExitRuntime;
    } else {
      std::printf("service metrics: %zu series -> %s\n",
                  ServiceSink.Metrics.size(), ServiceMetricsOut.c_str());
    }
  }

  if (Flags.getBool("verify-serial")) {
    size_t Mismatches = 0;
    for (size_t I = 0; I < Recipes->size(); ++I) {
      const JobRun Serial =
          runRecipeSerial(I, (*Recipes)[I], /*WriteOutputs=*/false);
      if (Serial.Report != ServiceRuns[I].Report ||
          Serial.MetricsCsv != ServiceRuns[I].MetricsCsv) {
        ++Mismatches;
        std::fprintf(stderr,
                     "verify: job %zu [%s] diverged from serial "
                     "execution (service status %s, serial status %s)\n",
                     I + 1, (*Recipes)[I].Proto.Options.Label.c_str(),
                     service::jobStatusName(ServiceRuns[I].Status),
                     service::jobStatusName(Serial.Status));
      }
    }
    if (Mismatches > 0) {
      std::fprintf(stderr, "verify: %zu of %zu jobs diverged\n", Mismatches,
                   Recipes->size());
      return ExitRuntime;
    }
    std::printf("verify: all %zu jobs byte-identical to serial execution\n",
                Recipes->size());
  }
  return Exit;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

void usage(std::FILE *Out) {
  std::fputs("ccsim_cli <subcommand> [flags]\n\nsubcommands:\n", Out);
  for (const SubcommandDef &Def : Subcommands)
    std::fprintf(Out, "  %-9s %s\n", Def.Name, Def.Brief);
  std::fputs("  help      help <subcommand>: full flag reference\n"
             "\nexit codes: 0 success, 1 usage error, 2 runtime failure "
             "or audit violation\n",
             Out);
}

int runHelp(int Argc, char **Argv) {
  if (Argc < 2) {
    usage(stdout);
    return ExitOk;
  }
  for (const SubcommandDef &Def : Subcommands)
    if (std::strcmp(Argv[1], Def.Name) == 0) {
      std::fputs(Def.Make().usage().c_str(), stdout);
      return ExitOk;
    }
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", Argv[1]);
  usage(stderr);
  return ExitUsage;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    usage(stderr);
    return ExitUsage;
  }
  const char *Cmd = Argv[1];
  if (std::strcmp(Cmd, "help") == 0 || std::strcmp(Cmd, "--help") == 0 ||
      std::strcmp(Cmd, "-h") == 0)
    return runHelp(Argc - 1, Argv + 1);
  for (const SubcommandDef &Def : Subcommands)
    if (std::strcmp(Cmd, Def.Name) == 0) {
      // Shift argv so each subcommand's FlagSet sees its own flags.
      FlagSet Flags = Def.Make();
      if (!Flags.parse(Argc - 1, Argv + 1))
        return ExitUsage;
      return Def.Run ? Def.Run(Flags) : runJob(Def.Build, Flags);
    }
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", Cmd);
  usage(stderr);
  return ExitUsage;
}
