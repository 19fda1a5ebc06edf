//===- examples/SimFlags.h - Shared simulation-config flag handling -------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulation-facing counterpart of TelemetryFlags.h: one place that
/// declares the policy / pressure / capacity / cost-model / workload flags
/// the drivers used to each re-declare by hand, and one place that turns
/// them back into validated configs. The batch manifest parser reuses
/// these helpers verbatim, which is what keeps a manifest line and the
/// equivalent serial command line byte-identical in meaning.
///
/// Parsing here is strict: a malformed policy (core's parsePolicySpec),
/// an out-of-range count (support/Flags' boundedIntFlag) or an
/// inconsistent config is an error returned to the caller (who reports it
/// as a usage error), never a warning plus a silent default. Each error
/// is spelled once, in its reader.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_EXAMPLES_SIMFLAGS_H
#define CCSIM_EXAMPLES_SIMFLAGS_H

#include "concurrent/SharedEngineRunner.h"
#include "concurrent/TenancyPolicy.h"
#include "concurrent/ThreadPool.h"
#include "multisweep/MultiConfigEngine.h"
#include "sim/Simulator.h"
#include "support/Flags.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"
#include "workloads/Adversary.h"

#include <optional>
#include <string>
#include <vector>

namespace ccsim {

/// Declares "--policy" with \p Default ("flush" | "fine" | unit count).
inline void addPolicyFlag(FlagSet &Flags, const std::string &Default = "8") {
  Flags.addString("policy", Default, "flush | fine | <unit count>.");
}

/// Declares the SimConfig-shaped flags: pressure, explicit capacity,
/// chaining, and the six Eq. 2-4 cost-model coefficients. Pressure
/// defaults differ per driver, so it is a parameter.
inline void addSimConfigFlags(FlagSet &Flags, double DefaultPressure) {
  Flags.addDouble("pressure", DefaultPressure,
                  "Cache pressure factor (cache = maxCache / pressure).");
  Flags.addInt("capacity", 0,
               "Explicit cache capacity in bytes (overrides --pressure "
               "when nonzero).");
  Flags.addBool("no-chain", false, "Disable superblock chaining state.");
  const CostModel D = CostModel::paperDefaults();
  Flags.addDouble("cost-evict-per-byte", D.EvictionPerByte,
                  "Eviction cost per byte (Eq. 2 slope).");
  Flags.addDouble("cost-evict-base", D.EvictionBase,
                  "Eviction cost per invocation (Eq. 2 intercept).");
  Flags.addDouble("cost-miss-per-byte", D.MissPerByte,
                  "Miss cost per byte (Eq. 3 slope).");
  Flags.addDouble("cost-miss-base", D.MissBase,
                  "Miss cost per miss (Eq. 3 intercept).");
  Flags.addDouble("cost-unlink-per-link", D.UnlinkPerLink,
                  "Unlink cost per link (Eq. 4 slope).");
  Flags.addDouble("cost-unlink-base", D.UnlinkBase,
                  "Unlink cost per victim (Eq. 4 intercept).");
}

/// Declares "--sweep-mode" for drivers that run whole sweep grids.
inline void addSweepModeFlag(FlagSet &Flags) {
  Flags.addString("sweep-mode", "one-pass",
                  "Sweep grid backend: one-pass (evaluate the whole grid "
                  "in a single trace pass) | per-config (dense replay per "
                  "grid point). Results are byte-identical either way.");
}

/// Strict "--sweep-mode" parser: nullopt (with \p Error set) for anything
/// but the two backend names.
inline std::optional<multisweep::SweepMode>
sweepModeFromFlags(const FlagSet &Flags, std::string *Error) {
  const auto Mode =
      multisweep::parseSweepMode(Flags.getString("sweep-mode"));
  if (!Mode && Error)
    *Error = "bad sweep mode '" + Flags.getString("sweep-mode") +
             "' (one-pass | per-config)";
  return Mode;
}

/// Declares the synthetic-workload flags: benchmark, workload, scale,
/// seed. --workload selects an adversarial generator by catalog name and
/// takes precedence over --benchmark when set.
inline void addWorkloadFlags(FlagSet &Flags,
                             const std::string &DefaultBenchmark = "crafty",
                             int64_t DefaultSeed = 42) {
  Flags.addString("benchmark", DefaultBenchmark, "Table 1 benchmark name.");
  Flags.addString("workload", "",
                  "Workload source: '' = the statistical --benchmark | "
                  "adversarial:<name> (see `ccsim_cli gen --list`).");
  Flags.addDouble("scale", 1.0, "Workload size multiplier.");
  Flags.addInt("seed", DefaultSeed, "Trace generation seed.");
}

/// Resolves an "adversarial:<name>" workload value to generated traces:
/// one trace for a catalog name, the whole catalog for
/// "adversarial:all", each at \p Scale (adversaryAtScale), which
/// scaleFlag has checked. On failure returns nullopt with the
/// description (including the catalog) in \p Error.
inline std::optional<std::vector<Trace>>
adversarialTracesFromSpec(const std::string &Workload, double Scale,
                          uint64_t Seed, std::string *Error) {
  const std::string Prefix = "adversarial:";
  if (Workload.rfind(Prefix, 0) != 0) {
    if (Error)
      *Error = "bad workload '" + Workload +
               "' (expected adversarial:<name> or adversarial:all)";
    return std::nullopt;
  }
  const std::string Name = Workload.substr(Prefix.size());
  std::vector<const workloads::AdversarySpec *> Chosen;
  if (Name == "all") {
    for (const workloads::AdversarySpec &Spec :
         workloads::adversarialCatalog())
      Chosen.push_back(&Spec);
  } else if (const workloads::AdversarySpec *Spec =
                 workloads::findAdversarial(Name)) {
    Chosen.push_back(Spec);
  } else {
    if (Error) {
      *Error = "unknown adversarial workload '" + Name +
               "'; pick one of: all";
      for (const workloads::AdversarySpec &Spec :
           workloads::adversarialCatalog())
        *Error += " " + Spec.Name;
    }
    return std::nullopt;
  }
  std::vector<Trace> Traces;
  Traces.reserve(Chosen.size());
  for (const workloads::AdversarySpec *Spec : Chosen)
    Traces.push_back(workloads::generateAdversarial(
        workloads::adversaryAtScale(*Spec, Scale), Seed));
  return Traces;
}

/// Assembles a SimConfig from the addSimConfigFlags() flags and validates
/// it. On failure returns nullopt with the description in \p Error.
inline std::optional<SimConfig> simConfigFromFlags(const FlagSet &Flags,
                                                   std::string *Error) {
  CostModel Costs;
  Costs.EvictionPerByte = Flags.getDouble("cost-evict-per-byte");
  Costs.EvictionBase = Flags.getDouble("cost-evict-base");
  Costs.MissPerByte = Flags.getDouble("cost-miss-per-byte");
  Costs.MissBase = Flags.getDouble("cost-miss-base");
  Costs.UnlinkPerLink = Flags.getDouble("cost-unlink-per-link");
  Costs.UnlinkBase = Flags.getDouble("cost-unlink-base");
  const int64_t Capacity = Flags.getInt("capacity");
  if (Capacity < 0) {
    if (Error)
      *Error = "bad capacity " + std::to_string(Capacity) +
               " (need >= 0; 0 = derive from --pressure)";
    return std::nullopt;
  }
  SimConfig Config;
  Config.withPressure(Flags.getDouble("pressure"))
      .withCapacityBytes(static_cast<uint64_t>(Capacity))
      .withCosts(Costs)
      .withChaining(!Flags.getBool("no-chain"));
  std::string Err = Config.validate();
  if (!Err.empty()) {
    if (Error)
      *Error = Err;
    return std::nullopt;
  }
  return Config;
}

/// Strict "--guest-threads" reader: 1..concurrent::MaxGuestThreads. Every
/// subcommand and manifest line that takes a guest count checks it here.
inline std::optional<unsigned> guestThreadsFromFlags(const FlagSet &Flags,
                                                     std::string *Error) {
  const auto K = boundedIntFlag(Flags, "guest-threads", 1,
                                concurrent::MaxGuestThreads, Error);
  if (!K)
    return std::nullopt;
  return static_cast<unsigned>(*K);
}

/// Strict "--jobs" reader: 0 (hardware threads) up to
/// ThreadPool::MaxThreads. Every driver and manifest line that takes a
/// worker count checks it here, before any pool is built.
inline std::optional<unsigned> jobsFromFlags(const FlagSet &Flags,
                                             std::string *Error) {
  const auto N =
      boundedIntFlag(Flags, "jobs", 0, ThreadPool::MaxThreads, Error);
  if (!N)
    return std::nullopt;
  return static_cast<unsigned>(*N);
}

/// Declares the tenancy-shaped flags: partition mode, interleave
/// schedule, and cross-tenant code sharing. Pairs with
/// tenancyPolicyFromFlags the way addSimConfigFlags pairs with
/// simConfigFromFlags.
inline void addTenancyFlags(FlagSet &Flags) {
  Flags.addString("mode", "shared", "shared | static | quota.");
  Flags.addString("schedule", "rr", "Interleaving: rr | weighted.");
  Flags.addBool("share-code", false,
                "ShareJIT-style cross-tenant content sharing: misses on "
                "content another tenant already has resident link the "
                "shared copy instead of installing a duplicate.");
}

/// Assembles a TenancyPolicy from the addPolicyFlag + addSimConfigFlags +
/// addTenancyFlags flags and validates it — the one construction path
/// `ccsim_cli tenants` and batch manifests share. The policy is built on
/// the SimConfig simConfigFromFlags already validated. On failure returns
/// nullopt with the description in \p Error.
inline std::optional<TenancyPolicy>
tenancyPolicyFromFlags(const FlagSet &Flags, std::string *Error) {
  const auto Spec = parsePolicySpec(Flags.getString("policy"), Error);
  if (!Spec)
    return std::nullopt;
  const auto SC = simConfigFromFlags(Flags, Error);
  if (!SC)
    return std::nullopt;
  const auto Mode = parsePartitionMode(Flags.getString("mode"), Error);
  if (!Mode)
    return std::nullopt;
  const auto Schedule =
      parseInterleaveKind(Flags.getString("schedule"), Error);
  if (!Schedule)
    return std::nullopt;
  TenancyPolicy Policy(*SC);
  Policy.Mode = *Mode;
  Policy.Schedule = *Schedule;
  Policy.Granularity = *Spec;
  Policy.ShareCode = Flags.getBool("share-code");
  std::string Err = Policy.validate();
  if (!Err.empty()) {
    if (Error)
      *Error = Err;
    return std::nullopt;
  }
  return Policy;
}

/// Resolves a Table 1 benchmark name to its workload model at \p Scale
/// (workloadAtScale), which scaleFlag has checked. On failure returns
/// nullopt with the description in \p Error.
inline std::optional<WorkloadModel>
workloadModelFor(const std::string &Name, double Scale, std::string *Error) {
  const WorkloadModel *M = findWorkload(Name);
  if (!M) {
    if (Error) {
      *Error = "unknown benchmark '" + Name + "'; pick one of:";
      for (const WorkloadModel &W : table1Workloads())
        *Error += " " + W.Name;
    }
    return std::nullopt;
  }
  return workloadAtScale(*M, Scale);
}

/// Resolves the addWorkloadFlags() flags to a workload model.
inline std::optional<WorkloadModel>
workloadFromFlags(const FlagSet &Flags, std::string *Error) {
  const auto Scale = scaleFlag(Flags, "scale", Error);
  if (!Scale)
    return std::nullopt;
  return workloadModelFor(Flags.getString("benchmark"), *Scale, Error);
}

/// Generates the trace the addWorkloadFlags() flags describe: the
/// statistical --benchmark by default, or the adversarial workload named
/// by --workload when set (single-trace contexts reject adversarial:all).
inline std::optional<Trace> workloadTraceFromFlags(const FlagSet &Flags,
                                                   std::string *Error) {
  const std::string Workload = Flags.getString("workload");
  if (!Workload.empty()) {
    const auto Scale = scaleFlag(Flags, "scale", Error);
    if (!Scale)
      return std::nullopt;
    auto Traces = adversarialTracesFromSpec(
        Workload, *Scale, static_cast<uint64_t>(Flags.getInt("seed")), Error);
    if (!Traces)
      return std::nullopt;
    if (Traces->size() != 1) {
      if (Error)
        *Error = "'" + Workload + "' names " +
                 std::to_string(Traces->size()) +
                 " workloads; this subcommand replays exactly one "
                 "(adversarial:all is for suite)";
      return std::nullopt;
    }
    return std::move(Traces->front());
  }
  const auto Model = workloadFromFlags(Flags, Error);
  if (!Model)
    return std::nullopt;
  return TraceGenerator::generateBenchmark(
      *Model, static_cast<uint64_t>(Flags.getInt("seed")));
}

} // namespace ccsim

#endif // CCSIM_EXAMPLES_SIMFLAGS_H
