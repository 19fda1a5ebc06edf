//===- concurrent/TenancyPolicy.h - Unified tenancy configuration --------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one tenancy surface. A multi-tenant run is the serial simulator's
/// run over more than one trace, so TenancyPolicy *is* a SimConfig:
/// pressure (applied to the tenants' summed maxCache), explicit capacity,
/// cost model, chaining and audit level mean what they mean to sim::run,
/// and the telemetry sink receives the per-tenant and global series of
/// MultiTenantSimulator::run. It declares only the six fields
/// tenancy adds: isolation mode, interleave schedule and its seed,
/// eviction granularity, cross-tenant content sharing, and per-tenant
/// weights. Like SharedRunConfig it has no setters of its own; an
/// inherited SimConfig setter returns the base. Every construction path
/// (`ccsim_cli tenants`, batch manifests, service::TenantJob, tests,
/// benches) builds the same TenancyPolicy and checks it with the same
/// validate().
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CONCURRENT_TENANCYPOLICY_H
#define CCSIM_CONCURRENT_TENANCYPOLICY_H

#include "sim/Simulator.h"

#include <optional>
#include <string>
#include <vector>

namespace ccsim {

/// How the shared capacity is divided between tenants.
enum class PartitionMode {
  Shared,          ///< One cache, one FIFO: any tenant may evict any other.
  StaticPartition, ///< Capacity split by weight; full isolation.
  UnitQuota,       ///< Capacity split in whole eviction units; each tenant
                   ///< keeps unit-FIFO eviction inside its own quota.
};

/// How tenant access streams are interleaved.
enum class InterleaveKind {
  RoundRobin, ///< One access per live tenant, in tenant order.
  Weighted,   ///< Seeded draw proportional to tenant weight.
};

/// Per-tenant configuration. Weight scales both the Weighted schedule and
/// the tenant's capacity share under the partitioned modes.
struct TenantSpec {
  double Weight = 1.0;
};

/// Parses the CLI/manifest spelling of a partition mode ("shared",
/// "static", "quota"); std::nullopt with the description in \p Error on
/// anything else.
std::optional<PartitionMode> parsePartitionMode(const std::string &Text,
                                                std::string *Error);

/// Parses the CLI/manifest spelling of a schedule ("rr", "weighted");
/// std::nullopt with the description in \p Error on anything else.
std::optional<InterleaveKind> parseInterleaveKind(const std::string &Text,
                                                  std::string *Error);

/// Report/metric label of \p Mode ("shared", "static-partition",
/// "unit-quota").
const char *partitionModeLabel(PartitionMode Mode);

/// Report/metric label of \p Kind ("round-robin", "weighted").
const char *interleaveKindLabel(InterleaveKind Kind);

/// What a multi-tenant run simulates and how it is instrumented: the
/// base SimConfig with identical semantics, plus the tenancy fields.
struct TenancyPolicy : SimConfig {
  TenancyPolicy() = default;

  /// \p Base as a tenancy run with every tenancy field at its default:
  /// the base carries over whole, the way SharedRunConfig(Base, K) does.
  explicit TenancyPolicy(const SimConfig &Base) : SimConfig(Base) {}

  PartitionMode Mode = PartitionMode::Shared;
  InterleaveKind Schedule = InterleaveKind::RoundRobin;
  uint64_t ScheduleSeed = 0x7e9a9751ULL;

  /// Eviction granularity. Under UnitQuota the unit count also defines the
  /// quota currency: a cache of capacity C run at N units has units of
  /// C / N bytes, and tenant i receives round(N * share_i) of them.
  GranularitySpec Granularity = GranularitySpec::units(8);

  /// ShareJIT-style cross-tenant content sharing: misses on content that
  /// is already resident under another tenant's id link the shared copy
  /// (core/SharedContentIndex) instead of installing a duplicate. Off by
  /// default — disabled runs are byte-identical to pre-sharing builds.
  bool ShareCode = false;

  /// Optional per-tenant weights: empty (every tenant weighs 1.0) or one
  /// spec per trace (validateTenantCount).
  std::vector<TenantSpec> Tenants;

  /// SimConfig::validate(), then the granularity and weight checks. Empty
  /// when the policy is usable, else a descriptive error.
  std::string validate() const;

  /// The one tenant-count rule, for a run over \p NumTraces traces: the
  /// tenant list is empty or holds one spec per trace. Empty when it
  /// holds, else a descriptive error.
  std::string validateTenantCount(size_t NumTraces) const;
};

/// The tenancy counterpart of makeSweepGrid: one policy per (granularity,
/// mode) pair of the comma-separated \p Granularities ("flush,8,fine")
/// and \p Modes ("shared,static,quota") lists, granularity-major, each
/// \p Base with that pair and validated. nullopt with the first bad entry
/// or failing policy in \p Error, so a typo stops a sweep before any run.
std::optional<std::vector<TenancyPolicy>>
makeTenancyGrid(const TenancyPolicy &Base, const std::string &Granularities,
                const std::string &Modes, std::string *Error);

} // namespace ccsim

#endif // CCSIM_CONCURRENT_TENANCYPOLICY_H
