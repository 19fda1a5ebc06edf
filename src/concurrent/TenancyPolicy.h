//===- concurrent/TenancyPolicy.h - Unified tenancy configuration --------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one tenancy surface. A TenancyPolicy is a pure value describing
/// *what* a multi-tenant run simulates — isolation mode, interleave
/// schedule, eviction granularity, capacity/pressure, cost model,
/// chaining, cross-tenant content sharing, and per-tenant weights — and
/// TenantRunHooks carries *how* one particular execution is instrumented
/// (telemetry sink, audit level, cancellation). Every construction path
/// (`ccsim_cli tenants`, batch manifests, service::TenantJob, tests,
/// benches) builds the same TenancyPolicy and validates it with the same
/// validate().
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CONCURRENT_TENANCYPOLICY_H
#define CCSIM_CONCURRENT_TENANCYPOLICY_H

#include "core/CacheEngine.h"
#include "support/Cancellation.h"

#include <optional>
#include <string>
#include <string_view>
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
/// "static", "quota"); std::nullopt on anything else.
std::optional<PartitionMode> parsePartitionMode(std::string_view Text);

/// Parses the CLI/manifest spelling of a schedule ("rr", "weighted").
std::optional<InterleaveKind> parseInterleaveKind(std::string_view Text);

/// Report/metric label of \p Mode ("shared", "static-partition",
/// "unit-quota").
const char *partitionModeLabel(PartitionMode Mode);

/// Report/metric label of \p Kind ("round-robin", "weighted").
const char *interleaveKindLabel(InterleaveKind Kind);

/// What a multi-tenant run simulates. Pure value type: no pointers to
/// live objects, copyable, comparable by field.
struct TenancyPolicy {
  PartitionMode Mode = PartitionMode::Shared;
  InterleaveKind Schedule = InterleaveKind::RoundRobin;
  uint64_t ScheduleSeed = 0x7e9a9751ULL;

  /// Eviction granularity. Under UnitQuota the unit count also defines the
  /// quota currency: a cache of capacity C run at N units has units of
  /// C / N bytes, and tenant i receives round(N * share_i) of them.
  GranularitySpec Granularity = GranularitySpec::units(8);

  /// Shared capacity = sum of tenant maxCache / PressureFactor, unless
  /// ExplicitCapacityBytes overrides it.
  double PressureFactor = 2.0;
  uint64_t ExplicitCapacityBytes = 0;

  CostModel Costs = CostModel::paperDefaults();
  bool EnableChaining = true;

  /// ShareJIT-style cross-tenant content sharing: misses on content that
  /// is already resident under another tenant's id link the shared copy
  /// (core/SharedContentIndex) instead of installing a duplicate. Off by
  /// default — disabled runs are byte-identical to pre-sharing builds.
  bool ShareCode = false;

  /// Optional per-tenant weights; defaults to 1.0 each.
  std::vector<TenantSpec> Tenants;

  // Fluent setters, mirroring SimConfig's.
  TenancyPolicy &withMode(PartitionMode M) {
    Mode = M;
    return *this;
  }
  TenancyPolicy &withSchedule(InterleaveKind K) {
    Schedule = K;
    return *this;
  }
  TenancyPolicy &withScheduleSeed(uint64_t Seed) {
    ScheduleSeed = Seed;
    return *this;
  }
  TenancyPolicy &withGranularity(const GranularitySpec &Spec) {
    Granularity = Spec;
    return *this;
  }
  TenancyPolicy &withPressure(double Factor) {
    PressureFactor = Factor;
    return *this;
  }
  TenancyPolicy &withCapacityBytes(uint64_t Bytes) {
    ExplicitCapacityBytes = Bytes;
    return *this;
  }
  TenancyPolicy &withCosts(const CostModel &Model) {
    Costs = Model;
    return *this;
  }
  TenancyPolicy &withChaining(bool Enable) {
    EnableChaining = Enable;
    return *this;
  }
  TenancyPolicy &withShareCode(bool Enable) {
    ShareCode = Enable;
    return *this;
  }
  TenancyPolicy &withTenants(std::vector<TenantSpec> Specs) {
    Tenants = std::move(Specs);
    return *this;
  }

  /// Empty when the policy is usable, else a descriptive error (same
  /// contract as SimConfig::validate).
  std::string validate() const;
};

/// How one execution of a policy is instrumented. Separated from
/// TenancyPolicy because these are pointers to live objects owned by the
/// caller, not part of the experiment's identity.
struct TenantRunHooks {
  /// Optional telemetry endpoint. run() tags every tenant with a
  /// TenantTag record, forwards the sink into the underlying cache
  /// manager(s), and publishes per-tenant and global metrics labeled by
  /// tenant name and partition mode. Null costs nothing.
  telemetry::TelemetrySink *Telemetry = nullptr;

  /// Deep structural auditing of every underlying manager during the
  /// replay (check::armAuditor; check::armSharedTenancyAuditors when the
  /// policy shares code). Defaults to Full in CCSIM_PARANOID builds, Off
  /// otherwise; violations print their report and abort.
  AuditLevel Audit = defaultAuditLevel();

  /// Optional cooperative cancellation. When set, run() polls the token
  /// every CancelCheckInterval interleaved accesses and throws
  /// ReplayCancelled when it asks to stop.
  CancelToken *Cancel = nullptr;

  /// Interleaved accesses between cancellation checks.
  uint32_t CancelCheckInterval = 1024;

  TenantRunHooks &withTelemetry(telemetry::TelemetrySink *Sink) {
    Telemetry = Sink;
    return *this;
  }
  TenantRunHooks &withAudit(AuditLevel Level) {
    Audit = Level;
    return *this;
  }
  TenantRunHooks &withCancel(CancelToken *Token) {
    Cancel = Token;
    return *this;
  }
  TenantRunHooks &withCancelCheckInterval(uint32_t Interval) {
    CancelCheckInterval = Interval;
    return *this;
  }

  /// Empty when the hooks are usable, else a descriptive error.
  std::string validate() const;
};

} // namespace ccsim

#endif // CCSIM_CONCURRENT_TENANCYPOLICY_H
