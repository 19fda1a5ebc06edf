//===- service/LoadDriver.h - Sustained-load service driver ---------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a SimService at sustained load: thousands of ReplayJobs (K
/// guest threads each) pushed through a bounded admission queue faster
/// than the workers drain it, so the configured backpressure policy
/// (shed / reject / block) actually engages. The report is an exact
/// accounting -- every submitted job ends in exactly one terminal state,
/// and the driver checks that the tallies sum back to the submission
/// count -- which is what the service bench gates on.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SERVICE_LOADDRIVER_H
#define CCSIM_SERVICE_LOADDRIVER_H

#include "service/SimService.h"

#include <cstdint>

namespace ccsim::service {

/// Configuration of one sustained-load run.
struct LoadDriverConfig {
  /// Template workload; every job replays its own copy.
  Trace TraceData;
  GranularitySpec Spec = GranularitySpec::units(8);

  /// Guest threads per replay job (1 = exact serial semantics).
  unsigned GuestThreads = 1;
  double PressureFactor = 8.0;
  AuditLevel Audit = AuditLevel::Off;

  /// Jobs submitted in total.
  uint64_t TotalJobs = 2000;

  /// Service shape under test.
  unsigned Workers = 2;
  size_t QueueCapacity = 64;
  BackpressurePolicy Pressure = BackpressurePolicy::ShedOldest;

  /// Service-side telemetry (queue gauges, outcome counters, JobState
  /// events). Null disables it.
  telemetry::TelemetrySink *Telemetry = nullptr;
};

/// Exact accounting of one sustained-load run.
struct LoadDriverReport {
  uint64_t Submitted = 0;
  uint64_t Done = 0;
  uint64_t Failed = 0;
  uint64_t Cancelled = 0;
  uint64_t TimedOut = 0;
  uint64_t Rejected = 0;
  uint64_t Shed = 0;

  /// Sum of Stats.Accesses over Done jobs.
  uint64_t AccessesReplayed = 0;

  /// Every job reached exactly one terminal state and the per-state
  /// tallies sum to Submitted (the service conservation law).
  bool Accounted = false;
};

/// Submits Config.TotalJobs replay jobs, drains the service, and
/// tallies every terminal outcome.
LoadDriverReport runSustainedLoad(const LoadDriverConfig &Config);

} // namespace ccsim::service

#endif // CCSIM_SERVICE_LOADDRIVER_H
