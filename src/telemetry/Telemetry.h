//===- telemetry/Telemetry.h - Telemetry sink facade ---------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one object drivers thread through the stack: an event tracer plus a
/// metrics registry. Every configuration struct that can emit telemetry
/// (CacheEngineConfig, TranslatorConfig, and SimConfig -- which the
/// shared-engine and multi-tenant configs derive from) carries a
/// `TelemetrySink *` defaulting to null; a null sink is the disabled fast
/// path and costs one predictable branch per emission site, with no
/// allocation and no locking.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TELEMETRY_TELEMETRY_H
#define CCSIM_TELEMETRY_TELEMETRY_H

#include "telemetry/EventTracer.h"
#include "telemetry/MetricsRegistry.h"

namespace ccsim {
namespace telemetry {

/// Shared observability endpoint. Thread-safe: one sink may serve many
/// cache managers across sweep worker threads.
struct TelemetrySink {
  EventTracer Tracer;
  MetricsRegistry Metrics;

  explicit TelemetrySink(size_t RingCapacity = 1 << 16)
      : Tracer(RingCapacity) {}
};

} // namespace telemetry
} // namespace ccsim

#endif // CCSIM_TELEMETRY_TELEMETRY_H
