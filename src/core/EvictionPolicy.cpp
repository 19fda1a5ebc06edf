//===- core/EvictionPolicy.cpp - Eviction granularity policies -----------===//

#include "core/EvictionPolicy.h"
#include "support/Contracts.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

using namespace ccsim;

EvictionPolicy::~EvictionPolicy() = default;

bool EvictionPolicy::usesBackPointerTable(uint64_t Capacity) const {
  return quantumBytes(Capacity) < Capacity;
}

void EvictionPolicy::noteAccess(bool) {}

bool EvictionPolicy::shouldFlushNow() { return false; }

void EvictionPolicy::noteFlush() {}

UnitFifoPolicy::UnitFifoPolicy(unsigned UnitCount) : UnitCount(UnitCount) {
  CCSIM_REQUIRE(UnitCount >= 1, "unit count must be at least 1");
}

std::string UnitFifoPolicy::name() const {
  if (UnitCount == 1)
    return "FLUSH";
  return std::to_string(UnitCount) + "-unit";
}

uint64_t UnitFifoPolicy::quantumBytes(uint64_t Capacity) const {
  return std::max<uint64_t>(1, Capacity / UnitCount);
}

AdaptiveGranularityPolicy::AdaptiveGranularityPolicy()
    : AdaptiveGranularityPolicy(Options()) {}

AdaptiveGranularityPolicy::AdaptiveGranularityPolicy(Options Opts)
    : Opts(std::move(Opts)) {
  CCSIM_REQUIRE(!this->Opts.Ladder.empty(), "ladder must be non-empty");
  CCSIM_REQUIRE(this->Opts.Thresholds.size() + 1 == this->Opts.Ladder.size(),
                "%zu thresholds for %zu ladder rungs (need one per transition)",
                this->Opts.Thresholds.size(), this->Opts.Ladder.size());
  CCSIM_REQUIRE(this->Opts.IntervalAccesses > 0,
                "interval must be positive");
  // Start in the middle of the ladder.
  Rung = this->Opts.Ladder.size() / 2;
}

uint64_t AdaptiveGranularityPolicy::quantumBytes(uint64_t Capacity) const {
  const unsigned Units = Opts.Ladder[Rung];
  if (Units == 0)
    return 1; // Fine-grained rung.
  return std::max<uint64_t>(1, Capacity / Units);
}

void AdaptiveGranularityPolicy::noteAccess(bool Hit) {
  ++IntervalAccesses;
  if (!Hit)
    ++IntervalMisses;
  if (IntervalAccesses >= Opts.IntervalAccesses)
    reevaluate();
}

void AdaptiveGranularityPolicy::reevaluate() {
  const double IntervalRate = static_cast<double>(IntervalMisses) /
                              static_cast<double>(IntervalAccesses);
  if (EwmaPrimed)
    Ewma = Opts.Alpha * IntervalRate + (1.0 - Opts.Alpha) * Ewma;
  else {
    Ewma = IntervalRate;
    EwmaPrimed = true;
  }
  IntervalAccesses = 0;
  IntervalMisses = 0;

  // Pick the target rung: high pressure -> rung 0 (coarsest/medium),
  // low pressure -> last rung (finest).
  size_t Target = Opts.Ladder.size() - 1;
  for (size_t I = 0; I < Opts.Thresholds.size(); ++I) {
    if (Ewma > Opts.Thresholds[I]) {
      Target = I;
      break;
    }
  }
  // Move one rung per interval for hysteresis.
  if (Target < Rung)
    --Rung;
  else if (Target > Rung)
    ++Rung;
}

PreemptiveFlushPolicy::PreemptiveFlushPolicy()
    : PreemptiveFlushPolicy(Options()) {}

PreemptiveFlushPolicy::PreemptiveFlushPolicy(Options Opts) : Opts(Opts) {
  CCSIM_REQUIRE(this->Opts.WindowAccesses > 0, "window must be positive");
}

void PreemptiveFlushPolicy::noteAccess(bool Hit) {
  ++WindowAccesses;
  ++AccessesSinceFlush;
  if (!Hit)
    ++WindowMisses;
  if (WindowAccesses < Opts.WindowAccesses)
    return;
  const double WindowRate = static_cast<double>(WindowMisses) /
                            static_cast<double>(WindowAccesses);
  if (WindowRate >= Opts.SpikeMissRate &&
      AccessesSinceFlush >= Opts.MinAccessesBetweenFlushes)
    Triggered = true;
  WindowAccesses = 0;
  WindowMisses = 0;
}

bool PreemptiveFlushPolicy::shouldFlushNow() {
  if (!Triggered)
    return false;
  Triggered = false;
  return true;
}

void PreemptiveFlushPolicy::noteFlush() { AccessesSinceFlush = 0; }

std::string GranularitySpec::label() const {
  switch (Kind) {
  case KindType::Flush:
    return "FLUSH";
  case KindType::Units:
    return std::to_string(Units) + "-unit";
  case KindType::Fine:
    return "FIFO";
  }
  return "?";
}

std::optional<GranularitySpec> ccsim::parsePolicySpec(const std::string &Text,
                                                      std::string *Error) {
  if (Text == "flush" || Text == "FLUSH")
    return GranularitySpec::flush();
  if (Text == "fine" || Text == "fifo" || Text == "FIFO")
    return GranularitySpec::fine();
  char *End = nullptr;
  const long long Units = std::strtoll(Text.c_str(), &End, 10);
  if (End && *End == '\0' && !Text.empty() && Units >= 1 &&
      Units <= std::numeric_limits<unsigned>::max())
    return GranularitySpec::units(static_cast<unsigned>(Units));
  if (Error)
    *Error = "bad policy '" + Text + "' (flush | fine | <unit count>)";
  return std::nullopt;
}

std::optional<std::vector<GranularitySpec>>
ccsim::parsePolicyList(const std::string &Text, std::string *Error) {
  std::vector<GranularitySpec> Specs;
  for (const std::string &Entry : splitList(Text)) {
    const auto Spec = parsePolicySpec(Entry, Error);
    if (!Spec)
      return std::nullopt;
    Specs.push_back(*Spec);
  }
  return Specs;
}

std::unique_ptr<EvictionPolicy> ccsim::makePolicy(const GranularitySpec &Spec) {
  switch (Spec.Kind) {
  case GranularitySpec::KindType::Flush:
    return std::make_unique<UnitFifoPolicy>(1);
  case GranularitySpec::KindType::Units:
    CCSIM_REQUIRE(Spec.Units >= 1, "unit count must be at least 1");
    return std::make_unique<UnitFifoPolicy>(Spec.Units);
  case GranularitySpec::KindType::Fine:
    return std::make_unique<FineFifoPolicy>();
  }
  return nullptr;
}

std::vector<GranularitySpec> ccsim::standardGranularitySweep() {
  std::vector<GranularitySpec> Sweep;
  Sweep.push_back(GranularitySpec::flush());
  for (unsigned N = 2; N <= 256; N *= 2)
    Sweep.push_back(GranularitySpec::units(N));
  Sweep.push_back(GranularitySpec::fine());
  return Sweep;
}
