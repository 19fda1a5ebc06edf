//===- concurrent/TenancyPolicy.cpp - Unified tenancy configuration ------===//

#include "concurrent/TenancyPolicy.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace ccsim;

std::optional<PartitionMode> ccsim::parsePartitionMode(const std::string &Text,
                                                       std::string *Error) {
  if (Text == "shared")
    return PartitionMode::Shared;
  if (Text == "static")
    return PartitionMode::StaticPartition;
  if (Text == "quota")
    return PartitionMode::UnitQuota;
  if (Error)
    *Error = "unknown mode '" + Text + "' (shared|static|quota)";
  return std::nullopt;
}

std::optional<InterleaveKind>
ccsim::parseInterleaveKind(const std::string &Text, std::string *Error) {
  if (Text == "rr" || Text == "round-robin")
    return InterleaveKind::RoundRobin;
  if (Text == "weighted")
    return InterleaveKind::Weighted;
  if (Error)
    *Error = "unknown schedule '" + Text + "' (rr|weighted)";
  return std::nullopt;
}

const char *ccsim::partitionModeLabel(PartitionMode Mode) {
  switch (Mode) {
  case PartitionMode::Shared:
    return "shared";
  case PartitionMode::StaticPartition:
    return "static-partition";
  case PartitionMode::UnitQuota:
    return "unit-quota";
  }
  return "unknown";
}

const char *ccsim::interleaveKindLabel(InterleaveKind Kind) {
  return Kind == InterleaveKind::RoundRobin ? "round-robin" : "weighted";
}

std::string TenancyPolicy::validate() const {
  std::string Err = SimConfig::validate();
  if (!Err.empty())
    return Err;
  if (Granularity.Kind == GranularitySpec::KindType::Units &&
      Granularity.Units < 1)
    return "unit granularity needs at least one unit";
  for (size_t I = 0; I < Tenants.size(); ++I)
    if (!(Tenants[I].Weight > 0.0)) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    "tenant %zu weight %g must be positive", I,
                    Tenants[I].Weight);
      return Buf;
    }
  return {};
}

std::string TenancyPolicy::validateTenantCount(size_t NumTraces) const {
  if (Tenants.empty() || Tenants.size() == NumTraces)
    return {};
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%zu traces but %zu tenant specs",
                NumTraces, Tenants.size());
  return Buf;
}

std::optional<std::vector<TenancyPolicy>>
ccsim::makeTenancyGrid(const TenancyPolicy &Base,
                       const std::string &Granularities,
                       const std::string &Modes, std::string *Error) {
  const auto Specs = parsePolicyList(Granularities, Error);
  if (!Specs)
    return std::nullopt;
  std::vector<PartitionMode> ModeList;
  for (const std::string &Text : splitList(Modes)) {
    const auto Mode = parsePartitionMode(Text, Error);
    if (!Mode)
      return std::nullopt;
    ModeList.push_back(*Mode);
  }
  std::vector<TenancyPolicy> Grid;
  for (const GranularitySpec &Spec : *Specs)
    for (PartitionMode Mode : ModeList) {
      TenancyPolicy Policy = Base;
      Policy.Granularity = Spec;
      Policy.Mode = Mode;
      std::string Err = Policy.validate();
      if (!Err.empty()) {
        if (Error)
          *Error = std::move(Err);
        return std::nullopt;
      }
      Grid.push_back(std::move(Policy));
    }
  return Grid;
}
