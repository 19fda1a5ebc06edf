//===- workloads/Degradation.cpp - Adversary vs. benign overhead ratios ---===//

#include "workloads/Degradation.h"

#include "sim/Simulator.h"
#include "support/Contracts.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"

using namespace ccsim;
using namespace ccsim::workloads;

std::vector<DegradationCell>
ccsim::workloads::computeDegradation(const DegradationConfig &Config) {
  const WorkloadModel *Model = findWorkload(Config.BaselineBenchmark);
  CCSIM_REQUIRE(Model, "unknown baseline benchmark '%s'",
                Config.BaselineBenchmark.c_str());
  const Trace Benign = TraceGenerator::generateBenchmark(
      workloadAtScale(*Model, Config.Scale), Config.Seed);
  const uint64_t Length = Benign.numAccesses();
  const uint64_t BenignMax = Benign.maxCacheBytes();

  std::vector<DegradationCell> Cells;
  for (const AdversarySpec &Entry : adversarialCatalog()) {
    AdversarySpec Spec = adversaryAtScale(Entry, Config.Scale);
    Spec.Accesses = Length; // Equal trace length by construction.
    const Trace Adversarial = generateAdversarial(Spec, Config.Seed);
    const uint64_t AdvCapacity = Spec.tunedCapacityBytes();
    const uint64_t AdvMax = Adversarial.maxCacheBytes();
    // Same capacity fraction of each trace's own maxCache: equal
    // relative pressure, so the ratio isolates access structure.
    const uint64_t BaseCapacity = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<long double>(BenignMax) *
                                 AdvCapacity / AdvMax));

    for (const GranularitySpec &Policy : Config.Policies) {
      SimConfig AdvConfig;
      AdvConfig.withCapacityBytes(AdvCapacity).withCosts(Config.Costs);
      AdvConfig.Audit = AuditLevel::Off; // Pin speed in paranoid builds.
      SimConfig BaseConfig;
      BaseConfig.withCapacityBytes(BaseCapacity).withCosts(Config.Costs);
      BaseConfig.Audit = AuditLevel::Off;

      DegradationCell Cell;
      Cell.Adversary = Spec.Name;
      Cell.PolicyLabel = Policy.label();
      Cell.AdversaryCapacityBytes = AdvCapacity;
      Cell.BaselineCapacityBytes = BaseCapacity;
      Cell.Adversarial = sim::run(Adversarial, Policy, AdvConfig).Stats;
      Cell.Baseline = sim::run(Benign, Policy, BaseConfig).Stats;
      Cells.push_back(std::move(Cell));
    }
  }
  return Cells;
}

const DegradationCell *
ccsim::workloads::worstCell(const std::vector<DegradationCell> &Cells) {
  const DegradationCell *Worst = nullptr;
  for (const DegradationCell &Cell : Cells)
    if (!Worst || Cell.degradation() > Worst->degradation())
      Worst = &Cell;
  return Worst;
}
