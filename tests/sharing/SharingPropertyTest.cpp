//===- tests/sharing/SharingPropertyTest.cpp - Refcount conservation ------===//
//
// Property: for ANY overlap suite (tenant count, overlap fraction, block
// count, seed) replayed under ANY tenancy shape (partition mode,
// granularity, pressure) with sharing on and Full audits armed, the
// share-link conservation identity holds at the end of the run:
//
//   Global.SharedInstalls - Global.UnshareUnlinks == FinalShareLinks
//
// and the per-tenant share counters sum exactly to the merged globals.
// The Full audit level means every access already re-validated the index
// against the fleet (share.* rules) — a violation aborts the run, so a
// passing case certifies the whole trajectory, not just the final state.
//
//===----------------------------------------------------------------------===//

#include "concurrent/MultiTenantSimulator.h"
#include "support/Random.h"
#include "workloads/Adversary.h"

#include "../support/PropertyHarness.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace ccsim;
using namespace ccsim::proptest;
using namespace ccsim::workloads;

namespace {

struct ShareCase {
  uint32_t Tenants = 3;
  uint32_t OverlapPct = 50;
  uint32_t Blocks = 128;
  int GranIdx = 1; // 0 flush, 1 units(8), 2 fine.
  int ModeIdx = 0; // 0 shared, 1 static, 2 quota.
  double Pressure = 2.0;
  uint64_t TraceSeed = 1;
};

GranularitySpec granOf(const ShareCase &C) {
  switch (C.GranIdx) {
  case 0:
    return GranularitySpec::flush();
  case 2:
    return GranularitySpec::fine();
  default:
    return GranularitySpec::units(8);
  }
}

PartitionMode modeOf(const ShareCase &C) {
  switch (C.ModeIdx) {
  case 1:
    return PartitionMode::StaticPartition;
  case 2:
    return PartitionMode::UnitQuota;
  default:
    return PartitionMode::Shared;
  }
}

Property<ShareCase> conservationProperty() {
  Property<ShareCase> P;

  P.Sample = [](uint64_t Seed) {
    Rng R(Seed);
    ShareCase C;
    C.Tenants = 2 + static_cast<uint32_t>(R.nextBelow(3));
    C.OverlapPct = static_cast<uint32_t>(R.nextBelow(101));
    C.Blocks = 64 + static_cast<uint32_t>(R.nextBelow(97));
    C.GranIdx = static_cast<int>(R.nextBelow(3));
    C.ModeIdx = static_cast<int>(R.nextBelow(3));
    C.Pressure = 1.5 + R.nextDouble() * 4.5;
    C.TraceSeed = R.next64();
    return C;
  };

  P.Check = [](const ShareCase &C) -> std::string {
    AdversarySpec Spec = *findAdversarial("overlap");
    Spec.Tenants = C.Tenants;
    Spec.OverlapFraction = C.OverlapPct / 100.0;
    Spec.Blocks = C.Blocks;
    const std::vector<Trace> Traces =
        generateTenantOverlapSuite(Spec, C.TraceSeed);

    TenancyPolicy Policy;
    Policy.Mode = modeOf(C);
    Policy.Granularity = granOf(C);
    Policy.PressureFactor = C.Pressure;
    Policy.ShareCode = true;
    // Full audits re-run the share.* family over the whole fleet after
    // every access; the run aborts on the first inconsistent state.
    Policy.Audit = AuditLevel::Full;

    MultiTenantSimulator Sim(Traces, Policy);
    const MultiTenantResult R = Sim.run();

    char Buf[160];
    if (R.Global.SharedInstalls !=
        R.Global.UnshareUnlinks + R.FinalShareLinks) {
      std::snprintf(Buf, sizeof(Buf),
                    "conservation broken: installs %llu != unshares %llu "
                    "+ live links %llu",
                    static_cast<unsigned long long>(R.Global.SharedInstalls),
                    static_cast<unsigned long long>(R.Global.UnshareUnlinks),
                    static_cast<unsigned long long>(R.FinalShareLinks));
      return Buf;
    }

    uint64_t Installs = 0, Unshares = 0, BytesSaved = 0;
    for (const TenantResult &T : R.Tenants) {
      Installs += T.SharedInstalls;
      Unshares += T.UnshareUnlinks;
      BytesSaved += T.SharedBytesSaved;
    }
    if (Installs != R.Global.SharedInstalls ||
        Unshares != R.Global.UnshareUnlinks ||
        BytesSaved != R.Global.SharedBytesSaved) {
      std::snprintf(Buf, sizeof(Buf),
                    "per-tenant share sums drifted from the merged globals "
                    "(installs %llu vs %llu)",
                    static_cast<unsigned long long>(Installs),
                    static_cast<unsigned long long>(R.Global.SharedInstalls));
      return Buf;
    }

    if (R.Global.Hits + R.Global.Misses != R.Global.Accesses)
      return "hit/miss identity broken under sharing";

    // Links can only exist toward registered entries.
    if (R.FinalSharedEntries == 0 && R.FinalShareLinks != 0)
      return "live links without any index entries";
    return {};
  };

  P.Shrink = [](const ShareCase &C) {
    std::vector<ShareCase> Variants;
    auto With = [&](auto Mutate) {
      ShareCase V = C;
      Mutate(V);
      Variants.push_back(V);
    };
    if (C.Tenants > 2)
      With([](ShareCase &V) { V.Tenants = 2; });
    if (C.Blocks > 64)
      With([](ShareCase &V) { V.Blocks = 64; });
    if (C.OverlapPct != 100)
      With([](ShareCase &V) { V.OverlapPct = 100; });
    if (C.ModeIdx != 0)
      With([](ShareCase &V) { V.ModeIdx = 0; });
    if (C.GranIdx != 1)
      With([](ShareCase &V) { V.GranIdx = 1; });
    if (C.Pressure != 2.0)
      With([](ShareCase &V) { V.Pressure = 2.0; });
    return Variants;
  };

  P.Describe = [](const ShareCase &C) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "tenants=%u overlap=%u%% blocks=%u gran=%d mode=%d "
                  "pressure=%.2f seed=%llu",
                  C.Tenants, C.OverlapPct, C.Blocks, C.GranIdx, C.ModeIdx,
                  C.Pressure,
                  static_cast<unsigned long long>(C.TraceSeed));
    return std::string(Buf);
  };

  return P;
}

} // namespace

TEST(SharingPropertyTest, RefCountConservationUnderRandomTenancy) {
  const auto Result =
      checkProperty(conservationProperty(), 0xC0DE5EEDULL, 12);
  EXPECT_TRUE(Result.Passed) << Result.render(conservationProperty());
}
