//===- tests/workloads/AdversarialGeneratorTest.cpp - Generator tests -----===//
//
// Structural contracts of every adversarial generator (the stream shapes
// DESIGN.md section 16 derives), the validate() rejection table for
// impossible specs, and a seeded fuzz sweep: any spec that validates must
// generate a Trace::validate()-clean trace that replays at degenerate
// cache capacities — including capacities smaller than one superblock —
// with the full structural auditor armed and without aborting.
//
//===----------------------------------------------------------------------===//

#include "workloads/Adversary.h"

#include "sim/Simulator.h"
#include "support/Random.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "../support/PropertyHarness.h"

using namespace ccsim;
using namespace ccsim::workloads;

namespace {

AdversarySpec baseSpec(AdversaryKind Kind, uint32_t Blocks) {
  AdversarySpec Spec;
  Spec.Name = "t";
  Spec.Kind = Kind;
  Spec.Blocks = Blocks;
  Spec.BlockBytes = 64;
  return Spec;
}

/// Replays \p T at \p CapacityBytes under every standard granularity with
/// the deep auditor armed; returns the first structural error ("" = ok).
std::string replayEverywhere(const Trace &T, uint64_t CapacityBytes) {
  for (const GranularitySpec &Spec : standardGranularitySweep()) {
    SimConfig Config;
    Config.withCapacityBytes(CapacityBytes);
    Config.Audit = AuditLevel::Full;
    const SimResult R = sim::run(T, Spec, Config);
    if (R.Stats.Accesses != R.Stats.Hits + R.Stats.Misses)
      return "accesses != hits + misses under " + Spec.label();
  }
  return {};
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-kind structural contracts
//===----------------------------------------------------------------------===//

TEST(AdversarialGeneratorTest, ConflictChainIsCyclicWithSuccessorEdges) {
  AdversarySpec Spec = baseSpec(AdversaryKind::ConflictChain, 16);
  Spec.Accesses = 64;
  const Trace T = generateAdversarial(Spec, 1);
  ASSERT_TRUE(T.validate());
  ASSERT_EQ(T.numSuperblocks(), 16u);
  ASSERT_EQ(T.numAccesses(), 64u);

  // The stream walks the chain cyclically, so discovery order makes the
  // dense ids equal the chain order: access i dispatches block i mod N.
  for (size_t I = 0; I < T.Accesses.size(); ++I)
    EXPECT_EQ(T.Accesses[I], static_cast<SuperblockId>(I % 16));

  // Every block branches to exactly its successor: the link graph is one
  // cycle, so every eviction of a resident successor costs an unlink.
  for (size_t B = 0; B < T.Blocks.size(); ++B) {
    ASSERT_EQ(T.Blocks[B].OutEdges.size(), 1u);
    EXPECT_EQ(T.Blocks[B].OutEdges[0],
              static_cast<SuperblockId>((B + 1) % 16));
  }
}

TEST(AdversarialGeneratorTest, ThrashLoopChurnReturnsToHotLoop) {
  AdversarySpec Spec = baseSpec(AdversaryKind::ThrashLoop, 32);
  Spec.ChurnPerLap = 0.5;
  const Trace T = generateAdversarial(Spec, 7);
  ASSERT_TRUE(T.validate());

  // Hot blocks (the first 32 discovered) recur; churn blocks appear
  // exactly once — they are the one-shot transients that force eviction.
  std::vector<size_t> Count(T.numSuperblocks(), 0);
  for (SuperblockId Id : T.Accesses)
    ++Count[Id];
  size_t OneShot = 0;
  for (size_t B = 0; B < Count.size(); ++B) {
    ASSERT_GT(Count[B], 0u);
    if (Count[B] == 1)
      ++OneShot;
  }
  EXPECT_EQ(OneShot, T.numSuperblocks() - 32);
  EXPECT_GT(OneShot, 0u);
}

TEST(AdversarialGeneratorTest, ThrashLoopZeroChurnIsPureLoop) {
  AdversarySpec Spec = baseSpec(AdversaryKind::ThrashLoop, 8);
  Spec.ChurnPerLap = 0.0;
  Spec.Accesses = 40;
  const Trace T = generateAdversarial(Spec, 3);
  ASSERT_TRUE(T.validate());
  EXPECT_EQ(T.numSuperblocks(), 8u);
  for (size_t I = 0; I < T.Accesses.size(); ++I)
    EXPECT_EQ(T.Accesses[I], static_cast<SuperblockId>(I % 8));
}

TEST(AdversarialGeneratorTest, LinkCliqueIsAllToAll) {
  AdversarySpec Spec = baseSpec(AdversaryKind::LinkClique, 12);
  Spec.CliqueSize = 4;
  const Trace T = generateAdversarial(Spec, 1);
  ASSERT_TRUE(T.validate());
  ASSERT_EQ(T.numSuperblocks(), 12u);

  // Every member points at all CliqueSize members of its own clique,
  // itself included: maximal in-degree per victim is what maximizes the
  // Eq. 4 unlink term.
  for (size_t B = 0; B < T.Blocks.size(); ++B) {
    const size_t Clique = B / 4;
    ASSERT_EQ(T.Blocks[B].OutEdges.size(), 4u);
    std::set<SuperblockId> Targets(T.Blocks[B].OutEdges.begin(),
                                   T.Blocks[B].OutEdges.end());
    ASSERT_EQ(Targets.size(), 4u);
    for (SuperblockId Target : Targets)
      EXPECT_EQ(Target / 4, Clique);
    EXPECT_EQ(Targets.count(static_cast<SuperblockId>(B)), 1u);
  }
}

TEST(AdversarialGeneratorTest, SingleBlockCliquesSelfLinkOnly) {
  AdversarySpec Spec = baseSpec(AdversaryKind::LinkClique, 6);
  Spec.CliqueSize = 1;
  const Trace T = generateAdversarial(Spec, 1);
  ASSERT_TRUE(T.validate());
  for (size_t B = 0; B < T.Blocks.size(); ++B) {
    ASSERT_EQ(T.Blocks[B].OutEdges.size(), 1u);
    EXPECT_EQ(T.Blocks[B].OutEdges[0], static_cast<SuperblockId>(B));
  }
}

TEST(AdversarialGeneratorTest, PhaseShiftUsesDisjointWorkingSets) {
  AdversarySpec Spec = baseSpec(AdversaryKind::PhaseShift, 8);
  Spec.Phases = 4;
  const Trace T = generateAdversarial(Spec, 5);
  ASSERT_TRUE(T.validate());
  ASSERT_EQ(T.numSuperblocks(), 8u * 4u);

  // The access stream visits the phases in order and never returns to an
  // earlier one: ids are discovery-dense, so the stream's running max
  // identifies the current phase.
  SuperblockId MaxSeen = 0;
  for (SuperblockId Id : T.Accesses) {
    MaxSeen = std::max(MaxSeen, Id);
    EXPECT_EQ(Id / 8, MaxSeen / 8); // Never dips into an earlier phase.
  }
  EXPECT_EQ(MaxSeen, static_cast<SuperblockId>(8 * 4 - 1));
}

TEST(AdversarialGeneratorTest, PhaseShiftMorePhasesThanAccessesIsValid) {
  // Zero-length phases: 7 accesses cannot visit 16 phases, so trailing
  // phases are empty. The generator must still emit a validate()-clean
  // trace (undiscovered blocks dropped, not defined-but-unaccessed).
  AdversarySpec Spec = baseSpec(AdversaryKind::PhaseShift, 4);
  Spec.Phases = 16;
  Spec.Accesses = 7;
  EXPECT_EQ(Spec.validate(), "");
  const Trace T = generateAdversarial(Spec, 2);
  EXPECT_TRUE(T.validate());
  EXPECT_LE(T.numSuperblocks(), 7u);
  EXPECT_EQ(T.numAccesses(), 7u);
}

TEST(AdversarialGeneratorTest, TenantOverlapKnobs) {
  // Full overlap: every tenant walks the same shared pool.
  AdversarySpec Full = baseSpec(AdversaryKind::TenantOverlap, 10);
  Full.Tenants = 3;
  Full.OverlapFraction = 1.0;
  const Trace TFull = generateAdversarial(Full, 9);
  ASSERT_TRUE(TFull.validate());
  EXPECT_EQ(TFull.numSuperblocks(), 10u);

  // Zero overlap: tenants are disjoint, so the union is Tenants * Blocks.
  AdversarySpec None = Full;
  None.OverlapFraction = 0.0;
  const Trace TNone = generateAdversarial(None, 9);
  ASSERT_TRUE(TNone.validate());
  EXPECT_EQ(TNone.numSuperblocks(), 30u);

  // A single tenant degenerates to one sequential stream.
  AdversarySpec Solo = Full;
  Solo.Tenants = 1;
  Solo.OverlapFraction = 0.5;
  const Trace TSolo = generateAdversarial(Solo, 9);
  ASSERT_TRUE(TSolo.validate());
  EXPECT_EQ(TSolo.numSuperblocks(), 10u);
}

TEST(AdversarialGeneratorTest, SelfModifyingStrandsOldVersions) {
  AdversarySpec Spec = baseSpec(AdversaryKind::SelfModifying, 4);
  Spec.Versions = 3;
  Spec.RewriteInterval = 8;
  const Trace T = generateAdversarial(Spec, 11);
  ASSERT_TRUE(T.validate());
  // Every logical block reaches its final generation: 4 blocks times 3
  // versions of distinct superblocks.
  EXPECT_EQ(T.numSuperblocks(), 12u);

  // Once a logical block is rewritten its dead version is never
  // dispatched again: with discovery-dense ids, any two superblocks first
  // seen in order A-then-B where B replaces A must have disjoint use
  // intervals. Cheap seed-independent form: every superblock's last use
  // comes after its first use, and the count of one-use-only blocks is
  // zero (every version runs RewriteInterval times before dying, the
  // final version longer).
  std::vector<size_t> Uses(T.numSuperblocks(), 0);
  for (SuperblockId Id : T.Accesses)
    ++Uses[Id];
  for (size_t B = 0; B < Uses.size(); ++B)
    EXPECT_GE(Uses[B], static_cast<size_t>(Spec.RewriteInterval)) << B;
  EXPECT_EQ(Spec.plannedBlocks(), 12u);
}

//===----------------------------------------------------------------------===//
// Spec validation: impossible shapes are rejected up front
//===----------------------------------------------------------------------===//

TEST(AdversarialGeneratorTest, ValidateRejectsImpossibleSpecs) {
  const auto Rejects = [](AdversarySpec Spec) {
    EXPECT_NE(Spec.validate(), "") << "spec should have been rejected";
  };
  Rejects(baseSpec(AdversaryKind::ConflictChain, 0));
  AdversarySpec ZeroBytes = baseSpec(AdversaryKind::ConflictChain, 8);
  ZeroBytes.BlockBytes = 0;
  Rejects(ZeroBytes);
  AdversarySpec NoUnits = baseSpec(AdversaryKind::ConflictChain, 8);
  NoUnits.TargetUnits = 0;
  Rejects(NoUnits);
  AdversarySpec NoName = baseSpec(AdversaryKind::ConflictChain, 8);
  NoName.Name.clear();
  Rejects(NoName);
  AdversarySpec BadHot = baseSpec(AdversaryKind::ThrashLoop, 8);
  BadHot.HotFraction = 0.0;
  Rejects(BadHot);
  BadHot.HotFraction = 1.5;
  Rejects(BadHot);
  AdversarySpec BadChurn = baseSpec(AdversaryKind::ThrashLoop, 8);
  BadChurn.ChurnPerLap = -0.25;
  Rejects(BadChurn);
  AdversarySpec NoPhases = baseSpec(AdversaryKind::PhaseShift, 8);
  NoPhases.Phases = 0;
  Rejects(NoPhases);
  AdversarySpec NoClique = baseSpec(AdversaryKind::LinkClique, 8);
  NoClique.CliqueSize = 0;
  Rejects(NoClique);
  AdversarySpec NoTenants = baseSpec(AdversaryKind::TenantOverlap, 8);
  NoTenants.Tenants = 0;
  Rejects(NoTenants);
  AdversarySpec BadOverlap = baseSpec(AdversaryKind::TenantOverlap, 8);
  BadOverlap.OverlapFraction = 1.5;
  Rejects(BadOverlap);
  BadOverlap.OverlapFraction = -0.1;
  Rejects(BadOverlap);
  AdversarySpec NoVersions = baseSpec(AdversaryKind::SelfModifying, 8);
  NoVersions.Versions = 0;
  Rejects(NoVersions);
  AdversarySpec NoRewrite = baseSpec(AdversaryKind::SelfModifying, 8);
  NoRewrite.RewriteInterval = 0;
  Rejects(NoRewrite);
}

TEST(AdversarialGeneratorTest, CatalogSpecsAreValidAndDistinct) {
  std::set<std::string> Names;
  for (const AdversarySpec &Spec : adversarialCatalog()) {
    EXPECT_EQ(Spec.validate(), "") << Spec.Name;
    EXPECT_TRUE(Names.insert(Spec.Name).second) << Spec.Name;
    EXPECT_EQ(findAdversarial(Spec.Name), &Spec);
    const Trace T = generateAdversarial(Spec, 42);
    EXPECT_TRUE(T.validate()) << Spec.Name;
    EXPECT_EQ(T.Name, Spec.Name);
    // The tuned capacity is a real squeeze: strictly under the full
    // footprint so replaying at it actually evicts.
    EXPECT_LT(Spec.tunedCapacityBytes(), T.maxCacheBytes()) << Spec.Name;
    EXPECT_GE(Spec.tunedCapacityBytes(), Spec.BlockBytes) << Spec.Name;
  }
  EXPECT_EQ(findAdversarial("no-such-adversary"), nullptr);
}

TEST(AdversarialGeneratorTest, SameSpecSameSeedIsDeterministic) {
  for (const AdversarySpec &Spec : adversarialCatalog()) {
    const Trace A = generateAdversarial(Spec, 123);
    const Trace B = generateAdversarial(Spec, 123);
    ASSERT_EQ(A.Accesses, B.Accesses) << Spec.Name;
    ASSERT_EQ(A.numSuperblocks(), B.numSuperblocks()) << Spec.Name;
    for (size_t I = 0; I < A.Blocks.size(); ++I) {
      EXPECT_EQ(A.Blocks[I].SizeBytes, B.Blocks[I].SizeBytes);
      EXPECT_EQ(A.Blocks[I].OutEdges, B.Blocks[I].OutEdges);
    }
  }
}

TEST(AdversarialGeneratorTest, ScaledAdversaryShrinksFootprint) {
  for (const AdversarySpec &Spec : adversarialCatalog()) {
    const AdversarySpec Small = scaledAdversary(Spec, 0.25);
    EXPECT_EQ(Small.validate(), "") << Spec.Name;
    EXPECT_LT(Small.Blocks, Spec.Blocks) << Spec.Name;
    EXPECT_GE(Small.Blocks, 4u);
    const Trace T = generateAdversarial(Small, 42);
    EXPECT_TRUE(T.validate()) << Spec.Name;
    EXPECT_LT(T.maxCacheBytes(), generateAdversarial(Spec, 42).maxCacheBytes())
        << Spec.Name;
  }
}

//===----------------------------------------------------------------------===//
// Seeded fuzz: random specs either reject cleanly or replay everywhere
//===----------------------------------------------------------------------===//

namespace {

/// Draws a spec from the wide, deliberately edge-heavy parameter space:
/// tiny and degenerate shapes are overrepresented on purpose.
AdversarySpec sampleFuzzSpec(uint64_t Seed) {
  Rng R(Seed);
  AdversarySpec Spec;
  Spec.Name = "fuzz";
  Spec.Kind = static_cast<AdversaryKind>(R.nextBelow(6));
  Spec.Blocks = static_cast<uint32_t>(R.nextBelow(33)); // 0 = invalid.
  Spec.BlockBytes = static_cast<uint32_t>(R.nextBelow(4) * 64);
  Spec.Accesses = R.nextBelow(1200);
  Spec.TargetUnits = static_cast<uint32_t>(R.nextBelow(5));
  Spec.HotFraction = R.nextDouble() * 1.2;
  Spec.ChurnPerLap = R.nextDouble() * 2.0;
  Spec.Phases = static_cast<uint32_t>(R.nextBelow(20));
  Spec.CliqueSize = static_cast<uint32_t>(R.nextBelow(10));
  Spec.Tenants = static_cast<uint32_t>(R.nextBelow(5));
  Spec.OverlapFraction = R.nextDouble() * 1.2 - 0.1;
  Spec.Versions = static_cast<uint32_t>(R.nextBelow(5));
  Spec.RewriteInterval = static_cast<uint32_t>(R.nextBelow(20));
  return Spec;
}

std::string describeSpec(const AdversarySpec &Spec) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "kind=%s blocks=%u bytes=%u accesses=%llu units=%u "
                "hot=%.3f churn=%.3f phases=%u clique=%u tenants=%u "
                "overlap=%.3f versions=%u rewrite=%u",
                adversaryKindName(Spec.Kind), Spec.Blocks, Spec.BlockBytes,
                static_cast<unsigned long long>(Spec.Accesses),
                Spec.TargetUnits, Spec.HotFraction, Spec.ChurnPerLap,
                Spec.Phases, Spec.CliqueSize, Spec.Tenants,
                Spec.OverlapFraction, Spec.Versions, Spec.RewriteInterval);
  return Buf;
}

} // namespace

TEST(AdversarialFuzzTest, ValidSpecsGenerateAndReplayEverywhere) {
  proptest::Property<AdversarySpec> P;
  P.Sample = sampleFuzzSpec;
  P.Describe = describeSpec;
  P.Shrink = [](const AdversarySpec &Spec) {
    std::vector<AdversarySpec> Variants;
    if (Spec.Blocks > 1) {
      Variants.push_back(Spec);
      Variants.back().Blocks /= 2;
    }
    if (Spec.Accesses > 8) {
      Variants.push_back(Spec);
      Variants.back().Accesses /= 2;
    }
    return Variants;
  };
  P.Check = [](const AdversarySpec &Spec) -> std::string {
    const std::string Rejection = Spec.validate();
    if (!Rejection.empty())
      return {}; // Clean rejection is a pass — the point is no aborts.
    const Trace T = generateAdversarial(Spec, 1234);
    if (!T.validate())
      return "generated trace failed Trace::validate()";
    if (Spec.Accesses != 0 && T.numAccesses() != Spec.Accesses)
      return "explicit access count not honored";

    // Replay at degenerate capacities: smaller than one block (every
    // insert is a too-big miss), exactly one block, the tuned worst
    // case, and effectively unbounded (the largest capacity a cache
    // accepts).
    const uint64_t Sizes[] = {1, Spec.BlockBytes - 1, Spec.BlockBytes,
                              Spec.tunedCapacityBytes(),
                              CodeCache::MaxCapacityBytes};
    for (uint64_t Capacity : Sizes) {
      if (Capacity == 0)
        continue;
      const std::string Err = replayEverywhere(T, Capacity);
      if (!Err.empty())
        return Err;
    }
    return {};
  };
  const auto Result = proptest::checkProperty(P, 0xADBEEF, 40);
  EXPECT_TRUE(Result.Passed) << Result.render(P);
}
