//===- workloads/Adversary.cpp - Adversarial workload generators ----------===//

#include "workloads/Adversary.h"

#include "core/SharedContentIndex.h"
#include "support/Contracts.h"
#include "support/Random.h"
#include "trace/WorkloadModel.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

using namespace ccsim;
using namespace ccsim::workloads;

const char *ccsim::workloads::adversaryKindName(AdversaryKind Kind) {
  switch (Kind) {
  case AdversaryKind::ConflictChain:
    return "conflict-chain";
  case AdversaryKind::ThrashLoop:
    return "thrash-loop";
  case AdversaryKind::LinkClique:
    return "link-clique";
  case AdversaryKind::PhaseShift:
    return "phase-shift";
  case AdversaryKind::TenantOverlap:
    return "tenant-overlap";
  case AdversaryKind::SelfModifying:
    return "self-modifying";
  }
  return "unknown";
}

namespace {

// Sanity ceilings: validate() rejects anything beyond these before the
// generators allocate, so a fuzzer-sampled spec can never OOM or overflow
// the uint64 capacity/stream math (all products stay under 2^54).
constexpr uint32_t MaxBlocks = 1U << 22;
constexpr uint32_t MaxBlockBytes = 1U << 20;
constexpr uint64_t MaxAccesses = 1ULL << 26;
constexpr uint32_t MaxUnits = 1U << 16;
constexpr uint32_t MaxPhases = 1U << 16;
constexpr uint32_t MaxCliqueSize = 1U << 20;
constexpr uint32_t MaxTenants = 1U << 12;
constexpr uint32_t MaxVersions = 1U << 12;
constexpr uint32_t MaxRewriteInterval = 1U << 20;

/// One-shot churn blocks per ThrashLoop lap (0 = a pure loop that never
/// overflows its tuned capacity — legal, just eviction-free).
uint64_t churnBlocksPerLap(const AdversarySpec &Spec) {
  return static_cast<uint64_t>(
      std::llround(Spec.ChurnPerLap * double(Spec.Blocks)));
}

/// LinkClique rounds the working set up to whole cliques.
uint64_t cliqueBlockCount(const AdversarySpec &Spec) {
  const uint64_t Cliques =
      std::max<uint64_t>(1, (Spec.Blocks + Spec.CliqueSize - 1) /
                                Spec.CliqueSize);
  return Cliques * Spec.CliqueSize;
}

/// TenantOverlap splits Blocks into a shared pool and per-tenant privates.
void overlapSplit(const AdversarySpec &Spec, uint64_t &Shared,
                  uint64_t &PrivatePerTenant) {
  Shared = static_cast<uint64_t>(
      std::llround(Spec.OverlapFraction * double(Spec.Blocks)));
  Shared = std::min<uint64_t>(Shared, Spec.Blocks);
  PrivatePerTenant = Spec.Blocks - Shared;
}

/// Working set one TargetUnits-th larger than the cache: the cyclic
/// patterns size capacity to WS * U / (U + 1), so the stream exceeds the
/// cache by exactly one unit.
uint64_t oneUnitOverCapacity(uint64_t WorkingSetBytes, uint32_t Units) {
  const uint64_t Cap = WorkingSetBytes * Units / (Units + 1);
  return std::max<uint64_t>(1, Cap);
}

/// Maps logical block keys to dense superblock ids in discovery order —
/// the id-numbering convention every generated trace shares with the
/// statistical TraceGenerator.
class StreamBuilder {
public:
  void access(uint64_t Key) {
    auto [It, Fresh] =
        Ids.try_emplace(Key, static_cast<SuperblockId>(Order.size()));
    if (Fresh)
      Order.push_back(Key);
    Stream.push_back(It->second);
  }

  /// Assembles the trace: uniform block sizes, accesses as streamed, and
  /// logical edges translated to ids. Edges naming a key the (possibly
  /// truncated) stream never discovered are dropped, which is what keeps
  /// every generated trace Trace::validate()-clean.
  template <typename EdgesFn>
  Trace finish(std::string Name, uint32_t BlockBytes, EdgesFn EdgesOf) && {
    Trace T;
    T.Name = std::move(Name);
    T.Blocks.resize(Order.size());
    std::vector<uint64_t> EdgeKeys;
    for (size_t Id = 0; Id < Order.size(); ++Id) {
      T.Blocks[Id].SizeBytes = BlockBytes;
      EdgeKeys.clear();
      EdgesOf(Order[Id], EdgeKeys);
      for (uint64_t Key : EdgeKeys) {
        const auto It = Ids.find(Key);
        if (It != Ids.end())
          T.Blocks[Id].OutEdges.push_back(It->second);
      }
    }
    T.Accesses = std::move(Stream);
    return T;
  }

  /// finish() plus per-block content tags: TagOf(Key) returns the block's
  /// ContentTag (0 = untagged private code). The tagged variant exists for
  /// the cross-tenant sharing study, where identical code in different
  /// tenants' traces must carry the same tag even though discovery order
  /// — and hence local ids — differs per tenant.
  template <typename EdgesFn, typename TagFn>
  Trace finishTagged(std::string Name, uint32_t BlockBytes, EdgesFn EdgesOf,
                     TagFn TagOf) && {
    const std::vector<uint64_t> Keys = Order;
    Trace T = std::move(*this).finish(std::move(Name), BlockBytes, EdgesOf);
    for (size_t Id = 0; Id < Keys.size(); ++Id)
      T.Blocks[Id].ContentTag = TagOf(Keys[Id]);
    return T;
  }

private:
  std::unordered_map<uint64_t, SuperblockId> Ids;
  std::vector<uint64_t> Order; ///< Key of each id, in discovery order.
  std::vector<SuperblockId> Stream;
};

//===----------------------------------------------------------------------===//
// Generators. Each emits exactly Spec-many accesses over a logical key
// space, then lets StreamBuilder::finish densify ids and wire edges. The
// conflict geometry is deliberately deterministic — the worst case is the
// point — so the seed only perturbs genuinely stochastic components
// (churn placement, tenant cursor offsets).
//===----------------------------------------------------------------------===//

Trace generateConflictChain(const AdversarySpec &Spec, uint64_t Accesses) {
  const uint64_t N = Spec.Blocks;
  StreamBuilder B;
  for (uint64_t K = 0; K < Accesses; ++K)
    B.access(K % N);
  return std::move(B).finish(
      Spec.Name, Spec.BlockBytes,
      [N](uint64_t Key, std::vector<uint64_t> &Edges) {
        Edges.push_back((Key + 1) % N);
      });
}

Trace generateThrashLoop(const AdversarySpec &Spec, uint64_t Accesses,
                         uint64_t Seed) {
  const uint64_t H = Spec.Blocks;
  const uint64_t Churn = churnBlocksPerLap(Spec);
  // Churn is spread evenly through each lap (Churn one-shot blocks per H
  // hot accesses, Bresenham-style); the seed only rotates where in the
  // lap the first one lands.
  const uint64_t Offset = Rng(Seed).nextBelow(H);
  StreamBuilder B;
  uint64_t Emitted = 0;
  uint64_t NextChurnKey = H; // Keys >= H are one-shot churn blocks.
  for (uint64_t Hot = 0; Emitted < Accesses; ++Hot) {
    B.access(Hot % H);
    ++Emitted;
    const uint64_t Due = ((Hot + Offset + 1) * Churn) / H;
    for (uint64_t Done = ((Hot + Offset) * Churn) / H;
         Done < Due && Emitted < Accesses; ++Done) {
      B.access(NextChurnKey++);
      ++Emitted;
    }
  }
  return std::move(B).finish(
      Spec.Name, Spec.BlockBytes,
      [H](uint64_t Key, std::vector<uint64_t> &Edges) {
        // Hot blocks chain around the loop; churn blocks branch back in.
        Edges.push_back(Key < H ? (Key + 1) % H : (Key - H) % H);
      });
}

Trace generateLinkClique(const AdversarySpec &Spec, uint64_t Accesses) {
  const uint64_t Total = cliqueBlockCount(Spec);
  const uint64_t K = Spec.CliqueSize;
  StreamBuilder B;
  for (uint64_t I = 0; I < Accesses; ++I)
    B.access(I % Total);
  return std::move(B).finish(
      Spec.Name, Spec.BlockBytes,
      [K](uint64_t Key, std::vector<uint64_t> &Edges) {
        const uint64_t Base = (Key / K) * K;
        for (uint64_t M = 0; M < K; ++M)
          Edges.push_back(Base + M); // All-to-all, self-link included.
      });
}

Trace generatePhaseShift(const AdversarySpec &Spec, uint64_t Accesses) {
  const uint64_t B = Spec.Blocks;
  const uint64_t P = Spec.Phases;
  StreamBuilder Builder;
  const uint64_t Share = Accesses / P;
  uint64_t Emitted = 0;
  for (uint64_t Phase = 0; Phase < P; ++Phase) {
    // The last phase absorbs the remainder; early phases can be
    // zero-length when Accesses < Phases (a legal degenerate shape).
    const uint64_t Quota = Phase + 1 == P ? Accesses - Emitted : Share;
    for (uint64_t K = 0; K < Quota; ++K)
      Builder.access(Phase * B + K % B);
    Emitted += Quota;
  }
  return std::move(Builder).finish(
      Spec.Name, Spec.BlockBytes,
      [B](uint64_t Key, std::vector<uint64_t> &Edges) {
        const uint64_t Phase = Key / B;
        Edges.push_back(Phase * B + (Key % B + 1) % B);
      });
}

Trace generateTenantOverlap(const AdversarySpec &Spec, uint64_t Accesses,
                            uint64_t Seed) {
  uint64_t Shared = 0;
  uint64_t Priv = 0;
  overlapSplit(Spec, Shared, Priv);
  const uint64_t T = Spec.Tenants;
  const uint64_t PerTenant = Shared + Priv;
  constexpr uint64_t Quantum = 16;

  // Tenant t's working set, in its own access order: the shared pool
  // first (keys [0, Shared)), then its private blocks (keys offset past
  // every tenant's). Cursors start at seeded offsets so tenants do not
  // march through the shared pool in lockstep.
  Rng R(Seed);
  std::vector<uint64_t> Cursor(T);
  for (uint64_t I = 0; I < T; ++I)
    Cursor[I] = PerTenant ? R.nextBelow(PerTenant) : 0;

  StreamBuilder B;
  uint64_t Emitted = 0;
  uint64_t Tenant = 0;
  while (Emitted < Accesses && PerTenant > 0) {
    for (uint64_t Q = 0; Q < Quantum && Emitted < Accesses; ++Q) {
      const uint64_t Slot = Cursor[Tenant]++ % PerTenant;
      B.access(Slot < Shared ? Slot : Shared + Tenant * Priv +
                                          (Slot - Shared));
      ++Emitted;
    }
    Tenant = (Tenant + 1) % T;
  }
  return std::move(B).finish(
      Spec.Name, Spec.BlockBytes,
      [Shared, Priv](uint64_t Key, std::vector<uint64_t> &Edges) {
        if (Key < Shared) { // Shared pool chains cyclically.
          Edges.push_back((Key + 1) % Shared);
          return;
        }
        const uint64_t Local = (Key - Shared) % Priv;
        Edges.push_back(Key - Local + (Local + 1) % Priv);
      });
}

Trace generateSelfModifying(const AdversarySpec &Spec, uint64_t Accesses) {
  const uint64_t B = Spec.Blocks;
  const uint64_t V = Spec.Versions;
  const uint64_t R = Spec.RewriteInterval;
  StreamBuilder Builder;
  std::vector<uint64_t> Executions(B, 0);
  for (uint64_t K = 0; K < Accesses; ++K) {
    const uint64_t Block = K % B;
    const uint64_t Version = std::min(Executions[Block]++ / R, V - 1);
    Builder.access(Block * V + Version);
  }
  return std::move(Builder).finish(
      Spec.Name, Spec.BlockBytes,
      [B, V](uint64_t Key, std::vector<uint64_t> &Edges) {
        // Same-generation chain to the next logical block.
        const uint64_t Block = Key / V;
        Edges.push_back(((Block + 1) % B) * V + Key % V);
      });
}

} // namespace

std::string AdversarySpec::validate() const {
  if (Name.empty())
    return "adversarial spec needs a name";
  if (Blocks == 0)
    return "adversarial spec needs at least one superblock";
  if (Blocks > MaxBlocks)
    return "working set beyond " + std::to_string(MaxBlocks) +
           " superblocks";
  if (BlockBytes == 0)
    return "superblock bytes must be positive";
  if (BlockBytes > MaxBlockBytes)
    return "superblock bytes beyond " + std::to_string(MaxBlockBytes);
  if (TargetUnits == 0)
    return "target unit count must be at least 1";
  if (TargetUnits > MaxUnits)
    return "target unit count beyond " + std::to_string(MaxUnits);
  switch (Kind) {
  case AdversaryKind::ConflictChain:
    break;
  case AdversaryKind::ThrashLoop:
    if (!(HotFraction > 0.0) || HotFraction > 1.0)
      return "hot fraction must be in (0, 1]";
    if (!(ChurnPerLap >= 0.0) || ChurnPerLap > 16.0)
      return "churn per lap must be in [0, 16]";
    break;
  case AdversaryKind::LinkClique:
    if (CliqueSize == 0)
      return "cliques need at least one member";
    if (CliqueSize > MaxCliqueSize)
      return "clique size beyond " + std::to_string(MaxCliqueSize);
    break;
  case AdversaryKind::PhaseShift:
    if (Phases == 0)
      return "phase-shift needs at least one phase";
    if (Phases > MaxPhases)
      return "phase count beyond " + std::to_string(MaxPhases);
    break;
  case AdversaryKind::TenantOverlap:
    if (Tenants == 0)
      return "tenant overlap needs at least one tenant";
    if (Tenants > MaxTenants)
      return "tenant count beyond " + std::to_string(MaxTenants);
    if (!(OverlapFraction >= 0.0) || OverlapFraction > 1.0)
      return "overlap fraction must be in [0, 1]";
    break;
  case AdversaryKind::SelfModifying:
    if (Versions == 0)
      return "self-modifying stream needs at least one version";
    if (Versions > MaxVersions)
      return "version count beyond " + std::to_string(MaxVersions);
    if (RewriteInterval == 0)
      return "rewrite interval must be at least one execution";
    if (RewriteInterval > MaxRewriteInterval)
      return "rewrite interval beyond " +
             std::to_string(MaxRewriteInterval);
    break;
  }
  const uint64_t Stream = Accesses != 0 ? Accesses : derivedAccesses();
  if (Stream > MaxAccesses)
    return "access stream beyond " + std::to_string(MaxAccesses) +
           " events (shrink the working set or set --scale)";
  return {};
}

uint64_t AdversarySpec::plannedBlocks() const {
  switch (Kind) {
  case AdversaryKind::ConflictChain:
  case AdversaryKind::ThrashLoop:
    return Blocks;
  case AdversaryKind::LinkClique:
    return cliqueBlockCount(*this);
  case AdversaryKind::PhaseShift:
    return uint64_t(Phases) * Blocks;
  case AdversaryKind::TenantOverlap: {
    uint64_t Shared = 0;
    uint64_t Priv = 0;
    overlapSplit(*this, Shared, Priv);
    return Shared + uint64_t(Tenants) * Priv;
  }
  case AdversaryKind::SelfModifying:
    return uint64_t(Blocks) * Versions;
  }
  return Blocks;
}

uint64_t AdversarySpec::derivedAccesses() const {
  switch (Kind) {
  case AdversaryKind::ConflictChain:
    return uint64_t(Blocks) * 48;
  case AdversaryKind::ThrashLoop:
    return (Blocks + churnBlocksPerLap(*this)) * 40;
  case AdversaryKind::LinkClique:
    return cliqueBlockCount(*this) * 48;
  case AdversaryKind::PhaseShift:
    return uint64_t(Phases) * Blocks * 24;
  case AdversaryKind::TenantOverlap:
    return plannedBlocks() * 32;
  case AdversaryKind::SelfModifying:
    // Exactly exhausts every version of every logical block.
    return uint64_t(Blocks) * Versions * RewriteInterval;
  }
  return uint64_t(Blocks) * 48;
}

uint64_t AdversarySpec::tunedCapacityBytes() const {
  const uint64_t S = BlockBytes;
  switch (Kind) {
  case AdversaryKind::ConflictChain:
  case AdversaryKind::LinkClique:
  case AdversaryKind::TenantOverlap:
    // Cyclic streams one unit over capacity: every granularity misses on
    // every access after warmup, so the divergence is pure eviction and
    // unlink machinery cost (DESIGN.md section 16).
    return oneUnitOverCapacity(plannedBlocks() * S, TargetUnits);
  case AdversaryKind::ThrashLoop:
    // The hot loop fills HotFraction of the cache; churn supplies the
    // inserts that keep eviction running over live code.
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::llround(double(Blocks) * double(S) / HotFraction)));
  case AdversaryKind::PhaseShift:
    // One phase plus one unit of slack: each switch must turn the whole
    // resident set over, but a single phase alone always fits.
    return std::max<uint64_t>(
        1, uint64_t(Blocks) * S * (TargetUnits + 1) / TargetUnits);
  case AdversaryKind::SelfModifying:
    // Two live generations fit; dead versions beyond that are garbage
    // the policy must clear without wiping live code.
    return std::max<uint64_t>(1, 2 * uint64_t(Blocks) * S);
  }
  return std::max<uint64_t>(1, plannedBlocks() * S);
}

std::vector<Trace>
ccsim::workloads::generateTenantOverlapSuite(const AdversarySpec &Spec,
                                             uint64_t Seed) {
  CCSIM_REQUIRE(Spec.Kind == AdversaryKind::TenantOverlap,
                "tenant-overlap suite generation needs a TenantOverlap "
                "spec, got '%s'",
                adversaryKindName(Spec.Kind));
  const std::string Err = Spec.validate();
  CCSIM_REQUIRE(Err.empty(), "invalid adversarial spec '%s': %s",
                Spec.Name.c_str(), Err.c_str());

  uint64_t Shared = 0;
  uint64_t Priv = 0;
  overlapSplit(Spec, Shared, Priv);
  const uint64_t PerTenant = Shared + Priv;
  const uint64_t T = Spec.Tenants;
  const uint64_t Total =
      Spec.Accesses != 0 ? Spec.Accesses : Spec.derivedAccesses();
  // Every tenant must discover its whole working set (Trace::validate
  // requires each defined block accessed), even when an explicit Accesses
  // is stingy.
  const uint64_t EachAccesses =
      std::max<uint64_t>(PerTenant, (Total + T - 1) / T);

  // Same cursor-offset seeding as the single-trace interleave: tenants do
  // not march through the shared pool in lockstep, so their discovery
  // orders — and hence local ids — genuinely differ. Only the ContentTag
  // identifies pool blocks across tenants.
  Rng R(Seed);
  std::vector<Trace> Suite;
  Suite.reserve(T);
  for (uint64_t I = 0; I < T; ++I) {
    const uint64_t Offset = PerTenant ? R.nextBelow(PerTenant) : 0;
    StreamBuilder B;
    for (uint64_t K = 0; K < EachAccesses && PerTenant > 0; ++K)
      B.access((Offset + K) % PerTenant);
    Suite.push_back(std::move(B).finishTagged(
        Spec.Name + "[t" + std::to_string(I) + "]", Spec.BlockBytes,
        [Shared, Priv](uint64_t Key, std::vector<uint64_t> &Edges) {
          // Pool chains cyclically within the pool, private code within
          // the private set — shared code never branches into private
          // code, so a pool block really is identical across tenants.
          if (Key < Shared) {
            Edges.push_back((Key + 1) % Shared);
            return;
          }
          Edges.push_back(Shared + (Key - Shared + 1) % Priv);
        },
        [&Spec, Shared](uint64_t Key) -> uint64_t {
          if (Key >= Shared)
            return 0; // Private code: content-unique by trace name.
          return ContentKeyBuilder().mix(Spec.Name).mix(Key).key();
        }));
  }
  return Suite;
}

Trace ccsim::workloads::generateAdversarial(const AdversarySpec &Spec,
                                            uint64_t Seed) {
  const std::string Err = Spec.validate();
  CCSIM_REQUIRE(Err.empty(), "invalid adversarial spec '%s': %s",
                Spec.Name.c_str(), Err.c_str());
  const uint64_t Accesses =
      Spec.Accesses != 0 ? Spec.Accesses : Spec.derivedAccesses();
  switch (Spec.Kind) {
  case AdversaryKind::ConflictChain:
    return generateConflictChain(Spec, Accesses);
  case AdversaryKind::ThrashLoop:
    return generateThrashLoop(Spec, Accesses, Seed);
  case AdversaryKind::LinkClique:
    return generateLinkClique(Spec, Accesses);
  case AdversaryKind::PhaseShift:
    return generatePhaseShift(Spec, Accesses);
  case AdversaryKind::TenantOverlap:
    return generateTenantOverlap(Spec, Accesses, Seed);
  case AdversaryKind::SelfModifying:
    return generateSelfModifying(Spec, Accesses);
  }
  CCSIM_REQUIRE(false, "unreachable adversary kind");
  return {};
}

const std::vector<AdversarySpec> &ccsim::workloads::adversarialCatalog() {
  static const std::vector<AdversarySpec> Catalog = [] {
    std::vector<AdversarySpec> Specs;

    AdversarySpec Chain;
    Chain.Name = "chain";
    Chain.Kind = AdversaryKind::ConflictChain;
    Chain.Blocks = 768;
    Chain.Summary = "cyclic conflict chain one unit over capacity; every "
                    "FIFO granularity misses every access, fine pays the "
                    "per-block eviction+unlink machinery";
    Specs.push_back(Chain);

    AdversarySpec Thrash;
    Thrash.Name = "thrash";
    Thrash.Kind = AdversaryKind::ThrashLoop;
    Thrash.Blocks = 384;
    Thrash.Summary = "hot loop at 3/4 capacity under one-shot churn; "
                     "coarse flushes keep wiping the live loop";
    Specs.push_back(Thrash);

    AdversarySpec Clique;
    Clique.Name = "clique";
    Clique.Kind = AdversaryKind::LinkClique;
    Clique.Blocks = 512;
    Clique.CliqueSize = 8;
    Clique.Summary = "fully cross-linked cliques cycled over capacity; "
                     "maximizes Eq. 4 back-pointer unlink work per "
                     "eviction";
    Specs.push_back(Clique);

    AdversarySpec Phase;
    Phase.Name = "phase-shift";
    Phase.Kind = AdversaryKind::PhaseShift;
    Phase.Blocks = 256;
    Phase.Phases = 6;
    Phase.Summary = "disjoint working sets with abrupt switches; every "
                    "switch turns the whole resident set over";
    Specs.push_back(Phase);

    AdversarySpec Overlap;
    Overlap.Name = "overlap";
    Overlap.Kind = AdversaryKind::TenantOverlap;
    Overlap.Blocks = 192;
    Overlap.Tenants = 3;
    Overlap.OverlapFraction = 0.5;
    Overlap.Summary = "interleaved tenants over a shared hot pool "
                      "(ShareJIT-style content-overlap knob)";
    Specs.push_back(Overlap);

    AdversarySpec Smc;
    Smc.Name = "smc";
    Smc.Kind = AdversaryKind::SelfModifying;
    Smc.Blocks = 96;
    Smc.Versions = 8;
    Smc.RewriteInterval = 64;
    Smc.Summary = "self-modifying stream: periodic retranslation strands "
                  "dead versions that only fine eviction clears cheaply";
    Specs.push_back(Smc);

    for (const AdversarySpec &Spec : Specs)
      CCSIM_REQUIRE(Spec.validate().empty(),
                    "catalog spec '%s' must be generatable",
                    Spec.Name.c_str());
    return Specs;
  }();
  return Catalog;
}

const AdversarySpec *ccsim::workloads::findAdversarial(
    const std::string &Name) {
  for (const AdversarySpec &Spec : adversarialCatalog())
    if (Spec.Name == Name)
      return &Spec;
  return nullptr;
}

AdversarySpec ccsim::workloads::adversaryAtScale(const AdversarySpec &Spec,
                                                 double Scale) {
  return isFullScale(Scale) ? Spec : scaledAdversary(Spec, Scale);
}

AdversarySpec ccsim::workloads::scaledAdversary(const AdversarySpec &Spec,
                                                double Factor) {
  AdversarySpec Scaled = Spec;
  Scaled.Blocks = static_cast<uint32_t>(std::max<int64_t>(
      4, std::llround(double(Spec.Blocks) * Factor)));
  if (Spec.Accesses != 0)
    Scaled.Accesses = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::llround(double(Spec.Accesses) * Factor)));
  return Scaled;
}
