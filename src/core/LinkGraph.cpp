//===- core/LinkGraph.cpp - Superblock chaining and back-pointer table ---===//

#include "core/LinkGraph.h"
#include "support/Contracts.h"

#include <algorithm>
#include <limits>
#include <map>

using namespace ccsim;

void LinkTopology::indexSources() {
  // Counting sort of the edges by target: SourceBegin[T + 1] first counts
  // T's sources, the prefix sum turns counts into offsets, and a second
  // walk places each source (so a target's sources ascend by id).
  const size_t N = EdgeBegin.size() - 1;
  CCSIM_REQUIRE(EdgeIds.size() <= std::numeric_limits<uint32_t>::max(),
                "topology holds %zu edges; offsets are 32-bit",
                EdgeIds.size());
  SourceBegin.assign(N + 1, 0);
  for (SuperblockId Target : EdgeIds) {
    CCSIM_REQUIRE(Target < N, "edge to %u outside the %zu-block table",
                  Target, N);
    ++SourceBegin[Target + 1];
  }
  for (size_t T = 0; T < N; ++T)
    SourceBegin[T + 1] += SourceBegin[T];
  SourceIds.resize(EdgeIds.size());
  std::vector<uint32_t> Next(SourceBegin.begin(), SourceBegin.end() - 1);
  for (SuperblockId S = 0; S < N; ++S)
    for (uint32_t E = EdgeBegin[S]; E < EdgeBegin[S + 1]; ++E)
      SourceIds[Next[EdgeIds[E]]++] = S;
}

void LinkTopology::growTo(SuperblockId Id) {
  const size_t NewSize = std::max<size_t>(size_t{Id} + 1, Edges.size() * 2);
  Edges.resize(NewSize);
  Sources.resize(NewSize);
}

void LinkTopology::learn(SuperblockId Id,
                         std::span<const SuperblockId> NewEdges) {
  grow(Id);
  if (std::equal(Edges[Id].begin(), Edges[Id].end(), NewEdges.begin(),
                 NewEdges.end()))
    return; // Same shape as the last insert: the index already holds it.

  // First insert, or a re-translation with a new shape: move Id's entries
  // in the reverse index from its old targets to its new ones.
  for (SuperblockId Target : Edges[Id]) {
    std::vector<SuperblockId> &List = Sources[Target];
    const auto It = std::find(List.begin(), List.end(), Id);
    CCSIM_ASSERT(It != List.end(), "reverse edge %u->%u not indexed", Id,
                 Target);
    *It = List.back();
    List.pop_back();
  }
  for (SuperblockId Target : NewEdges)
    grow(Target);
  Edges[Id].assign(NewEdges.begin(), NewEdges.end());
  for (SuperblockId Target : NewEdges)
    Sources[Target].push_back(Id);
}

bool LinkTopology::checkMirror() const {
  // (Source, Target) -> edges minus reverse-index entries; every key must
  // balance to zero.
  std::map<std::pair<SuperblockId, SuperblockId>, int64_t> Mirror;
  for (SuperblockId Id = 0; Id < size(); ++Id) {
    for (SuperblockId T : edgesOf(Id))
      ++Mirror[{Id, T}];
    for (SuperblockId S : sourcesOf(Id))
      --Mirror[{S, Id}];
  }
  return std::all_of(Mirror.begin(), Mirror.end(),
                     [](const auto &Entry) { return Entry.second == 0; });
}

LinkGraph::LinkGraph(const LinkTopology *Shared)
    : Owned(Shared ? nullptr : std::make_unique<LinkTopology>()),
      Topo(Shared ? Shared : Owned.get()) {
  CCSIM_REQUIRE(!Shared || Shared->readOnly(),
                "only a read-only topology can be shared");
  EvictEpoch.resize(Topo->size(), 0);
}

uint8_t LinkGraph::nextEpoch() {
  if (CurrentEpoch == std::numeric_limits<uint8_t>::max()) [[unlikely]] {
    // Wrapping would revive stale marks: clear them and start over.
    std::fill(EvictEpoch.begin(), EvictEpoch.end(), 0);
    CurrentEpoch = 0;
  }
  return ++CurrentEpoch;
}

void LinkGraph::onInsert(const CodeCache &Cache, uint64_t Quantum,
                         SuperblockId Id,
                         std::span<const SuperblockId> NewEdges,
                         CacheStats &Stats) {
  CCSIM_ASSERT(Cache.contains(Id),
               "block %u must be committed before onInsert", Id);
  if (Owned) {
    Owned->learn(Id, NewEdges);
    if (EvictEpoch.size() < Owned->size()) [[unlikely]]
      EvictEpoch.resize(Owned->size(), 0);
  }
#ifdef CCSIM_PARANOID
  // A walk of the edges per insert: only the paranoid build pays for it.
  CCSIM_ASSERT(Owned || std::ranges::equal(NewEdges, Topo->edgesOf(Id)),
               "block %u's edges differ from its read-only topology's", Id);
#endif
  CCSIM_ASSERT(Id < EvictEpoch.size(),
               "block %u is outside the %zu-id topology", Id,
               EvictEpoch.size());

  // Links now exist from Id to every resident target and into Id from
  // every resident source. A link is inter-unit when its other end starts
  // outside Id's unit [UnitLo, UnitLo + Quantum); with unsigned
  // arithmetic that is one compare, and a non-resident end (slot 0) is
  // masked out. A self-loop is counted once, on the outbound side, and
  // never crosses a unit boundary.
  const uint64_t UnitLo = CodeCache::unitBase(Cache.startOf(Id), Quantum);
  const LinkTopology &G = *Topo;
  uint64_t Created = 0, Self = 0, Inter = 0;
  for (SuperblockId Target : G.edgesOf(Id)) {
    const uint64_t Slot = Cache.slotOf(Target);
    const uint64_t Resident = Slot != 0;
    Created += Resident;
    Self += Target == Id;
    Inter += Resident & (Slot - 1 - UnitLo >= Quantum);
  }
  for (SuperblockId Source : G.sourcesOf(Id)) {
    const uint64_t Slot = Cache.slotOf(Source);
    const uint64_t Linked = (Slot != 0) & (Source != Id);
    Created += Linked;
    Inter += Linked & (Slot - 1 - UnitLo >= Quantum);
  }
  LinkCount += Created;
  Stats.LinksCreated += Created;
  Stats.SelfLinksCreated += Self;
  Stats.InterUnitLinksCreated += Inter;
}

void LinkGraph::onEvict(const CodeCache &Cache,
                        std::span<const CodeCache::Resident> Victims,
                        std::vector<uint32_t> &DanglingCounts) {
  const LinkTopology &G = *Topo;
  const auto CheckVictim = [&](const CodeCache::Resident &V) {
    CCSIM_ASSERT(!Cache.contains(V.Id),
                 "victim %u must be removed from the cache before onEvict",
                 V.Id);
    CCSIM_ASSERT(V.Id < G.size(), "victim %u was never inserted", V.Id);
  };

  // The batch emptied the cache (a FLUSH, or a unit batch for a block
  // that needs the whole cache): no survivor holds a link into a victim,
  // and every live link had both ends among the victims.
  if (Cache.empty()) {
    for (const CodeCache::Resident &V : Victims)
      CheckVictim(V);
    DanglingCounts.insert(DanglingCounts.end(), Victims.size(), 0);
    LinkCount = 0;
    return;
  }

  const uint8_t Epoch = nextEpoch();
  for (const CodeCache::Resident &V : Victims) {
    CheckVictim(V);
    EvictEpoch[V.Id] = Epoch;
  }

  const size_t First = DanglingCounts.size();
  DanglingCounts.resize(First + Victims.size());
  uint32_t *Out = DanglingCounts.data() + First;
  uint64_t Destroyed = 0;
  for (const CodeCache::Resident &V : Victims) {
    // Incoming links from survivors dangle: the back-pointer table finds
    // and removes them (Eq. 4). Sources that died in this batch are not
    // resident any more, so they count zero here.
    uint32_t Dangling = 0;
    for (SuperblockId Source : G.sourcesOf(V.Id))
      Dangling += Cache.slotOf(Source) != 0;

    // Outbound links die with the victim: those to survivors and those to
    // fellow victims, each counted once from its source's side.
    uint32_t Outbound = 0;
    for (SuperblockId Target : G.edgesOf(V.Id))
      Outbound += (Cache.slotOf(Target) != 0) | (EvictEpoch[Target] == Epoch);

    Destroyed += Dangling + Outbound;
    *Out++ = Dangling;
  }
  LinkCount -= Destroyed;
}

size_t LinkGraph::outDegree(const CodeCache &Cache, SuperblockId Id) const {
  if (!Cache.contains(Id))
    return 0;
  const std::span<const SuperblockId> Targets = Topo->edgesOf(Id);
  return static_cast<size_t>(
      std::count_if(Targets.begin(), Targets.end(),
                    [&Cache](SuperblockId T) { return Cache.contains(T); }));
}

size_t LinkGraph::inDegree(const CodeCache &Cache, SuperblockId Id) const {
  if (!Cache.contains(Id))
    return 0;
  const std::span<const SuperblockId> From = Topo->sourcesOf(Id);
  return static_cast<size_t>(
      std::count_if(From.begin(), From.end(),
                    [&Cache](SuperblockId S) { return Cache.contains(S); }));
}

bool LinkGraph::hasLink(const CodeCache &Cache, SuperblockId From,
                        SuperblockId To) const {
  if (!Cache.contains(From) || !Cache.contains(To))
    return false;
  const std::span<const SuperblockId> Targets = Topo->edgesOf(From);
  return std::find(Targets.begin(), Targets.end(), To) != Targets.end();
}

bool LinkGraph::checkInvariants(const CodeCache &Cache) const {
  if (!Topo->checkMirror())
    return false;
  uint64_t Live = 0;
  for (SuperblockId S = 0; S < Topo->size(); ++S)
    if (Cache.contains(S))
      for (SuperblockId T : Topo->edgesOf(S))
        Live += Cache.contains(T) ? 1 : 0;
  return Live == LinkCount;
}
