//===- core/LinkGraph.cpp - Superblock chaining and back-pointer table ---===//

#include "core/LinkGraph.h"
#include "support/Contracts.h"

#include <algorithm>
#include <map>

using namespace ccsim;

void LinkGraph::growTables(SuperblockId Id) {
  if (Id < Edges.size())
    return;
  const size_t NewSize = std::max<size_t>(Id + 1, Edges.size() * 2);
  Edges.resize(NewSize);
  Sources.resize(NewSize);
  EvictEpoch.resize(NewSize, 0);
}

void LinkGraph::learn(SuperblockId Id,
                      std::span<const SuperblockId> NewEdges) {
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
    growTables(Target);
  Edges[Id].assign(NewEdges.begin(), NewEdges.end());
  for (SuperblockId Target : NewEdges)
    Sources[Target].push_back(Id);
}

void LinkGraph::onInsert(const CodeCache &Cache, uint64_t Quantum,
                         SuperblockId Id,
                         std::span<const SuperblockId> NewEdges,
                         CacheStats &Stats) {
  CCSIM_ASSERT(Cache.contains(Id),
               "block %u must be committed before onInsert", Id);
  growTables(Id);
  learn(Id, NewEdges);

  // Links now exist from Id to every resident target and into Id from
  // every resident source. A self-loop is counted once, on the outbound
  // side, and can never cross a unit boundary.
  const uint64_t Unit = CodeCache::unitOf(Cache.startOf(Id), Quantum);
  uint64_t Created = 0, Self = 0, Inter = 0;
  for (SuperblockId Target : Edges[Id]) {
    if (!Cache.contains(Target))
      continue;
    ++Created;
    if (Target == Id)
      ++Self;
    else if (CodeCache::unitOf(Cache.startOf(Target), Quantum) != Unit)
      ++Inter;
  }
  for (SuperblockId Source : Sources[Id]) {
    if (Source == Id || !Cache.contains(Source))
      continue;
    ++Created;
    if (CodeCache::unitOf(Cache.startOf(Source), Quantum) != Unit)
      ++Inter;
  }
  LinkCount += Created;
  Stats.LinksCreated += Created;
  Stats.SelfLinksCreated += Self;
  Stats.InterUnitLinksCreated += Inter;
}

void LinkGraph::onEvict(const CodeCache &Cache,
                        std::span<const CodeCache::Resident> Victims,
                        std::vector<uint32_t> &DanglingCounts) {
  ++CurrentEpoch;
  for (const CodeCache::Resident &V : Victims) {
    CCSIM_ASSERT(!Cache.contains(V.Id),
                 "victim %u must be removed from the cache before onEvict",
                 V.Id);
    CCSIM_ASSERT(V.Id < EvictEpoch.size(), "victim %u was never inserted",
                 V.Id);
    EvictEpoch[V.Id] = CurrentEpoch;
  }

  for (const CodeCache::Resident &V : Victims) {
    // Incoming links from survivors dangle: the back-pointer table finds
    // and removes them (Eq. 4). Sources that died in this batch are not
    // resident any more, so their links are skipped here.
    uint32_t Dangling = 0;
    for (SuperblockId Source : Sources[V.Id])
      if (Cache.contains(Source))
        ++Dangling;

    // Outbound links die with the victim: those to survivors and those to
    // fellow victims, each counted once from its source's side.
    uint64_t Outbound = 0;
    for (SuperblockId Target : Edges[V.Id])
      if (Cache.contains(Target) || EvictEpoch[Target] == CurrentEpoch)
        ++Outbound;

    LinkCount -= Dangling + Outbound;
    DanglingCounts.push_back(Dangling);
  }
}

size_t LinkGraph::outDegree(const CodeCache &Cache, SuperblockId Id) const {
  if (!Cache.contains(Id))
    return 0;
  const std::span<const SuperblockId> Targets = edgesOf(Id);
  return static_cast<size_t>(
      std::count_if(Targets.begin(), Targets.end(),
                    [&Cache](SuperblockId T) { return Cache.contains(T); }));
}

size_t LinkGraph::inDegree(const CodeCache &Cache, SuperblockId Id) const {
  if (!Cache.contains(Id))
    return 0;
  const std::span<const SuperblockId> From = sourcesOf(Id);
  return static_cast<size_t>(
      std::count_if(From.begin(), From.end(),
                    [&Cache](SuperblockId S) { return Cache.contains(S); }));
}

bool LinkGraph::hasLink(const CodeCache &Cache, SuperblockId From,
                        SuperblockId To) const {
  if (!Cache.contains(From) || !Cache.contains(To))
    return false;
  const std::span<const SuperblockId> Targets = edgesOf(From);
  return std::find(Targets.begin(), Targets.end(), To) != Targets.end();
}

bool LinkGraph::checkInvariants(const CodeCache &Cache) const {
  // (Source, Target) -> learned edges minus reverse-index entries; every
  // key must balance to zero.
  std::map<std::pair<SuperblockId, SuperblockId>, int64_t> Mirror;
  uint64_t Live = 0;
  for (SuperblockId S = 0; S < Edges.size(); ++S) {
    for (SuperblockId T : Edges[S]) {
      ++Mirror[{S, T}];
      if (Cache.contains(S) && Cache.contains(T))
        ++Live;
    }
  }
  for (SuperblockId T = 0; T < Sources.size(); ++T)
    for (SuperblockId S : Sources[T])
      --Mirror[{S, T}];
  for (const auto &Entry : Mirror)
    if (Entry.second != 0)
      return false;
  return Live == LinkCount;
}
