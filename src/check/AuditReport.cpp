//===- check/AuditReport.cpp - Structural audit findings ------------------===//

#include "check/AuditReport.h"

#include "support/Contracts.h"

#include <cstdarg>
#include <cstdio>

using namespace ccsim;
using namespace ccsim::check;

const char *check::ruleId(AuditRule Rule) {
  switch (Rule) {
  case AuditRule::CacheResidencyFlagMismatch:
    return "cache.residency-flag-mismatch";
  case AuditRule::CacheLookupStale:
    return "cache.lookup-stale";
  case AuditRule::CacheBlockOutOfBounds:
    return "cache.block-out-of-bounds";
  case AuditRule::CacheBlockOverlap:
    return "cache.block-overlap";
  case AuditRule::CacheOccupancyMismatch:
    return "cache.occupancy-mismatch";
  case AuditRule::CacheOverCapacity:
    return "cache.over-capacity";
  case AuditRule::CacheFifoOrderBroken:
    return "cache.fifo-order-broken";
  case AuditRule::LinkEndpointNotResident:
    return "link.endpoint-not-resident";
  case AuditRule::LinkBackPointerMissing:
    return "link.backpointer-missing";
  case AuditRule::LinkBackPointerStale:
    return "link.backpointer-stale";
  case AuditRule::LinkCountMismatch:
    return "link.count-mismatch";
  case AuditRule::LinkWithoutStaticEdge:
    return "link.without-static-edge";
  case AuditRule::LinkStaticEdgeDropped:
    return "link.static-edge-dropped";
  case AuditRule::LinkWantsStale:
    return "link.wants-stale";
  case AuditRule::LinkStateLeak:
    return "link.state-leak";
  case AuditRule::LinkReverseEdgeMismatch:
    return "link.reverse-edge-mismatch";
  case AuditRule::FreeListExtentInvalid:
    return "freelist.extent-invalid";
  case AuditRule::FreeListOutOfOrder:
    return "freelist.out-of-order";
  case AuditRule::FreeListUncoalesced:
    return "freelist.uncoalesced";
  case AuditRule::FreeListOverlap:
    return "freelist.overlap";
  case AuditRule::FreeListArenaLeak:
    return "freelist.arena-leak";
  case AuditRule::FreeListOccupancyMismatch:
    return "freelist.occupancy-mismatch";
  case AuditRule::FreeListLruMismatch:
    return "freelist.lru-mismatch";
  case AuditRule::GenerationalDualResidency:
    return "generational.dual-residency";
  case AuditRule::StatsAccessSplitMismatch:
    return "stats.access-split-mismatch";
  case AuditRule::StatsResidencyMismatch:
    return "stats.residency-mismatch";
  case AuditRule::StatsByteAccountingMismatch:
    return "stats.byte-accounting-mismatch";
  case AuditRule::StatsLinkAccountingMismatch:
    return "stats.link-accounting-mismatch";
  case AuditRule::StatsEvictionAccountingMismatch:
    return "stats.eviction-accounting-mismatch";
  case AuditRule::StatsBackPointerPeakLow:
    return "stats.backpointer-peak-low";
  case AuditRule::DispatchEntryNotResident:
    return "dispatch.entry-not-resident";
  case AuditRule::DispatchEntryStale:
    return "dispatch.entry-stale";
  case AuditRule::DispatchResidentUnreachable:
    return "dispatch.resident-unreachable";
  case AuditRule::DispatchSizeMismatch:
    return "dispatch.size-mismatch";
  case AuditRule::SharedIndexStaleEntry:
    return "shared.index-stale-entry";
  case AuditRule::SharedIndexMissingEntry:
    return "shared.index-missing-entry";
  case AuditRule::SharedIndexRegionMismatch:
    return "shared.index-region-mismatch";
  case AuditRule::ShareRefCountMismatch:
    return "share.refcount-mismatch";
  case AuditRule::ShareOrphanEntry:
    return "share.orphan-entry";
  case AuditRule::ShareAliasResident:
    return "share.alias-resident";
  case AuditRule::ShareMirrorMismatch:
    return "share.mirror-mismatch";
  case AuditRule::ShareStatsConservation:
    return "share.stats-conservation";
  }
  CCSIM_REQUIRE(false, "unknown audit rule %d", static_cast<int>(Rule));
}

const char *check::ruleFixHint(AuditRule Rule) {
  switch (Rule) {
  case AuditRule::CacheResidencyFlagMismatch:
  case AuditRule::CacheLookupStale:
    return "CodeCache::commitInsert/evictFront must update flag and lookup "
           "tables together";
  case AuditRule::CacheBlockOutOfBounds:
    return "CodeCache::prepareInsert must wrap (wasting tail bytes) before "
           "placing a block past the buffer end";
  case AuditRule::CacheBlockOverlap:
  case AuditRule::CacheFifoOrderBroken:
    return "CodeCache::prepareInsert must evict from the FIFO head before "
           "the write position reaches it";
  case AuditRule::CacheOccupancyMismatch:
  case AuditRule::CacheOverCapacity:
    return "CodeCache Occupied must be adjusted exactly once per "
           "commitInsert/evictFront";
  case AuditRule::LinkEndpointNotResident:
  case AuditRule::LinkStateLeak:
    return "check::captureLinkGraph must derive every link view from "
           "CodeCache residency: an evicted block owns no links";
  case AuditRule::LinkBackPointerMissing:
  case AuditRule::LinkBackPointerStale:
  case AuditRule::LinkWithoutStaticEdge:
  case AuditRule::LinkStaticEdgeDropped:
  case AuditRule::LinkWantsStale:
  case AuditRule::LinkReverseEdgeMismatch:
    return "LinkGraph::learn must index each learned edge once in its "
           "target's reverse index and re-index a re-translated block's "
           "old edges (Eq. 4 back-pointer table)";
  case AuditRule::LinkCountMismatch:
    return "LinkGraph::onInsert/onEvict must move LinkCount by exactly the "
           "links residency creates and destroys";
  case AuditRule::FreeListExtentInvalid:
  case AuditRule::FreeListOutOfOrder:
  case AuditRule::FreeListUncoalesced:
  case AuditRule::FreeListOverlap:
  case AuditRule::FreeListArenaLeak:
  case AuditRule::FreeListOccupancyMismatch:
    return "FreeListCache::release must insert address-ordered and "
           "coalesce both neighbors";
  case AuditRule::FreeListLruMismatch:
    return "FreeListCache insert/evictLru/touch must keep LruList in sync "
           "with slot residency";
  case AuditRule::GenerationalDualResidency:
    return "GenerationalCacheManager::access must check both generations "
           "before inserting";
  case AuditRule::StatsAccessSplitMismatch:
  case AuditRule::StatsResidencyMismatch:
  case AuditRule::StatsByteAccountingMismatch:
  case AuditRule::StatsLinkAccountingMismatch:
  case AuditRule::StatsEvictionAccountingMismatch:
  case AuditRule::StatsBackPointerPeakLow:
    return "CacheEngine::access/chargeEvictions must bump each CacheStats "
           "counter exactly once per event";
  case AuditRule::DispatchEntryNotResident:
  case AuditRule::DispatchEntryStale:
  case AuditRule::DispatchResidentUnreachable:
  case AuditRule::DispatchSizeMismatch:
    return "Translator::installFragment and the eviction payloads must "
           "insert/remove DispatchTable entries in lockstep with the "
           "engine's commitInsert/evictions";
  case AuditRule::SharedIndexStaleEntry:
  case AuditRule::SharedIndexMissingEntry:
  case AuditRule::SharedIndexRegionMismatch:
    return "SharedCacheEngine::reconcileIndexEntry and the eviction-batch "
           "hook must mutate the sharded index under the shard lock in "
           "lockstep with CodeCache residency";
  case AuditRule::ShareRefCountMismatch:
  case AuditRule::ShareMirrorMismatch:
    return "SharedContentIndex::link/releaseRepresentative must move "
           "RefCount and LiveLinks with every link-set mutation";
  case AuditRule::ShareOrphanEntry:
  case AuditRule::ShareAliasResident:
    return "CacheEngine::missAndInsert must register representatives and "
           "drainShares must release them in lockstep with residency "
           "(aliases never insert while their representative lives)";
  case AuditRule::ShareStatsConservation:
    return "CacheEngine's shared-hit path and drainShares must bump "
           "SharedInstalls/UnshareUnlinks exactly once per link "
           "created/drained";
  }
  CCSIM_REQUIRE(false, "unknown audit rule %d", static_cast<int>(Rule));
}

AuditSeverity check::ruleSeverity(AuditRule) {
  // Every current rule is a hard correctness invariant.
  return AuditSeverity::Error;
}

std::string AuditViolation::render() const {
  std::string Out = ruleId(Rule);
  if (!OffendingIds.empty()) {
    Out += " [";
    for (size_t I = 0; I < OffendingIds.size(); ++I) {
      if (I > 0)
        Out += ", ";
      Out += std::to_string(OffendingIds[I]);
    }
    Out += "]";
  }
  Out += ": ";
  Out += Message;
  Out += " (hint: ";
  Out += ruleFixHint(Rule);
  Out += ")";
  return Out;
}

void AuditReport::add(AuditRule Rule,
                      const std::vector<uint64_t> &OffendingIds,
                      const char *Format, ...) {
  char Message[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Message, sizeof(Message), Format, Args);
  va_end(Args);
  Findings.push_back(
      AuditViolation{Rule, ruleSeverity(Rule), OffendingIds, Message});
}

void AuditReport::merge(const AuditReport &Other) {
  Findings.insert(Findings.end(), Other.Findings.begin(),
                  Other.Findings.end());
}

bool AuditReport::has(AuditRule Rule) const {
  for (const AuditViolation &V : Findings)
    if (V.Rule == Rule)
      return true;
  return false;
}

size_t AuditReport::countOf(AuditRule Rule) const {
  size_t Count = 0;
  for (const AuditViolation &V : Findings)
    if (V.Rule == Rule)
      ++Count;
  return Count;
}

std::string AuditReport::render() const {
  std::string Out;
  for (const AuditViolation &V : Findings) {
    Out += V.render();
    Out += '\n';
  }
  return Out;
}
