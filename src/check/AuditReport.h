//===- check/AuditReport.h - Structural audit findings --------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result type of the structural invariant auditor (check/CacheAuditor).
/// Every violated invariant is reported as an AuditViolation carrying a
/// stable machine-readable rule id, a severity, the offending superblock /
/// byte ids, a human-readable message with the observed values, and a fix
/// hint pointing at the code that normally maintains the invariant.
///
/// Rule ids are part of the testing contract: the seeded-corruption tests
/// in tests/check assert the exact rule a given corruption trips, so ids
/// must stay stable once released.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CHECK_AUDITREPORT_H
#define CCSIM_CHECK_AUDITREPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ccsim::check {

/// Every structural invariant the auditor can flag, grouped by the
/// structure it protects. See DESIGN.md section 12 for the paper mapping
/// (back-pointer mirroring is Eq. 4 / section 4.3; unit order is the
/// FIFO-of-units contract behind Figures 6-8).
enum class AuditRule : uint8_t {
  // CodeCache: circular-buffer placement.
  CacheResidencyFlagMismatch, ///< Flag table and FIFO disagree on who is
                              ///< resident (or the FIFO holds duplicates).
  CacheLookupStale,           ///< StartById/SizeById disagree with the
                              ///< FIFO entry for a resident block.
  CacheBlockOutOfBounds,      ///< Zero-size block or placement past the
                              ///< end of the buffer (blocks never wrap).
  CacheBlockOverlap,          ///< Two resident placements overlap.
  CacheOccupancyMismatch,     ///< Sum of resident sizes != occupied bytes.
  CacheOverCapacity,          ///< Occupied bytes exceed the capacity.
  CacheFifoOrderBroken,       ///< FIFO start offsets are not cyclically
                              ///< monotone (more than one wrap point).

  // LinkGraph: chaining and the back-pointer table (paper section 4.3).
  LinkEndpointNotResident,    ///< A materialized link endpoint was evicted.
  LinkBackPointerMissing,     ///< Out-link with no mirroring back-pointer.
  LinkBackPointerStale,       ///< Back-pointer with no mirroring out-link
                              ///< (a dangling back-pointer).
  LinkCountMismatch,          ///< Materialized-link count != list totals.
  LinkWithoutStaticEdge,      ///< Link with no static CFG edge behind it.
  LinkStaticEdgeDropped,      ///< Resident->resident static edge that is
                              ///< not materialized, or resident->absent
                              ///< edge missing from the wants index.
  LinkWantsStale,             ///< Wants entry for a resident target or
                              ///< from a non-resident source.
  LinkStateLeak,              ///< Evicted block still owns link lists.
  LinkReverseEdgeMismatch,    ///< A learned edge and the reverse-edge
                              ///< index disagree (missing, extra, or
                              ///< different multiplicity).

  // FreeListCache: first-fit arena (paper section 3.3 study).
  FreeListExtentInvalid,      ///< Zero-size or out-of-bounds free extent.
  FreeListOutOfOrder,         ///< Free list not address-ordered.
  FreeListUncoalesced,        ///< Adjacent free extents not merged.
  FreeListOverlap,            ///< Free extents / allocations overlap.
  FreeListArenaLeak,          ///< Allocations + holes do not tile the
                              ///< arena (lost or duplicated bytes).
  FreeListOccupancyMismatch,  ///< Byte accounting vs. extents disagrees.
  FreeListLruMismatch,        ///< LRU list does not match residency.

  // GenerationalCacheManager.
  GenerationalDualResidency,  ///< Block resident in nursery AND tenured.

  // CacheStats reconciliation against the observed structures.
  StatsAccessSplitMismatch,     ///< Access/miss counter identities broken.
  StatsResidencyMismatch,       ///< Inserts - evictions != residents.
  StatsByteAccountingMismatch,  ///< Inserted - evicted bytes != occupied.
  StatsLinkAccountingMismatch,  ///< Created - destroyed != live links.
  StatsEvictionAccountingMismatch, ///< Eviction counter identities broken.
  StatsBackPointerPeakLow,      ///< Live back-pointer table exceeds the
                                ///< recorded peak.

  // DispatchTable vs. code cache (execution-driven runs; Figure 1's hash
  // table must mirror residency exactly).
  DispatchEntryNotResident,   ///< Table entry whose fragment was evicted.
  DispatchEntryStale,         ///< Table entry whose PC is not the entry PC
                              ///< of the fragment it points at.
  DispatchResidentUnreachable,///< Resident fragment with no table entry at
                              ///< its entry PC.
  DispatchSizeMismatch,       ///< Live-entry count != resident count.

  // Thread-shared engine: the sharded residency index against the code
  // cache, checked at eviction-fence quiesce points. A stale entry would
  // let a concurrent fast-path hit land on evicted code.
  SharedIndexStaleEntry,      ///< Index entry for a non-resident block.
  SharedIndexMissingEntry,    ///< Resident block absent from the index.
  SharedIndexRegionMismatch,  ///< Entry's eviction-fence region disagrees
                              ///< with the block's actual placement.

  // Cross-tenant content sharing: the SharedContentIndex against every
  // cache it spans plus the merged stats (DESIGN.md section 19). A
  // violated rule here means tenants could execute freed shared code or
  // hold duplicate copies sharing was supposed to fold.
  ShareRefCountMismatch,      ///< Entry refcount != 1 + its live links.
  ShareOrphanEntry,           ///< Representative not resident in any of
                              ///< the spanned caches.
  ShareAliasResident,         ///< A linked alias is itself resident — a
                              ///< duplicate copy that defeats sharing.
  ShareMirrorMismatch,        ///< The index's live-link counter disagrees
                              ///< with the sum of entry link sets.
  ShareStatsConservation,     ///< SharedInstalls - UnshareUnlinks in the
                              ///< merged stats != live links.
};

/// How bad a violation is. Everything the auditor currently checks is a
/// hard correctness invariant (Error); Warning is reserved for future
/// heuristic rules so reports can carry both without a format change.
enum class AuditSeverity : uint8_t { Warning, Error };

/// Stable dotted string id for \p Rule, e.g. "link.backpointer-stale".
const char *ruleId(AuditRule Rule);

/// One-line hint naming the code that normally maintains the invariant.
const char *ruleFixHint(AuditRule Rule);

/// Severity classification of \p Rule.
AuditSeverity ruleSeverity(AuditRule Rule);

/// One violated invariant.
struct AuditViolation {
  AuditRule Rule;
  AuditSeverity Severity;
  std::vector<uint64_t> OffendingIds; ///< Superblock ids (or byte offsets
                                      ///< for arena rules) involved.
  std::string Message;                ///< Formatted observed-value detail.

  /// "rule-id [ids...]: message (hint: ...)".
  std::string render() const;
};

/// Findings of one audit pass. Empty means every checked invariant held.
class AuditReport {
public:
  /// Appends a violation; printf-style \p Format for the detail message.
#if defined(__GNUC__) || defined(__clang__)
  // Parameter 1 is the implicit this; Format is 4, varargs start at 5.
  __attribute__((format(printf, 4, 5)))
#endif
  void
  add(AuditRule Rule, const std::vector<uint64_t> &OffendingIds,
      const char *Format, ...);

  void merge(const AuditReport &Other);

  bool clean() const { return Findings.empty(); }
  size_t size() const { return Findings.size(); }
  const std::vector<AuditViolation> &violations() const { return Findings; }

  /// True if any finding carries \p Rule.
  bool has(AuditRule Rule) const;

  /// Number of findings carrying \p Rule.
  size_t countOf(AuditRule Rule) const;

  /// Multi-line human-readable report ("" when clean).
  std::string render() const;

private:
  std::vector<AuditViolation> Findings;
};

} // namespace ccsim::check

#endif // CCSIM_CHECK_AUDITREPORT_H
