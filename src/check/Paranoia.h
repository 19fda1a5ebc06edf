//===- check/Paranoia.h - Arming the deep auditor on live managers --------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between CacheEngine's generic audit hook and the deep
/// CacheAuditor. ccsim_core deliberately knows nothing about ccsim_check
/// (the hook is a plain std::function); this header is what the layers
/// that may link ccsim_check — sim, concurrent, tests, the CLI — call to
/// turn paranoid validation on.
///
/// In a CCSIM_PARANOID build (cmake -DCCSIM_PARANOID=ON) the config
/// structs default their audit level to Full, so arming makes every
/// mutation self-checking; in a normal build the default level is Off and
/// an armed hook costs one branch per access until a caller raises the
/// level at runtime.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CHECK_PARANOIA_H
#define CCSIM_CHECK_PARANOIA_H

#include "check/AuditReport.h"
#include "core/CacheEngine.h"
#include "core/SharedContentIndex.h"

#include <functional>
#include <vector>

namespace ccsim {
class Translator;
} // namespace ccsim

namespace ccsim::check {

/// How an armed auditor reacts to findings.
struct ParanoiaOptions {
  /// Level installed on the manager. defaultAuditLevel() honors
  /// CCSIM_PARANOID; pass an explicit level to override.
  AuditLevel Level = defaultAuditLevel();

  /// When no OnViolation handler is set: print the report to stderr and
  /// abort (the paranoid contract — stop at the first corrupt state).
  bool AbortOnViolation = true;

  /// Optional handler receiving the findings and the mutation site.
  /// When set it replaces the print-and-abort behavior.
  std::function<void(const AuditReport &, const char *Where)> OnViolation;
};

/// Installs the deep auditor (CacheAuditor::auditManager after every
/// mutation the level covers) on \p Manager.
void armAuditor(CacheEngine &Manager, ParanoiaOptions Options = {});

/// Installs the deep auditor on both tier engines of a live translator:
/// every install the level covers re-audits the whole DBT state
/// (CacheAuditor::auditTranslator — placement, chaining, stats, and the
/// dispatch.* table-vs-residency family). \p T must outlive its engines'
/// hooks, which it does by construction.
void armAuditor(Translator &T, ParanoiaOptions Options = {});

/// Installs the deep auditor on a fleet of managers coupled by one
/// cross-tenant content index: every mutation the level covers audits the
/// triggering manager (CacheAuditor::auditManager) and then the share.*
/// family over \p Index against *all* the managers' caches plus their
/// merged stats — orphan representatives and resident aliases are
/// cross-manager properties, so auditing one cache in isolation cannot
/// see them. \p Managers and \p Index must outlive the hooks.
void armSharedTenancyAuditors(const std::vector<CacheEngine *> &Managers,
                              const SharedContentIndex &Index,
                              ParanoiaOptions Options = {});

} // namespace ccsim::check

#endif // CCSIM_CHECK_PARANOIA_H
