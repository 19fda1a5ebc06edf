//===- check/Paranoia.cpp - Arming the deep auditor on live managers ------===//

#include "check/Paranoia.h"

#include "check/CacheAuditor.h"
#include "runtime/Translator.h"

#include <cstdio>
#include <cstdlib>

using namespace ccsim;
using namespace ccsim::check;

namespace {

/// Shared report handling: OnViolation if set, else print and abort.
void handleReport(const AuditReport &Report, const char *Where,
                  const ParanoiaOptions &Options) {
  if (Report.clean())
    return;
  if (Options.OnViolation) {
    Options.OnViolation(Report, Where);
    return;
  }
  std::fprintf(stderr,
               "ccsim paranoid audit failed after %s "
               "(%zu violation(s)):\n%s",
               Where, Report.size(), Report.render().c_str());
  if (Options.AbortOnViolation)
    std::abort();
}

} // namespace

void check::armAuditor(CacheEngine &Manager, ParanoiaOptions Options) {
  Manager.setAuditLevel(Options.Level);
  Manager.setAuditHook(
      [Options](const CacheEngine &M, const char *Where) {
        handleReport(CacheAuditor().auditManager(M), Where, Options);
      });
}

void check::armSharedTenancyAuditors(const std::vector<CacheEngine *> &Managers,
                                     const SharedContentIndex &Index,
                                     ParanoiaOptions Options) {
  // Each hook captures the whole fleet by value (a vector of stable
  // pointers): sharing couples the managers through the index, so every
  // audit must see all caches at once.
  for (CacheEngine *Manager : Managers) {
    Manager->setAuditLevel(Options.Level);
    Manager->setAuditHook([Options, Managers, &Index](const CacheEngine &M,
                                                      const char *Where) {
      AuditReport Report = CacheAuditor().auditManager(M);
      std::vector<CodeCacheState> Caches;
      Caches.reserve(Managers.size());
      CacheStats Merged;
      for (const CacheEngine *Peer : Managers) {
        Caches.push_back(captureCodeCache(Peer->cache()));
        Merged.merge(Peer->stats());
      }
      checkContentIndex(captureContentIndex(Index), Caches, Merged, Report);
      handleReport(Report, Where, Options);
    });
  }
}

void check::armAuditor(Translator &T, ParanoiaOptions Options) {
  // One hook audits the whole translator regardless of which tier engine
  // triggered it; the engine argument is ignored on purpose.
  const auto Hook = [Options, &T](const CacheEngine &, const char *Where) {
    handleReport(CacheAuditor().auditTranslator(T), Where, Options);
  };
  T.engine().setAuditLevel(Options.Level);
  T.engine().setAuditHook(Hook);
  T.basicBlockEngine().setAuditLevel(Options.Level);
  T.basicBlockEngine().setAuditHook(Hook);
}
