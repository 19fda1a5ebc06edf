//===- tools/ccsim_lint/Linter.h - Project determinism/correctness lint --===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time mirror of the runtime invariant auditor (src/check):
/// where the auditor proves the cache *structures* consistent after every
/// mutation, ccsim_lint proves the *source tree* obeys the project rules
/// that keep every replay backend byte-identical — rules clang-tidy has
/// no checks for. Each rule has a stable dotted id in the auditor's
/// naming convention, and every violation carries file:line, the id, and
/// a fix hint.
///
/// Rule catalog (see ruleCatalog()):
///   determinism.unordered-iteration  no iterating std::unordered_map/set
///                                    in src/ — hash order leaks into
///                                    reports/exports/audit output
///   determinism.wall-clock           no rand()/random_device/time()/
///                                    clock reads in src/ outside the
///                                    deadline machinery allowlist
///   contracts.raw-assert             no raw assert(); use CCSIM_ASSERT /
///                                    CCSIM_REQUIRE (support/Contracts.h)
///   locking.engine-raw-mutex         no raw std:: mutex types in
///                                    src/core or src/concurrent; use the
///                                    annotated ccsim::Mutex wrappers
///   locking.naked-lock               no manual mutex .lock()/.unlock();
///                                    use ccsim::MutexLock RAII
///   exceptions.swallowed-catch-all   no catch (...) that swallows the
///                                    exception without rethrow/capture
///   lint.suppression-without-reason  every suppression comment must say
///                                    why it is sound
///
/// Suppressions: a comment naming one or more rule ids, e.g.
///   // ccsim-lint: allow(contracts.raw-assert) -- third-party macro
/// silences the named rules on its own line (when it trails code) or on
/// the next line that contains code (when it stands alone). The reason
/// after "--" is mandatory; an allow() without one is itself a violation.
///
/// The scanner is token-level, not a full parser: comments and string
/// literals are blanked before rules run, so quoted text never triggers
/// a rule, and declarations are recognized lexically. That is exactly
/// the right fidelity for these rules — each one keys off a token the
/// project bans outright, with the allow() comment as the narrow,
/// audited escape hatch.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TOOLS_LINTER_H
#define CCSIM_TOOLS_LINTER_H

#include <string>
#include <vector>

namespace ccsim::lint {

/// One lint rule: stable dotted id plus the hint printed with every
/// violation.
struct Rule {
  std::string Id;          ///< Stable dotted id, e.g. "contracts.raw-assert".
  std::string Summary;     ///< One-line description for --list-rules.
  std::string Hint;        ///< Fix hint appended to each violation.
};

/// Every rule the linter enforces, in stable (alphabetical) order.
const std::vector<Rule> &ruleCatalog();

/// True when \p Id names a rule in ruleCatalog().
bool isKnownRule(const std::string &Id);

/// One finding. Line numbers are 1-based.
struct Violation {
  std::string File;
  size_t Line = 0;
  std::string RuleId;
  std::string Message;
  std::string Hint;
};

/// Scanner configuration.
struct LintOptions {
  /// Restrict to one rule id (empty = all rules).
  std::string OnlyRule;

  /// Path fragments (substring match on the normalized path) exempt from
  /// the determinism.wall-clock rule. Defaults to the deadline machinery
  /// that deliberately reads the clock.
  std::vector<std::string> WallClockAllowlist = {
      "src/service/SimService.cpp",
      "src/service/Job.h",
      "src/support/Cancellation.h",
  };
};

/// Lints one in-memory source. \p Path decides rule scoping (src/ vs
/// tests/ etc.) and is echoed into each violation.
std::vector<Violation> lintSource(const std::string &Path,
                                  const std::string &Text,
                                  const LintOptions &Options = {});

/// Reads and lints one file. IO failures surface as a violation with
/// rule id "lint.io-error" so a vanished file can never pass silently.
std::vector<Violation> lintFile(const std::string &Path,
                                const LintOptions &Options = {});

/// Lints every file, deduplicating the list first (same order-stable
/// normalized path lints once). Results are sorted file-then-line.
std::vector<Violation> lintFiles(const std::vector<std::string> &Paths,
                                 const LintOptions &Options = {});

/// Extracts the "file" entry of every translation unit in a CMake
/// compile_commands.json (relative entries are resolved against their
/// "directory"). Returns an empty list and sets \p Error on parse
/// failure.
std::vector<std::string> collectFromCompileCommands(const std::string &Path,
                                                    std::string &Error);

/// Recursively collects *.h / *.cpp under \p Dir, sorted.
std::vector<std::string> collectFromDirectory(const std::string &Dir);

/// Renders one violation as "file:line: [rule.id] message (hint: ...)".
std::string renderViolation(const Violation &V);

} // namespace ccsim::lint

#endif // CCSIM_TOOLS_LINTER_H
