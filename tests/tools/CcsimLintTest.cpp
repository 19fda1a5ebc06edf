//===- tests/tools/CcsimLintTest.cpp - ccsim_lint scanner tests -----------===//
//
// Three layers of coverage:
//   1. Golden fixtures: one violating + one clean file per rule, read as
//      text from tests/tools/fixtures/ (they are never compiled) and fed
//      through lintSource under a synthetic src/ path so the path-scoped
//      rules apply.
//   2. Contract tests: suppression grammar, rule scoping, violation
//      rendering, compile_commands.json collection, and the CLI's
//      0/1/2 exit-code convention (via the real binary).
//   3. Self-check: the actual src/ and tools/ trees must lint clean —
//      this is the test that pins the repo to its own rules.
//
//===----------------------------------------------------------------------===//

#include "Linter.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

using namespace ccsim::lint;

namespace {

std::string readFixture(const std::string &Name) {
  const std::string Path =
      std::string(CCSIM_LINT_FIXTURE_DIR) + "/" + Name;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing fixture " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Lints a fixture as if it lived at \p VirtualPath (rule scoping is
/// path-based, and fixtures live under tests/ where the determinism
/// rules are off).
std::vector<Violation> lintFixture(const std::string &Name,
                                   const std::string &VirtualPath,
                                   const LintOptions &Options = {}) {
  return lintSource(VirtualPath, readFixture(Name), Options);
}

std::vector<std::string> ruleIdsOf(const std::vector<Violation> &Vs) {
  std::vector<std::string> Ids;
  for (const Violation &V : Vs)
    Ids.push_back(V.RuleId);
  return Ids;
}

//===----------------------------------------------------------------------===//
// Rule catalog
//===----------------------------------------------------------------------===//

TEST(LintCatalog, HasAtLeastFiveDottedRulesInStableOrder) {
  const std::vector<Rule> &Catalog = ruleCatalog();
  ASSERT_GE(Catalog.size(), 5u);
  for (size_t I = 0; I < Catalog.size(); ++I) {
    EXPECT_NE(Catalog[I].Id.find('.'), std::string::npos)
        << "rule id '" << Catalog[I].Id << "' is not dotted";
    EXPECT_FALSE(Catalog[I].Summary.empty());
    EXPECT_FALSE(Catalog[I].Hint.empty());
    if (I > 0) {
      EXPECT_LT(Catalog[I - 1].Id, Catalog[I].Id)
          << "catalog must stay alphabetical so ids are easy to audit";
    }
  }
  EXPECT_TRUE(isKnownRule("contracts.raw-assert"));
  EXPECT_FALSE(isKnownRule("contracts.rawassert"));
}

//===----------------------------------------------------------------------===//
// Golden fixtures, one violating + one clean per rule
//===----------------------------------------------------------------------===//

TEST(LintFixtures, RawAssertViolates) {
  const auto Vs = lintFixture("raw_assert.violate.cpp", "src/f.cpp");
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].RuleId, "contracts.raw-assert");
  EXPECT_EQ(Vs[0].Line, 6u);
}

TEST(LintFixtures, RawAssertClean) {
  EXPECT_TRUE(lintFixture("raw_assert.clean.cpp", "src/f.cpp").empty());
}

TEST(LintFixtures, RawAssertAppliesOutsideSrcToo) {
  const auto Vs =
      lintFixture("raw_assert.violate.cpp", "tests/helpers/f.cpp");
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].RuleId, "contracts.raw-assert");
}

TEST(LintFixtures, UnorderedIterationViolates) {
  const auto Vs =
      lintFixture("unordered_iteration.violate.cpp", "src/f.cpp");
  ASSERT_EQ(Vs.size(), 2u); // Range-for plus explicit .begin() walk.
  EXPECT_EQ(Vs[0].RuleId, "determinism.unordered-iteration");
  EXPECT_EQ(Vs[1].RuleId, "determinism.unordered-iteration");
}

TEST(LintFixtures, UnorderedIterationClean) {
  EXPECT_TRUE(
      lintFixture("unordered_iteration.clean.cpp", "src/f.cpp").empty());
}

TEST(LintFixtures, UnorderedIterationScopedToSrc) {
  // Hash-order iteration is legal in tests (e.g. membership checks).
  EXPECT_TRUE(
      lintFixture("unordered_iteration.violate.cpp", "tests/f.cpp")
          .empty());
}

TEST(LintFixtures, WallClockViolates) {
  const auto Vs = lintFixture("wall_clock.violate.cpp", "src/f.cpp");
  ASSERT_EQ(Vs.size(), 3u); // time(), rand(), random_device.
  for (const Violation &V : Vs)
    EXPECT_EQ(V.RuleId, "determinism.wall-clock");
}

TEST(LintFixtures, WallClockClean) {
  EXPECT_TRUE(lintFixture("wall_clock.clean.cpp", "src/f.cpp").empty());
}

TEST(LintFixtures, WallClockAllowlistExemptsDeadlineMachinery) {
  EXPECT_TRUE(lintFixture("wall_clock.violate.cpp",
                          "src/support/Cancellation.h")
                  .empty());
  EXPECT_TRUE(
      lintFixture("wall_clock.violate.cpp", "tests/f.cpp").empty());
}

TEST(LintFixtures, NakedLockViolates) {
  const auto Vs = lintFixture("naked_lock.violate.cpp", "src/f.cpp");
  ASSERT_EQ(Vs.size(), 2u); // .lock() and .unlock().
  EXPECT_EQ(Vs[0].RuleId, "locking.naked-lock");
  EXPECT_EQ(Vs[1].RuleId, "locking.naked-lock");
}

TEST(LintFixtures, NakedLockClean) {
  EXPECT_TRUE(lintFixture("naked_lock.clean.cpp", "src/f.cpp").empty());
}

TEST(LintFixtures, NakedLockWrapperFileIsExempt) {
  // The annotated wrapper in support/ThreadSafety.h is the one place
  // allowed to forward to std::mutex::lock directly.
  EXPECT_TRUE(lintFixture("naked_lock.violate.cpp",
                          "src/support/ThreadSafety.h")
                  .empty());
}

TEST(LintFixtures, EngineRawMutexViolates) {
  const auto Vs =
      lintFixture("engine_raw_mutex.violate.cpp", "src/core/f.cpp");
  ASSERT_EQ(Vs.size(), 3u); // mutex, shared_mutex, recursive_mutex.
  for (const Violation &V : Vs)
    EXPECT_EQ(V.RuleId, "locking.engine-raw-mutex");
}

TEST(LintFixtures, EngineRawMutexClean) {
  EXPECT_TRUE(
      lintFixture("engine_raw_mutex.clean.cpp", "src/core/f.cpp")
          .empty());
}

TEST(LintFixtures, EngineRawMutexScopedToEngineTrees) {
  // src/concurrent is in scope; the rest of src/ (and tests/) is not --
  // subsystems outside the thread-shared engine keep their own locking
  // discipline under locking.naked-lock alone.
  EXPECT_EQ(lintFixture("engine_raw_mutex.violate.cpp",
                        "src/concurrent/f.cpp")
                .size(),
            3u);
  EXPECT_TRUE(
      lintFixture("engine_raw_mutex.violate.cpp", "src/sim/f.cpp")
          .empty());
  EXPECT_TRUE(
      lintFixture("engine_raw_mutex.violate.cpp", "tests/core/f.cpp")
          .empty());
}

TEST(LintFixtures, SwallowedCatchViolates) {
  const auto Vs = lintFixture("swallowed_catch.violate.cpp", "src/f.cpp");
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].RuleId, "exceptions.swallowed-catch-all");
}

TEST(LintFixtures, SwallowedCatchClean) {
  EXPECT_TRUE(
      lintFixture("swallowed_catch.clean.cpp", "src/f.cpp").empty());
}

//===----------------------------------------------------------------------===//
// Suppressions
//===----------------------------------------------------------------------===//

TEST(LintSuppressions, ReasonedAllowSilencesBothForms) {
  // Standalone (next code line) and trailing (own line) forms.
  EXPECT_TRUE(
      lintFixture("suppression.reasoned.cpp", "src/f.cpp").empty());
}

TEST(LintSuppressions, MissingReasonIsItselfAViolation) {
  const auto Vs =
      lintFixture("suppression.unreasoned.cpp", "src/f.cpp");
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].RuleId, "lint.suppression-without-reason");
}

TEST(LintSuppressions, UnknownRuleIsFlaggedAndSuppressesNothing) {
  const auto Vs =
      lintFixture("suppression.unknown_rule.cpp", "src/f.cpp");
  const auto Ids = ruleIdsOf(Vs);
  ASSERT_EQ(Ids.size(), 2u);
  EXPECT_EQ(Ids[0], "lint.unknown-rule");     // The typo'd allow().
  EXPECT_EQ(Ids[1], "contracts.raw-assert");  // Still reported.
}

TEST(LintSuppressions, AllowOnlySilencesTheNamedRule) {
  const std::string Text =
      "void f(ccsim::Mutex &M) {\n"
      "  // ccsim-lint: allow(contracts.raw-assert) -- wrong rule named\n"
      "  M.lock();\n"
      "}\n";
  const auto Vs = lintSource("src/f.cpp", Text);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].RuleId, "locking.naked-lock");
}

//===----------------------------------------------------------------------===//
// Scanner details
//===----------------------------------------------------------------------===//

TEST(LintScanner, CommentsAndStringsNeverTrigger) {
  const std::string Text =
      "// assert(1); M.lock(); rand();\n"
      "/* for (auto &X : SomeUnorderedMap) */\n"
      "const char *S = \"assert(1) time(0)\";\n"
      "const char *R = R\"(catch (...) {})\";\n";
  EXPECT_TRUE(lintSource("src/f.cpp", Text).empty());
}

TEST(LintScanner, LineNumbersSurviveMultilineConstructs) {
  const std::string Text = "/* line 1\n   line 2\n   line 3 */\n"
                           "#include <cassert>\n"
                           "void f() { assert(true); }\n";
  const auto Vs = lintSource("src/f.cpp", Text);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Line, 5u);
}

TEST(LintScanner, OnlyRuleFilterRestrictsOutput) {
  LintOptions Options;
  Options.OnlyRule = "determinism.wall-clock";
  const auto Vs =
      lintFixture("wall_clock.violate.cpp", "src/f.cpp", Options);
  ASSERT_EQ(Vs.size(), 3u);
  Options.OnlyRule = "locking.naked-lock";
  EXPECT_TRUE(
      lintFixture("wall_clock.violate.cpp", "src/f.cpp", Options)
          .empty());
}

TEST(LintScanner, RenderFormatIsStable) {
  Violation V;
  V.File = "src/core/CodeCache.cpp";
  V.Line = 42;
  V.RuleId = "contracts.raw-assert";
  V.Message = "raw assert() call";
  V.Hint = "use CCSIM_ASSERT";
  EXPECT_EQ(renderViolation(V),
            "src/core/CodeCache.cpp:42: [contracts.raw-assert] "
            "raw assert() call (hint: use CCSIM_ASSERT)");
}

TEST(LintScanner, MissingFileSurfacesAsIoError) {
  const auto Vs = lintFile("/nonexistent/ccsim/file.cpp");
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].RuleId, "lint.io-error");
}

//===----------------------------------------------------------------------===//
// compile_commands.json collection
//===----------------------------------------------------------------------===//

TEST(LintCompileCommands, ResolvesRelativeEntriesAgainstDirectory) {
  const std::string Path = testing::TempDir() + "/ccsim_lint_cc.json";
  {
    std::ofstream Out(Path);
    Out << "[\n"
        << "{\"directory\": \"/repo/build\", \"command\": \"c++ -c "
           "\\\"x\\\"\", \"file\": \"../src/a.cpp\"},\n"
        << "{\"directory\": \"/repo/build\", \"arguments\": [\"c++\", "
           "\"-c\"], \"file\": \"/abs/b.cpp\"}\n"
        << "]\n";
  }
  std::string Error;
  const auto Files = collectFromCompileCommands(Path, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_EQ(Files[0], "/repo/build/../src/a.cpp");
  EXPECT_EQ(Files[1], "/abs/b.cpp");
}

TEST(LintCompileCommands, ParseFailureSetsError) {
  const std::string Path = testing::TempDir() + "/ccsim_lint_bad.json";
  {
    std::ofstream Out(Path);
    Out << "{\"not\": \"an array\"}";
  }
  std::string Error;
  EXPECT_TRUE(collectFromCompileCommands(Path, Error).empty());
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// CLI exit-code contract (0 clean / 1 violations / 2 usage)
//===----------------------------------------------------------------------===//

int runLintCli(const std::string &Args) {
  const std::string Cmd = std::string(CCSIM_LINT_BIN) + " " + Args +
                          " >/dev/null 2>&1";
  const int Raw = std::system(Cmd.c_str());
  return WEXITSTATUS(Raw);
}

TEST(LintCli, ExitCodesFollowRepoConvention) {
  const std::string Fixtures = CCSIM_LINT_FIXTURE_DIR;
  EXPECT_EQ(runLintCli("--list-rules"), 0);
  EXPECT_EQ(runLintCli(Fixtures + "/naked_lock.clean.cpp"), 0);
  // Fixtures sit under tests/, so the always-on raw-assert rule is the
  // one that fires regardless of path scoping.
  EXPECT_EQ(runLintCli(Fixtures + "/raw_assert.violate.cpp"), 1);
  EXPECT_EQ(runLintCli(""), 2);                        // No inputs.
  EXPECT_EQ(runLintCli("--only=not.a.rule x.cpp"), 2); // Unknown rule.
  EXPECT_EQ(runLintCli("--dir=/nonexistent/ccsim"), 2);
}

//===----------------------------------------------------------------------===//
// Self-check: the real tree obeys its own rules
//===----------------------------------------------------------------------===//

TEST(LintSelfCheck, SrcAndToolsLintClean) {
  const std::string Root = CCSIM_SOURCE_DIR;
  std::vector<std::string> Files = collectFromDirectory(Root + "/src");
  const std::vector<std::string> Tools =
      collectFromDirectory(Root + "/tools");
  Files.insert(Files.end(), Tools.begin(), Tools.end());
  ASSERT_GT(Files.size(), 50u) << "directory walk looks broken";

  const std::vector<Violation> Vs = lintFiles(Files);
  std::ostringstream Report;
  for (const Violation &V : Vs)
    Report << "  " << renderViolation(V) << "\n";
  EXPECT_TRUE(Vs.empty())
      << "the source tree violates its own lint rules:\n"
      << Report.str();
}

} // namespace
