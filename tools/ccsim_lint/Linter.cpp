//===- tools/ccsim_lint/Linter.cpp - Project determinism lint -------------===//

#include "Linter.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace ccsim::lint;

//===----------------------------------------------------------------------===//
// Rule catalog
//===----------------------------------------------------------------------===//

const std::vector<Rule> &ccsim::lint::ruleCatalog() {
  static const std::vector<Rule> Catalog = {
      {"cancellation.bespoke-poll",
       "CancelToken poll in src/ outside sim::forEachChunk; a hand-rolled "
       "poll drifts from the one chunk grain and stop message every replay "
       "loop shares",
       "walk the access stream through sim::forEachChunk (sim/Simulator.h) "
       "and pass the run's CancelToken to it"},
      {"contracts.raw-assert",
       "raw assert() call; the project builds with assertions armed in "
       "Release and wants formatted diagnostics",
       "use CCSIM_ASSERT or CCSIM_REQUIRE from support/Contracts.h"},
      {"determinism.unordered-iteration",
       "iteration over std::unordered_map/set in src/; hash order leaks "
       "into reports, exports, and audit output",
       "iterate a sorted copy, or collect-then-sort before emitting "
       "(see telemetry's canonical-order contract)"},
      {"determinism.wall-clock",
       "clock or PRNG read in src/ outside the deadline machinery; "
       "wall-clock state breaks replay bit-identity",
       "thread timestamps through the config, use support/Random.h for "
       "seeded randomness, or route deadlines via support/Cancellation.h"},
      {"exceptions.swallowed-catch-all",
       "catch (...) that neither rethrows nor captures the exception; a "
       "worker swallowing failures turns them into silent wrong results",
       "capture std::current_exception() for the controller thread, "
       "rethrow, or narrow the catch to the types you can handle"},
      {"lint.suppression-without-reason",
       "ccsim-lint allow() comment with no reason text",
       "append '-- <why this is sound>' to the suppression comment"},
      {"lint.unknown-rule",
       "ccsim-lint allow() comment naming a rule id that does not exist",
       "use an id from ccsim_lint --list-rules"},
      {"locking.engine-raw-mutex",
       "raw std:: mutex type in src/core or src/concurrent; locks in the "
       "thread-shared engine must be the annotated ccsim wrappers so the "
       "Clang thread-safety analysis sees every acquisition",
       "declare ccsim::Mutex / ccsim::SharedMutex from "
       "support/ThreadSafety.h instead of the std:: type"},
      {"locking.naked-lock",
       "manual mutex lock()/unlock() call; an early return or exception "
       "between the pair deadlocks the next acquirer",
       "use ccsim::MutexLock from support/ThreadSafety.h (RAII, visible "
       "to the Clang thread-safety analysis)"},
  };
  return Catalog;
}

bool ccsim::lint::isKnownRule(const std::string &Id) {
  for (const Rule &R : ruleCatalog())
    if (R.Id == Id)
      return true;
  return false;
}

static const Rule &ruleById(const std::string &Id) {
  for (const Rule &R : ruleCatalog())
    if (R.Id == Id)
      return R;
  static const Rule Unknown = {"lint.internal", "", ""};
  return Unknown;
}

//===----------------------------------------------------------------------===//
// Lexical helpers
//===----------------------------------------------------------------------===//

namespace {

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// One comment in the original text (raw content without the delimiters).
struct Comment {
  size_t Line = 0;      ///< 1-based line of the comment's first character.
  size_t Column = 0;    ///< 0-based column of the opening delimiter.
  std::string Text;     ///< Comment body, newlines preserved.
  size_t EndLine = 0;   ///< 1-based line of the comment's last character.
};

/// The original text with comments, string literals, and char literals
/// replaced by spaces (newlines kept), so token scans never fire inside
/// quoted or commented text.
struct CodeView {
  std::string Code;
  std::vector<Comment> Comments;
};

CodeView stripToCode(const std::string &Text) {
  CodeView View;
  View.Code = Text;
  std::string &Code = View.Code;
  size_t Line = 1;
  size_t LineStart = 0;
  size_t I = 0;
  const size_t N = Text.size();
  auto blank = [&](size_t Pos) {
    if (Code[Pos] != '\n')
      Code[Pos] = ' ';
  };
  while (I < N) {
    const char C = Text[I];
    if (C == '\n') {
      ++Line;
      LineStart = I + 1;
      ++I;
    } else if (C == '/' && I + 1 < N && Text[I + 1] == '/') {
      Comment Cm;
      Cm.Line = Line;
      Cm.Column = I - LineStart;
      size_t J = I + 2;
      while (J < N && Text[J] != '\n')
        ++J;
      Cm.Text = Text.substr(I + 2, J - (I + 2));
      Cm.EndLine = Line;
      for (size_t K = I; K < J; ++K)
        blank(K);
      View.Comments.push_back(std::move(Cm));
      I = J;
    } else if (C == '/' && I + 1 < N && Text[I + 1] == '*') {
      Comment Cm;
      Cm.Line = Line;
      Cm.Column = I - LineStart;
      size_t J = I + 2;
      while (J + 1 < N && !(Text[J] == '*' && Text[J + 1] == '/')) {
        if (Text[J] == '\n') {
          ++Line;
          LineStart = J + 1;
        }
        ++J;
      }
      const size_t End = J + 1 < N ? J + 2 : N;
      Cm.Text = Text.substr(I + 2, J - (I + 2));
      Cm.EndLine = Line;
      for (size_t K = I; K < End; ++K)
        blank(K);
      View.Comments.push_back(std::move(Cm));
      I = End;
    } else if (C == '"' &&
               !(I >= 1 && Text[I - 1] == 'R')) { // Plain string literal.
      blank(I);
      size_t J = I + 1;
      while (J < N && Text[J] != '"') {
        if (Text[J] == '\\' && J + 1 < N) {
          blank(J);
          ++J;
        }
        if (Text[J] == '\n') {
          ++Line;
          LineStart = J + 1;
        }
        blank(J);
        ++J;
      }
      if (J < N)
        blank(J);
      I = J + 1;
    } else if (C == '"') { // Raw string literal R"delim( ... )delim".
      blank(I);
      size_t J = I + 1;
      std::string Delim;
      while (J < N && Text[J] != '(') {
        Delim.push_back(Text[J]);
        blank(J);
        ++J;
      }
      const std::string Close = ")" + Delim + "\"";
      size_t End = Text.find(Close, J);
      End = End == std::string::npos ? N : End + Close.size();
      for (size_t K = J; K < End; ++K) {
        if (Text[K] == '\n') {
          ++Line;
          LineStart = K + 1;
        }
        blank(K);
      }
      I = End;
    } else if (C == '\'') { // Char literal.
      blank(I);
      size_t J = I + 1;
      while (J < N && Text[J] != '\'') {
        if (Text[J] == '\\' && J + 1 < N) {
          blank(J);
          ++J;
        }
        blank(J);
        ++J;
      }
      if (J < N)
        blank(J);
      I = J + 1;
    } else {
      ++I;
    }
  }
  return View;
}

/// 1-based line number of offset \p Pos, via a precomputed table.
class LineIndex {
public:
  explicit LineIndex(const std::string &Text) {
    Starts.push_back(0);
    for (size_t I = 0; I < Text.size(); ++I)
      if (Text[I] == '\n')
        Starts.push_back(I + 1);
  }

  size_t lineOf(size_t Pos) const {
    const auto It = std::upper_bound(Starts.begin(), Starts.end(), Pos);
    return static_cast<size_t>(It - Starts.begin());
  }

  /// True when [start-of-line, Pos) holds only whitespace in \p Code.
  bool blankBefore(const std::string &Code, size_t Line, size_t Col) const {
    const size_t Start = Starts[Line - 1];
    for (size_t I = Start; I < Start + Col && I < Code.size(); ++I)
      if (!std::isspace(static_cast<unsigned char>(Code[I])))
        return false;
    return true;
  }

  /// First line >= \p Line that contains a non-space character in Code;
  /// 0 when none exists.
  size_t nextCodeLine(const std::string &Code, size_t Line) const {
    for (size_t L = Line; L <= Starts.size(); ++L) {
      const size_t Begin = Starts[L - 1];
      const size_t End = L < Starts.size() ? Starts[L] : Code.size();
      for (size_t I = Begin; I < End; ++I)
        if (!std::isspace(static_cast<unsigned char>(Code[I])))
          return L;
    }
    return 0;
  }

private:
  std::vector<size_t> Starts;
};

/// Occurrences of identifier token \p Tok (identifier-boundary on both
/// sides) in \p Code, as offsets.
std::vector<size_t> tokenOffsets(const std::string &Code,
                                 const std::string &Tok) {
  std::vector<size_t> Out;
  size_t Pos = 0;
  while ((Pos = Code.find(Tok, Pos)) != std::string::npos) {
    const bool StartOk = Pos == 0 || !isIdentChar(Code[Pos - 1]);
    const size_t After = Pos + Tok.size();
    const bool EndOk = After >= Code.size() || !isIdentChar(Code[After]);
    if (StartOk && EndOk)
      Out.push_back(Pos);
    Pos = After;
  }
  return Out;
}

size_t skipSpaces(const std::string &S, size_t I) {
  while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
    ++I;
  return I;
}

/// With S[Open] == \p OpenCh, returns the offset of the matching closer
/// (or npos). Works on a code view, so quotes are already blanked.
size_t matchBalanced(const std::string &S, size_t Open, char OpenCh,
                     char CloseCh) {
  size_t Depth = 0;
  for (size_t I = Open; I < S.size(); ++I) {
    if (S[I] == OpenCh)
      ++Depth;
    else if (S[I] == CloseCh && --Depth == 0)
      return I;
  }
  return std::string::npos;
}

std::string trimCopy(const std::string &S) {
  size_t B = 0;
  size_t E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

std::string normalizePath(std::string P) {
  std::replace(P.begin(), P.end(), '\\', '/');
  size_t Pos = 0;
  while ((Pos = P.find("/./")) != std::string::npos)
    P.erase(Pos, 2);
  while (P.rfind("./", 0) == 0)
    P.erase(0, 2);
  return P;
}

/// True when the normalized path sits under top-level directory \p Dir
/// ("src", "tests", ...), at any nesting below the repo root.
bool underTree(const std::string &NormPath, const std::string &Dir) {
  if (NormPath.rfind(Dir + "/", 0) == 0)
    return true;
  return NormPath.find("/" + Dir + "/") != std::string::npos;
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

//===----------------------------------------------------------------------===//
// Suppressions
//===----------------------------------------------------------------------===//

struct Suppression {
  size_t Line = 0; ///< Line the allow() applies to.
  std::string RuleId;
};

struct SuppressionScan {
  std::vector<Suppression> Allows;
  std::vector<Violation> Meta; ///< Malformed-suppression violations.
};

SuppressionScan scanSuppressions(const std::string &Path,
                                 const CodeView &View,
                                 const LineIndex &Lines) {
  SuppressionScan Scan;
  for (const Comment &Cm : View.Comments) {
    const size_t Key = Cm.Text.find("ccsim-lint:");
    if (Key == std::string::npos)
      continue;
    size_t I = Cm.Text.find("allow", Key);
    Violation V;
    V.File = Path;
    V.Line = Cm.Line;
    if (I == std::string::npos) {
      V.RuleId = "lint.unknown-rule";
      V.Message = "ccsim-lint comment without an allow(...) clause";
      V.Hint = ruleById(V.RuleId).Hint;
      Scan.Meta.push_back(std::move(V));
      continue;
    }
    I = skipSpaces(Cm.Text, I + 5);
    if (I >= Cm.Text.size() || Cm.Text[I] != '(') {
      V.RuleId = "lint.unknown-rule";
      V.Message = "malformed ccsim-lint allow clause (missing rule list)";
      V.Hint = ruleById(V.RuleId).Hint;
      Scan.Meta.push_back(std::move(V));
      continue;
    }
    const size_t Close = Cm.Text.find(')', I);
    if (Close == std::string::npos) {
      V.RuleId = "lint.unknown-rule";
      V.Message = "malformed ccsim-lint allow clause (unterminated list)";
      V.Hint = ruleById(V.RuleId).Hint;
      Scan.Meta.push_back(std::move(V));
      continue;
    }

    // Which line does the suppression govern? Trailing a code line: that
    // line. Standing alone: the next line that contains code.
    size_t Target = Cm.Line;
    if (Lines.blankBefore(View.Code, Cm.Line, Cm.Column))
      Target = Lines.nextCodeLine(View.Code, Cm.EndLine + 1);

    // Parse the comma-separated rule ids.
    std::stringstream List(Cm.Text.substr(I + 1, Close - I - 1));
    std::string Id;
    bool AnyRule = false;
    while (std::getline(List, Id, ',')) {
      Id = trimCopy(Id);
      if (Id.empty())
        continue;
      AnyRule = true;
      if (!isKnownRule(Id)) {
        Violation U;
        U.File = Path;
        U.Line = Cm.Line;
        U.RuleId = "lint.unknown-rule";
        U.Message = "allow() names unknown rule '" + Id + "'";
        U.Hint = ruleById(U.RuleId).Hint;
        Scan.Meta.push_back(std::move(U));
        continue;
      }
      if (Target != 0)
        Scan.Allows.push_back({Target, Id});
    }
    if (!AnyRule) {
      V.RuleId = "lint.unknown-rule";
      V.Message = "allow() with an empty rule list";
      V.Hint = ruleById(V.RuleId).Hint;
      Scan.Meta.push_back(std::move(V));
      continue;
    }

    // The reason is mandatory: "-- why" or ": why" after the ')'.
    std::string Tail = trimCopy(Cm.Text.substr(Close + 1));
    if (Tail.rfind("--", 0) == 0)
      Tail = trimCopy(Tail.substr(2));
    else if (Tail.rfind(":", 0) == 0)
      Tail = trimCopy(Tail.substr(1));
    else
      Tail.clear(); // Reason must be introduced by -- or :.
    if (Tail.empty()) {
      Violation R;
      R.File = Path;
      R.Line = Cm.Line;
      R.RuleId = "lint.suppression-without-reason";
      R.Message = "suppression comment has no reason text";
      R.Hint = ruleById(R.RuleId).Hint;
      Scan.Meta.push_back(std::move(R));
    }
  }
  return Scan;
}

bool isSuppressed(const std::vector<Suppression> &Allows, size_t Line,
                  const std::string &RuleId) {
  for (const Suppression &S : Allows)
    if (S.Line == Line && S.RuleId == RuleId)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Rules
//===----------------------------------------------------------------------===//

void addViolation(std::vector<Violation> &Out, const std::string &Path,
                  size_t Line, const std::string &RuleId,
                  std::string Message) {
  Violation V;
  V.File = Path;
  V.Line = Line;
  V.RuleId = RuleId;
  V.Message = std::move(Message);
  V.Hint = ruleById(RuleId).Hint;
  Out.push_back(std::move(V));
}

/// contracts.raw-assert — a call spelled exactly assert(...). The token
/// scan cannot fire on static_assert (the char before 'assert' is an
/// identifier char) or CCSIM_ASSERT (case-sensitive search).
void checkRawAssert(const std::string &Path, const std::string &Code,
                    const LineIndex &Lines, std::vector<Violation> &Out) {
  for (size_t Pos : tokenOffsets(Code, "assert")) {
    const size_t After = skipSpaces(Code, Pos + 6);
    if (After < Code.size() && Code[After] == '(')
      addViolation(Out, Path, Lines.lineOf(Pos), "contracts.raw-assert",
                   "raw assert() call");
  }
}

/// determinism.wall-clock — clock and PRNG state reads in src/.
void checkWallClock(const std::string &Path, const std::string &NormPath,
                    const std::string &Code, const LineIndex &Lines,
                    const LintOptions &Options,
                    std::vector<Violation> &Out) {
  if (!underTree(NormPath, "src"))
    return;
  for (const std::string &Allowed : Options.WallClockAllowlist)
    if (NormPath.find(Allowed) != std::string::npos)
      return;
  // Call-shaped tokens: only flagged when followed by '('.
  static const char *CallTokens[] = {"rand", "srand", "time", "clock"};
  for (const char *Tok : CallTokens)
    for (size_t Pos : tokenOffsets(Code, Tok)) {
      const size_t After = skipSpaces(Code, Pos + std::strlen(Tok));
      if (After < Code.size() && Code[After] == '(')
        addViolation(Out, Path, Lines.lineOf(Pos), "determinism.wall-clock",
                     std::string("call to ") + Tok + "()");
    }
  // Type/namespace tokens: any identifier-boundary mention counts.
  static const char *NameTokens[] = {
      "random_device",  "system_clock", "steady_clock",
      "high_resolution_clock", "gettimeofday", "clock_gettime",
      "localtime",      "gmtime"};
  for (const char *Tok : NameTokens)
    for (size_t Pos : tokenOffsets(Code, Tok))
      addViolation(Out, Path, Lines.lineOf(Pos), "determinism.wall-clock",
                   std::string("use of ") + Tok);
}

/// determinism.unordered-iteration — range-for or .begin() iteration
/// over a variable declared with an unordered container type in the
/// same file.
void checkUnorderedIteration(const std::string &Path,
                             const std::string &NormPath,
                             const std::string &Code, const LineIndex &Lines,
                             std::vector<Violation> &Out) {
  if (!underTree(NormPath, "src"))
    return;
  // Pass 1: names declared as unordered containers.
  std::set<std::string> Unordered;
  static const char *Types[] = {"unordered_map", "unordered_set",
                                "unordered_multimap", "unordered_multiset"};
  for (const char *Ty : Types)
    for (size_t Pos : tokenOffsets(Code, Ty)) {
      size_t I = skipSpaces(Code, Pos + std::strlen(Ty));
      if (I >= Code.size() || Code[I] != '<')
        continue;
      size_t Depth = 0;
      while (I < Code.size()) {
        if (Code[I] == '<')
          ++Depth;
        else if (Code[I] == '>' && --Depth == 0)
          break;
        ++I;
      }
      if (I >= Code.size())
        continue;
      I = skipSpaces(Code, I + 1);
      while (I < Code.size() && (Code[I] == '&' || Code[I] == '*'))
        I = skipSpaces(Code, I + 1);
      std::string Name;
      while (I < Code.size() && isIdentChar(Code[I]))
        Name.push_back(Code[I++]);
      if (!Name.empty() && Name != "const")
        Unordered.insert(Name);
    }
  if (Unordered.empty())
    return;

  // Pass 2a: range-for over a tracked name.
  for (size_t Pos : tokenOffsets(Code, "for")) {
    const size_t Open = skipSpaces(Code, Pos + 3);
    if (Open >= Code.size() || Code[Open] != '(')
      continue;
    const size_t Close = matchBalanced(Code, Open, '(', ')');
    if (Close == std::string::npos)
      continue;
    const std::string Inside = Code.substr(Open + 1, Close - Open - 1);
    // The last single ':' at paren depth 0 separates decl from range.
    size_t RangeStart = std::string::npos;
    size_t Depth = 0;
    for (size_t I = 0; I < Inside.size(); ++I) {
      const char C = Inside[I];
      if (C == '(' || C == '[' || C == '{')
        ++Depth;
      else if (C == ')' || C == ']' || C == '}')
        --Depth;
      else if (C == ':' && Depth == 0) {
        if (I + 1 < Inside.size() && Inside[I + 1] == ':') {
          ++I;
          continue;
        }
        if (I > 0 && Inside[I - 1] == ':')
          continue;
        RangeStart = I + 1;
      }
    }
    if (RangeStart == std::string::npos)
      continue;
    std::string Range = trimCopy(Inside.substr(RangeStart));
    std::string Head;
    for (char C : Range) {
      if (!isIdentChar(C))
        break;
      Head.push_back(C);
    }
    if (Unordered.count(Head))
      addViolation(Out, Path, Lines.lineOf(Pos),
                   "determinism.unordered-iteration",
                   "range-for over unordered container '" + Head + "'");
  }

  // Pass 2b: explicit .begin()/.cbegin() on a tracked name.
  for (const std::string &Name : Unordered)
    for (size_t Pos : tokenOffsets(Code, Name)) {
      size_t I = skipSpaces(Code, Pos + Name.size());
      if (I >= Code.size() || Code[I] != '.')
        continue;
      I = skipSpaces(Code, I + 1);
      if (Code.compare(I, 5, "begin") == 0 ||
          Code.compare(I, 6, "cbegin") == 0)
        addViolation(Out, Path, Lines.lineOf(Pos),
                     "determinism.unordered-iteration",
                     "iterator walk of unordered container '" + Name + "'");
    }
}

/// cancellation.bespoke-poll — a throwIfStopped() call in src/ outside
/// sim::forEachChunk (sim/Simulator.h), the one cancellable walk every
/// replay loop runs. support/Cancellation.h defines the poll.
void checkBespokePoll(const std::string &Path, const std::string &NormPath,
                      const std::string &Code, const LineIndex &Lines,
                      std::vector<Violation> &Out) {
  if (!underTree(NormPath, "src") || endsWith(NormPath, "sim/Simulator.h") ||
      endsWith(NormPath, "support/Cancellation.h"))
    return;
  for (size_t Pos : tokenOffsets(Code, "throwIfStopped")) {
    const size_t After = skipSpaces(Code, Pos + 14);
    if (After < Code.size() && Code[After] == '(')
      addViolation(Out, Path, Lines.lineOf(Pos), "cancellation.bespoke-poll",
                   "throwIfStopped() call outside sim::forEachChunk");
  }
}

/// locking.engine-raw-mutex — raw std:: mutex types inside the
/// thread-shared engine trees (src/core, src/concurrent), where every
/// lock must be one of the annotated ccsim wrappers. Only the std::
/// spelling is banned; the wrappers themselves (and <mutex> includes)
/// never match.
void checkEngineRawMutex(const std::string &Path,
                         const std::string &NormPath,
                         const std::string &Code, const LineIndex &Lines,
                         std::vector<Violation> &Out) {
  const bool InScope = NormPath.find("src/core/") != std::string::npos ||
                       NormPath.find("src/concurrent/") != std::string::npos;
  if (!InScope)
    return;
  static const char *Types[] = {"mutex", "shared_mutex", "recursive_mutex",
                                "timed_mutex", "shared_timed_mutex"};
  for (const char *Ty : Types)
    for (size_t Pos : tokenOffsets(Code, Ty)) {
      if (Pos < 5 || Code.compare(Pos - 5, 5, "std::") != 0)
        continue;
      addViolation(Out, Path, Lines.lineOf(Pos), "locking.engine-raw-mutex",
                   std::string("std::") + Ty +
                       " in the shared-engine tree");
    }
}

/// locking.naked-lock — manual .lock()/.unlock() outside an RAII guard
/// declaration.
void checkNakedLock(const std::string &Path, const std::string &NormPath,
                    const std::string &Code, const LineIndex &Lines,
                    std::vector<Violation> &Out) {
  if (endsWith(NormPath, "support/ThreadSafety.h"))
    return; // The annotated wrapper is the one sanctioned caller.
  static const char *Calls[] = {"lock", "unlock"};
  for (const char *Call : Calls)
    for (size_t Pos : tokenOffsets(Code, Call)) {
      // Must be a member call: preceded by '.' or '->'.
      size_t B = Pos;
      while (B > 0 && std::isspace(static_cast<unsigned char>(Code[B - 1])))
        --B;
      const bool Dot = B >= 1 && Code[B - 1] == '.';
      const bool Arrow = B >= 2 && Code[B - 2] == '-' && Code[B - 1] == '>';
      if (!Dot && !Arrow)
        continue;
      const size_t After = skipSpaces(Code, Pos + std::strlen(Call));
      if (After >= Code.size() || Code[After] != '(')
        continue;
      const size_t Close = matchBalanced(Code, After, '(', ')');
      if (Close == std::string::npos ||
          trimCopy(Code.substr(After + 1, Close - After - 1)) != "")
        continue; // lock(a, b) / try_lock variants are not this pattern.
      // An RAII declaration mentioning a guard type on the same line is
      // fine (e.g. "std::unique_lock<std::mutex> L(M); L.lock();" is
      // still manual, but the common false positive is the declaration
      // itself, which contains no member call).
      const size_t Line = Lines.lineOf(Pos);
      addViolation(Out, Path, Line, "locking.naked-lock",
                   std::string("manual .") + Call + "() call");
    }
}

/// exceptions.swallowed-catch-all — catch (...) with no rethrow and no
/// exception capture in its body.
void checkSwallowedCatchAll(const std::string &Path,
                            const std::string &NormPath,
                            const std::string &Code, const LineIndex &Lines,
                            std::vector<Violation> &Out) {
  if (!underTree(NormPath, "src") && !underTree(NormPath, "tools"))
    return;
  for (size_t Pos : tokenOffsets(Code, "catch")) {
    const size_t Open = skipSpaces(Code, Pos + 5);
    if (Open >= Code.size() || Code[Open] != '(')
      continue;
    const size_t Close = matchBalanced(Code, Open, '(', ')');
    if (Close == std::string::npos)
      continue;
    if (trimCopy(Code.substr(Open + 1, Close - Open - 1)) != "...")
      continue;
    const size_t BodyOpen = skipSpaces(Code, Close + 1);
    if (BodyOpen >= Code.size() || Code[BodyOpen] != '{')
      continue;
    const size_t BodyClose = matchBalanced(Code, BodyOpen, '{', '}');
    if (BodyClose == std::string::npos)
      continue;
    const std::string Body = Code.substr(BodyOpen, BodyClose - BodyOpen + 1);
    const bool Rethrows = !tokenOffsets(Body, "throw").empty() ||
                          Body.find("rethrow") != std::string::npos ||
                          Body.find("current_exception") != std::string::npos;
    if (!Rethrows)
      addViolation(Out, Path, Lines.lineOf(Pos),
                   "exceptions.swallowed-catch-all",
                   "catch (...) swallows the exception");
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::vector<Violation> ccsim::lint::lintSource(const std::string &Path,
                                               const std::string &Text,
                                               const LintOptions &Options) {
  const std::string NormPath = normalizePath(Path);
  const CodeView View = stripToCode(Text);
  const LineIndex Lines(Text);
  const SuppressionScan Suppressions =
      scanSuppressions(Path, View, Lines);

  std::vector<Violation> Raw;
  checkBespokePoll(Path, NormPath, View.Code, Lines, Raw);
  checkRawAssert(Path, View.Code, Lines, Raw);
  checkWallClock(Path, NormPath, View.Code, Lines, Options, Raw);
  checkUnorderedIteration(Path, NormPath, View.Code, Lines, Raw);
  checkEngineRawMutex(Path, NormPath, View.Code, Lines, Raw);
  checkNakedLock(Path, NormPath, View.Code, Lines, Raw);
  checkSwallowedCatchAll(Path, NormPath, View.Code, Lines, Raw);

  std::vector<Violation> Out;
  for (Violation &V : Raw) {
    if (isSuppressed(Suppressions.Allows, V.Line, V.RuleId))
      continue;
    Out.push_back(std::move(V));
  }
  for (const Violation &V : Suppressions.Meta)
    Out.push_back(V);

  if (!Options.OnlyRule.empty()) {
    Out.erase(std::remove_if(Out.begin(), Out.end(),
                             [&](const Violation &V) {
                               return V.RuleId != Options.OnlyRule;
                             }),
              Out.end());
  }
  std::sort(Out.begin(), Out.end(),
            [](const Violation &A, const Violation &B) {
              if (A.Line != B.Line)
                return A.Line < B.Line;
              return A.RuleId < B.RuleId;
            });
  return Out;
}

std::vector<Violation> ccsim::lint::lintFile(const std::string &Path,
                                             const LintOptions &Options) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Violation V;
    V.File = Path;
    V.Line = 0;
    V.RuleId = "lint.io-error";
    V.Message = "cannot read file";
    V.Hint = "check the path passed to ccsim_lint";
    return {V};
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return lintSource(Path, Buffer.str(), Options);
}

std::vector<Violation>
ccsim::lint::lintFiles(const std::vector<std::string> &Paths,
                       const LintOptions &Options) {
  std::vector<std::string> Unique;
  std::set<std::string> Seen;
  for (const std::string &P : Paths)
    if (Seen.insert(normalizePath(P)).second)
      Unique.push_back(P);
  std::sort(Unique.begin(), Unique.end(),
            [](const std::string &A, const std::string &B) {
              return normalizePath(A) < normalizePath(B);
            });
  std::vector<Violation> Out;
  for (const std::string &P : Unique) {
    std::vector<Violation> V = lintFile(P, Options);
    Out.insert(Out.end(), V.begin(), V.end());
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// compile_commands.json
//===----------------------------------------------------------------------===//

namespace {

/// Minimal reader for the subset of JSON CMake emits: an array of flat
/// objects whose values are strings (or, for the "arguments" variant, an
/// array of strings).
struct JsonCursor {
  const std::string &S;
  size_t I = 0;

  explicit JsonCursor(const std::string &Text) : S(Text) {}

  void skipWs() {
    while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
      ++I;
  }

  bool eat(char C) {
    skipWs();
    if (I < S.size() && S[I] == C) {
      ++I;
      return true;
    }
    return false;
  }

  bool peek(char C) {
    skipWs();
    return I < S.size() && S[I] == C;
  }

  bool readString(std::string &Out) {
    skipWs();
    if (I >= S.size() || S[I] != '"')
      return false;
    ++I;
    Out.clear();
    while (I < S.size() && S[I] != '"') {
      if (S[I] == '\\' && I + 1 < S.size()) {
        ++I;
        switch (S[I]) {
        case 'n':
          Out.push_back('\n');
          break;
        case 't':
          Out.push_back('\t');
          break;
        case 'u': // Keep it simple: skip the four hex digits.
          I += std::min<size_t>(4, S.size() - I - 1);
          Out.push_back('?');
          break;
        default:
          Out.push_back(S[I]);
        }
      } else {
        Out.push_back(S[I]);
      }
      ++I;
    }
    if (I >= S.size())
      return false;
    ++I; // Closing quote.
    return true;
  }

  /// Skips any value (string, array of strings, number, literal).
  bool skipValue() {
    skipWs();
    if (I >= S.size())
      return false;
    if (S[I] == '"') {
      std::string Ignored;
      return readString(Ignored);
    }
    if (S[I] == '[') {
      ++I;
      if (eat(']'))
        return true;
      do {
        if (!skipValue())
          return false;
      } while (eat(','));
      return eat(']');
    }
    while (I < S.size() && S[I] != ',' && S[I] != '}' && S[I] != ']')
      ++I;
    return true;
  }
};

} // namespace

std::vector<std::string>
ccsim::lint::collectFromCompileCommands(const std::string &Path,
                                        std::string &Error) {
  Error.clear();
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot read " + Path;
    return {};
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  const std::string Text = Buffer.str();

  std::vector<std::string> Files;
  JsonCursor C(Text);
  if (!C.eat('[')) {
    Error = Path + " is not a JSON array";
    return {};
  }
  if (C.eat(']'))
    return Files;
  do {
    if (!C.eat('{')) {
      Error = Path + ": expected an object";
      return {};
    }
    std::string File;
    std::string Directory;
    if (!C.peek('}')) {
      do {
        std::string Key;
        if (!C.readString(Key) || !C.eat(':')) {
          Error = Path + ": malformed object key";
          return {};
        }
        if (Key == "file" || Key == "directory") {
          std::string Value;
          if (!C.readString(Value)) {
            Error = Path + ": '" + Key + "' is not a string";
            return {};
          }
          (Key == "file" ? File : Directory) = Value;
        } else if (!C.skipValue()) {
          Error = Path + ": malformed value for key '" + Key + "'";
          return {};
        }
      } while (C.eat(','));
    }
    if (!C.eat('}')) {
      Error = Path + ": unterminated object";
      return {};
    }
    if (!File.empty()) {
      if (File[0] != '/' && !Directory.empty())
        File = Directory + "/" + File;
      Files.push_back(File);
    }
  } while (C.eat(','));
  if (!C.eat(']'))
    Error = Path + ": unterminated array";
  return Files;
}

std::vector<std::string>
ccsim::lint::collectFromDirectory(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> Out;
  std::error_code EC;
  for (fs::recursive_directory_iterator
           It(Dir, fs::directory_options::skip_permission_denied, EC),
       End;
       It != End; It.increment(EC)) {
    if (EC)
      break;
    if (!It->is_regular_file(EC))
      continue;
    const std::string Ext = It->path().extension().string();
    if (Ext == ".h" || Ext == ".cpp")
      Out.push_back(It->path().string());
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string ccsim::lint::renderViolation(const Violation &V) {
  std::ostringstream Out;
  Out << V.File << ":" << V.Line << ": [" << V.RuleId << "] " << V.Message;
  if (!V.Hint.empty())
    Out << " (hint: " << V.Hint << ")";
  return Out.str();
}
