//===- perfbench/harness.cpp - Repository benchmark harness ---------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measured half of the repository benchmark. perfbench/run.py builds
/// this harness, runs it, and turns its one-line JSON report into the
/// benchmark's metrics. Subcommands:
///
///   setup      generates the scaled Table 1 suite from the seed
///              SetupRepeats times, timing each repetition; for replay and
///              shared it also writes the suite as .cct logs. It runs in its
///              own process so no workload's peak RSS includes a suite held
///              only to be written out.
///   run        one workload's timed phase, in whole passes over the suite,
///              checking every simulated result. With --trace=1 a second,
///              traced phase follows, with spans around each public call
///              into the simulator.
///   reference  the dense per-config serial reference for a seed, in the
///              format of the committed expected-stats files.
///
/// Every clock read and span lives in this file: the simulator under src/
/// stays free of wall-clock reads (the determinism.wall-clock lint rule).
/// All per-layer numbers are measured from outside the program, by timing
/// calls into public functions and reading the counts they return.
///
//===----------------------------------------------------------------------===//

#include "check/AuditReport.h"
#include "concurrent/SharedEngineRunner.h"
#include "multisweep/MultiConfigEngine.h"
#include "service/SimService.h"
#include "sim/Sweep.h"
#include "support/Flags.h"
#include "trace/MappedTrace.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceIO.h"

#include <alloca.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ccsim;

namespace {

//===----------------------------------------------------------------------===//
// Workload constants. Changing any of them changes what the benchmark
// measures and invalidates the committed expected-stats files.
//===----------------------------------------------------------------------===//

/// Suite size: Table 1 superblock counts times this factor (most traces
/// then hold 40k-80k accesses; see scaledWorkload()).
constexpr double SuiteScale = 0.02;
/// Set-ups per run; run.py reports the median as setup_s.
constexpr int SetupRepeats = 9;
/// The fig6/7/8 pressure axis.
const std::vector<double> LatticePressures = {2, 4, 6, 8, 10};
/// Pressure of every replay and shared request.
constexpr double ServicePressure = 2.0;
/// Guest threads of the shared workload.
constexpr unsigned SharedGuests = 2;
/// A run never stops before this many requests, so p90 always has at
/// least ten samples beyond it.
constexpr size_t MinRequests = 100;

std::vector<GranularitySpec> replayPolicies() {
  return {GranularitySpec::flush(), GranularitySpec::units(8),
          GranularitySpec::fine()};
}

std::vector<SweepJob> latticeGrid() {
  return makeSweepGrid(standardGranularitySweep(), LatticePressures,
                       SimConfig{});
}

/// Benchmark seed -> suite seed. Seed 0 is the repository's figure seed.
uint64_t suiteSeedFor(uint64_t Seed) {
  return DefaultSuiteSeed + Seed * 0x9E3779B97F4A7C15ULL;
}

std::vector<WorkloadModel> suiteModels() {
  std::vector<WorkloadModel> Models;
  for (const WorkloadModel &M : table1Workloads())
    Models.push_back(scaledWorkload(M, SuiteScale));
  return Models;
}

std::string logPath(const std::string &Dir, const WorkloadModel &M) {
  return Dir + "/" + M.Name + ".cct";
}

//===----------------------------------------------------------------------===//
// Clock and spans.
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// In-memory span recorder for one thread. Spans nest by scope; each
/// records its parent and the request it belongs to. Disabled recorders
/// cost one branch per scope.
class Spans {
public:
  struct Record {
    const char *Name;
    Clock::time_point Start, End;
    int Parent;       ///< Index of the enclosing span, -1 at the root.
    uint64_t Request; ///< Request the span serves (0 = set-up).
  };

  class Scope {
  public:
    Scope(Spans *Owner, const char *Name) : Owner(Owner) {
      if (Owner)
        Index = Owner->open(Name);
    }
    ~Scope() {
      if (Owner)
        Owner->close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans *Owner;
    int Index = -1;
  };

  explicit Spans(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  Scope scope(const char *Name) { return Scope(Enabled ? this : nullptr, Name); }
  void setRequest(uint64_t Id) { Request = Id; }

  /// Per span name: total duration and self time (duration minus the
  /// part of it covered by child spans), in seconds.
  std::map<std::string, std::pair<double, double>> totals() const {
    std::vector<double> ChildTime(Records.size(), 0.0);
    for (const Record &R : Records)
      if (R.Parent >= 0)
        ChildTime[R.Parent] += secondsBetween(R.Start, R.End);
    std::map<std::string, std::pair<double, double>> Out;
    for (size_t I = 0; I < Records.size(); ++I) {
      const double D = secondsBetween(Records[I].Start, Records[I].End);
      auto &[Total, Self] = Out[Records[I].Name];
      Total += D;
      Self += D - ChildTime[I];
    }
    return Out;
  }

  /// Writes the spans as a Chrome trace (chrome://tracing, Perfetto).
  bool writeChromeTrace(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    const Clock::time_point Origin =
        Records.empty() ? Clock::now() : Records.front().Start;
    Out << "{\"traceEvents\":[";
    for (size_t I = 0; I < Records.size(); ++I) {
      const Record &R = Records[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64
                    ",\"parent\":%d}}",
                    I ? "," : "", R.Name,
                    secondsBetween(Origin, R.Start) * 1e6,
                    secondsBetween(R.Start, R.End) * 1e6, R.Request, R.Parent);
      Out << Buf;
    }
    Out << "]}\n";
    return static_cast<bool>(Out);
  }

private:
  int open(const char *Name) {
    Records.push_back({Name, Clock::now(), {}, Open.empty() ? -1 : Open.back(),
                       Request});
    Open.push_back(static_cast<int>(Records.size() - 1));
    return Open.back();
  }
  void close(int Index) {
    Records[Index].End = Clock::now();
    Open.pop_back();
  }

  bool Enabled;
  uint64_t Request = 0;
  std::vector<Record> Records;
  std::vector<int> Open;
};

//===----------------------------------------------------------------------===//
// Expected CacheStats: the committed files and the serial reference.
//===----------------------------------------------------------------------===//

/// Every CacheStats field, in file-column order. Doubles round-trip
/// exactly through %.17g / strtod.
#define CCSIM_PERFBENCH_STATS_FIELDS(X)                                        \
  X(Accesses) X(Hits) X(Misses) X(ColdMisses) X(CapacityMisses)                \
  X(TooBigMisses) X(Inserts) X(InsertedBytes) X(EvictionInvocations)           \
  X(EvictedBlocks) X(EvictedBytes) X(UnitsFlushed) X(PreemptiveFlushes)        \
  X(WastedBytes) X(LinksCreated) X(InterUnitLinksCreated) X(SelfLinksCreated)  \
  X(UnlinkedLinks) X(UnlinkOperations) X(LinksDestroyed) X(SharingActive)      \
  X(SharedInstalls) X(SharedBytesSaved) X(UnshareUnlinks) X(MissOverhead)      \
  X(EvictionOverhead) X(UnlinkOverhead) X(BackPointerBytesPeak)                \
  X(BackPointerBytesSum)

std::string formatStats(const CacheStats &S) {
  std::ostringstream Out;
  char Buf[64];
  bool First = true;
  auto Emit = [&](double V) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out << (First ? "" : "\t") << Buf;
    First = false;
  };
#define CCSIM_EMIT(F) Emit(static_cast<double>(S.F));
  CCSIM_PERFBENCH_STATS_FIELDS(CCSIM_EMIT)
#undef CCSIM_EMIT
  return Out.str();
}

/// Names the first field where \p A and \p B differ bit for bit (doubles
/// compare with ==, as the one-pass contract does); empty when equal.
std::string firstDifference(const CacheStats &A, const CacheStats &B) {
#define CCSIM_CMP(F)                                                           \
  if (!(A.F == B.F))                                                           \
    return #F;
  CCSIM_PERFBENCH_STATS_FIELDS(CCSIM_CMP)
#undef CCSIM_CMP
  return {};
}

std::optional<CacheStats> parseStats(std::istringstream &In) {
  CacheStats S;
  std::string Tok;
  bool Ok = true;
  auto Next = [&]() -> double {
    if (!std::getline(In, Tok, '\t')) {
      Ok = false;
      return 0.0;
    }
    return std::strtod(Tok.c_str(), nullptr);
  };
#define CCSIM_PARSE(F) S.F = static_cast<decltype(S.F)>(Next());
  CCSIM_PERFBENCH_STATS_FIELDS(CCSIM_PARSE)
#undef CCSIM_PARSE
  if (!Ok)
    return std::nullopt;
  return S;
}

std::string cellKey(const std::string &Policy, double Pressure,
                    const std::string &Benchmark) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", Pressure);
  return Policy + "\t" + Buf + "\t" + Benchmark;
}

using ExpectedTable = std::map<std::string, CacheStats>;

std::optional<ExpectedTable> loadExpected(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  ExpectedTable Table;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Policy, Pressure, Bench;
    if (!std::getline(Fields, Policy, '\t') ||
        !std::getline(Fields, Pressure, '\t') ||
        !std::getline(Fields, Bench, '\t'))
      return std::nullopt;
    std::optional<CacheStats> S = parseStats(Fields);
    if (!S)
      return std::nullopt;
    Table[cellKey(Policy, std::strtod(Pressure.c_str(), nullptr), Bench)] = *S;
  }
  return Table;
}

/// Checks one simulated result against the table. Returns true on a bit-
/// exact match; reports the first differing field otherwise.
bool checkCell(const ExpectedTable &Table, const std::string &Policy,
               double Pressure, const SimResult &R) {
  const std::string Key = cellKey(Policy, Pressure, R.BenchmarkName);
  const auto It = Table.find(Key);
  if (It == Table.end()) {
    std::fprintf(stderr, "check: no expected stats for %s\n", Key.c_str());
    return false;
  }
  const std::string Diff = firstDifference(R.Stats, It->second);
  if (!Diff.empty())
    std::fprintf(stderr, "check: %s differs in %s\n", Key.c_str(),
                 Diff.c_str());
  return Diff.empty();
}

//===----------------------------------------------------------------------===//
// Run bookkeeping and the JSON report.
//===----------------------------------------------------------------------===//

/// One measured phase: per-pass and per-request host times plus the
/// simulated work they covered.
struct Phase {
  std::vector<double> PassSeconds;    ///< Sum of request times per pass.
  std::vector<double> RequestMillis;  ///< Every request, in order.
  uint64_t Accesses = 0;              ///< Simulated accesses, all passes.
};

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void check(bool Ok, uint64_t Weight = 1) {
    Attempted += Weight;
    if (!Ok)
      Failed += Weight;
  }
};

/// Flat JSON object writer for the harness report.
class JsonObject {
public:
  void number(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    raw(Key, Buf);
  }
  void list(const std::string &Key, const std::vector<double> &Vs) {
    std::string S = "[";
    char Buf[64];
    for (size_t I = 0; I < Vs.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%s%.17g", I ? "," : "", Vs[I]);
      S += Buf;
    }
    raw(Key, S + "]");
  }
  void object(const std::string &Key, const JsonObject &O) { raw(Key, O.str()); }
  std::string str() const { return "{" + Body + "}"; }

private:
  void raw(const std::string &Key, const std::string &V) {
    Body += (Body.empty() ? "\"" : ",\"") + Key + "\":" + V;
  }
  std::string Body;
};

JsonObject phaseJson(const Phase &P) {
  JsonObject O;
  O.list("pass_s", P.PassSeconds);
  O.list("request_ms", P.RequestMillis);
  O.number("accesses", static_cast<double>(P.Accesses));
  return O;
}

/// Peak resident set of this process image in KiB. VmHWM, not
/// getrusage(): ru_maxrss survives execve, so a harness started by a larger
/// parent would report the parent's high-water mark.
double peakRssKb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr);
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss);
}

/// Counts read from simulated results, kept per pass. Every pass replays
/// the same inputs, so on the deterministic workloads each pass holds the
/// same counts and their median repeats exactly from run to run; on
/// shared it is the typical pass.
class PassCounts {
public:
  void add(const std::string &Name, double V) { Current[Name] += V; }
  void endPass() {
    Passes.push_back(std::move(Current));
    Current.clear();
  }

  double median(const std::string &Name) const {
    std::vector<double> Vs;
    for (const auto &P : Passes) {
      const auto It = P.find(Name);
      Vs.push_back(It == P.end() ? 0.0 : It->second);
    }
    if (Vs.empty())
      return 0.0;
    std::sort(Vs.begin(), Vs.end());
    const size_t M = Vs.size() / 2;
    return Vs.size() % 2 ? Vs[M] : (Vs[M - 1] + Vs[M]) / 2;
  }

  /// Reports every count's per-pass median under its own name.
  void report(JsonObject &L) const {
    std::set<std::string> Names;
    for (const auto &P : Passes)
      for (const auto &KV : P)
        Names.insert(KV.first);
    for (const std::string &Name : Names)
      L.number(Name, median(Name));
  }

  /// Adds the counts the core layer's metrics are read from.
  void addStats(const CacheStats &S) {
    add("core.accesses", static_cast<double>(S.Accesses));
    add("core.hits", static_cast<double>(S.Hits));
    add("core.misses", static_cast<double>(S.Misses));
    add("core.eviction_invocations",
        static_cast<double>(S.EvictionInvocations));
    add("core.evicted_blocks", static_cast<double>(S.EvictedBlocks));
    add("core.links_created", static_cast<double>(S.LinksCreated));
    add("core.unlinked_links", static_cast<double>(S.UnlinkedLinks));
    add("core.modelled_overhead_ginsn",
        S.totalOverhead(/*IncludeLinkMaintenance=*/true) / 1e9);
  }

  double ratio(const std::string &Num, const std::string &Den) const {
    const double D = median(Den);
    return D > 0 ? median(Num) / D : 0.0;
  }

private:
  std::map<std::string, double> Current;
  std::vector<std::map<std::string, double>> Passes;
};

double spanTotal(const Spans &S, const std::string &Name) {
  const auto All = S.totals();
  const auto It = All.find(Name);
  return It == All.end() ? 0.0 : It->second.first;
}

/// Self time of the request spans per pass: the benchmark's own glue
/// around the calls it times. Every other span is either a leaf, whose
/// self time is its total, or service.job (replay reports it itself).
void reportRequestSelf(JsonObject &L, const Spans &S, double Passes) {
  const auto All = S.totals();
  const auto It = All.find("bench.request");
  L.number("bench.request.self_s",
           It == All.end() ? 0.0 : It->second.second / Passes);
}

//===----------------------------------------------------------------------===//
// The timed loop shared by all workloads.
//===----------------------------------------------------------------------===//

/// Calls \p Fn with the stack moved down by \p Bytes (a multiple of 16).
///
/// The kernel starts each process's stack at a random 16-byte offset
/// within a cache line, and frames the simulator keeps on the stack (the
/// shared runner's engine and its atomics) inherit it. On shared, one
/// offset pair runs about 25% slower than the other, so a whole run
/// landed in one mode or the other at random. Cycling the requests through
/// all four offsets makes every pass average over them, as users' runs do.
template <typename F> uint64_t atStackOffset(size_t Bytes, F &&Fn) {
  volatile char *Pad = static_cast<volatile char *>(alloca(Bytes + 1));
  Pad[0] = 0;
  const uint64_t Result = Fn();
  (void)Pad[0]; // Keeps the padding live across the call.
  return Result;
}

/// Moves the calling thread to another CPU before each request.
///
/// The kernel leaves a lone busy thread on the CPU it started on: a
/// lattice run never migrated. On a shared host each virtual CPU's speed
/// for cache-bound code drifts on its own (an L2-bound loop run on four
/// virtual CPUs at once took 0.18-0.44 s per round on one of them and
/// 0.18-0.21 s on another), so a whole lattice run inherited the luck of
/// one CPU. Request step i runs on the i-th CPU of the process's affinity
/// mask, so every pass spreads over all of them. replay and shared do not
/// move: their threads sleep and wake on every request, and the scheduler
/// already spreads them (moving them widened both workloads' spread).
class CpuRotation {
public:
  explicit CpuRotation(bool Enabled) {
    CPU_ZERO(&All);
    if (Enabled && sched_getaffinity(0, sizeof(All), &All) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &All))
          Cpus.push_back(C);
  }

  /// Moves the calling thread to the Step-th CPU of the mask.
  void place(size_t Step) const {
    if (Cpus.size() <= 1)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Step % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }
  /// Gives the thread its whole mask back.
  void release() const {
    if (Cpus.size() > 1)
      sched_setaffinity(0, sizeof(All), &All);
  }

private:
  cpu_set_t All;
  std::vector<int> Cpus;
};

/// The fixed shape of one workload's timed loop.
struct Loop {
  double Seconds;         ///< Minimum host seconds of a measured phase.
  size_t RequestsPerPass; ///< Requests in one walk over the suite.
  CpuRotation Cpus;       ///< Where each request runs.

  Loop(double Seconds, size_t RequestsPerPass, bool MoveCpus)
      : Seconds(Seconds), RequestsPerPass(RequestsPerPass), Cpus(MoveCpus) {}
};

/// Runs whole passes of the loop's requests until at least its Seconds of
/// wall time and MinRequests requests have elapsed, after \p WarmupPasses
/// untimed passes. \p Request(I) performs request I of the pass and
/// returns the accesses it simulated; only its duration counts as request
/// time, so \p After (the result checks, which feed \p Counts) stays
/// outside the measurement. Warm-up requests are checked too, but their
/// times are dropped, and \p Counts is emptied before the first timed
/// pass.
template <typename RequestFn, typename AfterFn>
Phase timedPasses(const Loop &L, size_t WarmupPasses, Spans &Tracer,
                  PassCounts &Counts, RequestFn &&Request, AfterFn &&After) {
  auto RunOne = [&](size_t Pass, size_t I) {
    const size_t Step = I + Pass;
    L.Cpus.place(Step);
    const Clock::time_point T0 = Clock::now();
    uint64_t Accesses = 0;
    {
      Spans::Scope S = Tracer.scope("bench.request");
      Accesses = atStackOffset(16 * (Step % 4), [&] { return Request(I); });
    }
    const double Dt = secondsBetween(T0, Clock::now());
    After(I);
    return std::make_pair(Dt, Accesses);
  };

  for (size_t Pass = 0; Pass < WarmupPasses; ++Pass)
    for (size_t I = 0; I < L.RequestsPerPass; ++I)
      RunOne(Pass, I);
  Counts = PassCounts{};

  Phase P;
  const Clock::time_point Start = Clock::now();
  uint64_t Id = 0;
  do {
    const size_t Pass = P.PassSeconds.size();
    double PassTime = 0.0;
    for (size_t I = 0; I < L.RequestsPerPass; ++I) {
      Tracer.setRequest(++Id);
      const auto [Dt, Accesses] = RunOne(Pass, I);
      PassTime += Dt;
      P.RequestMillis.push_back(Dt * 1e3);
      P.Accesses += Accesses;
    }
    P.PassSeconds.push_back(PassTime);
    Counts.endPass();
  } while (secondsBetween(Start, Clock::now()) < L.Seconds ||
           P.RequestMillis.size() < MinRequests);
  L.Cpus.release();
  Tracer.setRequest(0);
  return P;
}

struct RunOptions {
  uint64_t Seed = 0;
  std::string Dir;
  double Seconds = 10.0;
  bool Trace = false;
  std::string SpansOut;
  bool ForgeFailedJob = false;

  /// A traced run splits its seconds between the untraced and the traced
  /// phase, so it lasts about as long as an untraced one.
  double phaseSeconds() const { return Trace ? Seconds / 2 : Seconds; }
};

void writeSpans(const RunOptions &O, const Spans &Tracer) {
  if (!O.SpansOut.empty() && !Tracer.writeChromeTrace(O.SpansOut))
    std::fprintf(stderr, "warning: could not write %s\n", O.SpansOut.c_str());
}

//===----------------------------------------------------------------------===//
// lattice: the fig6/7/8 grid through the one-pass backend, one worker.
//===----------------------------------------------------------------------===//

Outcome runLattice(const RunOptions &O, const ExpectedTable &Expected,
                   JsonObject &Report) {
  // One single-trace engine per benchmark, so each request is one
  // benchmark's lattice and has its own latency.
  std::vector<SweepEngine> Engines;
  for (const WorkloadModel &M : suiteModels()) {
    std::vector<Trace> One;
    One.push_back(TraceGenerator::generateBenchmark(M, suiteSeedFor(O.Seed)));
    Engines.emplace_back(std::move(One));
    Engines.back().setNumThreads(1);
  }
  const std::vector<SweepJob> Grid = latticeGrid();
  Outcome Result;

  auto CheckSuites = [&](const std::vector<SuiteResult> &Suites,
                         PassCounts *Counts) {
    for (const SuiteResult &S : Suites)
      for (const SimResult &R : S.PerBenchmark) {
        Result.check(checkCell(Expected, S.PolicyLabel, S.PressureFactor, R));
        if (Counts)
          Counts->addStats(R.Stats);
      }
  };

  std::vector<SuiteResult> Last;
  const Loop Requests(O.phaseSeconds(), Engines.size(), /*MoveCpus=*/true);
  Spans Off(false);
  PassCounts Unreported;
  const Phase Untraced = timedPasses(
      Requests, /*WarmupPasses=*/1, Off, Unreported,
      [&](size_t I) {
        Last = multisweep::runSweepGrid(Engines[I], Grid);
        return Engines[I].traces().front().numAccesses() * Grid.size();
      },
      [&](size_t) { CheckSuites(Last, nullptr); });
  Report.object("untraced", phaseJson(Untraced));
  if (!O.Trace)
    return Result;

  // Spans go around each runSweepGrid call, which returns the pass's
  // accounting. The plan depends only on the grid.
  const size_t Fallbacks = multisweep::planLattice(Grid).numFallbacks();
  Spans Tracer(true);
  PassCounts Counts;
  double PassMax = 0.0;

  const Phase Traced = timedPasses(
      Requests, /*WarmupPasses=*/0, Tracer, Counts,
      [&](size_t I) {
        multisweep::OnePassAccounting A;
        const Clock::time_point P0 = Clock::now();
        {
          Spans::Scope S = Tracer.scope("multisweep.pass");
          Last = multisweep::runSweepGrid(Engines[I], Grid, {}, &A);
        }
        PassMax = std::max(PassMax, secondsBetween(P0, Clock::now()));
        Counts.add("multisweep.decoded_accesses",
                   static_cast<double>(A.DecodedAccesses));
        Counts.add("multisweep.all_resident_shortcuts",
                   static_cast<double>(A.AllResidentShortcuts));
        Counts.add("multisweep.shared_misses",
                   static_cast<double>(A.SharedMisses));
        return Engines[I].traces().front().numAccesses() * Grid.size();
      },
      [&](size_t) { CheckSuites(Last, &Counts); });
  Report.object("traced", phaseJson(Traced));

  // The dense per-config replay of the grid, once per trace, after the
  // traced phase: run between requests it changes the state the next
  // request starts from (the traced phase then ran 13-16% faster than the
  // untraced one), so tracing.*_delta would not be the cost of tracing. It
  // is the reference the one-pass results must also match.
  multisweep::MultiSweepOptions Dense;
  Dense.Mode = multisweep::SweepMode::PerConfig;
  for (const SweepEngine &Engine : Engines) {
    {
      Spans::Scope S = Tracer.scope("sim.dense_pass");
      Last = multisweep::runSweepGrid(Engine, Grid, Dense);
    }
    CheckSuites(Last, nullptr);
  }

  // core.ns_per_access stays 0 here: the bitmask absorbs the hit path, and
  // sim.dense_pass_s carries the per-config cost.
  const double Passes = static_cast<double>(Traced.PassSeconds.size());
  JsonObject L;
  Counts.report(L);
  L.number("core.hit_ratio", Counts.ratio("core.hits", "core.accesses"));
  L.number("multisweep.pass_s", spanTotal(Tracer, "multisweep.pass") / Passes);
  L.number("multisweep.pass_max_s", PassMax);
  L.number("multisweep.all_hit_fraction",
           Counts.ratio("multisweep.all_resident_shortcuts",
                        "multisweep.decoded_accesses"));
  L.number("multisweep.fallback_points", static_cast<double>(Fallbacks));
  L.number("sim.dense_pass_s", spanTotal(Tracer, "sim.dense_pass"));
  reportRequestSelf(L, Tracer, Passes);
  Report.object("layers", L);
  writeSpans(O, Tracer);
  return Result;
}

//===----------------------------------------------------------------------===//
// replay: closed loop, one client, decode + ReplayJob on a 1-worker service.
//===----------------------------------------------------------------------===//

Outcome runReplay(const RunOptions &O, const ExpectedTable &Expected,
                  JsonObject &Report) {
  const std::vector<WorkloadModel> Models = suiteModels();
  const std::vector<GranularitySpec> Policies = replayPolicies();
  // Request I of a pass replays log I % 20 under policy I % 3; 60 is the
  // least common multiple, so one pass covers every (log, policy) once.
  const size_t PerPass = Models.size() * Policies.size();

  service::SimServiceConfig SC;
  SC.Threads = 1;
  SC.QueueCapacity = 4;
  service::SimService Service(SC);

  Outcome Result;
  bool ForgeNext = O.ForgeFailedJob;

  struct Last {
    service::JobOutcome Job;
    bool Decoded = false;
    uint64_t Bytes = 0;
    double WaitS = 0.0, RunS = 0.0;
  } L;

  auto Request = [&](Spans &Tracer, size_t I) -> uint64_t {
    const std::string Path = logPath(O.Dir, Models[I % Models.size()]);
    std::optional<Trace> T;
    {
      Spans::Scope S = Tracer.scope("trace.read");
      T = readTrace(Path);
    }
    L = Last{};
    L.Decoded = T.has_value();
    if (!T)
      return 0;
    const uint64_t N = T->numAccesses();
    L.Bytes = 4 * N; // The access stream dominates a log's size.
    service::ReplayJob Job;
    Job.TraceData = std::move(*T);
    Job.Spec = Policies[I % Policies.size()];
    Job.Config.PressureFactor = ServicePressure;
    if (ForgeNext) {
      Job.Config.PressureFactor = 0.5; // Invalid: the service rejects it.
      ForgeNext = false;
    }
    Spans::Scope S = Tracer.scope("service.job");
    const Clock::time_point Submit = Clock::now();
    service::JobHandle H = Service.submit(service::Job(std::move(Job)));
    if (!Tracer.enabled()) {
      L.Job = H.wait();
      return N;
    }
    // Wait and run are told apart from outside by polling the handle's
    // state; only the traced phase pays for the polling.
    Clock::time_point Started;
    {
      Spans::Scope W = Tracer.scope("service.wait");
      while (H.status() == service::JobStatus::Queued)
        std::this_thread::yield();
      Started = Clock::now();
    }
    Spans::Scope R = Tracer.scope("service.run");
    L.Job = H.wait();
    L.WaitS = secondsBetween(Submit, Started);
    L.RunS = secondsBetween(Started, Clock::now());
    return N;
  };

  PassCounts Counts;
  uint64_t Jobs = 0, BytesRead = 0;
  double WaitS = 0.0, RunS = 0.0;
  auto Check = [&](size_t I) {
    Result.check(L.Decoded);
    if (!L.Decoded)
      return;
    ++Jobs;
    BytesRead += L.Bytes;
    WaitS += L.WaitS;
    RunS += L.RunS;
    Counts.add("service.jobs_attempted", 1);
    const bool Done = L.Job.Status == service::JobStatus::Done &&
                      L.Job.Replay.size() == 1;
    Result.check(Done);
    if (!Done) {
      std::fprintf(stderr, "check: replay job ended %s: %s\n",
                   service::jobStatusName(L.Job.Status), L.Job.Error.c_str());
      return;
    }
    Counts.add("service.jobs_done", 1);
    const SimResult &R = L.Job.Replay.front();
    Result.check(checkCell(Expected, Policies[I % Policies.size()].label(),
                           ServicePressure, R));
    Counts.addStats(R.Stats);
  };

  const Loop Requests(O.phaseSeconds(), PerPass, /*MoveCpus=*/false);
  Spans Off(false);
  const Phase Untraced = timedPasses(
      Requests, /*WarmupPasses=*/1, Off, Counts,
      [&](size_t I) { return Request(Off, I); }, Check);
  Report.object("untraced", phaseJson(Untraced));
  if (!O.Trace)
    return Result;

  Jobs = BytesRead = 0;
  WaitS = RunS = 0.0;
  Spans Tracer(true);
  const Phase Traced = timedPasses(
      Requests, /*WarmupPasses=*/0, Tracer, Counts,
      [&](size_t I) { return Request(Tracer, I); }, Check);
  Report.object("traced", phaseJson(Traced));

  const double Passes = static_cast<double>(Traced.PassSeconds.size());
  const double ReadS = spanTotal(Tracer, "trace.read");
  const double JobS = spanTotal(Tracer, "service.job");
  JsonObject Ls;
  Counts.report(Ls);
  Ls.number("core.hit_ratio", Counts.ratio("core.hits", "core.accesses"));
  Ls.number("core.ns_per_access",
            Traced.Accesses ? RunS * 1e9 / Traced.Accesses : 0.0);
  Ls.number("trace.read_s", ReadS / Passes);
  Ls.number("trace.read_mb_per_s", ReadS > 0 ? BytesRead / 1e6 / ReadS : 0.0);
  Ls.number("service.job_s", JobS / Passes);
  Ls.number("service.job.self_s", (JobS - spanTotal(Tracer, "service.wait") -
                                   spanTotal(Tracer, "service.run")) /
                                      Passes);
  Ls.number("service.wait_ms_mean", Jobs ? WaitS * 1e3 / Jobs : 0.0);
  Ls.number("service.run_ms_mean", Jobs ? RunS * 1e3 / Jobs : 0.0);
  reportRequestSelf(Ls, Tracer, Passes);
  Report.object("layers", Ls);
  writeSpans(O, Tracer);
  return Result;
}

//===----------------------------------------------------------------------===//
// shared: mapped logs replayed by two guests through one shared engine.
//===----------------------------------------------------------------------===//

Outcome runSharedWorkload(const RunOptions &O, JsonObject &Report) {
  const std::vector<WorkloadModel> Models = suiteModels();
  const GranularitySpec Spec = GranularitySpec::units(8);
  Outcome Result;

  struct Last {
    std::optional<concurrent::SharedRunResult> Run;
    size_t TraceAccesses = 0;
    uint64_t Findings = 0;
  } L;

  auto Request = [&](Spans &Tracer, size_t I) -> uint64_t {
    L = Last{};
    std::optional<trace::MappedTrace> T;
    {
      Spans::Scope S = Tracer.scope("trace.map_open");
      T = trace::MappedTrace::open(logPath(O.Dir, Models[I]));
    }
    if (!T)
      return 0;
    L.TraceAccesses = T->numAccesses();
    concurrent::SharedRunConfig RC;
    RC.GuestThreads = SharedGuests;
    RC.PressureFactor = ServicePressure;
    if (Tracer.enabled()) {
      // One final quiesce audit per run; every finding is a failure.
      RC.Audit = AuditLevel::Evictions;
      RC.QuiesceInterval = 0;
      RC.OnViolation = [&](const check::AuditReport &A, const char *Where) {
        std::fprintf(stderr, "check: audit findings at %s:\n%s", Where,
                     A.render().c_str());
        L.Findings += A.size();
      };
    }
    Spans::Scope S = Tracer.scope("shared.run");
    L.Run = concurrent::runShared(*T, Spec, RC);
    return L.Run->Stats.Accesses;
  };

  PassCounts Counts;
  uint64_t Audits = 0;
  auto Check = [&](size_t) {
    if (!L.Run) {
      Result.check(false);
      return;
    }
    // The K>1 conservation identities: every access replayed and
    // classified exactly once, whatever the interleaving.
    const CacheStats &S = L.Run->Stats;
    const ContentionCounters &C = L.Run->Contention;
    const bool Conserved =
        L.Run->Mode == ShareMode::Concurrent &&
        L.Run->GuestThreads == SharedGuests &&
        S.Accesses == L.TraceAccesses && S.Hits + S.Misses == S.Accesses &&
        C.FastHits + S.Misses == S.Accesses &&
        S.ColdMisses + S.CapacityMisses == S.Misses &&
        C.InstallRaces <= C.FastHits && S.EvictedBytes <= S.InsertedBytes &&
        S.EvictedBlocks <= S.Inserts && S.LinksDestroyed <= S.LinksCreated;
    if (!Conserved)
      std::fprintf(stderr, "check: %s violates a conservation identity\n",
                   L.Run->BenchmarkName.c_str());
    Result.check(Conserved);
    Counts.addStats(S);
    // Stall counts only: EngineLockWaitMicros is clocked solely when a
    // telemetry histogram is wired, so it reads 0 here however long the
    // guests actually waited.
    Counts.add("shared.fast_hits", static_cast<double>(C.FastHits));
    Counts.add("shared.install_races", static_cast<double>(C.InstallRaces));
    Counts.add("shared.engine_lock_stalls",
               static_cast<double>(C.EngineLockStalls));
    Counts.add("shared.fence_shared_stalls",
               static_cast<double>(C.FenceSharedStalls));
    Counts.add("shared.fence_exclusive_stalls",
               static_cast<double>(C.FenceExclusiveStalls));
    Audits += L.Run->QuiesceAudits;
    // An audit with k findings is k failed operations.
    if (L.Run->QuiesceAudits > 0 || L.Findings > 0)
      Result.check(L.Findings == 0, std::max<uint64_t>(1, L.Findings));
  };

  const Loop Requests(O.phaseSeconds(), Models.size(), /*MoveCpus=*/false);
  Spans Off(false);
  const Phase Untraced = timedPasses(
      Requests, /*WarmupPasses=*/1, Off, Counts,
      [&](size_t I) { return Request(Off, I); }, Check);
  Report.object("untraced", phaseJson(Untraced));
  if (!O.Trace)
    return Result;

  Audits = 0;
  Spans Tracer(true);
  const Phase Traced = timedPasses(
      Requests, /*WarmupPasses=*/0, Tracer, Counts,
      [&](size_t I) { return Request(Tracer, I); }, Check);
  Report.object("traced", phaseJson(Traced));
  // Every traced request must have run its final quiesce audit.
  Result.check(Audits == Traced.RequestMillis.size());

  const double Passes = static_cast<double>(Traced.PassSeconds.size());
  const double RunS = spanTotal(Tracer, "shared.run");
  JsonObject Ls;
  Counts.report(Ls);
  Ls.number("core.hit_ratio", Counts.ratio("core.hits", "core.accesses"));
  Ls.number("trace.map_open_s", spanTotal(Tracer, "trace.map_open") / Passes);
  Ls.number("shared.run_s", RunS / Passes);
  Ls.number("shared.ns_per_access_thread",
            Traced.Accesses ? RunS * SharedGuests * 1e9 / Traced.Accesses
                            : 0.0);
  Ls.number("shared.fast_hit_frac",
            Counts.ratio("shared.fast_hits", "core.accesses"));
  reportRequestSelf(Ls, Tracer, Passes);
  Report.object("layers", Ls);
  writeSpans(O, Tracer);
  return Result;
}

//===----------------------------------------------------------------------===//
// Subcommands.
//===----------------------------------------------------------------------===//

bool isWorkload(const std::string &W) {
  return W == "lattice" || W == "replay" || W == "shared";
}

int cmdSetup(const FlagSet &Flags) {
  const std::string Workload = Flags.getString("workload");
  const bool WriteLogs = Workload != "lattice";
  const std::string Dir = Flags.getString("dir");
  const uint64_t SuiteSeed =
      suiteSeedFor(static_cast<uint64_t>(Flags.getInt("seed")));
  const std::vector<WorkloadModel> Models =
      suiteModels();

  std::vector<double> SetupS, GenerateS, WriteS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    double Gen = 0.0, Write = 0.0;
    const Clock::time_point R0 = Clock::now();
    for (const WorkloadModel &M : Models) {
      const Clock::time_point T0 = Clock::now();
      const Trace T = TraceGenerator::generateBenchmark(M, SuiteSeed);
      const Clock::time_point T1 = Clock::now();
      Gen += secondsBetween(T0, T1);
      if (WriteLogs) {
        if (!writeTrace(T, logPath(Dir, M))) {
          std::fprintf(stderr, "setup: cannot write %s\n",
                       logPath(Dir, M).c_str());
          return 1;
        }
        Write += secondsBetween(T1, Clock::now());
      }
    }
    SetupS.push_back(secondsBetween(R0, Clock::now()));
    GenerateS.push_back(Gen);
    WriteS.push_back(Write);
  }
  JsonObject Report;
  Report.list("setup_s", SetupS);
  Report.list("generate_s", GenerateS);
  Report.list("write_s", WriteS);
  std::printf("%s\n", Report.str().c_str());
  return 0;
}

int cmdReference(const FlagSet &Flags) {
  const std::string Workload = Flags.getString("workload");
  const uint64_t SuiteSeed =
      suiteSeedFor(static_cast<uint64_t>(Flags.getInt("seed")));
  std::vector<SweepJob> Points = latticeGrid();
  if (Workload == "replay") {
    Points.clear();
    for (const GranularitySpec &Spec : replayPolicies())
      Points.push_back(SweepJob{}.withSpec(Spec).withConfig(
          SimConfig{}.withPressure(ServicePressure)));
  }
  const std::string Out = Flags.getString("out");
  std::ofstream File(Out);
  if (!File) {
    std::fprintf(stderr, "reference: cannot write %s\n", Out.c_str());
    return 1;
  }
  File << "# Dense per-config CacheStats: policy, pressure, benchmark,";
#define CCSIM_HEADER(F) File << " " #F;
  CCSIM_PERFBENCH_STATS_FIELDS(CCSIM_HEADER)
#undef CCSIM_HEADER
  File << "\n";
  for (const WorkloadModel &M : suiteModels()) {
    const Trace T = TraceGenerator::generateBenchmark(M, SuiteSeed);
    for (const SweepJob &P : Points) {
      const SimResult R = sim::run(T, P.Spec, P.Config);
      File << cellKey(P.Spec.label(), P.Config.PressureFactor,
                      R.BenchmarkName)
           << "\t" << formatStats(R.Stats) << "\n";
    }
  }
  return File ? 0 : 1;
}

int cmdRun(const FlagSet &Flags) {
  RunOptions O;
  O.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  O.Dir = Flags.getString("dir");
  O.Seconds = Flags.getDouble("seconds");
  O.Trace = Flags.getBool("trace");
  O.SpansOut = Flags.getString("spans-out");
  O.ForgeFailedJob = Flags.getString("forge") == "failed-job";
  const std::string Workload = Flags.getString("workload");

  ExpectedTable Expected;
  if (Workload != "shared") {
    std::optional<ExpectedTable> Loaded =
        loadExpected(Flags.getString("expected"));
    if (!Loaded) {
      std::fprintf(stderr, "run: cannot read expected stats '%s'\n",
                   Flags.getString("expected").c_str());
      return 1;
    }
    Expected = std::move(*Loaded);
  }

  JsonObject Report;
  const Outcome Result = Workload == "lattice"
                             ? runLattice(O, Expected, Report)
                         : Workload == "replay"
                             ? runReplay(O, Expected, Report)
                             : runSharedWorkload(O, Report);
  Report.number("attempted", static_cast<double>(Result.Attempted));
  Report.number("failed", static_cast<double>(Result.Failed));
  Report.number("peak_rss_kb", peakRssKb());
  std::printf("%s\n", Report.str().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness setup|run|reference "
                         "--workload=lattice|replay|shared [flags]\n");
    return 2;
  }
  const std::string Cmd = Argv[1];
  FlagSet Flags("ccsim benchmark harness (" + Cmd + ")");
  Flags.addString("workload", "", "lattice | replay | shared.");
  Flags.addInt("seed", 0, "Benchmark seed (0 = the repository figure seed).");
  Flags.addString("dir", ".", "Directory of the suite's .cct logs.");
  Flags.addDouble("seconds", 10.0, "run: seconds to measure (a traced run "
                                   "splits them between its two phases).");
  Flags.addBool("trace", false, "run: add a traced phase and layer metrics.");
  Flags.addString("expected", "", "run: expected-stats file to check against.");
  Flags.addString("spans-out", "", "run: Chrome trace of the traced phase.");
  Flags.addString("forge", "", "run: 'failed-job' makes the first replay "
                               "job invalid (tests the gate).");
  Flags.addString("out", "", "reference: output file.");
  if (!Flags.parse(Argc - 1, Argv + 1))
    return 2;
  if (!isWorkload(Flags.getString("workload"))) {
    std::fprintf(stderr, "unknown --workload '%s'\n",
                 Flags.getString("workload").c_str());
    return 2;
  }
  if (Cmd == "setup")
    return cmdSetup(Flags);
  if (Cmd == "run")
    return cmdRun(Flags);
  if (Cmd == "reference")
    return cmdReference(Flags);
  std::fprintf(stderr, "unknown subcommand '%s'\n", Cmd.c_str());
  return 2;
}
