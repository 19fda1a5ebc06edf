//===- examples/dbt_demo.cpp - Running the mini dynamic translator --------===//
//
// Generates a synthetic guest program, executes it three ways — pure
// interpretation, translated with chaining, translated without chaining —
// and shows that all three retire the same guest instructions and reach
// the identical architectural state while costing wildly different
// amounts (Table 2's phenomenon, live).
//
// Run: ./dbt_demo [--functions=N] [--iterations=N] [--cache-kb=N]
//               [--trace-out=t.json] [--metrics-out=m.csv] [--validate]
//
//===----------------------------------------------------------------------===//

#include "TelemetryFlags.h"
#include "isa/ProgramGenerator.h"
#include "runtime/Interpreter.h"
#include "runtime/Translator.h"
#include "support/Flags.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags("Run a guest program under the mini dynamic binary "
                "translator and compare against pure interpretation.");
  Flags.addInt("functions", 16, "Guest program call-graph size.");
  Flags.addInt("iterations", 800, "Main loop trip count.");
  Flags.addInt("cache-kb", 64, "Code cache size in KB.");
  Flags.addInt("seed", 2004, "Program generation seed.");
  addTelemetryFlags(Flags);
  if (!Flags.parse(Argc, Argv))
    return 1;
  // The generator needs at least one function, and a main-loop trip count
  // must fit its 16-bit loop immediate.
  std::string Error;
  const auto Functions = boundedIntFlag(Flags, "functions", 1, 4096, &Error);
  const auto Iterations =
      boundedIntFlag(Flags, "iterations", 1, 32000, &Error);
  const auto CacheKB = boundedIntFlag(Flags, "cache-kb", 1, 1 << 20, &Error);
  if (!Functions || !Iterations || !CacheKB) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // One sink spans both translated runs; the trace then shows the
  // chaining-on and chaining-off eviction behavior side by side.
  const std::unique_ptr<telemetry::TelemetrySink> Sink =
      makeSinkIfRequested(Flags);

  ProgramSpec Spec;
  Spec.NumFunctions = static_cast<uint32_t>(*Functions);
  Spec.OuterIterations = static_cast<uint32_t>(*Iterations);
  Spec.MeanCallsPerFunction = 0.5;
  Spec.RareBranchProb = 0.1;
  Spec.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  const Program P = generateProgram(Spec);
  std::printf("guest program: %s of code, %zu static instructions\n\n",
              formatBytes(P.size()).c_str(), P.countInstructions());

  // Reference run: pure interpretation.
  GuestState RefState(1 << 17);
  Interpreter Interp(P, RefState);
  const uint64_t Steps = Interp.run(1ULL << 40);
  std::printf("%-22s %14s guest instructions, digest %016llx\n",
              "interpreter:", formatWithCommas(Steps).c_str(),
              static_cast<unsigned long long>(RefState.digest()));

  // Translated runs.
  for (bool Chaining : {true, false}) {
    TranslatorConfig Config;
    Config.CacheBytes = static_cast<uint64_t>(*CacheKB) << 10;
    Config.EnableChaining = Chaining;
    Config.Telemetry = Sink.get();
    Translator T(P, Config);
    const TranslatorStats &S = T.run(1ULL << 40);
    std::printf("%-22s %14s guest instructions, digest %016llx %s\n",
                Chaining ? "DBT (chaining on):" : "DBT (chaining off):",
                formatWithCommas(S.GuestInstructions).c_str(),
                static_cast<unsigned long long>(T.guestState().digest()),
                T.guestState().digest() == RefState.digest() ? "[match]"
                                                             : "[MISMATCH]");
    std::printf(
        "    fragments %llu | dispatches %llu | linked transfers %llu | "
        "IBL hits %llu (misses %llu) | evictions %llu\n",
        static_cast<unsigned long long>(S.FragmentsBuilt),
        static_cast<unsigned long long>(S.Dispatches),
        static_cast<unsigned long long>(S.LinkedTransfers),
        static_cast<unsigned long long>(S.IndirectTransfers),
        static_cast<unsigned long long>(S.IblMisses),
        static_cast<unsigned long long>(S.EvictionInvocations));
    std::printf("    modeled host instructions: %s (interp %.0f%%, cache "
                "exec %.0f%%, management %.0f%%)\n",
                formatWithCommas(static_cast<uint64_t>(S.Ops.total()))
                    .c_str(),
                100.0 * S.Ops.InterpOps / S.Ops.total(),
                100.0 * S.Ops.CacheExecOps / S.Ops.total(),
                100.0 * S.Ops.managementOverhead() / S.Ops.total());
  }

  std::printf("\nThe chaining-off run reaches the same state but pays the "
              "dispatcher (context switch + memory protection changes) on "
              "every fragment exit -- the paper's Table 2 in miniature.\n");
  return exportTelemetry(Flags, Sink.get());
}
