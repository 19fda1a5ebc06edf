//===- bench/tenant_sharing.cpp - Cross-tenant sharing study record -------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs the tenant-overlap suite (workloads catalog "overlap") across a
// lattice of overlap fraction x eviction granularity x partition mode,
// once with content sharing OFF and once ON, holding everything else
// identical. The interesting numbers are the installed-byte footprint
// (how much duplicate code sharing avoided), the modeled overhead shift
// (links still pay Eq. 4 when a representative drains), and the share
// counters themselves.
//
// The correctness gates are structural, never wall-clock:
//
//   conservation_ok       every sharing run ends with
//                         SharedInstalls == UnshareUnlinks + live links,
//   disabled_silent_ok    every sharing-OFF run has all-zero share
//                         counters (the disabled path is inert),
//   zero_overlap_inert_ok no links form when tenants share no code,
//   full_overlap_saves_ok at 100% overlap sharing links at least once
//                         and strictly shrinks the installed footprint.
//
// bench/record_bench.cmake validates the record and fails on any gate.
// Every list is parsed before the first run: a bad overlap, granularity
// or mode, or a policy that fails validate(), exits 1 with nothing run.
//
// Run: ./tenant_sharing --tenants=3 --overlaps=0,0.5,1
//                       --out=BENCH_sharing.json
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "concurrent/MultiTenantSimulator.h"
#include "workloads/Adversary.h"

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

using namespace ccsim;

namespace {

/// One lattice cell: the same suite replayed sharing-OFF then sharing-ON.
struct Cell {
  double Overlap = 0.0;
  std::string PolicyLabel;
  std::string ModeLabel;
  MultiTenantResult Off;
  MultiTenantResult On;

  bool conservationOk() const {
    return On.Global.SharedInstalls ==
           On.Global.UnshareUnlinks + On.FinalShareLinks;
  }
  bool disabledSilent() const {
    return !Off.Global.SharingActive && Off.Global.SharedInstalls == 0 &&
           Off.Global.SharedBytesSaved == 0 &&
           Off.Global.UnshareUnlinks == 0 && Off.FinalSharedEntries == 0 &&
           Off.FinalShareLinks == 0;
  }
  double savedPct() const {
    if (Off.Global.InsertedBytes == 0)
      return 0.0;
    const double OffBytes = static_cast<double>(Off.Global.InsertedBytes);
    const double OnBytes = static_cast<double>(On.Global.InsertedBytes);
    return 100.0 * (OffBytes - OnBytes) / OffBytes;
  }
};

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Cross-tenant content sharing: footprint and overhead "
                "with sharing off vs on across the tenancy lattice.");
  Flags.addInt("tenants", 3, "Tenant count for the overlap suite.");
  Flags.addString("overlaps", "0,0.5,1",
                  "Comma-separated overlap fractions in [0,1].");
  Flags.addString("granularities", "flush,8,fine",
                  "Comma-separated granularities (flush | fine | <units>).");
  Flags.addString("modes", "shared,static,quota",
                  "Comma-separated partition modes.");
  Flags.addDouble("pressure", 2.0,
                  "Cache pressure (capacity = working set / pressure).");
  Flags.addDouble("scale", 1.0, "Adversary working-set multiplier.");
  Flags.addInt("seed", 42, "Suite generation seed.");
  Flags.addString("out", "BENCH_sharing.json",
                  "Path for the machine-readable result record.");
  if (!Flags.parse(Argc, Argv))
    return 1;

  const int64_t TenantFlag = Flags.getInt("tenants");
  const uint32_t Tenants = static_cast<uint32_t>(TenantFlag);
  if (TenantFlag != int64_t(Tenants)) {
    std::fprintf(stderr, "error: bad tenants %lld\n",
                 static_cast<long long>(TenantFlag));
    return 1;
  }
  const uint64_t Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  // The one bench that scales its adversary up as well as down.
  std::string Error;
  const auto ScaleFlag = scaleFlag(Flags, "scale", &Error,
                                   std::numeric_limits<double>::infinity());
  if (!ScaleFlag) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const double Scale = *ScaleFlag;
  std::vector<workloads::AdversarySpec> Suites;
  for (const std::string &OverlapText :
       splitList(Flags.getString("overlaps"))) {
    workloads::AdversarySpec Spec = workloads::adversaryAtScale(
        *workloads::findAdversarial("overlap"), Scale);
    Spec.Tenants = Tenants;
    char *End = nullptr;
    Spec.OverlapFraction = std::strtod(OverlapText.c_str(), &End);
    const std::string Err = *End ? "not a number" : Spec.validate();
    if (!Err.empty()) {
      std::fprintf(stderr, "error: bad overlap '%s': %s\n",
                   OverlapText.c_str(), Err.c_str());
      return 1;
    }
    Suites.push_back(Spec);
  }
  TenancyPolicy Base;
  Base.PressureFactor = Flags.getDouble("pressure");
  const auto Grid = makeTenancyGrid(Base, Flags.getString("granularities"),
                                    Flags.getString("modes"), &Error);
  if (!Grid) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  benchutil::printHeader(
      "Cross-tenant superblock sharing: footprint vs duplication",
      "extension of Sections 4-5 (ShareJIT-style content dedup)");

  const auto Start = std::chrono::steady_clock::now();
  std::vector<Cell> Cells;
  for (const workloads::AdversarySpec &Spec : Suites) {
    const std::vector<Trace> Suite =
        workloads::generateTenantOverlapSuite(Spec, Seed);
    for (TenancyPolicy Policy : *Grid) {
      Cell C;
      C.Overlap = Spec.OverlapFraction;
      Policy.ShareCode = false;
      C.Off = MultiTenantSimulator(Suite, Policy).run();
      Policy.ShareCode = true;
      C.On = MultiTenantSimulator(Suite, Policy).run();
      C.PolicyLabel = C.On.PolicyLabel;
      C.ModeLabel = C.On.ModeLabel;
      Cells.push_back(std::move(C));
    }
  }
  const auto End = std::chrono::steady_clock::now();
  const double ElapsedMs =
      std::chrono::duration<double, std::milli>(End - Start).count();

  Table Out({"Overlap", "Granularity", "Mode", "Inserted off", "Inserted on",
             "Saved", "Links", "Unshares", "Live links"});
  bool ConservationOk = true;
  bool DisabledSilentOk = true;
  bool ZeroOverlapInertOk = true;
  bool FullOverlapSavesOk = true;
  bool SawFullOverlap = false;
  double MaxSavedPct = 0.0;
  for (const Cell &C : Cells) {
    Out.beginRow();
    Out.cell(formatPercent(C.Overlap, 0));
    Out.cell(C.PolicyLabel);
    Out.cell(C.ModeLabel);
    Out.cell(formatBytes(C.Off.Global.InsertedBytes));
    Out.cell(formatBytes(C.On.Global.InsertedBytes));
    Out.cell(formatBytes(C.On.Global.SharedBytesSaved));
    Out.cell(C.On.Global.SharedInstalls);
    Out.cell(C.On.Global.UnshareUnlinks);
    Out.cell(C.On.FinalShareLinks);

    ConservationOk = ConservationOk && C.conservationOk();
    DisabledSilentOk = DisabledSilentOk && C.disabledSilent();
    if (C.Overlap == 0.0)
      ZeroOverlapInertOk =
          ZeroOverlapInertOk && C.On.Global.SharedInstalls == 0;
    if (C.Overlap == 1.0) {
      SawFullOverlap = true;
      FullOverlapSavesOk = FullOverlapSavesOk &&
                           C.On.Global.SharedInstalls > 0 &&
                           C.On.Global.InsertedBytes <
                               C.Off.Global.InsertedBytes;
    }
    if (C.savedPct() > MaxSavedPct)
      MaxSavedPct = C.savedPct();
  }
  FullOverlapSavesOk = FullOverlapSavesOk && SawFullOverlap;
  std::fputs(Out.render().c_str(), stdout);
  std::printf("\nbest footprint cut %.1f%%; gates: conservation %s, "
              "disabled-silent %s, zero-overlap-inert %s, "
              "full-overlap-saves %s (%.1f ms total)\n",
              MaxSavedPct, ConservationOk ? "ok" : "FAIL",
              DisabledSilentOk ? "ok" : "FAIL",
              ZeroOverlapInertOk ? "ok" : "FAIL",
              FullOverlapSavesOk ? "ok" : "FAIL", ElapsedMs);

  const std::string OutPath = Flags.getString("out");
  std::FILE *Json = std::fopen(OutPath.c_str(), "w");
  if (!Json) {
    std::fprintf(stderr, "error: could not write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Json,
               "{\n"
               "  \"bench\": \"tenant_sharing\",\n"
               "  \"tenants\": %u,\n"
               "  \"pressure\": %g,\n"
               "  \"scale\": %g,\n"
               "  \"seed\": %llu,\n"
               "  \"conservation_ok\": %s,\n"
               "  \"disabled_silent_ok\": %s,\n"
               "  \"zero_overlap_inert_ok\": %s,\n"
               "  \"full_overlap_saves_ok\": %s,\n"
               "  \"max_saved_pct\": %.3f,\n"
               "  \"elapsed_ms\": %.3f,\n"
               "  \"rows\": [\n",
               Tenants, Flags.getDouble("pressure"), Scale,
               static_cast<unsigned long long>(Seed),
               ConservationOk ? "true" : "false",
               DisabledSilentOk ? "true" : "false",
               ZeroOverlapInertOk ? "true" : "false",
               FullOverlapSavesOk ? "true" : "false", MaxSavedPct, ElapsedMs);
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    std::fprintf(
        Json,
        "    {\"overlap\": %g, \"policy\": \"%s\", \"mode\": \"%s\", "
        "\"inserted_off\": %llu, \"inserted_on\": %llu, "
        "\"saved_pct\": %.3f, "
        "\"miss_rate_off\": %.6f, \"miss_rate_on\": %.6f, "
        "\"overhead_off\": %.3f, \"overhead_on\": %.3f, "
        "\"shared_installs\": %llu, \"shared_bytes_saved\": %llu, "
        "\"unshare_unlinks\": %llu, \"final_links\": %llu, "
        "\"final_entries\": %llu}%s\n",
        C.Overlap, C.PolicyLabel.c_str(), C.ModeLabel.c_str(),
        static_cast<unsigned long long>(C.Off.Global.InsertedBytes),
        static_cast<unsigned long long>(C.On.Global.InsertedBytes),
        C.savedPct(), C.Off.Global.missRate(), C.On.Global.missRate(),
        C.Off.Global.totalOverhead(true), C.On.Global.totalOverhead(true),
        static_cast<unsigned long long>(C.On.Global.SharedInstalls),
        static_cast<unsigned long long>(C.On.Global.SharedBytesSaved),
        static_cast<unsigned long long>(C.On.Global.UnshareUnlinks),
        static_cast<unsigned long long>(C.On.FinalShareLinks),
        static_cast<unsigned long long>(C.On.FinalSharedEntries),
        I + 1 < Cells.size() ? "," : "");
  }
  std::fprintf(Json, "  ]\n}\n");
  std::fclose(Json);
  std::printf("record written to %s\n", OutPath.c_str());
  return 0;
}
