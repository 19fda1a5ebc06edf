//===- bench/ablation_generational.cpp - Generational cache study --------===//
//
// Section 2.2's citation [15] (Hazelwood & Smith, MICRO 2003) extends
// single code caches to "multiple superblock code caches distinguished
// by the lifetimes of the superblocks they contain". This ablation pits
// a single 8-unit FIFO cache against a two-generation design (nursery +
// tenured) on the same traces, same total capacity: regeneration-prone
// long-lived blocks are tenured, so phase churn cannot evict them.
//
// Overheads here are miss + eviction (the Figure 10/11 model): the
// generational manager does not model cross-generation chaining.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/GenerationalCache.h"

using namespace ccsim;

namespace {

struct GenOutcome {
  CacheStats Stats;
  uint64_t Promotions = 0;
};

GenOutcome runGenerational(const Trace &T, uint64_t Capacity,
                           double TenuredFraction) {
  GenerationalConfig Config;
  Config.CapacityBytes = Capacity;
  Config.TenuredFraction = TenuredFraction;
  Config.PromoteAfterInserts = 3;
  GenerationalCacheManager M(Config);
  for (SuperblockId Id : T.Accesses)
    M.access(T.recordFor(Id));
  return {M.stats(), M.promotions()};
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Ablation: single cache vs generational (nursery + tenured).");
  Flags.addDouble("pressure", 6.0, "Cache pressure factor.");
  if (!benchutil::parseFlags(Flags, Argc, Argv))
    return 1;
  SimConfig Config;
  Config.PressureFactor = Flags.getDouble("pressure");
  if (benchutil::invalid(Config.validate()))
    return 1;

  benchutil::printHeader(
      "Ablation: generational cache management (Section 2.2, ref [15])",
      "Generational caches protect long-lived superblocks from phase "
      "churn; compare against a single 8-unit FIFO at equal capacity");
  const SweepEngine Engine = benchutil::makeEngine(Flags);

  const SuiteResult Single =
      Engine.runSuite(GranularitySpec::units(8), Config);

  Table Out({"Design", "Miss rate", "Overhead vs single", "Promotions"});
  Out.beginRow();
  Out.cell("single 8-unit FIFO");
  Out.cell(formatPercent(Single.Combined.missRate(), 2));
  Out.cell(1.0, 3);
  Out.cell("-");

  const double SingleOverhead = Single.Combined.totalOverhead(false);
  for (double Fraction : {0.25, 0.5, 0.75}) {
    CacheStats Combined;
    uint64_t Promotions = 0;
    for (const Trace &T : Engine.traces()) {
      const GenOutcome R = runGenerational(
          T, sim::capacityFor(T, Config), Fraction);
      Combined.merge(R.Stats);
      Promotions += R.Promotions;
    }
    Out.beginRow();
    Out.cell("generational " + formatPercent(Fraction, 0) + " tenured");
    Out.cell(formatPercent(Combined.missRate(), 2));
    Out.cell(Combined.totalOverhead(false) / SingleOverhead, 3);
    Out.cell(Promotions);
  }
  std::fputs(Out.render().c_str(), stdout);
  std::printf("\n(ratios below 1.0 mean the generational design saved "
              "management overhead at this pressure)\n");
  return 0;
}
