//===- tests/core/EvictionPolicyTest.cpp - Policy tests --------------------===//

#include "core/EvictionPolicy.h"

#include "gtest/gtest.h"

using namespace ccsim;

TEST(UnitFifoPolicyTest, FlushIsOneUnit) {
  UnitFifoPolicy P(1);
  EXPECT_EQ(P.name(), "FLUSH");
  EXPECT_EQ(P.quantumBytes(1000), 1000u);
  EXPECT_FALSE(P.usesBackPointerTable(1000));
}

TEST(UnitFifoPolicyTest, MediumGrainQuanta) {
  UnitFifoPolicy P(8);
  EXPECT_EQ(P.name(), "8-unit");
  EXPECT_EQ(P.quantumBytes(8000), 1000u);
  EXPECT_TRUE(P.usesBackPointerTable(8000));
}

TEST(UnitFifoPolicyTest, QuantumNeverZero) {
  UnitFifoPolicy P(256);
  EXPECT_EQ(P.quantumBytes(100), 1u); // 100/256 rounds to 0 -> clamped.
}

TEST(FineFifoPolicyTest, ByteQuantum) {
  FineFifoPolicy P;
  EXPECT_EQ(P.name(), "FIFO");
  EXPECT_EQ(P.quantumBytes(1 << 20), 1u);
  EXPECT_TRUE(P.usesBackPointerTable(1 << 20));
}

TEST(GranularitySpecTest, Labels) {
  EXPECT_EQ(GranularitySpec::flush().label(), "FLUSH");
  EXPECT_EQ(GranularitySpec::units(64).label(), "64-unit");
  EXPECT_EQ(GranularitySpec::fine().label(), "FIFO");
}

TEST(GranularitySpecTest, FactoryProducesMatchingPolicies) {
  auto Flush = makePolicy(GranularitySpec::flush());
  auto Units = makePolicy(GranularitySpec::units(4));
  auto Fine = makePolicy(GranularitySpec::fine());
  EXPECT_EQ(Flush->quantumBytes(400), 400u);
  EXPECT_EQ(Units->quantumBytes(400), 100u);
  EXPECT_EQ(Fine->quantumBytes(400), 1u);
}

TEST(GranularitySpecTest, StandardSweepShape) {
  const auto Sweep = standardGranularitySweep();
  ASSERT_EQ(Sweep.size(), 10u); // FLUSH, 2..256 (8 points), FIFO.
  EXPECT_EQ(Sweep.front().label(), "FLUSH");
  EXPECT_EQ(Sweep[1].label(), "2-unit");
  EXPECT_EQ(Sweep[8].label(), "256-unit");
  EXPECT_EQ(Sweep.back().label(), "FIFO");
  // Quanta are strictly decreasing along the sweep.
  uint64_t Prev = ~0ULL;
  for (const auto &Spec : Sweep) {
    const uint64_t Q = makePolicy(Spec)->quantumBytes(1 << 20);
    EXPECT_LT(Q, Prev);
    Prev = Q;
  }
}

TEST(GranularitySpecTest, ParsePolicySpecIsStrict) {
  std::string Error;
  EXPECT_EQ(parsePolicySpec("flush", &Error)->label(), "FLUSH");
  EXPECT_EQ(parsePolicySpec("fifo", &Error)->label(), "FIFO");
  EXPECT_EQ(parsePolicySpec("16", &Error)->label(), "16-unit");
  // No unit count may wrap when narrowed to GranularitySpec::Units.
  for (const char *Bad : {"0", "-1", "8x", "", "4294967296", "4294967297"}) {
    EXPECT_FALSE(parsePolicySpec(Bad, &Error)) << Bad;
    EXPECT_NE(Error.find("bad policy"), std::string::npos) << Bad;
  }
}

TEST(GranularitySpecTest, ParsePolicyListRejectsTheWholeListOnOneTypo) {
  std::string Error;
  const auto Specs = parsePolicyList("flush,8,,fine", &Error);
  ASSERT_TRUE(Specs);
  ASSERT_EQ(Specs->size(), 3u);
  EXPECT_EQ((*Specs)[1].label(), "8-unit");
  // A bad entry late in the list fails the list; nothing is returned for
  // the good entries before it.
  EXPECT_FALSE(parsePolicyList("8,bogus", &Error));
  EXPECT_NE(Error.find("'bogus'"), std::string::npos) << Error;
}

TEST(AdaptivePolicyTest, StartsMidLadder) {
  AdaptiveGranularityPolicy P;
  EXPECT_EQ(P.name(), "Adaptive");
  EXPECT_EQ(P.currentUnitCount(), 128u); // Ladder {8,32,128,0}, mid = 2.
}

TEST(AdaptivePolicyTest, HighMissRateCoarsens) {
  AdaptiveGranularityPolicy::Options Opts;
  Opts.IntervalAccesses = 100;
  AdaptiveGranularityPolicy P(Opts);
  // Feed a 50% miss stream for many intervals: should walk to rung 0.
  for (int I = 0; I < 1000; ++I)
    P.noteAccess(I % 2 == 0);
  EXPECT_EQ(P.currentUnitCount(), 8u);
  EXPECT_GT(P.smoothedMissRate(), 0.3);
}

TEST(AdaptivePolicyTest, LowMissRateRefines) {
  AdaptiveGranularityPolicy::Options Opts;
  Opts.IntervalAccesses = 100;
  AdaptiveGranularityPolicy P(Opts);
  for (int I = 0; I < 2000; ++I)
    P.noteAccess(true); // All hits.
  EXPECT_EQ(P.currentUnitCount(), 0u); // Finest rung.
  EXPECT_EQ(P.quantumBytes(1 << 20), 1u);
}

TEST(AdaptivePolicyTest, MovesOneRungPerInterval) {
  AdaptiveGranularityPolicy::Options Opts;
  Opts.IntervalAccesses = 10;
  AdaptiveGranularityPolicy P(Opts);
  const unsigned Before = P.currentUnitCount();
  for (int I = 0; I < 10; ++I)
    P.noteAccess(false); // One interval of pure misses.
  // One reevaluation: at most one rung of movement.
  const unsigned After = P.currentUnitCount();
  EXPECT_TRUE(After == 32u || After == Before);
}

TEST(AdaptivePolicyTest, AlwaysNeedsBackPointers) {
  AdaptiveGranularityPolicy P;
  EXPECT_TRUE(P.usesBackPointerTable(1 << 20));
}

TEST(PreemptivePolicyTest, FlushQuantumAndNoTable) {
  PreemptiveFlushPolicy P;
  EXPECT_EQ(P.name(), "Preemptive");
  EXPECT_EQ(P.quantumBytes(5000), 5000u);
  EXPECT_FALSE(P.usesBackPointerTable(5000));
}

TEST(PreemptivePolicyTest, TriggersOnMissSpike) {
  PreemptiveFlushPolicy::Options Opts;
  Opts.WindowAccesses = 100;
  Opts.SpikeMissRate = 0.3;
  Opts.MinAccessesBetweenFlushes = 0;
  PreemptiveFlushPolicy P(Opts);
  // Calm phase: no trigger.
  for (int I = 0; I < 100; ++I)
    P.noteAccess(true);
  EXPECT_FALSE(P.shouldFlushNow());
  // Spike: 50% misses in one window.
  for (int I = 0; I < 100; ++I)
    P.noteAccess(I % 2 == 0);
  EXPECT_TRUE(P.shouldFlushNow());
  // Trigger is consumed.
  EXPECT_FALSE(P.shouldFlushNow());
}

TEST(PreemptivePolicyTest, RespectsMinimumDistanceBetweenFlushes) {
  PreemptiveFlushPolicy::Options Opts;
  Opts.WindowAccesses = 10;
  Opts.SpikeMissRate = 0.3;
  Opts.MinAccessesBetweenFlushes = 1000;
  PreemptiveFlushPolicy P(Opts);
  P.noteFlush();
  for (int I = 0; I < 20; ++I)
    P.noteAccess(false); // Two all-miss windows, too soon after a flush.
  EXPECT_FALSE(P.shouldFlushNow());
}

TEST(PreemptivePolicyTest, DefaultBasePolicyNeverFlushesSpontaneously) {
  UnitFifoPolicy P(4);
  P.noteAccess(false);
  EXPECT_FALSE(P.shouldFlushNow());
}
