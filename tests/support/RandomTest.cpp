//===- tests/support/RandomTest.cpp - Rng and distribution tests ----------===//

#include "support/Random.h"

#include "gtest/gtest.h"

#include <cmath>
#include <set>
#include <vector>

using namespace ccsim;

TEST(SplitMix64Test, DeterministicSequence) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 10; ++I)
    if (A.next() != B.next())
      AnyDifferent = true;
  EXPECT_TRUE(AnyDifferent);
}

TEST(RngTest, DeterministicForSeed) {
  Rng A(7), B(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next64(), B.next64());
}

TEST(RngTest, DifferentSeedsProduceDifferentStreams) {
  Rng A(7), B(8);
  int Matches = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next64() == B.next64())
      ++Matches;
  EXPECT_LT(Matches, 3);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng R(11);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40})
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
}

TEST(RngTest, NextBelowOneIsAlwaysZero) {
  Rng R(3);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng R(5);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, NextRangeInclusiveBounds) {
  Rng R(13);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    const int64_t V = R.nextRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= (V == -3);
    SawHi |= (V == 3);
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NextRangeSingleton) {
  Rng R(17);
  for (int I = 0; I < 20; ++I)
    EXPECT_EQ(R.nextRange(5, 5), 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(19);
  for (int I = 0; I < 5000; ++I) {
    const double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng R(23);
  double Sum = 0.0;
  const int N = 50000;
  for (int I = 0; I < N; ++I)
    Sum += R.nextDouble();
  EXPECT_NEAR(Sum / N, 0.5, 0.01);
}

TEST(RngTest, NextBoolExtremes) {
  Rng R(29);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
    EXPECT_FALSE(R.nextBool(-0.5));
    EXPECT_TRUE(R.nextBool(1.5));
  }
}

TEST(RngTest, NextBoolFrequency) {
  Rng R(31);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    if (R.nextBool(0.25))
      ++Hits;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.25, 0.02);
}

TEST(RngTest, NormalMeanAndSigma) {
  Rng R(37);
  const int N = 50000;
  double Sum = 0.0, SumSq = 0.0;
  for (int I = 0; I < N; ++I) {
    const double V = R.nextNormal();
    Sum += V;
    SumSq += V * V;
  }
  const double Mean = Sum / N;
  const double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.03);
  EXPECT_NEAR(Var, 1.0, 0.05);
}

TEST(RngTest, NormalShifted) {
  Rng R(41);
  const int N = 20000;
  double Sum = 0.0;
  for (int I = 0; I < N; ++I)
    Sum += R.nextNormal(10.0, 2.0);
  EXPECT_NEAR(Sum / N, 10.0, 0.1);
}

TEST(RngTest, LognormalMedianAndMean) {
  Rng R(43);
  const double Mu = std::log(244.0);
  const double Sigma = 1.0;
  const int N = 60000;
  std::vector<double> Values(N);
  double Sum = 0.0;
  for (int I = 0; I < N; ++I) {
    Values[I] = R.nextLognormal(Mu, Sigma);
    Sum += Values[I];
  }
  std::nth_element(Values.begin(), Values.begin() + N / 2, Values.end());
  // Median = exp(Mu), mean = exp(Mu + Sigma^2/2).
  EXPECT_NEAR(Values[N / 2] / 244.0, 1.0, 0.05);
  EXPECT_NEAR(Sum / N / (244.0 * std::exp(0.5)), 1.0, 0.07);
}

TEST(RngTest, GeometricMean) {
  Rng R(47);
  const GeometricSampler Geo(0.25);
  const int N = 50000;
  double Sum = 0.0;
  for (int I = 0; I < N; ++I)
    Sum += static_cast<double>(Geo.sample(R));
  // Mean of failures-before-success geometric = (1 - P) / P = 3.
  EXPECT_NEAR(Sum / N, 3.0, 0.15);
}

TEST(RngTest, GeometricOneAlwaysZero) {
  Rng R(53);
  const GeometricSampler Geo(1.0);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Geo.sample(R), 0u);
}

// The sampler is the inverse transform the generator always used, with
// log1p(-P) hoisted: every draw must equal floor(log(U) / log1p(-P)) over
// the same U, and consume exactly the draws that formula does.
TEST(GeometricSamplerTest, MatchesFloorOfLogQuotient) {
  const double Ps[] = {1e-9, 1e-4,   0.01, 0.1,   0.25,       0.4,
                       0.5,  0.6875, 0.75, 0.999, 1.0 - 1e-9, 1.0};
  for (uint64_t Seed : {1ULL, 7ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
    for (double P : Ps) {
      Rng Sampled(Seed), Reference(Seed);
      const GeometricSampler Geo(P);
      for (int I = 0; I < 2000; ++I) {
        uint64_t Want = 0;
        if (P < 1.0) {
          double U;
          do {
            U = Reference.nextDouble();
          } while (U <= 0.0);
          Want = static_cast<uint64_t>(
              std::floor(std::log(U) / std::log1p(-P)));
        }
        ASSERT_EQ(Geo.sample(Sampled), Want)
            << "p " << P << " seed " << Seed << " draw " << I;
      }
      EXPECT_EQ(Sampled.next64(), Reference.next64())
          << "p " << P << " seed " << Seed << ": streams diverged";
    }
  }
}

TEST(GeometricSamplerTest, ZeroShortcutMatchesTheFormulaNearItsEdge) {
  // Values of U at or above (1 - p)(1 + 2^-30) skip the log: compare the
  // result with the formula on every double within 2^15 steps of that
  // edge and of 1 - p, where the quotient crosses 1.
  for (double P : {1e-9, 0.01, 0.25, 0.4, 0.5875, 0.9, 0.999, 1.0 - 1e-9}) {
    const GeometricSampler Geo(P);
    const double L = std::log1p(-P);
    for (double Edge : {1.0 - P, (1.0 - P) * (1.0 + 0x1p-30)}) {
      double Up = Edge, Down = Edge;
      for (int Step = 0; Step < (1 << 15); ++Step) {
        for (double U : {Up, Down}) {
          if (U > 0.0 && U < 1.0) {
            ASSERT_EQ(Geo.fromUniform(U),
                      static_cast<uint64_t>(std::floor(std::log(U) / L)))
                << "p " << P << " U " << U;
          }
        }
        Up = std::nextafter(Up, 2.0);
        Down = std::nextafter(Down, 0.0);
      }
    }
  }
}

TEST(GeometricSamplerTest, CertainSuccessDrawsNothing) {
  for (uint64_t Seed : {3ULL, 42ULL, ~0ULL}) {
    Rng Sampled(Seed), Untouched(Seed);
    const GeometricSampler Geo(1.0);
    for (int I = 0; I < 100; ++I)
      EXPECT_EQ(Geo.sample(Sampled), 0u);
    EXPECT_EQ(Sampled.next64(), Untouched.next64()) << "seed " << Seed;
  }
}

TEST(RngTest, ExponentialMean) {
  Rng R(59);
  const int N = 50000;
  double Sum = 0.0;
  for (int I = 0; I < N; ++I)
    Sum += R.nextExponential(0.5);
  EXPECT_NEAR(Sum / N, 2.0, 0.1);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng R(61);
  for (double Lambda : {0.3, 1.0, 2.5}) {
    const int N = 40000;
    double Sum = 0.0;
    for (int I = 0; I < N; ++I)
      Sum += static_cast<double>(R.nextPoisson(Lambda));
    EXPECT_NEAR(Sum / N, Lambda, 0.08) << "lambda " << Lambda;
  }
}

TEST(RngTest, PoissonZeroLambda) {
  Rng R(67);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.nextPoisson(0.0), 0u);
}

TEST(RngTest, ForkDecorrelates) {
  Rng A(71);
  Rng B = A.fork();
  int Matches = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next64() == B.next64())
      ++Matches;
  EXPECT_LT(Matches, 3);
}

TEST(ZipfSamplerTest, StaysInRange) {
  Rng R(73);
  ZipfSampler Z(50, 0.8);
  for (int I = 0; I < 2000; ++I)
    EXPECT_LT(Z.sample(R), 50u);
}

TEST(ZipfSamplerTest, RankZeroMostPopular) {
  Rng R(79);
  ZipfSampler Z(20, 1.0);
  std::vector<int> Counts(20, 0);
  for (int I = 0; I < 40000; ++I)
    ++Counts[Z.sample(R)];
  EXPECT_GT(Counts[0], Counts[5]);
  EXPECT_GT(Counts[5], Counts[19]);
}

TEST(ZipfSamplerTest, ZeroExponentIsUniform) {
  Rng R(83);
  ZipfSampler Z(10, 0.0);
  std::vector<int> Counts(10, 0);
  const int N = 50000;
  for (int I = 0; I < N; ++I)
    ++Counts[Z.sample(R)];
  for (int C : Counts)
    EXPECT_NEAR(static_cast<double>(C) / N, 0.1, 0.02);
}

TEST(ZipfSamplerTest, SingleElement) {
  Rng R(89);
  ZipfSampler Z(1, 2.0);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Z.sample(R), 0u);
}

TEST(WeightedSamplerTest, ProportionsRespected) {
  Rng R(97);
  WeightedSampler W({1.0, 3.0, 6.0});
  std::vector<int> Counts(3, 0);
  const int N = 60000;
  for (int I = 0; I < N; ++I)
    ++Counts[W.sample(R)];
  EXPECT_NEAR(Counts[0] / static_cast<double>(N), 0.1, 0.02);
  EXPECT_NEAR(Counts[1] / static_cast<double>(N), 0.3, 0.02);
  EXPECT_NEAR(Counts[2] / static_cast<double>(N), 0.6, 0.02);
}

TEST(WeightedSamplerTest, ZeroWeightNeverSampled) {
  Rng R(101);
  WeightedSampler W({0.0, 1.0});
  for (int I = 0; I < 2000; ++I)
    EXPECT_EQ(W.sample(R), 1u);
}

// Determinism across all distributions, parameterized by seed.
class RngSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedTest, AllDistributionsDeterministic) {
  Rng A(GetParam()), B(GetParam());
  for (int I = 0; I < 200; ++I) {
    EXPECT_EQ(A.nextBelow(1000), B.nextBelow(1000));
    EXPECT_DOUBLE_EQ(A.nextDouble(), B.nextDouble());
    EXPECT_DOUBLE_EQ(A.nextNormal(), B.nextNormal());
    EXPECT_EQ(GeometricSampler(0.3).sample(A),
              GeometricSampler(0.3).sample(B));
    EXPECT_EQ(A.nextPoisson(1.7), B.nextPoisson(1.7));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           ~0ULL));
