//===- support/Random.cpp - Deterministic random number generation -------===//

#include "support/Random.h"
#include "support/Contracts.h"

#include <cmath>

using namespace ccsim;

Rng::Rng(uint64_t Seed) {
  SplitMix64 Seeder(Seed);
  for (auto &Word : State)
    Word = Seeder.next();
}

uint64_t Rng::nextBelow(uint64_t Bound) {
  CCSIM_ASSERT(Bound != 0, "nextBelow bound must be nonzero");
  // Rejection sampling: discard the biased tail of the 64-bit range.
  const uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t Value = next64();
    if (Value >= Threshold)
      return Value % Bound;
  }
}

int64_t Rng::nextRange(int64_t Lo, int64_t Hi) {
  CCSIM_ASSERT(Lo <= Hi, "nextRange requires Lo <= Hi");
  const uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  return Lo + static_cast<int64_t>(nextBelow(Span));
}

double Rng::nextNormal() {
  if (HasCachedNormal) {
    HasCachedNormal = false;
    return CachedNormal;
  }
  // Box-Muller transform; U1 must be nonzero for the logarithm.
  double U1;
  do {
    U1 = nextDouble();
  } while (U1 <= 0.0);
  const double U2 = nextDouble();
  const double R = std::sqrt(-2.0 * std::log(U1));
  const double Theta = 2.0 * M_PI * U2;
  CachedNormal = R * std::sin(Theta);
  HasCachedNormal = true;
  return R * std::cos(Theta);
}

double Rng::nextNormal(double Mean, double Sigma) {
  return Mean + Sigma * nextNormal();
}

double Rng::nextLognormal(double Mu, double Sigma) {
  return std::exp(nextNormal(Mu, Sigma));
}

double Rng::nextExponential(double Lambda) {
  CCSIM_ASSERT(Lambda > 0.0, "exponential rate must be positive");
  double U;
  do {
    U = nextDouble();
  } while (U <= 0.0);
  return -std::log(U) / Lambda;
}

uint64_t Rng::nextPoisson(double Lambda) {
  CCSIM_ASSERT(Lambda >= 0.0, "Poisson mean must be non-negative");
  if (Lambda <= 0.0)
    return 0;
  const double L = std::exp(-Lambda);
  uint64_t K = 0;
  double P = 1.0;
  do {
    ++K;
    P *= nextDouble();
  } while (P > L);
  return K - 1;
}

Rng Rng::fork() {
  // Derive a child seed from two draws; the child reseeds via SplitMix64,
  // which decorrelates its stream from the parent's continuation.
  const uint64_t ChildSeed = next64() ^ std::rotl(next64(), 32);
  return Rng(ChildSeed);
}

ZipfSampler::ZipfSampler(size_t N, double S) {
  CCSIM_ASSERT(N > 0, "Zipf sampler needs at least one element");
  Cdf.resize(N);
  double Sum = 0.0;
  for (size_t I = 0; I < N; ++I) {
    Sum += 1.0 / std::pow(static_cast<double>(I + 1), S);
    Cdf[I] = Sum;
  }
  for (auto &Value : Cdf)
    Value /= Sum;
}

size_t ZipfSampler::sample(Rng &R) const {
  const double U = R.nextDouble();
  // Binary search for the first CDF entry >= U.
  size_t Lo = 0, Hi = Cdf.size() - 1;
  while (Lo < Hi) {
    const size_t Mid = Lo + (Hi - Lo) / 2;
    if (Cdf[Mid] < U)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

WeightedSampler::WeightedSampler(const std::vector<double> &Weights) {
  CCSIM_ASSERT(!Weights.empty(), "weighted sampler needs at least one weight");
  Cdf.resize(Weights.size());
  double Sum = 0.0;
  for (size_t I = 0; I < Weights.size(); ++I) {
    CCSIM_ASSERT(Weights[I] >= 0.0, "weights must be non-negative");
    Sum += Weights[I];
    Cdf[I] = Sum;
  }
  CCSIM_ASSERT(Sum > 0.0, "total weight must be positive");
  for (auto &Value : Cdf)
    Value /= Sum;
}

size_t WeightedSampler::sample(Rng &R) const {
  const double U = R.nextDouble();
  size_t Lo = 0, Hi = Cdf.size() - 1;
  while (Lo < Hi) {
    const size_t Mid = Lo + (Hi - Lo) / 2;
    if (Cdf[Mid] < U)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}
