//===- support/Random.h - Deterministic random number generation ---------===//
//
// Part of the ccsim project: a reproduction of "Exploring Code Cache
// Eviction Granularities in Dynamic Optimization Systems" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic pseudo-random number generation and the distributions used
/// by the workload generators. Every stochastic component of the project is
/// seeded explicitly so that traces, programs, and experiments are exactly
/// reproducible across runs and machines.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SUPPORT_RANDOM_H
#define CCSIM_SUPPORT_RANDOM_H

#include "support/Contracts.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccsim {

/// SplitMix64 generator, used to expand a single 64-bit seed into the state
/// of larger generators. Passes BigCrush when used directly; here it is only
/// a seeding utility.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

private:
  uint64_t State;
};

/// Xoshiro256++ pseudo-random generator. Small, fast, and high quality;
/// deterministic given the seed. This is the workhorse generator for all
/// workload and program synthesis.
class Rng {
public:
  /// Seeds the four state words from \p Seed via SplitMix64.
  explicit Rng(uint64_t Seed = 0x5eed5eed5eedULL);

  /// Returns the next raw 64-bit value. next64, nextDouble and nextBool
  /// are inline: trace synthesis makes several draws per access.
  uint64_t next64() {
    const uint64_t Result = std::rotl(State[0] + State[3], 23) + State[0];
    const uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = std::rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniformly distributed value in [0, Bound). \p Bound must be
  /// nonzero. Uses rejection sampling to avoid modulo bias.
  uint64_t nextBelow(uint64_t Bound);

  /// Returns a uniformly distributed integer in the closed range
  /// [\p Lo, \p Hi]. Requires Lo <= Hi.
  int64_t nextRange(int64_t Lo, int64_t Hi);

  /// Returns a double uniformly distributed in [0, 1): 53 bits.
  double nextDouble() {
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability \p P (clamped to [0, 1]); draws
  /// nothing when P is 0 or below, or 1 or above.
  bool nextBool(double P) {
    if (P <= 0.0)
      return false;
    if (P >= 1.0)
      return true;
    return nextDouble() < P;
  }

  /// Standard normal variate (Box-Muller; caches the second value).
  double nextNormal();

  /// Normal variate with the given \p Mean and \p Sigma.
  double nextNormal(double Mean, double Sigma);

  /// Lognormal variate: exp(N(Mu, Sigma)). The median of the distribution
  /// is exp(Mu) and the mean is exp(Mu + Sigma^2 / 2).
  double nextLognormal(double Mu, double Sigma);

  /// Exponential variate with rate \p Lambda > 0.
  double nextExponential(double Lambda);

  /// Poisson variate with mean \p Lambda >= 0 (Knuth's method; intended
  /// for the small means used by the link-degree models).
  uint64_t nextPoisson(double Lambda);

  /// Forks an independent generator whose stream is decorrelated from this
  /// one. Used to give each benchmark model its own stream.
  Rng fork();

private:
  uint64_t State[4];
  double CachedNormal = 0.0;
  bool HasCachedNormal = false;
};

/// Precomputed Zipf(S) sampler over ranks {0, ..., N-1}. Rank 0 is the most
/// popular element. Sampling is O(log N) via binary search over the CDF.
class ZipfSampler {
public:
  /// Builds the CDF for \p N elements with exponent \p S >= 0. S == 0
  /// degenerates to the uniform distribution.
  ZipfSampler(size_t N, double S);

  /// Draws a rank in [0, size()).
  size_t sample(Rng &R) const;

  size_t size() const { return Cdf.size(); }

private:
  std::vector<double> Cdf;
};

/// Precomputed Geometric(P) sampler: failures before the first success,
/// values in {0, 1, 2, ...}. log1p(-P) is taken once, at construction;
/// each draw is floor(log(U) / log1p(-P)) for U = nextDouble() redrawn
/// while 0. The quotient of two negatives is positive, so truncation is
/// that floor. P = 1 returns 0 and draws nothing.
class GeometricSampler {
public:
  /// \p P must lie in (0, 1].
  explicit GeometricSampler(double P)
      : Certain(P >= 1.0), LogFailure(Certain ? 0.0 : std::log1p(-P)),
        ZeroFrom((1.0 - P) * (1.0 + 0x1p-30)) {
    CCSIM_ASSERT(P > 0.0 && P <= 1.0, "geometric probability out of range");
  }

  uint64_t sample(Rng &R) const {
    if (Certain)
      return 0;
    double U;
    do {
      U = R.nextDouble();
    } while (U <= 0.0);
    return fromUniform(U);
  }

  /// floor(log(U) / log1p(-P)) for \p U in (0, 1).
  uint64_t fromUniform(double U) const {
    // U >= ZeroFrom means U > (1 - P)(1 + 2^-31), so the exact quotient
    // is below 1 - 2^-31 / |ln(1 - P)|, and |ln(1 - P)| <= 53 ln 2 for a
    // double P < 1. Rounding in log, log1p and the division moves the
    // quotient by a few parts in 2^52, far less than that gap, so the
    // result is 0 and the log can be skipped.
    if (U >= ZeroFrom)
      return 0;
    return static_cast<uint64_t>(std::log(U) / LogFailure);
  }

private:
  bool Certain;      ///< P >= 1: no draw, always 0.
  double LogFailure; ///< log1p(-P), negative unless Certain.
  double ZeroFrom;   ///< Every U at or above it yields 0.
};

/// Samples an index from an arbitrary non-negative weight vector.
/// O(log N) per sample after an O(N) build.
class WeightedSampler {
public:
  explicit WeightedSampler(const std::vector<double> &Weights);

  size_t sample(Rng &R) const;

  size_t size() const { return Cdf.size(); }

private:
  std::vector<double> Cdf;
};

} // namespace ccsim

#endif // CCSIM_SUPPORT_RANDOM_H
