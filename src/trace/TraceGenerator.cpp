//===- trace/TraceGenerator.cpp - Synthetic trace synthesis -----------------===//

#include "trace/TraceGenerator.h"
#include "support/Contracts.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace ccsim;

void TraceGenerator::generateBlocks(const WorkloadModel &Model, Trace &T) {
  CCSIM_ASSERT(Model.NumSuperblocks > 0, "workload needs superblocks");
  CCSIM_ASSERT(Model.MeanBlockBytes >= Model.MedianBlockBytes,
               "lognormal mean must be at least the median");

  // Lognormal(Mu, Sigma): median = exp(Mu), mean = exp(Mu + Sigma^2/2).
  const double Mu = std::log(Model.MedianBlockBytes);
  const double Ratio = Model.MeanBlockBytes / Model.MedianBlockBytes;
  const double Sigma = std::max(0.1, std::sqrt(2.0 * std::log(Ratio)));

  T.Blocks.resize(Model.NumSuperblocks);
  for (SuperblockDef &B : T.Blocks) {
    const double Raw = R.nextLognormal(Mu, Sigma);
    const double Clamped =
        std::clamp(Raw, static_cast<double>(Model.MinBlockBytes),
                   static_cast<double>(Model.MaxBlockBytes));
    B.SizeBytes = static_cast<uint32_t>(std::llround(Clamped));
  }
}

void TraceGenerator::generateLinks(const WorkloadModel &Model, Trace &T) {
  const uint32_t N = Model.NumSuperblocks;
  // Self loops contribute SelfLoopFraction links on average; the rest of
  // the out-degree budget is Poisson-distributed ordinary links.
  const double OrdinaryMean =
      std::max(0.0, Model.MeanOutDegree - Model.SelfLoopFraction);
  const GeometricSampler LinkDistance(
      1.0 / std::max(1.0, Model.LinkDistanceMean));

  for (SuperblockId Id = 0; Id < N; ++Id) {
    SuperblockDef &B = T.Blocks[Id];
    if (R.nextBool(Model.SelfLoopFraction))
      B.OutEdges.push_back(Id);

    const uint64_t NumOrdinary = R.nextPoisson(OrdinaryMean);
    for (uint64_t E = 0; E < NumOrdinary; ++E) {
      SuperblockId Target;
      if (N > 1 && R.nextBool(Model.FarLinkFraction)) {
        // Far link: indirect call target, shared helper, etc.
        do {
          Target = static_cast<SuperblockId>(R.nextBelow(N));
        } while (Target == Id);
      } else {
        // Local link: distance-geometric in discovery order, either
        // direction. Chained code is discovered close together.
        const int64_t Distance =
            1 + static_cast<int64_t>(LinkDistance.sample(R));
        const int64_t Signed = R.nextBool(0.5) ? Distance : -Distance;
        int64_t Raw = static_cast<int64_t>(Id) + Signed;
        Raw = std::clamp<int64_t>(Raw, 0, static_cast<int64_t>(N) - 1);
        if (Raw == static_cast<int64_t>(Id))
          Raw = (Id + 1 < N) ? Id + 1 : (Id > 0 ? Id - 1 : Id);
        if (Raw == static_cast<int64_t>(Id))
          continue; // Single-block universe: nothing to link to.
        Target = static_cast<SuperblockId>(Raw);
      }
      B.OutEdges.push_back(Target);
    }
  }
}

void TraceGenerator::generateAccesses(const WorkloadModel &Model, Trace &T) {
  const uint32_t N = Model.NumSuperblocks;
  const uint64_t TotalAccesses =
      std::max<uint64_t>(Model.effectiveNumAccesses(), N);
  const uint32_t Phases = std::max<uint32_t>(1, Model.NumPhases);
  const uint32_t Window = std::min<uint32_t>(
      N, std::max<uint32_t>(
             8, static_cast<uint32_t>(
                    std::llround(Model.WorkingSetFraction * N))));

  T.Accesses.reserve(TotalAccesses + N);

  // Inner repeats: mean total executions per visit is MeanInnerRepeats,
  // i.e. 1 + Geometric with mean (MeanInnerRepeats - 1).
  const double ExtraRepeats = std::max(0.0, Model.MeanInnerRepeats - 1.0);
  const GeometricSampler ExtraRepeat(1.0 / (1.0 + ExtraRepeats));
  const GeometricSampler Jitter(Model.OrderJitterGeoP);

  uint32_t Introduced = 0; // Ids [0, Introduced) have been discovered.
  std::vector<uint32_t> Order;
  std::vector<double> Hotness;

  for (uint32_t Phase = 0; Phase < Phases; ++Phase) {
    // Working-set window for this phase; windows advance monotonically
    // and the last one ends exactly at N so every block is discovered.
    uint32_t Start = 0;
    if (Phases > 1 && N > Window)
      Start = static_cast<uint32_t>(
          (static_cast<uint64_t>(Phase) * (N - Window)) / (Phases - 1));
    const uint32_t End = std::min(N, Start + Window);
    const uint32_t WsSize = End - Start;
    if (WsSize == 0)
      continue;

    // Discovery sweep: newly reached superblocks execute once, in
    // discovery order (this is what makes id order == creation order).
    for (; Introduced < End; ++Introduced)
      T.Accesses.push_back(Introduced);

    // Fixed per-phase visit order: discovery order with local jitter, so
    // consecutive visits stay roughly id-adjacent (chained code executes
    // in sequence) without being perfectly sequential.
    Order.resize(WsSize);
    std::iota(Order.begin(), Order.end(), Start);
    for (uint32_t I = 0; I + 1 < WsSize; ++I) {
      const uint32_t Jump = static_cast<uint32_t>(std::min<uint64_t>(
          Jitter.sample(R), WsSize - 1 - I));
      std::swap(Order[I], Order[I + Jump]);
    }

    // Per-block hotness: bimodal. Core blocks execute (almost) every
    // pass; tail blocks only occasionally (with a little jitter so the
    // tail is not uniform).
    Hotness.resize(WsSize);
    for (double &H : Hotness) {
      if (R.nextBool(Model.HotCoreFraction))
        H = Model.HotCoreProb;
      else
        H = Model.TailProb * (0.5 + R.nextDouble());
    }

    // Cyclic passes over the working set until this phase's share of the
    // budget is consumed. This is the key reuse pattern: a working set
    // larger than the cache makes *every* FIFO granularity thrash, while
    // one that fits rewards policies that avoid discarding it.
    const uint64_t PhaseBudget = TotalAccesses / Phases;
    uint64_t Emitted = 0;
    while (Emitted < PhaseBudget) {
      for (uint32_t I = 0; I < WsSize && Emitted < PhaseBudget; ++I) {
        if (!R.nextBool(Hotness[I]))
          continue;
        // Occasionally revisit old code outside the working set.
        if (R.nextBool(Model.ExcursionFraction)) {
          T.Accesses.push_back(
              static_cast<SuperblockId>(R.nextBelow(Introduced)));
          ++Emitted;
        }
        const uint64_t Repeats = 1 + ExtraRepeat.sample(R);
        for (uint64_t Rep = 0; Rep < Repeats && Emitted < PhaseBudget;
             ++Rep) {
          T.Accesses.push_back(Order[I]);
          ++Emitted;
        }
      }
    }
  }

  // Guarantee full discovery even under degenerate budgets.
  for (; Introduced < N; ++Introduced)
    T.Accesses.push_back(Introduced);
}

Trace TraceGenerator::generate(const WorkloadModel &Model) {
  Trace T;
  T.Name = Model.Name;
  generateBlocks(Model, T);
  generateLinks(Model, T);
  generateAccesses(Model, T);
  CCSIM_ASSERT(T.validate(), "generated trace must be structurally valid");
  return T;
}

Trace TraceGenerator::generateBenchmark(const WorkloadModel &Model,
                                        uint64_t SuiteSeed) {
  // Stable per-benchmark seed: mix the suite seed with the name hash so
  // regenerating one benchmark never perturbs the others.
  uint64_t Hash = 1469598103934665603ULL; // FNV-1a.
  for (char C : Model.Name) {
    Hash ^= static_cast<uint8_t>(C);
    Hash *= 1099511628211ULL;
  }
  TraceGenerator Gen(SuiteSeed ^ Hash);
  return Gen.generate(Model);
}
