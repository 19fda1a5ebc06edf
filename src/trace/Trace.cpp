//===- trace/Trace.cpp - Superblock dispatch traces ------------------------===//

#include "trace/Trace.h"
#include "support/Contracts.h"

using namespace ccsim;

uint64_t Trace::maxCacheBytes() const {
  uint64_t Total = 0;
  for (const SuperblockDef &B : Blocks)
    Total += B.SizeBytes;
  return Total;
}

SuperblockRecord Trace::recordFor(SuperblockId Id) const {
  CCSIM_ASSERT(Id < Blocks.size(), "superblock id out of range");
  SuperblockRecord Rec;
  Rec.Id = Id;
  Rec.SizeBytes = Blocks[Id].SizeBytes;
  Rec.OutEdges = std::span<const SuperblockId>(Blocks[Id].OutEdges);
  return Rec;
}

std::vector<double> Trace::sizesAsDoubles() const {
  std::vector<double> Sizes;
  Sizes.reserve(Blocks.size());
  for (const SuperblockDef &B : Blocks)
    Sizes.push_back(static_cast<double>(B.SizeBytes));
  return Sizes;
}

double Trace::meanOutDegree() const {
  if (Blocks.empty())
    return 0.0;
  uint64_t Total = 0;
  for (const SuperblockDef &B : Blocks)
    Total += B.OutEdges.size();
  return static_cast<double>(Total) / static_cast<double>(Blocks.size());
}

bool Trace::validate() const { return validTrace(Blocks, *this); }
