//===- trace/TraceIO.cpp - Trace serialization ------------------------------===//

#include "trace/TraceIO.h"

using namespace ccsim;

namespace {
constexpr uint32_t TraceMagic = 0x43435452; // "CCTR"
constexpr uint32_t TraceVersion = 1;
} // namespace

static void writeTracePayload(BinaryWriter &W, const Trace &T) {
  W.writeU32(TraceMagic);
  W.writeU32(TraceVersion);
  W.writeString(T.Name);
  W.writeU32(static_cast<uint32_t>(T.Blocks.size()));
  for (const SuperblockDef &B : T.Blocks) {
    W.writeU32(B.SizeBytes);
    W.writeU32(static_cast<uint32_t>(B.OutEdges.size()));
    for (SuperblockId Edge : B.OutEdges)
      W.writeU32(Edge);
  }
  W.writeU64(T.Accesses.size());
  for (SuperblockId Id : T.Accesses)
    W.writeU32(Id);
}

std::vector<SuperblockId> DecodedTrace::accesses() const {
  std::vector<SuperblockId> Ids(numAccesses());
  for (size_t I = 0; I < Ids.size(); ++I)
    Ids[I] = idAt(I);
  return Ids;
}

std::optional<DecodedTrace>
ccsim::decodeTrace(std::span<const uint8_t> Image) {
  BinaryReader R(Image);
  if (R.readU32() != TraceMagic || R.readU32() != TraceVersion)
    return std::nullopt;
  DecodedTrace T;
  T.Name = R.readString();
  // A block record takes at least 8 bytes (size and edge count), so a
  // count the rest of the image cannot hold is refused before the table
  // is allocated.
  const uint32_t NumBlocks = R.readU32();
  if (!R.ok() || NumBlocks > R.remaining() / 8)
    return std::nullopt;
  T.Blocks.resize(NumBlocks);
  for (SuperblockDef &B : T.Blocks) {
    B.SizeBytes = R.readU32();
    const uint32_t NumEdges = R.readU32();
    if (!R.ok() || NumEdges > R.remaining() / 4)
      return std::nullopt;
    B.OutEdges.resize(NumEdges);
    for (SuperblockId &Edge : B.OutEdges)
      Edge = R.readU32();
  }
  // The access stream runs exactly to the end of the image: trailing
  // bytes mean the payload and the container disagree about where the
  // trace ends, which is corruption, not padding.
  const uint64_t NumAccesses = R.readU64();
  if (!R.ok() || NumAccesses > R.remaining() / 4 ||
      NumAccesses * 4 != R.remaining())
    return std::nullopt;
  T.AccessBytes = R.readSpan(R.remaining());
  if (!validTrace(T.Blocks, T))
    return std::nullopt;
  return T;
}

bool ccsim::writeTrace(const Trace &T, const std::string &Path) {
  BinaryWriter W(Path);
  if (!W.ok())
    return false;
  writeTracePayload(W, T);
  return W.finish();
}

std::optional<Trace> ccsim::readTrace(const std::string &Path) {
  std::optional<std::vector<uint8_t>> Bytes = readFileBytes(Path);
  if (!Bytes)
    return std::nullopt;
  return deserializeTrace(std::move(*Bytes));
}

std::vector<uint8_t> ccsim::serializeTrace(const Trace &T) {
  BinaryWriter W;
  writeTracePayload(W, T);
  return W.buffer();
}

std::optional<Trace> ccsim::deserializeTrace(std::vector<uint8_t> Bytes) {
  std::optional<DecodedTrace> Image = decodeTrace(Bytes);
  if (!Image)
    return std::nullopt;
  return Trace{std::move(Image->Name), std::move(Image->Blocks),
               Image->accesses()};
}
