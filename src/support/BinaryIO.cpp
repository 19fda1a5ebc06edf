//===- support/BinaryIO.cpp - Little-endian binary stream I/O ------------===//

#include "support/BinaryIO.h"

using namespace ccsim;

BinaryWriter::BinaryWriter(const std::string &Path) {
  Stream = std::fopen(Path.c_str(), "wb");
  if (!Stream)
    Failed = true;
}

BinaryWriter::BinaryWriter() : ToMemory(true) {}

BinaryWriter::~BinaryWriter() { finish(); }

void BinaryWriter::writeBytes(const void *Data, size_t Size) {
  if (Failed || Size == 0)
    return;
  const auto *P = static_cast<const uint8_t *>(Data);
  Memory.insert(Memory.end(), P, P + Size);
  if (!ToMemory && Memory.size() >= FlushBytes)
    flushToStream();
}

void BinaryWriter::flushToStream() {
  if (!Failed && !Memory.empty() &&
      std::fwrite(Memory.data(), 1, Memory.size(), Stream) != Memory.size())
    Failed = true;
  Memory.clear();
}

void BinaryWriter::writeU32(uint32_t V) {
  uint8_t Buf[4];
  for (int I = 0; I < 4; ++I)
    Buf[I] = static_cast<uint8_t>(V >> (8 * I));
  writeBytes(Buf, sizeof(Buf));
}

void BinaryWriter::writeU64(uint64_t V) {
  uint8_t Buf[8];
  for (int I = 0; I < 8; ++I)
    Buf[I] = static_cast<uint8_t>(V >> (8 * I));
  writeBytes(Buf, sizeof(Buf));
}

void BinaryWriter::writeString(const std::string &S) {
  writeU32(static_cast<uint32_t>(S.size()));
  writeBytes(S.data(), S.size());
}

bool BinaryWriter::finish() {
  if (Stream) {
    flushToStream();
    if (std::fclose(Stream) != 0)
      Failed = true;
    Stream = nullptr;
  }
  return ok();
}

std::span<const uint8_t> BinaryReader::readSpan(size_t Size) {
  if (Failed || Size > remaining()) {
    Failed = true;
    return {};
  }
  const std::span<const uint8_t> Out = Bytes.subspan(Cursor, Size);
  Cursor += Size;
  return Out;
}

uint32_t BinaryReader::readU32() {
  const std::span<const uint8_t> P = readSpan(4);
  return P.empty() ? 0 : loadU32LE(P.data());
}

uint64_t BinaryReader::readU64() {
  const uint64_t Lo = readU32();
  const uint64_t Hi = readU32();
  return Lo | (Hi << 32);
}

std::string BinaryReader::readString() {
  const std::span<const uint8_t> S = readSpan(readU32());
  return std::string(S.begin(), S.end());
}

std::optional<std::vector<uint8_t>>
ccsim::readFileBytes(const std::string &Path) {
  FILE *Stream = std::fopen(Path.c_str(), "rb");
  if (!Stream)
    return std::nullopt;
  std::vector<uint8_t> Bytes;
  bool Ok = std::fseek(Stream, 0, SEEK_END) == 0;
  const long End = Ok ? std::ftell(Stream) : -1;
  Ok = Ok && End >= 0 && std::fseek(Stream, 0, SEEK_SET) == 0;
  if (Ok) {
    Bytes.resize(static_cast<size_t>(End));
    Ok = Bytes.empty() ||
         std::fread(Bytes.data(), 1, Bytes.size(), Stream) == Bytes.size();
  }
  std::fclose(Stream);
  if (!Ok)
    return std::nullopt;
  return Bytes;
}
