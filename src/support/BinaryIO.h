//===- support/BinaryIO.h - Little-endian binary stream I/O --------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The little-endian codec under the `.cct` trace format: a writer over a
/// file or a memory buffer, one reader cursor over bytes it does not own
/// (a file buffer, an in-memory image or a read-only mapping), and the
/// one helper that reads a whole file. The paper saves its DynamoRIO logs
/// so experiments replay exactly (Section 4.1); trace/TraceIO encodes and
/// decodes them through these. No exceptions: errors latch a failure
/// flag that callers must check.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SUPPORT_BINARYIO_H
#define CCSIM_SUPPORT_BINARYIO_H

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ccsim {

/// The little-endian u32 at \p P (no alignment needed).
inline uint32_t loadU32LE(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

/// Buffered little-endian binary writer. A file writer gathers bytes in
/// one buffer and hands the stream a whole buffer at a time, so a
/// writeU32 costs a few stores, not an fwrite.
class BinaryWriter {
public:
  /// Opens \p Path for writing. Check ok() before use.
  explicit BinaryWriter(const std::string &Path);

  /// Writes into an in-memory buffer instead of a file.
  BinaryWriter();

  ~BinaryWriter();

  BinaryWriter(const BinaryWriter &) = delete;
  BinaryWriter &operator=(const BinaryWriter &) = delete;

  bool ok() const { return !Failed; }

  void writeU32(uint32_t V);
  void writeU64(uint64_t V);
  /// A u32 length, then the bytes.
  void writeString(const std::string &S);

  /// Writes out the buffer and closes the file (no-op for memory
  /// writers). Returns ok(). The destructor does the same for a writer
  /// that was not finished.
  bool finish();

  /// For memory writers: the accumulated bytes.
  const std::vector<uint8_t> &buffer() const { return Memory; }

private:
  /// A file writer hands the stream its buffer once it holds this much.
  static constexpr size_t FlushBytes = size_t{1} << 16;

  FILE *Stream = nullptr;
  std::vector<uint8_t> Memory; // The whole image, or a file's unwritten tail.
  bool ToMemory = false;
  bool Failed = false;

  void writeBytes(const void *Data, size_t Size);
  void flushToStream();
};

/// Little-endian cursor over bytes it does not own; they must outlive it.
/// A read past the end latches the failure flag and returns zeros.
class BinaryReader {
public:
  explicit BinaryReader(std::span<const uint8_t> Bytes) : Bytes(Bytes) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return Bytes.size() - Cursor; }

  uint32_t readU32();
  uint64_t readU64();
  std::string readString();

  /// The next \p Size bytes, in place (empty when fewer remain).
  std::span<const uint8_t> readSpan(size_t Size);

private:
  std::span<const uint8_t> Bytes;
  size_t Cursor = 0;
  bool Failed = false;
};

/// The whole of \p Path, or std::nullopt when it cannot be read.
std::optional<std::vector<uint8_t>> readFileBytes(const std::string &Path);

} // namespace ccsim

#endif // CCSIM_SUPPORT_BINARYIO_H
