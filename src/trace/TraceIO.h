//===- trace/TraceIO.h - Trace serialization -------------------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary serialization for traces. Mirrors the paper's practice
/// of saving DynamoRIO logs so experiments are exactly repeatable.
///
/// The `.cct` format, little-endian throughout: u32 magic "CCTR", u32
/// version 1, the name (u32 length, then its bytes), u32 block count, per
/// block its u32 size, u32 edge count and u32 edge targets, then a u64
/// access count and the u32 access ids running to the end of the image.
///
/// decodeTrace() is the one decoder: readTrace() (a file buffer),
/// deserializeTrace() (an in-memory image) and trace::MappedTrace (a
/// read-only mapping) all read through it, so every reader accepts and
/// rejects exactly the same images.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TRACE_TRACEIO_H
#define CCSIM_TRACE_TRACEIO_H

#include "support/BinaryIO.h"
#include "trace/Trace.h"

#include <optional>
#include <span>
#include <string>

namespace ccsim {

/// A `.cct` image that passed every check: the name and block table
/// decoded, the access stream left in place as little-endian u32 ids.
/// AccessBytes aliases the image it was decoded from.
struct DecodedTrace {
  std::string Name;
  std::vector<SuperblockDef> Blocks;
  std::span<const uint8_t> AccessBytes;

  size_t numAccesses() const { return AccessBytes.size() / 4; }
  SuperblockId idAt(size_t I) const {
    return loadU32LE(AccessBytes.data() + I * 4);
  }

  /// The access stream as ids.
  std::vector<SuperblockId> accesses() const;
};

/// Decodes the `.cct` image \p Image (a file buffer, an in-memory image
/// or a mapping). Returns std::nullopt unless the magic and version
/// match, the name fits, the block count is at most the remaining bytes
/// / 8 (checked before the table is allocated), every edge count fits,
/// the access count times 4 is exactly the remaining bytes, and the
/// trace passes validTrace().
std::optional<DecodedTrace> decodeTrace(std::span<const uint8_t> Image);

/// Writes \p T to \p Path. Returns false on I/O failure.
bool writeTrace(const Trace &T, const std::string &Path);

/// Reads a trace from \p Path. Returns std::nullopt on I/O failure or an
/// image decodeTrace() rejects.
std::optional<Trace> readTrace(const std::string &Path);

/// In-memory round-trip helpers (used by tests and by readTrace).
std::vector<uint8_t> serializeTrace(const Trace &T);
std::optional<Trace> deserializeTrace(std::vector<uint8_t> Bytes);

} // namespace ccsim

#endif // CCSIM_TRACE_TRACEIO_H
