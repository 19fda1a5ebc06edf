//===- trace/MappedTrace.h - Zero-copy mapped trace streaming -------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-copy access to on-disk trace files. readTrace() copies the whole
/// access stream -- typically the bulk of the file by orders of magnitude
/// -- into a std::vector before the first event is replayed. MappedTrace
/// instead maps the file read-only and decodes accesses straight out of
/// the mapping: the block table (small) is decoded eagerly into the same
/// SuperblockDef records the rest of the system uses, while the access
/// stream stays on disk and is paged in by the kernel as the replay
/// walks it.
///
/// On platforms without mmap (or when ForceFallback is set, which the
/// tests use to cover the path), open() degrades to reading the file
/// into an owned buffer -- same interface, one copy, still no second
/// materialization of the access vector.
///
/// open() decodes through the one decoder, decodeTrace() (TraceIO.h), so
/// it accepts exactly the files readTrace() accepts. A MappedTrace that
/// opened successfully can be streamed without per-access checks.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TRACE_MAPPEDTRACE_H
#define CCSIM_TRACE_MAPPEDTRACE_H

#include "trace/TraceIO.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ccsim::trace {

/// A read-only trace backed by a file mapping (or an owned fallback
/// buffer). Movable, not copyable; the mapping lives as long as the
/// object, and records returned by recordFor() alias the decoded block
/// table exactly like Trace::recordFor().
class MappedTrace {
public:
  MappedTrace(MappedTrace &&Other) noexcept;
  MappedTrace &operator=(MappedTrace &&Other) noexcept;
  MappedTrace(const MappedTrace &) = delete;
  MappedTrace &operator=(const MappedTrace &) = delete;

  /// Maps and validates \p Path. Returns nullopt for unreadable,
  /// corrupt, or truncated files. \p ForceFallback skips mmap and reads
  /// the file into memory (tests exercise the non-mmap path with it).
  static std::optional<MappedTrace> open(const std::string &Path,
                                         bool ForceFallback = false);

  const std::string &name() const { return Image.Name; }
  size_t numSuperblocks() const { return Image.Blocks.size(); }
  size_t numAccesses() const { return Image.numAccesses(); }

  /// The paper's maxCache term: total translated bytes (Section 4.2).
  uint64_t maxCacheBytes() const { return MaxCacheBytes; }

  /// Decodes access \p I from the mapped stream. \p I < numAccesses().
  SuperblockId idAt(size_t I) const { return Image.idAt(I); }

  /// Per-access record for \p Id; the edge span aliases this object.
  SuperblockRecord recordFor(SuperblockId Id) const;

  const std::vector<SuperblockDef> &blocks() const { return Image.Blocks; }

  /// True when the access stream is served by an actual file mapping
  /// (false on the owned-buffer fallback).
  bool isMapped() const { return Map != nullptr; }

  /// Materializes a plain Trace (copies the access stream). For callers
  /// that need the owning form, e.g. to forward into job payloads.
  Trace toTrace() const;

private:
  MappedTrace() = default;

  /// munmap()s a mapping of Length bytes.
  struct Unmapper {
    size_t Length;
    void operator()(void *Base) const;
  };

  /// The decoded image; its access stream points into Map or Fallback.
  DecodedTrace Image;
  uint64_t MaxCacheBytes = 0;
  std::unique_ptr<void, Unmapper> Map; ///< Null on the fallback path.
  std::vector<uint8_t> Fallback;       ///< Owned bytes when not mapped.
};

} // namespace ccsim::trace

#endif // CCSIM_TRACE_MAPPEDTRACE_H
