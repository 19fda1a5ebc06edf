//===- trace/MappedTrace.cpp - Zero-copy mapped trace streaming -----------===//

#include "trace/MappedTrace.h"

#include "support/Contracts.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define CCSIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CCSIM_HAVE_MMAP 0
#endif

using namespace ccsim;
using namespace ccsim::trace;

void MappedTrace::Unmapper::operator()(void *Base) const {
#if CCSIM_HAVE_MMAP
  ::munmap(Base, Length);
#else
  (void)Base;
#endif
}

MappedTrace::MappedTrace(MappedTrace &&Other) noexcept {
  *this = std::move(Other);
}

MappedTrace &MappedTrace::operator=(MappedTrace &&Other) noexcept {
  if (this != &Other) {
    // The moved-from object keeps no span into the bytes it gave away.
    Image = std::exchange(Other.Image, {});
    MaxCacheBytes = Other.MaxCacheBytes;
    Map = std::move(Other.Map);
    Fallback = std::move(Other.Fallback);
  }
  return *this;
}

std::optional<MappedTrace> MappedTrace::open(const std::string &Path,
                                             bool ForceFallback) {
  MappedTrace T;
  std::span<const uint8_t> Bytes;
#if CCSIM_HAVE_MMAP
  if (!ForceFallback) {
    const int Fd = ::open(Path.c_str(), O_RDONLY);
    if (Fd >= 0) {
      struct stat St;
      if (::fstat(Fd, &St) == 0 && St.st_size > 0) {
        const auto Length = static_cast<size_t>(St.st_size);
        void *Base = ::mmap(nullptr, Length, PROT_READ, MAP_PRIVATE, Fd, 0);
        if (Base != MAP_FAILED) {
          T.Map = std::unique_ptr<void, Unmapper>(Base, Unmapper{Length});
          Bytes = {static_cast<const uint8_t *>(Base), Length};
        }
      }
      ::close(Fd);
    }
  }
#else
  (void)ForceFallback;
#endif
  if (!T.Map) {
    std::optional<std::vector<uint8_t>> Read = readFileBytes(Path);
    if (!Read)
      return std::nullopt;
    T.Fallback = std::move(*Read);
    Bytes = T.Fallback;
  }

  std::optional<DecodedTrace> Decoded = decodeTrace(Bytes);
  if (!Decoded)
    return std::nullopt;
  T.Image = std::move(*Decoded);
  for (const SuperblockDef &B : T.Image.Blocks)
    T.MaxCacheBytes += B.SizeBytes;
  return T;
}

SuperblockRecord MappedTrace::recordFor(SuperblockId Id) const {
  CCSIM_ASSERT(Id < Image.Blocks.size(), "superblock id out of range");
  SuperblockRecord Rec;
  Rec.Id = Id;
  Rec.SizeBytes = Image.Blocks[Id].SizeBytes;
  Rec.OutEdges = std::span<const SuperblockId>(Image.Blocks[Id].OutEdges);
  return Rec;
}

Trace MappedTrace::toTrace() const {
  return Trace{Image.Name, Image.Blocks, Image.accesses()};
}
