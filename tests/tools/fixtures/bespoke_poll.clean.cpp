// Fixture: a replay loop that walks its stream through sim::forEachChunk
// must NOT trip cancellation.bespoke-poll, and neither must a mention of
// throwIfStopped( in a comment or a string, nor a token query that is
// not the poll.
// Never compiled; read as text by CcsimLintTest.
#include "sim/Simulator.h"

void replayAll(ccsim::CacheEngine &Engine, const ccsim::Trace &T,
               ccsim::CancelToken *Cancel) {
  const size_t N = T.numAccesses();
  ccsim::sim::forEachChunk(0, N, N, Cancel, "replay of ", T.name(),
                           [&](size_t Begin, size_t End) {
                             for (size_t I = Begin; I < End; ++I)
                               Engine.access(T.recordFor(T.idAt(I)));
                           });
  const char *Doc = "forEachChunk calls throwIfStopped(Where) per chunk";
  (void)Doc;
  if (Cancel && Cancel->stopReason())
    return;
}
