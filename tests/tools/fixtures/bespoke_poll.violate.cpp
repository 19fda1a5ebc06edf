// Fixture: cancellation.bespoke-poll must fire on every hand-rolled
// CancelToken poll in src/ -- through a pointer and through a reference.
// Never compiled; read as text by CcsimLintTest.
#include "support/Cancellation.h"

void replayAll(ccsim::CancelToken *Cancel, ccsim::CancelToken &Deadline,
               size_t N) {
  for (size_t I = 0; I < N; ++I) {
    if (I % 64 == 0)
      Cancel->throwIfStopped([] { return std::string("replay"); });
    Deadline.throwIfStopped ([] { return std::string("replay"); });
  }
}
