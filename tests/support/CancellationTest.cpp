//===- tests/support/CancellationTest.cpp - The one stop conversion -------===//
//
// CancelToken::throwIfStopped is the single place a replay loop turns a
// stop request into ReplayCancelled; these tests pin its message shape,
// its laziness on the path that does not stop, and the timed-out rule.
//
//===----------------------------------------------------------------------===//

#include "support/Cancellation.h"

#include "gtest/gtest.h"

#include <chrono>
#include <string>

using namespace ccsim;

TEST(CancellationTest, APollThatDoesNotStopBuildsNoMessage) {
  CancelToken Token;
  bool Built = false;
  Token.throwIfStopped([&] {
    Built = true;
    return std::string("unused");
  });
  EXPECT_FALSE(Built);
  EXPECT_FALSE(Token.timedOut());
}

TEST(CancellationTest, CancelThrowsWithTheReasonAppended) {
  CancelToken Token;
  Token.requestCancel();
  try {
    Token.throwIfStopped([] {
      return std::string("replay of x stopped after 3 of 9 accesses");
    });
    FAIL() << "a cancelled token must throw";
  } catch (const ReplayCancelled &RC) {
    EXPECT_STREQ(RC.what(),
                 "replay of x stopped after 3 of 9 accesses: cancelled");
    EXPECT_FALSE(RC.TimedOut);
  }
}

TEST(CancellationTest, ExpiredDeadlineTimesOutUnlessACancelWins) {
  CancelToken Token;
  Token.setDeadline(std::chrono::steady_clock::now() -
                    std::chrono::seconds(1));
  EXPECT_TRUE(Token.timedOut());
  try {
    Token.throwIfStopped([] { return std::string("sweep"); });
    FAIL() << "an expired deadline must throw";
  } catch (const ReplayCancelled &RC) {
    EXPECT_STREQ(RC.what(), "sweep: deadline expired");
    EXPECT_TRUE(RC.TimedOut);
  }
  // An explicit cancellation wins over the expired deadline.
  Token.requestCancel();
  EXPECT_FALSE(Token.timedOut());
  EXPECT_STREQ(Token.stopReason(), "cancelled");
}
