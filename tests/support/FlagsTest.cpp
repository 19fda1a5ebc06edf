//===- tests/support/FlagsTest.cpp - Flag parser tests ---------------------===//

#include "support/Flags.h"

#include "gtest/gtest.h"

using namespace ccsim;

namespace {

FlagSet makeSet() {
  FlagSet Flags("test program");
  Flags.addInt("count", 10, "A count.");
  Flags.addDouble("ratio", 0.5, "A ratio.");
  Flags.addString("name", "default", "A name.");
  Flags.addBool("verbose", false, "Verbosity.");
  return Flags;
}

bool parse(FlagSet &Flags, std::initializer_list<const char *> Args) {
  std::vector<const char *> Argv = {"prog"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return Flags.parse(static_cast<int>(Argv.size()), Argv.data());
}

} // namespace

TEST(FlagsTest, DefaultsWithoutArguments) {
  FlagSet Flags = makeSet();
  EXPECT_TRUE(parse(Flags, {}));
  EXPECT_EQ(Flags.getInt("count"), 10);
  EXPECT_DOUBLE_EQ(Flags.getDouble("ratio"), 0.5);
  EXPECT_EQ(Flags.getString("name"), "default");
  EXPECT_FALSE(Flags.getBool("verbose"));
}

TEST(FlagsTest, EqualsSyntax) {
  FlagSet Flags = makeSet();
  EXPECT_TRUE(parse(Flags, {"--count=42", "--ratio=1.25", "--name=abc",
                            "--verbose=true"}));
  EXPECT_EQ(Flags.getInt("count"), 42);
  EXPECT_DOUBLE_EQ(Flags.getDouble("ratio"), 1.25);
  EXPECT_EQ(Flags.getString("name"), "abc");
  EXPECT_TRUE(Flags.getBool("verbose"));
}

TEST(FlagsTest, SpaceSyntax) {
  FlagSet Flags = makeSet();
  EXPECT_TRUE(parse(Flags, {"--count", "7", "--name", "xyz"}));
  EXPECT_EQ(Flags.getInt("count"), 7);
  EXPECT_EQ(Flags.getString("name"), "xyz");
}

TEST(FlagsTest, BareBoolSetsTrue) {
  FlagSet Flags = makeSet();
  EXPECT_TRUE(parse(Flags, {"--verbose"}));
  EXPECT_TRUE(Flags.getBool("verbose"));
}

TEST(FlagsTest, BoolExplicitFalse) {
  FlagSet Flags("p");
  Flags.addBool("on", true, "x");
  std::vector<const char *> Argv = {"prog", "--on=false"};
  EXPECT_TRUE(Flags.parse(2, Argv.data()));
  EXPECT_FALSE(Flags.getBool("on"));
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagSet Flags = makeSet();
  EXPECT_FALSE(parse(Flags, {"--bogus=1"}));
}

TEST(FlagsTest, BadIntValueFails) {
  FlagSet Flags = makeSet();
  EXPECT_FALSE(parse(Flags, {"--count=abc"}));
}

TEST(FlagsTest, BadDoubleValueFails) {
  FlagSet Flags = makeSet();
  EXPECT_FALSE(parse(Flags, {"--ratio=xyz"}));
}

TEST(FlagsTest, MissingValueFails) {
  FlagSet Flags = makeSet();
  EXPECT_FALSE(parse(Flags, {"--count"}));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  FlagSet Flags = makeSet();
  EXPECT_TRUE(parse(Flags, {"file1", "--count=2", "file2"}));
  ASSERT_EQ(Flags.positional().size(), 2u);
  EXPECT_EQ(Flags.positional()[0], "file1");
  EXPECT_EQ(Flags.positional()[1], "file2");
}

TEST(FlagsTest, HelpReturnsFalse) {
  FlagSet Flags = makeSet();
  EXPECT_FALSE(parse(Flags, {"--help"}));
}

TEST(FlagsTest, NegativeInt) {
  FlagSet Flags = makeSet();
  EXPECT_TRUE(parse(Flags, {"--count=-5"}));
  EXPECT_EQ(Flags.getInt("count"), -5);
}

TEST(FlagsTest, UsageListsFlagsAndDefaults) {
  FlagSet Flags = makeSet();
  const std::string Usage = Flags.usage();
  EXPECT_NE(Usage.find("--count"), std::string::npos);
  EXPECT_NE(Usage.find("default: 10"), std::string::npos);
  EXPECT_NE(Usage.find("A ratio."), std::string::npos);
}

TEST(FlagsTest, BoundedIntFlagAcceptsTheRangeAndNamesItOtherwise) {
  FlagSet Flags = makeSet();
  std::string Error;
  EXPECT_TRUE(parse(Flags, {"--count=3"}));
  EXPECT_EQ(boundedIntFlag(Flags, "count", 1, 3, &Error), 3);
  EXPECT_TRUE(Error.empty());

  EXPECT_TRUE(parse(Flags, {"--count=-1"}));
  EXPECT_EQ(boundedIntFlag(Flags, "count", 0, 9, &Error), std::nullopt);
  EXPECT_EQ(Error, "bad count -1 (need 0..9)");
  EXPECT_EQ(boundedIntFlag(Flags, "count", 0, 9, nullptr), std::nullopt);
}
