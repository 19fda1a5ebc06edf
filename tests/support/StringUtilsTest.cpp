//===- tests/support/StringUtilsTest.cpp - Formatting helper tests --------===//

#include "support/StringUtils.h"

#include "gtest/gtest.h"

using namespace ccsim;

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
  EXPECT_EQ(formatDouble(-1.5, 1), "-1.5");
}

TEST(StringUtilsTest, FormatPercent) {
  EXPECT_EQ(formatPercent(0.243, 1), "24.3%");
  EXPECT_EQ(formatPercent(1.0, 0), "100%");
  EXPECT_EQ(formatPercent(0.0), "0.0%");
}

TEST(StringUtilsTest, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(171 * 1024), "171.0 KB");
  EXPECT_EQ(formatBytes(static_cast<uint64_t>(34.2 * 1024 * 1024)),
            "34.2 MB");
  EXPECT_EQ(formatBytes(0), "0 B");
}

TEST(StringUtilsTest, FormatWithCommas) {
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(1000), "1,000");
  EXPECT_EQ(formatWithCommas(18043), "18,043");
  EXPECT_EQ(formatWithCommas(1234567890), "1,234,567,890");
}

TEST(StringUtilsTest, Padding) {
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("abcdef", 3), "abcdef");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(StringUtilsTest, SplitListDropsEmptyEntries) {
  EXPECT_EQ(splitList("gzip,vpr,crafty"),
            (std::vector<std::string>{"gzip", "vpr", "crafty"}));
  EXPECT_EQ(splitList(",flush,,8,"),
            (std::vector<std::string>{"flush", "8"}));
  EXPECT_TRUE(splitList("").empty());
  EXPECT_TRUE(splitList(",,").empty());
}
