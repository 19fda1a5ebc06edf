//===- tests/support/BinaryIOTest.cpp - Binary stream I/O tests -----------===//

#include "support/BinaryIO.h"

#include "gtest/gtest.h"

#include <cstdio>

using namespace ccsim;

TEST(BinaryIOTest, MemoryRoundTripAllTypes) {
  BinaryWriter W;
  W.writeU32(0xdeadbeef);
  W.writeU64(0x0123456789abcdefULL);
  W.writeString("hello world");
  ASSERT_TRUE(W.ok());

  BinaryReader R(W.buffer());
  EXPECT_EQ(R.readU32(), 0xdeadbeefu);
  EXPECT_EQ(R.readU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(R.readString(), "hello world");
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(BinaryIOTest, LittleEndianLayout) {
  BinaryWriter W;
  W.writeU32(0x01020304);
  ASSERT_EQ(W.buffer().size(), 4u);
  EXPECT_EQ(W.buffer()[0], 0x04);
  EXPECT_EQ(W.buffer()[3], 0x01);
}

TEST(BinaryIOTest, FileRoundTrip) {
  const std::string Path = ::testing::TempDir() + "/ccsim_binio_test.bin";
  {
    BinaryWriter W(Path);
    ASSERT_TRUE(W.ok());
    W.writeU64(42);
    W.writeString("file");
    EXPECT_TRUE(W.finish());
  }
  const auto Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes.has_value());
  BinaryReader R(*Bytes);
  EXPECT_EQ(R.readU64(), 42u);
  EXPECT_EQ(R.readString(), "file");
  EXPECT_TRUE(R.ok());
  std::remove(Path.c_str());
}

TEST(BinaryIOTest, MissingFileFails) {
  EXPECT_FALSE(readFileBytes("/nonexistent/path/definitely_missing.bin"));
}

TEST(BinaryIOTest, TruncatedReadSetsFailure) {
  const std::vector<uint8_t> Bytes = {7, 0, 0, 0, 1, 2};
  BinaryReader R(Bytes);
  EXPECT_EQ(R.readU32(), 7u);
  EXPECT_EQ(R.readU32(), 0u); // Two bytes left.
  EXPECT_FALSE(R.ok());
}

TEST(BinaryIOTest, TruncatedStringFails) {
  BinaryWriter W;
  W.writeU32(100); // Claims 100 bytes follow; none do.
  BinaryReader R(W.buffer());
  (void)R.readString();
  EXPECT_FALSE(R.ok());
}

TEST(BinaryIOTest, EmptyString) {
  BinaryWriter W;
  W.writeString("");
  BinaryReader R(W.buffer());
  EXPECT_EQ(R.readString(), "");
  EXPECT_TRUE(R.ok());
}

TEST(BinaryIOTest, ReadSpanAliasesTheBytes) {
  const std::vector<uint8_t> Bytes = {1, 2, 3, 4};
  BinaryReader R(Bytes);
  const std::span<const uint8_t> Head = R.readSpan(3);
  ASSERT_EQ(Head.size(), 3u);
  EXPECT_EQ(Head.data(), Bytes.data()); // In place, not copied.
  EXPECT_EQ(Head[2], 3);
  EXPECT_TRUE(R.readSpan(2).empty()); // One byte left.
  EXPECT_FALSE(R.ok());
}

TEST(BinaryIOTest, RemainingTracksCursor) {
  BinaryWriter W;
  W.writeU32(1);
  W.writeU32(2);
  BinaryReader R(W.buffer());
  EXPECT_EQ(R.remaining(), 8u);
  (void)R.readU32();
  EXPECT_EQ(R.remaining(), 4u);
}
