#include "bgp/wire.hpp"

#include <gtest/gtest.h>

namespace stellar::bgp {
namespace {

TEST(ByteWriterTest, BigEndianEncoding) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  const std::vector<std::uint8_t> expected{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                                           0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  EXPECT_EQ(w.data(), expected);
}

TEST(ByteWriterTest, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u8(0xaa);
  w.patch_u16(0, 0x1234);
  EXPECT_EQ(w.data(), (std::vector<std::uint8_t>{0x12, 0x34, 0xaa}));
}

TEST(ByteWriterTest, PatchOutOfRangeThrows) {
  ByteWriter w;
  w.u8(0);
  EXPECT_THROW(w.patch_u16(5, 1), std::out_of_range);
}

TEST(ByteReaderTest, ReadsBackWhatWriterWrote) {
  ByteWriter w;
  w.u8(7);
  w.u16(300);
  w.u32(70000);
  w.u64(1ULL << 40);
  ByteReader r(w.data());
  EXPECT_EQ(*r.u8(), 7);
  EXPECT_EQ(*r.u16(), 300);
  EXPECT_EQ(*r.u32(), 70000u);
  EXPECT_EQ(*r.u32(), 1u << 8);  // The u64 written big-endian: high word, then low.
  EXPECT_EQ(*r.u32(), 0u);
  EXPECT_TRUE(r.empty());
}

TEST(ByteReaderTest, TruncationIsAnErrorNotUb) {
  const std::vector<std::uint8_t> buf{0x01};
  ByteReader r(buf);
  EXPECT_FALSE(r.u16().ok());
  // The failed read must not consume anything.
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_TRUE(r.u8().ok());
  EXPECT_FALSE(r.u8().ok());
}

TEST(ByteReaderTest, SubReaderScopesBytes) {
  const std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  ByteReader r(buf);
  auto sub = r.sub(3);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->remaining(), 3u);
  EXPECT_EQ(*sub->u8(), 1);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(*r.u8(), 4);
}

TEST(ByteReaderTest, SubTooLargeFails) {
  const std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  EXPECT_FALSE(r.sub(3).ok());
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(ByteReaderTest, BytesExact) {
  const std::vector<std::uint8_t> buf{9, 8, 7};
  ByteReader r(buf);
  auto v = r.bytes(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (std::vector<std::uint8_t>{9, 8}));
  EXPECT_EQ(r.remaining(), 1u);
}

}  // namespace
}  // namespace stellar::bgp
