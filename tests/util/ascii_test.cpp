#include "util/ascii.hpp"

#include <gtest/gtest.h>

namespace stellar::util {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"port", "share"});
  t.add_row({"443", "55.2"});
  t.add_row({"11211", "3.1"});
  const std::string out = t.str();
  EXPECT_NE(out.find("port  | share"), std::string::npos);
  EXPECT_NE(out.find("443   | 55.2"), std::string::npos);
  EXPECT_NE(out.find("11211 | 3.1"), std::string::npos);
}

TEST(TextTableTest, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-1.5, 1), "-1.5");
}

TEST(SeriesTableTest, AlignsSeries) {
  const std::string out =
      SeriesTable("t", {0.0, 1.0}, {{"a", {1.0, 2.0}}, {"b", {3.0, 4.0}}}, 1);
  EXPECT_NE(out.find("t"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("4.0"), std::string::npos);
}

TEST(SeriesTableTest, RejectsLengthMismatch) {
  EXPECT_THROW(SeriesTable("t", {0.0, 1.0}, {{"a", {1.0}}}), std::invalid_argument);
}

}  // namespace
}  // namespace stellar::util
