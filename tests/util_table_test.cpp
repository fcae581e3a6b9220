// Tests for table/CSV formatting and env helpers.
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/env.hpp"
#include "util/error.hpp"

namespace ramp {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t("Title");
  t.set_header({"app", "fit"});
  t.add_row({"gcc", "1234.5"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| app |"), std::string::npos);
  EXPECT_NE(s.find("gcc"), std::string::npos);
}

TEST(TextTableTest, RowWidthMismatchThrows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(TextTableTest, AddRowBeforeHeaderThrows) {
  TextTable t;
  EXPECT_THROW(t.add_row({"x"}), InvalidArgument);
}

TEST(TextTableTest, CsvEscapesSpecialCharacters) {
  TextTable t;
  t.set_header({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTableTest, CsvRoundtripSimple) {
  TextTable t;
  t.set_header({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "x,y\n1,2\n");
}

TEST(FormatTest, FixedDigits) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
}

TEST(FormatTest, FitSwitchesToScientific) {
  EXPECT_EQ(fmt_fit(1234.56), "1234.6");
  EXPECT_NE(fmt_fit(2.5e7).find("e"), std::string::npos);
}

TEST(FormatTest, PercentChange) {
  EXPECT_EQ(fmt_pct_change(4.16), "+316%");
  EXPECT_EQ(fmt_pct_change(0.5), "-50%");
}

TEST(EnvTest, U64ParsesAndFallsBack) {
  ::setenv("RAMP_TEST_U64", "123", 1);
  EXPECT_EQ(env_u64("RAMP_TEST_U64", 7), 123u);
  ::unsetenv("RAMP_TEST_U64");
  EXPECT_EQ(env_u64("RAMP_TEST_U64", 7), 7u);
}

TEST(EnvTest, U64RejectsGarbage) {
  ::setenv("RAMP_TEST_U64", "12abc", 1);
  EXPECT_THROW(env_u64("RAMP_TEST_U64", 0), InvalidArgument);
  ::unsetenv("RAMP_TEST_U64");
}

}  // namespace
}  // namespace ramp
