#include "ars/support/strings.hpp"

#include <gtest/gtest.h>

namespace ars::support {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nhello world\r "), "hello world");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWhitespaceDropsEmptyFields) {
  EXPECT_EQ(split_whitespace("  a  b\tc\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_whitespace("   ").empty());
  EXPECT_TRUE(split_whitespace("").empty());
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("rl_name: x", "rl_name"));
  EXPECT_FALSE(starts_with("rl", "rl_name"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(Strings, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("Free", "FREE"));
  EXPECT_TRUE(iequals("overloaded", "OverLoaded"));
  EXPECT_FALSE(iequals("busy", "busyy"));
  EXPECT_FALSE(iequals("busy", "bus"));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("ESTABLISHED"), "established");
  EXPECT_EQ(to_lower("MiXeD123"), "mixed123");
}

TEST(Strings, ParseDoubleAcceptsOnlyCompleteNumbers) {
  EXPECT_EQ(parse_double("45"), 45.0);
  EXPECT_EQ(parse_double(" 2.52 "), 2.52);
  EXPECT_EQ(parse_double("-1.5"), -1.5);
  EXPECT_FALSE(parse_double("45x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("one").has_value());
}

TEST(Strings, ParseIntAcceptsOnlyCompleteIntegers) {
  EXPECT_EQ(parse_int("700"), 700);
  EXPECT_EQ(parse_int(" -3 "), -3);
  EXPECT_FALSE(parse_int("7.5").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12abc").has_value());
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(983.6, 1), "983.6");
  EXPECT_EQ(format_fixed(0.002, 3), "0.002");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
}

}  // namespace
}  // namespace ars::support
