// Tests of the shared strict lexer (sim/text.hpp).
#include "sim/text.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace iosim::lex {
namespace {

TEST(Lex, TrimStripsSpaceTabAndCrOnly) {
  EXPECT_EQ(trim(" \t\rkey = v \r\t "), "key = v");
  EXPECT_EQ(trim("\n x \n"), "\n x \n");
  EXPECT_EQ(trim("   "), "");
}

TEST(Lex, SplitKeepsEmptyAndUntrimmedPieces) {
  EXPECT_EQ(split("a, b,,c", ','),
            (std::vector<std::string_view>{"a", " b", "", "c"}));
  EXPECT_EQ(split("", ';'), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split("x;", ';'), (std::vector<std::string_view>{"x", ""}));
}

TEST(Lex, SplitKeyValueAtFirstEquals) {
  const auto kv = split_key_value("meta=policy=ucb");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->key, "meta");
  EXPECT_EQ(kv->value, "policy=ucb");
  const auto empty = split_key_value("k=");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->value, "");
  EXPECT_FALSE(split_key_value("no equals").has_value());
}

TEST(Lex, LineReaderSkipsCommentsAndBlanksAndCountsEveryLine) {
  LineReader lines("# head\n\n a=1 # tail\r\n  \t\nb=2");
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line(), "a=1");
  EXPECT_EQ(lines.number(), 3);
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.line(), "b=2");
  EXPECT_EQ(lines.number(), 5);
  EXPECT_FALSE(lines.next());

  LineReader none("#\n\n");
  EXPECT_FALSE(none.next());
}

TEST(Lex, IntegersAreWholeTokensInRange) {
  std::int64_t i = 7;
  EXPECT_TRUE(parse_i64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_TRUE(parse_i64("-9223372036854775808", &i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
  for (const char* bad : {"", "-", "+1", " 1", "1 ", "1x", "2.0", "1e1", "0x10",
                          "9223372036854775808"}) {
    i = 7;
    EXPECT_FALSE(parse_i64(bad, &i)) << bad;
    EXPECT_EQ(i, 7) << bad;  // untouched on failure
  }

  int n = 0;
  EXPECT_TRUE(parse_int("2147483647", &n));
  EXPECT_EQ(n, 2147483647);
  EXPECT_FALSE(parse_int("2147483648", &n));
  EXPECT_FALSE(parse_int("1e10", &n));

  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64("18446744073709551616", &u));
  EXPECT_FALSE(parse_u64("-1", &u));
  EXPECT_FALSE(parse_u64("-0", &u));
  EXPECT_FALSE(parse_u64("+1", &u));
}

TEST(Lex, DoublesAreFiniteWholeTokens) {
  double d = 0.0;
  EXPECT_TRUE(parse_double("-2.5e-3", &d));
  EXPECT_EQ(d, -2.5e-3);
  EXPECT_TRUE(parse_double(".5", &d));
  EXPECT_EQ(d, 0.5);
  EXPECT_TRUE(parse_double("7", &d));
  EXPECT_EQ(d, 7.0);
  for (const char* bad : {"", "nan", "-nan", "inf", "-inf", "infinity", "1e400",
                          "+1", " 1", "1 ", "1.5x", "0x1p3"}) {
    d = 3.0;
    EXPECT_FALSE(parse_double(bad, &d)) << bad;
    EXPECT_EQ(d, 3.0) << bad;
  }
}

TEST(Lex, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(0.1234567), "0.1234567");
  EXPECT_EQ(format_double(9e9), "9000000000");
  EXPECT_EQ(format_double(1e21), "1e+21");
  EXPECT_EQ(format_double(0.0), "0");
  for (const double v : {1.0 / 3.0, 2.0 / 3.0, 1e-300, 123456.789012345678, -7.25}) {
    double back = 0.0;
    ASSERT_TRUE(parse_double(format_double(v), &back)) << format_double(v);
    EXPECT_EQ(back, v) << format_double(v);
  }
}

TEST(Lex, AppendJsonEscapedAppendsTheEscapedBody) {
  std::string out = "x";
  append_json_escaped(out, "a\"b\\c\nd\te\rf\x01g\x1fh\x7f\xc3\xa9");
  EXPECT_EQ(out, "xa\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\x7f\xc3\xa9");
  std::string nul;
  append_json_escaped(nul, std::string_view("\0", 1));
  EXPECT_EQ(nul, "\\u0000");
}

}  // namespace
}  // namespace iosim::lex
