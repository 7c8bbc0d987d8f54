#include "src/util/string_util.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace prodsyn {
namespace {

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nhello\r\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(CaseTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("Hello World 123"), "hello world 123");
  EXPECT_EQ(ToUpper("Hello World 123"), "HELLO WORLD 123");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a\tb\t\tc", '\t');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(SplitTest, SingleFieldWithoutSeparator) {
  const auto parts = Split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(SplitTest, TrailingSeparatorYieldsEmptyField) {
  const auto parts = Split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitWhitespaceTest, DropsEmptyFields) {
  const auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prodsyn", "prod"));
  EXPECT_FALSE(StartsWith("prod", "prodsyn"));
  EXPECT_TRUE(EndsWith("catalog.cc", ".cc"));
  EXPECT_FALSE(EndsWith(".cc", "catalog.cc"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(ReplaceAllTest, ReplacesEveryOccurrence) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");   // empty pattern: no-op
  EXPECT_EQ(ReplaceAll("abc", "z", "x"), "abc");
}

struct NormalizationCase {
  const char* input;
  const char* expected;
};

// Prints the case by its input, so parameterized test names do not carry the
// (ASLR-randomized) address of the string literal.
void PrintTo(const NormalizationCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.input));
}

class NormalizeAttributeNameTest
    : public ::testing::TestWithParam<NormalizationCase> {};

TEST_P(NormalizeAttributeNameTest, Normalizes) {
  EXPECT_EQ(NormalizeAttributeName(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NormalizeAttributeNameTest,
    ::testing::Values(
        NormalizationCase{"Mfr. Part #", "mfr part"},
        NormalizationCase{"Hard-Disk  Size", "hard disk size"},
        NormalizationCase{"Brand", "brand"},
        NormalizationCase{"BRAND", "brand"},
        NormalizationCase{"  Speed (RPM)  ", "speed rpm"},
        NormalizationCase{"Storage Hard Drive / Capacity",
                          "storage hard drive capacity"},
        NormalizationCase{"...", ""},
        NormalizationCase{"", ""},
        NormalizationCase{"a1-b2", "a1 b2"}));

struct KeyCase {
  const char* input;
  const char* expected;
};

void PrintTo(const KeyCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.input));
}

class NormalizeKeyTest : public ::testing::TestWithParam<KeyCase> {};

TEST_P(NormalizeKeyTest, Normalizes) {
  EXPECT_EQ(NormalizeKey(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NormalizeKeyTest,
    ::testing::Values(KeyCase{"hdt-725050 vla360", "HDT725050VLA360"},
                      KeyCase{"HDT725050VLA360", "HDT725050VLA360"},
                      KeyCase{"  wd/1600-js ", "WD1600JS"},
                      KeyCase{"!!!", ""},
                      KeyCase{"", ""}));

TEST(DigitsTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123456789"));
  EXPECT_FALSE(IsAllDigits("123a"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits(" 12"));
}

TEST(DigitsTest, ParseNonNegativeInt) {
  EXPECT_EQ(ParseNonNegativeInt("42"), 42);
  EXPECT_EQ(ParseNonNegativeInt("  42  "), 42);
  EXPECT_EQ(ParseNonNegativeInt("0"), 0);
  EXPECT_EQ(ParseNonNegativeInt("-1"), -1);
  EXPECT_EQ(ParseNonNegativeInt("12x"), -1);
  EXPECT_EQ(ParseNonNegativeInt(""), -1);
  // 19+ digits rejected (overflow guard).
  EXPECT_EQ(ParseNonNegativeInt("1234567890123456789"), -1);
}

}  // namespace
}  // namespace prodsyn
