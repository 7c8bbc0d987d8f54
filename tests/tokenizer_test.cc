#include "src/text/tokenizer.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

namespace prodsyn {
namespace {

using Tokens = std::vector<std::string>;

TEST(TokenizerTest, SplitsOnNonAlnum) {
  EXPECT_EQ(Tokenize("ATA 100 mb/s"), (Tokens{"ata", "100", "mb", "s"}));
}

TEST(TokenizerTest, SplitsAlphaDigitBoundaries) {
  EXPECT_EQ(Tokenize("500GB"), (Tokens{"500", "gb"}));
  EXPECT_EQ(Tokenize("500 GB"), (Tokens{"500", "gb"}));
  EXPECT_EQ(Tokenize("HDT725050VLA360"),
            (Tokens{"hdt", "725050", "vla", "360"}));
}

TEST(TokenizerTest, SameTokensForFormattingVariants) {
  // The distributional features rely on "500GB" and "500 gb" agreeing.
  EXPECT_EQ(Tokenize("500GB"), Tokenize("500 gb"));
  EXPECT_EQ(Tokenize("7200rpm"), Tokenize("7200 RPM"));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("--- ///").empty());
}

TEST(TokenizerTest, NoLowercaseOption) {
  TokenizerOptions options;
  options.lowercase = false;
  EXPECT_EQ(Tokenize("ATA Mode", options), (Tokens{"ATA", "Mode"}));
}

TEST(TokenizerTest, NoAlphaDigitSplitOption) {
  TokenizerOptions options;
  options.split_alpha_digit = false;
  EXPECT_EQ(Tokenize("500GB", options), (Tokens{"500gb"}));
}

TEST(TokenizerTest, MinTokenLengthFilters) {
  TokenizerOptions options;
  options.min_token_length = 2;
  EXPECT_EQ(Tokenize("a bc def", options), (Tokens{"bc", "def"}));
}

struct TokenizeCase {
  const char* input;
  Tokens expected;
};

// Prints the case by its input, so parameterized test names do not carry the
// (ASLR-randomized) address of the string literal.
void PrintTo(const TokenizeCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.input));
}

class TokenizeParamTest : public ::testing::TestWithParam<TokenizeCase> {};

TEST_P(TokenizeParamTest, MatchesExpected) {
  EXPECT_EQ(Tokenize(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TokenizeParamTest,
    ::testing::Values(
        TokenizeCase{"Windows Vista", Tokens{"windows", "vista"}},
        TokenizeCase{"f/3.5-5.6", Tokens{"f", "3", "5", "5", "6"}},
        TokenizeCase{"1920 x 1080", Tokens{"1920", "x", "1080"}},
        TokenizeCase{"WD-1600JS", Tokens{"wd", "1600", "js"}},
        TokenizeCase{"3.5\" x 1/3H", Tokens{"3", "5", "x", "1", "3", "h"}},
        TokenizeCase{"  spaced   out  ", Tokens{"spaced", "out"}}));

}  // namespace
}  // namespace prodsyn
