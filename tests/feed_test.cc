#include "src/catalog/feed.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/util/random.h"

namespace prodsyn {
namespace {

TEST(TsvEscapeTest, RoundTripsControlCharacters) {
  const std::string raw = "a\tb\nc\rd\\e";
  EXPECT_EQ(UnescapeTsvField(EscapeTsvField(raw)), raw);
  EXPECT_EQ(EscapeTsvField("plain"), "plain");
}

TEST(SpecSerializationTest, RoundTrips) {
  Specification spec = {{"Brand", "Seagate"},
                        {"Odd=Name;", "va=l;ue\\x"},
                        {"Capacity", "500 GB"}};
  auto parsed = ParseSpec(SerializeSpec(spec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, spec);
}

TEST(SpecSerializationTest, EmptySpec) {
  auto parsed = ParseSpec("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(SpecSerializationTest, MissingEqualsIsParseError) {
  EXPECT_TRUE(ParseSpec("noequals").status().IsParseError());
}

TEST(FeedTest, SerializeParseRoundTrip) {
  std::vector<FeedRecord> records;
  FeedRecord r;
  r.url = "http://www.techforless.example.com/item/1";
  r.title = "Gear Head DVD+/-RW";
  r.description = "Supports direct-to-disc labeling";
  r.price = 67.0;
  r.seller = "Tech for Less";
  r.category_path = "Computing|Storage|Hard Drives";
  r.spec = {{"Brand", "Gear Head"}};
  records.push_back(r);
  FeedRecord minimal;
  minimal.title = "HP HDD";
  minimal.seller = "lacc.com";
  records.push_back(minimal);

  auto parsed = ParseFeed(SerializeFeed(records));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].title, records[0].title);
  EXPECT_EQ((*parsed)[0].category_path, records[0].category_path);
  EXPECT_DOUBLE_EQ((*parsed)[0].price, 67.0);
  EXPECT_EQ((*parsed)[0].spec, records[0].spec);
  EXPECT_EQ((*parsed)[1].seller, "lacc.com");
}

TEST(FeedTest, MissingHeaderIsParseError) {
  EXPECT_TRUE(ParseFeed("not a header\nrow").status().IsParseError());
  EXPECT_TRUE(ParseFeed("").status().IsParseError());
}

TEST(FeedTest, WrongFieldCountIsParseError) {
  const std::string tsv =
      "source_url\ttitle\tdescription\tprice\tseller\tcategory\tspec\n"
      "only\tthree\tfields\n";
  auto parsed = ParseFeed(tsv);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError());
  // Error message carries the line number.
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

TEST(FeedTest, BadPriceIsParseError) {
  const std::string tsv =
      "source_url\ttitle\tdescription\tprice\tseller\tcategory\tspec\n"
      "u\tt\td\tnot-a-price\ts\tc\t\n";
  EXPECT_TRUE(ParseFeed(tsv).status().IsParseError());
}

TEST(FeedTest, EmptyPriceDefaultsToZero) {
  const std::string tsv =
      "source_url\ttitle\tdescription\tprice\tseller\tcategory\tspec\n"
      "u\tt\td\t\ts\tc\t\n";
  auto parsed = ParseFeed(tsv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ((*parsed)[0].price, 0.0);
}

TEST(FeedTest, BlankLinesSkipped) {
  const std::string tsv =
      "source_url\ttitle\tdescription\tprice\tseller\tcategory\tspec\n"
      "\n"
      "u\tt\td\t1.5\ts\tc\t\n"
      "\n";
  auto parsed = ParseFeed(tsv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1u);
}

// Property: random records with hostile characters survive a round trip.
class FeedRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FeedRoundTripTest, RandomRecordsRoundTrip) {
  Rng rng(GetParam());
  auto random_text = [&](size_t max_len) {
    static const char kAlphabet[] =
        "abcXYZ019 \t\n\\;=|&<>\"'";
    std::string s;
    const size_t len = rng.NextBelow(max_len);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
    }
    return s;
  };
  std::vector<FeedRecord> records;
  for (int i = 0; i < 5; ++i) {
    FeedRecord r;
    r.url = random_text(30);
    r.title = random_text(40);
    r.description = random_text(60);
    r.price = static_cast<double>(rng.NextBelow(100000)) / 100.0;
    r.seller = random_text(20);
    r.category_path = random_text(30);
    const size_t pairs = rng.NextBelow(4);
    for (size_t k = 0; k < pairs; ++k) {
      // Spec attribute names must be non-empty for the round trip.
      // (Built up with += — `const char* + string&&` trips a gcc-12 -O3
      // -Werror=restrict false positive.)
      std::string attr_name = "n";
      attr_name += std::to_string(k);
      attr_name += random_text(8);
      r.spec.push_back({std::move(attr_name), random_text(12)});
    }
    records.push_back(std::move(r));
  }
  auto parsed = ParseFeed(SerializeFeed(records));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*parsed)[i].url, records[i].url);
    EXPECT_EQ((*parsed)[i].title, records[i].title);
    EXPECT_EQ((*parsed)[i].description, records[i].description);
    EXPECT_EQ((*parsed)[i].seller, records[i].seller);
    EXPECT_EQ((*parsed)[i].category_path, records[i].category_path);
    EXPECT_EQ((*parsed)[i].spec, records[i].spec);
    EXPECT_NEAR((*parsed)[i].price, records[i].price, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedRoundTripTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(FeedTest, LenientParseSalvagesGoodLinesAndPositionsErrors) {
  const std::string tsv =
      "source_url\ttitle\tdescription\tprice\tseller\tcategory\tspec\n"
      "u1\tt1\td1\t1.0\ts1\tc1\t\n"
      "only\tthree\tfields\n"
      "u2\tt2\td2\tnot-a-price\ts2\tc2\t\n"
      "u3\tt3\td3\t3.0\ts3\tc3\tBrand=Acme\n";
  auto lenient = ParseFeedLenient(tsv);
  ASSERT_TRUE(lenient.ok());
  ASSERT_EQ(lenient->records.size(), 2u);
  EXPECT_EQ(lenient->records[0].title, "t1");
  EXPECT_EQ(lenient->records[1].title, "t3");
  ASSERT_EQ(lenient->errors.size(), 2u);
  EXPECT_EQ(lenient->errors[0].line, 3u);
  EXPECT_EQ(lenient->errors[1].line, 4u);
  // Each error message is self-contained (carries its line number).
  EXPECT_NE(lenient->errors[0].status.message().find("line 3"),
            std::string::npos);
  EXPECT_NE(lenient->errors[1].status.message().find("line 4"),
            std::string::npos);
  // Strict parsing of the same feed fails with the FIRST line error.
  auto strict = ParseFeed(tsv);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status(), lenient->errors[0].status);
}

TEST(FeedTest, LenientParseStillRejectsMissingHeader) {
  EXPECT_TRUE(ParseFeedLenient("no header\nrow").status().IsParseError());
  EXPECT_TRUE(ParseFeedLenient("").status().IsParseError());
}

TEST(FeedTest, LenientParseOfCleanFeedHasNoErrors) {
  std::vector<FeedRecord> records(3);
  records[0].title = "a";
  records[1].title = "b";
  records[2].title = "c";
  auto lenient = ParseFeedLenient(SerializeFeed(records));
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->records.size(), 3u);
  EXPECT_TRUE(lenient->errors.empty());
}

// Regression: from_chars happily parses "inf", "nan" and negatives, none
// of which is a price. They must be positioned ParseErrors, not values
// that poison downstream price statistics.
TEST(FeedTest, NonFiniteAndNegativePricesAreParseErrors) {
  for (const char* bad : {"inf", "-inf", "nan", "nan(x)", "-1.5", "1e999"}) {
    const std::string tsv =
        "source_url\ttitle\tdescription\tprice\tseller\tcategory\tspec\n"
        "u\tt\td\t" +
        std::string(bad) + "\ts\tc\t\n";
    auto parsed = ParseFeed(tsv);
    ASSERT_FALSE(parsed.ok()) << "price '" << bad << "' was accepted";
    EXPECT_TRUE(parsed.status().IsParseError());
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
        << parsed.status();
  }
  // Zero and ordinary decimals still pass.
  const std::string good =
      "source_url\ttitle\tdescription\tprice\tseller\tcategory\tspec\n"
      "u\tt\td\t0\ts\tc\t\n"
      "u\tt\td\t19.99\ts\tc\t\n";
  auto parsed = ParseFeed(good);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ((*parsed)[1].price, 19.99);
}

TEST(FeedTest, CrlfLineEndingsParseSameAsLf) {
  const std::string lf =
      "source_url\ttitle\tdescription\tprice\tseller\tcategory\tspec\n"
      "u\tt\td\t2.5\ts\tc\tBrand=Acme\n";
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += "\r\n";
    else crlf.push_back(c);
  }
  auto a = ParseFeed(lf);
  auto b = ParseFeed(crlf);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(b->size(), 1u);
  EXPECT_EQ((*a)[0].spec, (*b)[0].spec);
  EXPECT_EQ((*b)[0].spec,
            (Specification{{"Brand", "Acme"}}));
}

// --- Adversarial escaping round trips (satellite: hostile inputs must
// either round-trip exactly or fail loudly — never silently mutate).

TEST(TsvEscapeTest, AdversarialRoundTrips) {
  const std::string cases[] = {
      "\r\n",                 // CRLF pair
      "ends with backslash\\",  // lone trailing backslash
      "\\",                   // nothing but a backslash
      "\\\\",                 // escaped backslash
      "\t\t\t",               // tabs only
      "a\rb\nc\td",           // every escapable char interleaved
      "unknown \\q escape",   // backslash before a non-escape char
      std::string(1, '\0'),   // embedded NUL survives std::string
  };
  for (const std::string& raw : cases) {
    const std::string escaped = EscapeTsvField(raw);
    // Escaped form must be safe to embed in a TSV line.
    EXPECT_EQ(escaped.find('\t'), std::string::npos);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    EXPECT_EQ(escaped.find('\r'), std::string::npos);
    EXPECT_EQ(UnescapeTsvField(escaped), raw);
  }
}

TEST(TsvEscapeTest, UnescapeToleratesMalformedInput) {
  // A lone trailing backslash has nothing to escape: kept literally.
  EXPECT_EQ(UnescapeTsvField("abc\\"), "abc\\");
  // Unknown escapes keep both characters instead of eating the backslash.
  EXPECT_EQ(UnescapeTsvField("a\\qb"), "a\\qb");
  EXPECT_EQ(UnescapeTsvField("\\"), "\\");
}

TEST(SpecSerializationTest, AdversarialRoundTrips) {
  const Specification cases[] = {
      {{"a=b", "c;d"}},                      // metacharacters in both
      {{"trailing\\", "backslash\\"}},       // lone trailing backslashes
      {{"=", ";"}},                          // nothing but metacharacters
      {{"tab\there", "newline\nthere"}},     // TSV chars inside spec text
      {{"a", ""}, {"b", "="}},               // empty value; '=' value
      {{"\\=", "\\;"}},                      // escaped-looking names
  };
  for (const Specification& spec : cases) {
    auto parsed = ParseSpec(SerializeSpec(spec));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, spec) << SerializeSpec(spec);
  }
}

TEST(SpecSerializationTest, MalformedSpecsFailLoudly) {
  EXPECT_TRUE(ParseSpec("name-without-equals").status().IsParseError());
  EXPECT_TRUE(ParseSpec("a=b;orphan").status().IsParseError());
}

// Property: random hostile strings round-trip through both escape layers.
class EscapeRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EscapeRoundTripTest, RandomHostileStringsRoundTrip) {
  Rng rng(GetParam());
  static const char kHostile[] = "ab\\\t\n\r=;|x";
  auto random_hostile = [&](size_t max_len) {
    std::string s;
    const size_t len = rng.NextBelow(max_len);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(kHostile[rng.NextBelow(sizeof(kHostile) - 1)]);
    }
    return s;
  };
  for (int i = 0; i < 50; ++i) {
    const std::string raw = random_hostile(16);
    EXPECT_EQ(UnescapeTsvField(EscapeTsvField(raw)), raw);
  }
  for (int i = 0; i < 50; ++i) {
    Specification spec;
    const size_t pairs = 1 + rng.NextBelow(3);
    for (size_t k = 0; k < pairs; ++k) {
      // Names must be non-empty; values may be anything. The name is
      // built by appending: gcc 12 at -O3 reports a false -Wrestrict on
      // the `"n" + std::string` temporary.
      std::string name = "n";
      name += random_hostile(8);
      spec.push_back({std::move(name), random_hostile(8)});
    }
    auto parsed = ParseSpec(SerializeSpec(spec));
    ASSERT_TRUE(parsed.ok())
        << parsed.status() << " for '" << SerializeSpec(spec) << "'";
    EXPECT_EQ(*parsed, spec);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EscapeRoundTripTest,
                         ::testing::Range<uint64_t>(0, 5));

}  // namespace
}  // namespace prodsyn
