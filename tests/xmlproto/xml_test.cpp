#include "ars/xmlproto/xml.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "ars/support/rng.hpp"

namespace ars::xmlproto {
namespace {

TEST(XmlWriter, EmptyElementSelfCloses) {
  std::string out;
  XmlWriter writer{out};
  writer.open("ping");
  writer.close("ping");
  writer.element("pong", "");
  EXPECT_EQ(out, "<ping/><pong/>");
}

TEST(XmlWriter, AttributesAreWrittenInCallOrderAndEscaped) {
  std::string out;
  XmlWriter writer{out};
  writer.open("msg");
  writer.attr("b", "two");
  writer.attr("a", "o<n>e");
  writer.close("msg");
  EXPECT_EQ(out, "<msg b=\"two\" a=\"o&lt;n&gt;e\"/>");
}

TEST(XmlWriter, TextAndChildren) {
  std::string out;
  XmlWriter writer{out};
  writer.open("host");
  writer.element("name", "ws1");
  writer.element("load", 0.256, 3);
  writer.element("pid", -42);
  writer.close("host");
  EXPECT_EQ(out,
            "<host><name>ws1</name><load>0.256</load><pid>-42</pid></host>");
}

TEST(XmlWriter, NumbersMatchPrintfAndToString) {
  for (const double value :
       {0.0, -0.0, 0.5, -1.25, 2.0000005, 1e-7, 6.71e6, 123456789.123456789,
        1e300, -1e300, 5e-324}) {
    for (const int decimals : {3, 6}) {
      std::string out;
      XmlWriter{out}.element("x", value, decimals);
      char expected[512];
      std::snprintf(expected, sizeof expected, "<x>%.*f</x>", decimals,
                    value);
      EXPECT_EQ(out, expected) << value;
    }
  }
  std::string out;
  XmlWriter{out}.element("x", std::uint64_t{18446744073709551615ULL});
  EXPECT_EQ(out, "<x>" + std::to_string(18446744073709551615ULL) + "</x>");
}

// XmlWriter formats doubles with its own exact integer method wherever the
// scaled value fits 64 bits and hands everything else to std::to_chars; both
// must give std::to_chars's bytes.

/// What XmlWriter::element(name, value, decimals) must write.
std::string to_chars_element(double value, int decimals) {
  char digits[400];
  const auto result = std::to_chars(digits, digits + sizeof digits, value,
                                    std::chars_format::fixed, decimals);
  return "<x>" + std::string(digits, result.ptr) + "</x>";
}

void expect_formats_as_to_chars(double value) {
  for (const int decimals : {3, 6}) {
    std::string out;
    XmlWriter{out}.element("x", value, decimals);
    ASSERT_EQ(out, to_chars_element(value, decimals))
        << std::hexfloat << value << " with " << decimals << " decimals";
  }
}

TEST(XmlWriterNumbers, MatchToCharsOnRandomDoubles) {
  support::Rng rng{20041004};
  for (int i = 0; i < 1'000'000; ++i) {
    std::uint64_t bits = rng();
    if (i % 8 != 0) {
      // Binary exponents -64..+66 around the integer path's limit of
      // 2^64 / 10^decimals, both signs, random mantissas.
      const auto exponent = static_cast<std::uint64_t>(
          1023 + rng.uniform_int(-64, 66));
      bits = (bits & 0x800fffffffffffffULL) | (exponent << 52);
    }  // else any bit pattern: huge, tiny, subnormal, infinite or NaN
    expect_formats_as_to_chars(std::bit_cast<double>(bits));
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(XmlWriterNumbers, MatchToCharsOnExactTies) {
  // odd / 2^(d + 1) is halfway between two d-decimal numbers: the writer
  // rounds it to the even one, as std::to_chars does (0.0078125 -> 0.007812).
  std::string out;
  XmlWriter{out}.element("x", 0.0078125, 6);
  EXPECT_EQ(out, "<x>0.007812</x>");
  for (const int decimals : {3, 6}) {
    const double unit = std::ldexp(1.0, -(decimals + 1));
    for (int odd = 1; odd < 20'001; odd += 2) {
      for (const double whole : {0.0, 1.0, 12345.0, 1073741824.0}) {
        const double tie = whole + odd * unit;
        expect_formats_as_to_chars(tie);
        expect_formats_as_to_chars(-tie);
      }
    }
  }
}

TEST(XmlWriterNumbers, MatchToCharsOnSignedZeroResults) {
  for (const double value :
       {0.0, -0.0, 1e-300, -1e-300, 4e-7, -4e-7, 4.9e-4, -4.9e-4, 5e-4,
        -5e-4, 5e-7, -5e-7, 0.0004999999999, -0.0004999999999}) {
    expect_formats_as_to_chars(value);
  }
  std::string out;
  XmlWriter{out}.element("x", -1e-9, 6);
  EXPECT_EQ(out, "<x>-0.000000</x>");
}

TEST(XmlWriterNumbers, MatchToCharsOnSubnormals) {
  support::Rng rng{7};
  expect_formats_as_to_chars(std::numeric_limits<double>::denorm_min());
  expect_formats_as_to_chars(-std::numeric_limits<double>::denorm_min());
  expect_formats_as_to_chars(std::nextafter(
      std::numeric_limits<double>::min(), 0.0));  // the largest subnormal
  for (int i = 0; i < 10'000; ++i) {
    expect_formats_as_to_chars(
        std::bit_cast<double>(rng() & 0x800fffffffffffffULL));
  }
}

TEST(XmlWriterNumbers, MatchToCharsAcrossTheIntegerPathsLimit) {
  // The integer path takes |value| while |value| * 10^d rounds below 2^64;
  // the band around 2^64 / 10^d holds the largest such double and the next
  // one above it, which std::to_chars formats instead.
  for (const double limit : {18446744073709551616.0 / 1e3,
                             18446744073709551616.0 / 1e6,
                             18446744073709551616.0}) {
    double below = limit;
    double above = limit;
    for (int step = 0; step < 2'000; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, HUGE_VAL);
      expect_formats_as_to_chars(below);
      expect_formats_as_to_chars(above);
      expect_formats_as_to_chars(-below);
      expect_formats_as_to_chars(-above);
    }
  }
  expect_formats_as_to_chars(std::numeric_limits<double>::max());
  expect_formats_as_to_chars(-std::numeric_limits<double>::max());
}

TEST(XmlWriterNumbers, MatchToCharsOnNanAndInfinities) {
  for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    expect_formats_as_to_chars(value);
  }
}

TEST(XmlEscape, AllSpecials) {
  std::string out;
  XmlWriter writer{out};
  writer.open("t");
  writer.attr("a", "a&b<c>d\"e'f");
  writer.text("a&b<c>d\"e'f");
  writer.element("plain", "plain");
  writer.close("t");
  EXPECT_EQ(out,
            "<t a=\"a&amp;b&lt;c&gt;d&quot;e&apos;f\">"
            "a&amp;b&lt;c&gt;d&quot;e&apos;f<plain>plain</plain></t>");
}

TEST(XmlParser, ParsesSimpleDocument) {
  XmlReader reader;
  const auto root = reader.parse("<ars type=\"update\"><host>ws1</host></ars>");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->name(), "ars");
  EXPECT_EQ(root->attr("type").value_or(""), "update");
  ASSERT_TRUE(root->child("host").has_value());
  EXPECT_EQ(root->child("host")->text(), "ws1");
}

TEST(XmlParser, SelfClosingAndWhitespace) {
  XmlReader reader;
  const auto root = reader.parse("  <a>\n  <b/>\n  <c x='1'/>\n</a>  ");
  ASSERT_TRUE(root.has_value());
  std::vector<std::string_view> names;
  for (auto c = root->child(); c.has_value(); c = c->next_sibling()) {
    names.push_back(c->name());
  }
  EXPECT_EQ(names, (std::vector<std::string_view>{"b", "c"}));
  EXPECT_EQ(root->text(), "");
  EXPECT_EQ(root->child("c")->attr("x").value_or(""), "1");
}

TEST(XmlParser, SkipsDeclarationAndComments) {
  XmlReader reader;
  const auto root = reader.parse(
      "<?xml version=\"1.0\"?><!-- header --><root><!-- inner -->"
      "<x>1</x></root><!-- trailer -->");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->child("x")->text(), "1");
}

TEST(XmlParser, DecodesEntities) {
  XmlReader reader;
  const auto root = reader.parse("<t a=\"x&amp;y\">1 &lt; 2 &gt; 0</t>");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->attr("a").value_or(""), "x&y");
  EXPECT_EQ(root->text(), "1 < 2 > 0");
}

TEST(XmlParser, TextIsAllDirectCharacterDataTrimmed) {
  XmlReader reader;
  const auto root =
      reader.parse("<a>\n x <b> y&amp; </b><!-- c --> z &quot;\t</a>");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->text(), "x  z \"");
  EXPECT_EQ(root->child("b")->text(), "y&");
}

// The reader keeps element text and attribute values that are one run of
// the input without entities as views into the input, and decodes the rest
// into its own buffer; both must read as the five-entity, trimmed text.

bool points_into(std::string_view view, std::string_view input) {
  return view.data() >= input.data() &&
         view.data() + view.size() <= input.data() + input.size();
}

TEST(XmlReaderText, OneRunIsATrimmedViewIntoTheInput) {
  const std::string input = "<a k='v' j=\"x y\"> plain text\t</a>";
  XmlReader reader;
  const auto root = reader.parse(input);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->text(), "plain text");
  EXPECT_TRUE(points_into(root->text(), input));
  EXPECT_EQ(root->attr("k").value_or(""), "v");
  EXPECT_TRUE(points_into(*root->attr("k"), input));
  EXPECT_EQ(root->attr("j").value_or(""), "x y");
  EXPECT_TRUE(points_into(*root->attr("j"), input));
}

TEST(XmlReaderText, TextSplitByAChildJoinsItsRuns) {
  XmlReader reader;
  const auto root = reader.parse("<a> x <b/> y </a>");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->text(), "x  y");
  EXPECT_EQ(root->child("b")->text(), "");
  const auto commented = reader.parse("<a>x<!-- c -->y</a>");
  ASSERT_TRUE(commented.has_value());
  EXPECT_EQ(commented->text(), "xy");
}

TEST(XmlReaderText, EntitiesAreDecoded) {
  XmlReader reader;
  const auto root = reader.parse(
      "<a k='x&amp;y' j=\"&lt;&gt;\" m='&quot;&apos;z'>x&amp;y</a>");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->text(), "x&y");
  EXPECT_EQ(root->attr("k").value_or(""), "x&y");
  EXPECT_EQ(root->attr("j").value_or(""), "<>");
  EXPECT_EQ(root->attr("m").value_or(""), "\"'z");
  const auto leading = reader.parse("<a>&lt; b </a>");
  ASSERT_TRUE(leading.has_value());
  EXPECT_EQ(leading->text(), "< b");
}

TEST(XmlReaderText, WhitespaceOnlyTextIsEmpty) {
  XmlReader reader;
  const auto root = reader.parse("<a> \n\t <b>  </b>\r\n</a>");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->text(), "");
  EXPECT_EQ(root->child("b")->text(), "");
  const auto single = reader.parse("<a>   </a>");
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->text(), "");
}

TEST(XmlReaderText, CloseTagMustNameTheElementExactly) {
  XmlReader reader;
  EXPECT_TRUE(reader.parse("<ab>x</ab >").has_value());
  EXPECT_FALSE(reader.parse("<ab>x</abc>").has_value());
  EXPECT_FALSE(reader.parse("<ab>x</a>").has_value());
  EXPECT_FALSE(reader.parse("<ab>x</ab").has_value());
  EXPECT_FALSE(reader.parse("<ab>x</ab-").has_value());
}

TEST(XmlParser, RoundTripsWriterOutput) {
  std::string wire;
  XmlWriter writer{wire};
  writer.open("schema");
  writer.attr("name", "test_tree");
  writer.element("char", "computing-intensive");
  writer.open("requirements");
  writer.element("memory", 8388608);
  writer.element("disk", 0);
  writer.close("requirements");
  writer.close("schema");
  XmlReader reader;
  const auto root = reader.parse(wire);
  ASSERT_TRUE(root.has_value()) << root.error().to_string();
  EXPECT_EQ(root->attr("name").value_or(""), "test_tree");
  EXPECT_EQ(root->child("char")->text(), "computing-intensive");
  const auto req = root->child("requirements");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->child("memory")->text(), "8388608");
  EXPECT_EQ(req->child("disk")->text(), "0");
  EXPECT_FALSE(req->next_sibling().has_value());
}

TEST(XmlParser, RejectsMismatchedCloseTag) {
  XmlReader reader;
  const auto root = reader.parse("<a><b></a></b>");
  ASSERT_FALSE(root.has_value());
  EXPECT_EQ(root.error().code, "xml_parse");
}

TEST(XmlParser, RejectsUnterminatedElement) {
  XmlReader reader;
  EXPECT_FALSE(reader.parse("<a><b>").has_value());
  EXPECT_FALSE(reader.parse("<a").has_value());
  EXPECT_FALSE(reader.parse("<a x=>").has_value());
  EXPECT_FALSE(reader.parse("<a x='1>").has_value());
  EXPECT_FALSE(reader.parse("<a>&amp</a>").has_value());
}

TEST(XmlParser, RejectsTrailingGarbage) {
  XmlReader reader;
  EXPECT_FALSE(reader.parse("<a/>junk").has_value());
  EXPECT_FALSE(reader.parse("<a/><b/>").has_value());
}

TEST(XmlParser, RejectsUnknownEntity) {
  XmlReader reader;
  EXPECT_FALSE(reader.parse("<a>&nbsp;</a>").has_value());
  EXPECT_FALSE(reader.parse("<a>&#60;</a>").has_value());
}

TEST(XmlParser, RejectsEmptyAndNonXml) {
  XmlReader reader;
  EXPECT_FALSE(reader.parse("").has_value());
  EXPECT_FALSE(reader.parse("hello world").has_value());
}

TEST(XmlParser, NestedStructure) {
  XmlReader reader;
  const auto root = reader.parse("<a><b><c><d>deep</d></c></b></a>");
  ASSERT_TRUE(root.has_value());
  const auto d = root->child("b")->child("c")->child("d");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->text(), "deep");
}

TEST(XmlParser, RejectsNestingDeeperThanCap) {
  const auto nested = [](std::size_t depth) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += "<a>";
    for (std::size_t i = 0; i < depth; ++i) doc += "</a>";
    return doc;
  };
  XmlReader reader;
  EXPECT_TRUE(reader.parse(nested(XmlReader::kMaxDepth)).has_value());
  const auto deeper = reader.parse(nested(XmlReader::kMaxDepth + 1));
  ASSERT_FALSE(deeper.has_value());
  EXPECT_EQ(deeper.error().code, "xml_parse");
}

TEST(XmlReaderQueries, ChildLookupAndAttributes) {
  XmlReader reader;
  const auto root = reader.parse(
      "<list k='first' k=\"last\"><item>1</item><other>x</other>"
      "<item>2</item></list>");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->child("item")->text(), "1");  // the first match wins
  EXPECT_EQ(root->child("item")->next_sibling()->name(), "other");
  EXPECT_FALSE(root->child("missing").has_value());
  EXPECT_EQ(root->attr("k").value_or(""), "last");  // a later duplicate wins
  EXPECT_FALSE(root->attr("nope").has_value());
  EXPECT_FALSE(root->next_sibling().has_value());
}

TEST(XmlReaderQueries, ParseReplacesThePreviousDocument) {
  XmlReader reader;
  ASSERT_TRUE(
      reader.parse("<a><b>long enough to leave SSO</b></a>").has_value());
  const std::string second = "<x y='v'><z>w</z></x>";
  const auto root = reader.parse(second);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->name(), "x");
  EXPECT_EQ(root->attr("y").value_or(""), "v");
  EXPECT_EQ(root->child("z")->text(), "w");
  EXPECT_FALSE(root->child("b").has_value());
}

}  // namespace
}  // namespace ars::xmlproto
