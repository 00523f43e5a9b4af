// The JSON field tables (obs/json.hpp): the one reader and writer behind
// fault plans, bundles, cluster plans and queue plans.  The
// integer cases are the ones a double-to-integer cast gets wrong: the
// sanitizer CI job runs this binary with float-cast-overflow trapping, so a
// value that slipped past the range check would fail there even if the
// cast happened to produce the right bits.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ars/obs/json.hpp"

namespace ars::obs {
namespace {

enum class Colour { kRed, kGreen, kBlue };
constexpr std::string_view kColours[] = {"red", "green", "blue"};
constexpr std::string_view kModes[] = {"", "fast", "slow"};

struct Doc {
  int count = 3;
  std::uint64_t seed = 1;
  double ratio = 0.5;
  double delay = 2.0;
  double latency = 0.1;
  bool enabled = true;
  std::string name = "doc";
  std::string mode;
  std::string note;
  Colour colour = Colour::kRed;
  JsonArray items;
  JsonObject extra;
};

std::vector<JsonField> doc_fields(Doc& d) {
  return {
      JsonField("count", d.count).at_least(1),
      JsonField("seed", d.seed),
      JsonField("ratio", d.ratio).within(0.0, 1.0),
      JsonField("delay", d.delay),
      JsonField("latency", d.latency).above(0.0),
      JsonField("enabled", d.enabled),
      JsonField("name", d.name).required().non_empty(),
      JsonField("mode", d.mode).one_of(kModes),
      JsonField("note", d.note).sparse(),
      JsonField("colour", d.colour, kColours),
      JsonField("items", d.items),
      JsonField("extra", d.extra).sparse(),
  };
}

support::Status read(const std::string& text, Doc& doc) {
  auto parsed = json_parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return json_read(*parsed, doc_fields(doc), "doc", "$");
}

/// The error json_read gives for `text`, as "code | message"; "ok" when the
/// document was accepted.
std::string outcome(const std::string& text) {
  Doc doc;
  const support::Status status = read(text, doc);
  return status ? "ok"
                : status.error().code + " | " + status.error().message;
}

TEST(JsonFields, AbsentKeysKeepTheirDefaults) {
  Doc doc;
  ASSERT_TRUE(read(R"({"name": "x"})", doc));
  EXPECT_EQ(doc.count, 3);
  EXPECT_EQ(doc.seed, 1u);
  EXPECT_TRUE(doc.enabled);
  EXPECT_EQ(doc.colour, Colour::kRed);
  EXPECT_EQ(doc.name, "x");
}

TEST(JsonFields, EveryMemberKindReads) {
  Doc doc;
  ASSERT_TRUE(read(R"({"count": 7, "seed": 9007199254740993, "ratio": 1,
      "delay": -4.5, "latency": 0.25, "enabled": false, "name": "n",
      "mode": "slow", "note": "hi", "colour": "blue", "items": [1, "a"]})",
                   doc));
  EXPECT_EQ(doc.count, 7);
  EXPECT_EQ(doc.seed, 9007199254740992u);  // the nearest double
  EXPECT_DOUBLE_EQ(doc.ratio, 1.0);
  EXPECT_DOUBLE_EQ(doc.delay, -4.5);
  EXPECT_FALSE(doc.enabled);
  EXPECT_EQ(doc.mode, "slow");
  EXPECT_EQ(doc.note, "hi");
  EXPECT_EQ(doc.colour, Colour::kBlue);
  ASSERT_EQ(doc.items.size(), 2u);
  EXPECT_EQ(doc.items[1].as_string(), "a");
}

TEST(JsonFields, IntegerMembersTakeOnlyWholeNumbersInTheirRange) {
  const std::string int_range = "expected a whole number in "
                                "[-2147483648, 2147483647], got ";
  const std::string u64_range = "expected a whole number in "
                                "[0, 18446744073709551615], got ";
  EXPECT_EQ(outcome(R"({"name": "x", "count": 1e300})"),
            "doc.count | $.count: " + int_range + "1e+300");
  EXPECT_EQ(outcome(R"({"name": "x", "count": -1e300})"),
            "doc.count | $.count: " + int_range + "-1e+300");
  EXPECT_EQ(outcome(R"({"name": "x", "count": 9223372036854775808})"),
            "doc.count | $.count: " + int_range + "9223372036854775808");
  EXPECT_EQ(outcome(R"({"name": "x", "count": 2147483648})"),
            "doc.count | $.count: " + int_range + "2147483648");
  EXPECT_EQ(outcome(R"({"name": "x", "count": 0.5})"),
            "doc.count | $.count: " + int_range + "0.5");
  EXPECT_EQ(outcome(R"({"name": "x", "seed": 1e300})"),
            "doc.seed | $.seed: " + u64_range + "1e+300");
  EXPECT_EQ(outcome(R"({"name": "x", "seed": -1e300})"),
            "doc.seed | $.seed: " + u64_range + "-1e+300");
  EXPECT_EQ(outcome(R"({"name": "x", "seed": 18446744073709551616})"),
            "doc.seed | $.seed: " + u64_range + "18446744073709551616");
  EXPECT_EQ(outcome(R"({"name": "x", "seed": 0.5})"),
            "doc.seed | $.seed: " + u64_range + "0.5");
  EXPECT_EQ(outcome(R"({"name": "x", "seed": -1})"),
            "doc.seed | $.seed: " + u64_range + "-1");

  Doc doc;
  ASSERT_TRUE(read(R"({"name": "x", "seed": 9223372036854775808})", doc));
  EXPECT_EQ(doc.seed, std::uint64_t{1} << 63);
  ASSERT_TRUE(read(R"({"name": "x", "seed": -0.0, "count": 2147483647})",
                   doc));
  EXPECT_EQ(doc.seed, 0u);
  EXPECT_EQ(doc.count, 2147483647);
  // -0.0 is a whole number in range, so only the bound refuses it.
  EXPECT_EQ(outcome(R"({"name": "x", "count": -0.0})"),
            "doc.count | $.count: must be >= 1, got -0");
}

TEST(JsonFields, WrongJsonTypesAreRefused) {
  EXPECT_EQ(outcome(R"({"name": "x", "count": true})"),
            "doc.count | $.count: expected a number");
  EXPECT_EQ(outcome(R"({"name": "x", "seed": "5"})"),
            "doc.seed | $.seed: expected a number");
  EXPECT_EQ(outcome(R"({"name": "x", "delay": false})"),
            "doc.delay | $.delay: expected a number");
  EXPECT_EQ(outcome(R"({"name": "x", "delay": null})"),
            "doc.delay | $.delay: expected a number");
  EXPECT_EQ(outcome(R"({"name": "x", "enabled": "false"})"),
            "doc.enabled | $.enabled: expected true or false");
  EXPECT_EQ(outcome(R"({"name": "x", "enabled": 1})"),
            "doc.enabled | $.enabled: expected true or false");
  EXPECT_EQ(outcome(R"({"name": 5})"), "doc.name | $.name: expected a string");
  EXPECT_EQ(outcome(R"({"name": "x", "colour": 2})"),
            "doc.colour | $.colour: expected a string");
  EXPECT_EQ(outcome(R"({"name": "x", "items": {}})"),
            "doc.items | $.items: expected an array");
}

TEST(JsonFields, ObjectMembersTakeObjectsAndAreSparseWhenEmpty) {
  Doc doc;
  ASSERT_TRUE(read(R"({"name": "x", "extra": {"k": [1, {}]}})", doc));
  ASSERT_EQ(doc.extra.size(), 1u);
  EXPECT_EQ(doc.extra.at("k").as_array().size(), 2u);
  EXPECT_EQ(outcome(R"({"name": "x", "extra": []})"),
            "doc.extra | $.extra: expected an object");
  EXPECT_EQ(outcome(R"({"name": "x", "extra": null})"),
            "doc.extra | $.extra: expected an object");
  const JsonValue written = json_write(doc_fields(doc));
  ASSERT_NE(written.find("extra"), nullptr);
  EXPECT_EQ(written.find("extra")->dump(), R"({"k":[1,{}]})");
  Doc empty;
  EXPECT_EQ(json_write(doc_fields(empty)).find("extra"), nullptr);
}

TEST(JsonFields, BoundsAreInclusiveUnlessOpen) {
  EXPECT_EQ(outcome(R"({"name": "x", "count": 1})"), "ok");
  EXPECT_EQ(outcome(R"({"name": "x", "count": 0})"),
            "doc.count | $.count: must be >= 1, got 0");
  EXPECT_EQ(outcome(R"({"name": "x", "ratio": 0})"), "ok");
  EXPECT_EQ(outcome(R"({"name": "x", "ratio": 1})"), "ok");
  EXPECT_EQ(outcome(R"({"name": "x", "ratio": 1.5})"),
            "doc.ratio | $.ratio: must be in [0, 1], got 1.5");
  EXPECT_EQ(outcome(R"({"name": "x", "ratio": -0.25})"),
            "doc.ratio | $.ratio: must be in [0, 1], got -0.25");
  EXPECT_EQ(outcome(R"({"name": "x", "latency": 0})"),
            "doc.latency | $.latency: must be > 0, got 0");
  EXPECT_EQ(outcome(R"({"name": "x", "latency": 5e-324})"), "ok");
}

TEST(JsonFields, VocabulariesAreClosed) {
  EXPECT_EQ(outcome(R"({"name": "x", "mode": ""})"), "ok");
  EXPECT_EQ(outcome(R"({"name": "x", "mode": "fats"})"),
            R"(doc.mode | $.mode: expected one of "", "fast", "slow", )"
            R"(got "fats")");
  EXPECT_EQ(outcome(R"({"name": "x", "colour": "green"})"), "ok");
  EXPECT_EQ(outcome(R"({"name": "x", "colour": "Green"})"),
            R"(doc.colour | $.colour: expected one of "red", "green", )"
            R"("blue", got "Green")");
}

TEST(JsonFields, UnknownMissingAndEmptyKeysAreRefused) {
  EXPECT_EQ(outcome(R"({"name": "x", "cuont": 2})"),
            "doc.cuont | $.cuont: unknown key");
  EXPECT_EQ(outcome(R"({"count": 2})"),
            "doc.name | $.name: required key is missing");
  EXPECT_EQ(outcome(R"({"name": ""})"),
            "doc.name | $.name: must not be empty");
  EXPECT_EQ(outcome(R"([1, 2])"), "doc | $: expected an object");
}

TEST(JsonFields, ErrorsCarryTheCallersPath) {
  const auto parsed = json_parse(R"({"name": "x", "count": -2})");
  ASSERT_TRUE(parsed.has_value());
  Doc doc;
  const support::Status status =
      json_read(*parsed, doc_fields(doc), "plan", "$.jobs[4]");
  ASSERT_FALSE(status);
  EXPECT_EQ(status.error().code, "plan.count");
  EXPECT_EQ(status.error().message, "$.jobs[4].count: must be >= 1, got -2");
}

TEST(JsonFields, WriterLeavesSparseZerosOutAndRoundTrips) {
  Doc doc;
  EXPECT_EQ(json_write(doc_fields(doc)).dump(),
            R"({"colour":"red","count":3,"delay":2,"enabled":true,)"
            R"("items":[],"latency":0.10000000000000001,"mode":"",)"
            R"("name":"doc","ratio":0.5,"seed":1})");
  doc.note = "kept";
  doc.colour = Colour::kGreen;
  doc.seed = std::uint64_t{1} << 40;
  doc.items.emplace_back(true);
  const JsonValue written = json_write(doc_fields(doc));
  EXPECT_EQ(written.find("note")->as_string(), "kept");
  EXPECT_EQ(written.find("colour")->as_string(), "green");

  Doc back;
  ASSERT_TRUE(json_read(written, doc_fields(back), "doc", "$"));
  EXPECT_EQ(json_write(doc_fields(back)).dump(), written.dump());
  EXPECT_EQ(back.seed, doc.seed);
  EXPECT_EQ(back.colour, Colour::kGreen);
}

}  // namespace
}  // namespace ars::obs
