// Property-style sweeps for the XML layer: randomly generated documents
// must round-trip writer -> parser -> writer byte-identically, and random
// byte mutations of valid documents (random trees and every golden protocol
// document) must never crash the parser or the message decoder.

#include <gtest/gtest.h>

#include "ars/support/rng.hpp"
#include "ars/support/strings.hpp"
#include "ars/xmlproto/messages.hpp"
#include "ars/xmlproto/xml.hpp"
#include "wire_golden.hpp"

namespace ars::xmlproto {
namespace {

std::string random_name(support::Rng& rng) {
  static const char* kNames[] = {"host", "load", "status", "cfg", "item",
                                 "rule", "x", "metric", "node", "entry"};
  return kNames[rng.uniform_int(0, 9)];
}

std::string random_text(support::Rng& rng) {
  std::string text;
  const int length = static_cast<int>(rng.uniform_int(0, 24));
  for (int i = 0; i < length; ++i) {
    // Includes the XML special characters to exercise escaping.
    static const char kAlphabet[] =
        "abc XYZ0123456789&<>\"'._-";
    text.push_back(
        kAlphabet[rng.uniform_int(0, sizeof kAlphabet - 2)]);
  }
  return text;
}

void build_random(XmlNode& node, support::Rng& rng, int depth) {
  const int attrs = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < attrs; ++i) {
    node.set_attr("a" + std::to_string(i), random_text(rng));
  }
  if (depth <= 0 || rng.uniform() < 0.4) {
    // The parser canonicalizes element text by trimming surrounding
    // whitespace, so generate pre-trimmed text for byte-exact round trips.
    node.set_text(std::string(support::trim(random_text(rng))));
    return;
  }
  const int children = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < children; ++i) {
    build_random(node.add_child(random_name(rng)), rng, depth - 1);
  }
}

class XmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlFuzz, RandomDocumentRoundTrips) {
  support::Rng rng{GetParam()};
  XmlNode root{random_name(rng)};
  build_random(root, rng, 4);
  const std::string wire = root.to_string();
  const auto parsed = parse_xml(wire);
  ASSERT_TRUE(parsed.has_value())
      << wire << " -> " << parsed.error().to_string();
  EXPECT_EQ((*parsed)->to_string(), wire);
}

TEST_P(XmlFuzz, MutatedDocumentNeverCrashesParser) {
  support::Rng rng{GetParam() ^ 0xabcdef};
  XmlNode root{random_name(rng)};
  build_random(root, rng, 3);
  std::string wire = root.to_string();
  // Apply a handful of random mutations; the parser must either succeed or
  // return an error, never crash or hang.
  for (int mutation = 0; mutation < 16; ++mutation) {
    std::string mutated = wire;
    const auto position = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        mutated[position] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:
        mutated.erase(position, 1);
        break;
      default:
        mutated.insert(position, 1,
                       static_cast<char>(rng.uniform_int(32, 126)));
        break;
    }
    const auto result = parse_xml(mutated);
    if (result.has_value()) {
      // If it still parses, it must re-serialize without crashing.
      (void)(*result)->to_string();
    }
  }
}

TEST_P(XmlFuzz, MutatedProtocolMessagesNeverCrashDecoder) {
  support::Rng rng{GetParam() ^ 0x1234};
  for (const golden::Document& doc : golden::corpus()) {
    for (int mutation = 0; mutation < 16; ++mutation) {
      std::string mutated(doc.wire);
      const auto position = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[position] = static_cast<char>(rng.uniform_int(32, 126));
      (void)decode_envelope(mutated);  // must not crash; errors are fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ars::xmlproto
