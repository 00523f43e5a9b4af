// Property-style sweeps for the XML layer: randomly generated documents
// must survive writer -> reader intact, random byte mutations of valid
// documents (random trees and every golden protocol document) must never
// crash the reader or the message decoder, and every golden document must
// decode the same however its elements are reordered or padded.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

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

/// What a random document should read back as.
struct Node {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::string text;
  std::vector<Node> children;
};

Node build_random(support::Rng& rng, int depth) {
  Node node{random_name(rng), {}, {}, {}};
  const int attrs = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < attrs; ++i) {
    node.attrs.emplace_back("a" + std::to_string(i), random_text(rng));
  }
  if (depth <= 0 || rng.uniform() < 0.4) {
    // The reader trims surrounding whitespace from element text, so
    // generate pre-trimmed text for exact round trips.
    node.text = std::string(support::trim(random_text(rng)));
    return node;
  }
  const int children = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < children; ++i) {
    node.children.push_back(build_random(rng, depth - 1));
  }
  return node;
}

void write(XmlWriter& out, const Node& node) {
  out.open(node.name);
  for (const auto& [key, value] : node.attrs) {
    out.attr(key, value);
  }
  out.text(node.text);
  for (const Node& child : node.children) {
    write(out, child);
  }
  out.close(node.name);
}

std::string to_xml(const Node& node) {
  std::string wire;
  XmlWriter out{wire};
  write(out, node);
  return wire;
}

void expect_reads_as(XmlElement element, const Node& node) {
  EXPECT_EQ(element.name(), node.name);
  EXPECT_EQ(element.text(), node.text);
  for (const auto& [key, value] : node.attrs) {
    EXPECT_EQ(element.attr(key).value_or("<missing>"), value) << key;
  }
  auto child = element.child();
  for (const Node& expected : node.children) {
    ASSERT_TRUE(child.has_value()) << "missing <" << expected.name << ">";
    expect_reads_as(*child, expected);
    child = child->next_sibling();
  }
  EXPECT_FALSE(child.has_value()) << "extra <" << child->name() << ">";
}

/// `wire` with one random byte replaced, deleted or inserted.
std::string mutate(std::string wire, support::Rng& rng) {
  const auto position = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
  const auto byte = static_cast<char>(rng.uniform_int(32, 126));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      wire[position] = byte;
      break;
    case 1:
      wire.erase(position, 1);
      break;
    default:
      wire.insert(position, 1, byte);
      break;
  }
  return wire;
}

/// Visits every name, attribute and text view of a parsed document.
std::size_t touch(XmlElement element) {
  std::size_t bytes = element.name().size() + element.text().size() +
                      element.attr("a0").value_or("").size();
  for (auto c = element.child(); c.has_value(); c = c->next_sibling()) {
    bytes += touch(*c);
  }
  return bytes;
}

/// Padding the reader must ignore between elements.
std::string filler(support::Rng& rng) {
  static const char* kFillers[] = {"", " ", "\n  ", "\t", "<!-- note -->",
                                   " <!--<x>&--> \r\n"};
  return kFillers[rng.uniform_int(0, 5)];
}

/// Rewrites a parsed element with its children in a random order (each
/// name's repeats keep their relative order, since repeated blocks are
/// lists), its attributes in a random order with random quotes, padding
/// between elements and around text, and empty elements written either
/// way.
void scramble(XmlElement element, support::Rng& rng, std::string& out) {
  out += '<';
  out += element.name();
  std::vector<std::string_view> keys{"pspan", "txn", "type"};
  std::shuffle(keys.begin(), keys.end(), rng);
  for (const std::string_view key : keys) {
    if (const auto value = element.attr(key); value.has_value()) {
      const char quote = rng.uniform() < 0.5 ? '"' : '\'';
      out += ' ';
      out += key;
      out += '=';
      out += quote;
      XmlWriter{out}.text(*value);
      out += quote;
    }
  }
  std::vector<XmlElement> children;
  for (auto c = element.child(); c.has_value(); c = c->next_sibling()) {
    children.push_back(*c);
  }
  if (children.empty() && element.text().empty() && rng.uniform() < 0.5) {
    out += "/>";
    return;
  }
  out += '>';
  out += filler(rng);
  XmlWriter{out}.text(element.text());
  std::vector<std::size_t> order(children.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::map<std::string_view, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < children.size(); ++i) {
    by_name[children[i].name()].push_back(i);
  }
  std::map<std::string_view, std::size_t> taken;
  for (const std::size_t slot : order) {
    const std::string_view name = children[slot].name();
    scramble(children[by_name[name][taken[name]++]], rng, out);
    out += filler(rng);
  }
  out += "</";
  out += element.name();
  out += '>';
}

class XmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlFuzz, RandomDocumentRoundTrips) {
  support::Rng rng{GetParam()};
  const Node root = build_random(rng, 4);
  const std::string wire = to_xml(root);
  XmlReader reader;
  const auto parsed = reader.parse(wire);
  ASSERT_TRUE(parsed.has_value())
      << wire << " -> " << parsed.error().to_string();
  expect_reads_as(*parsed, root);
}

TEST_P(XmlFuzz, MutatedDocumentNeverCrashesParser) {
  support::Rng rng{GetParam() ^ 0xabcdef};
  const std::string wire = to_xml(build_random(rng, 3));
  // Apply a handful of random mutations; the reader must either succeed or
  // return an error, never crash or hang.
  XmlReader reader;
  for (int mutation = 0; mutation < 16; ++mutation) {
    const std::string mutated = mutate(wire, rng);
    const auto result = reader.parse(mutated);
    if (result.has_value()) {
      // If it still parses, every view must be readable.
      (void)touch(*result);
    }
  }
}

TEST_P(XmlFuzz, MutatedProtocolMessagesNeverCrashDecoder) {
  support::Rng rng{GetParam() ^ 0x1234};
  for (const golden::Document& doc : golden::corpus()) {
    for (int mutation = 0; mutation < 16; ++mutation) {
      // Must not crash; errors are fine.
      (void)decode_envelope(mutate(std::string(doc.wire), rng));
    }
  }
}

TEST_P(XmlFuzz, ScrambledGoldenDocumentsDecodeUnchanged) {
  support::Rng rng{GetParam() ^ 0x5eed};
  XmlReader reader;
  for (const golden::Document& doc : golden::corpus()) {
    const auto root = reader.parse(doc.wire);
    ASSERT_TRUE(root.has_value()) << doc.name;
    std::string scrambled =
        rng.uniform() < 0.5 ? "<?xml version=\"1.0\"?>" : "";
    scrambled += filler(rng);
    scramble(*root, rng, scrambled);
    scrambled += filler(rng);
    const auto envelope = decode_envelope(scrambled);
    ASSERT_TRUE(envelope.has_value())
        << doc.name << ": " << scrambled << " -> "
        << envelope.error().to_string();
    EXPECT_TRUE(envelope->message == doc.message)
        << doc.name << ": " << scrambled;
    EXPECT_EQ(envelope->trace.txn, doc.trace.txn) << doc.name;
    EXPECT_EQ(envelope->trace.parent_span, doc.trace.parent_span)
        << doc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ars::xmlproto
