#pragma once
// XML writer and reader for the rescheduler's documents.
//
// The paper's rescheduler entities talk "a custom XML based protocol with
// TCP/IP sockets", and the application schema is "in a XML format".  This is
// a deliberately small XML subset — elements, attributes, text, escaping —
// enough to express those documents while staying easy to debug (one of the
// paper's stated reasons for choosing XML).  Neither side builds a document
// tree: XmlWriter appends each element straight to a string, and XmlReader
// parses a document in one pass into flat arrays it reuses across parses.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "ars/support/expected.hpp"
#include "ars/support/strings.hpp"

namespace ars::xmlproto {

/// Appends XML to a string.  Text and attribute values are escaped
/// (&<>"'), and an element that gets neither text nor a child is written
/// self-closed: <name/>.  The string grows by doubling its capacity, as it
/// would byte by byte, so a document ends with the same capacity however
/// its bytes were batched.
class XmlWriter {
 public:
  explicit XmlWriter(std::string& out) noexcept : out_(out) {}

  /// Starts <name>; attr() calls may follow until its first text or child.
  void open(std::string_view name);
  void attr(std::string_view key, std::string_view value);
  void text(std::string_view value);
  void close(std::string_view name);

  /// <name>text</name>, or <name/> when `text` is empty.
  void element(std::string_view name, std::string_view text);
  /// A number in fixed notation with `decimals` digits: the bytes of
  /// std::to_chars(value, std::chars_format::fixed, decimals).
  void element(std::string_view name, double value, int decimals);
  /// A decimal integer (std::to_string's digits).
  template <std::integral T>
  void element(std::string_view name, T value) {
    char digits[24];
    const auto result = std::to_chars(digits, digits + sizeof digits, value);
    number(name, std::string_view(digits, result.ptr - digits));
  }

 private:
  /// <name>digits</name>.
  void number(std::string_view name, std::string_view digits);
  /// Grows out_ by `n` bytes, its capacity by doubling, and returns them.
  char* extend(std::size_t n);
  /// Appends the pieces (each convertible to std::string_view), unescaped.
  template <typename... Pieces>
  void put(const Pieces&... pieces);
  void put_escaped(std::string_view raw);

  std::string& out_;
  std::size_t empty_at_ = std::string::npos;  // out_'s size after a start tag
};

/// Element text as a T ("true"/"false" for bool, a decimal number for
/// arithmetic types), or nullopt when it is malformed or outside T's range —
/// never a wrapped or truncated value.
template <typename T>
std::optional<T> from_text(std::string_view text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return std::string(text);
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text == "true") return true;
    if (text == "false") return false;
    return std::nullopt;
  } else if constexpr (std::is_same_v<T, double>) {
    return support::parse_double(text);
  } else {
    const std::string_view digits = support::trim(text);
    // A text without a sign reads as a uint64_t for an unsigned T, so that
    // every value of T round-trips; any other as an int64_t.
    if constexpr (std::is_unsigned_v<T>) {
      if (!digits.starts_with('-')) {
        const char* const end = digits.data() + digits.size();
        std::uint64_t value = 0;
        const auto [stop, error] = std::from_chars(digits.data(), end, value);
        if (error != std::errc{} || stop != end || !std::in_range<T>(value)) {
          return std::nullopt;
        }
        return static_cast<T>(value);
      }
    }
    const auto value = support::parse_int(digits);
    if (!value.has_value() || !std::in_range<T>(*value)) {
      return std::nullopt;
    }
    return static_cast<T>(*value);
  }
}

namespace detail {

template <typename Word>
Word load(const char* bytes) noexcept {
  Word word;
  std::memcpy(&word, bytes, sizeof word);
  return word;
}

/// a == b, inline: names and keys are short, and the codec compares one per
/// field, where a call to memcmp costs more than the compare.  Up to 16
/// bytes take two overlapping word compares.
inline bool same(std::string_view a, std::string_view b) noexcept {
  const std::size_t n = a.size();
  if (n != b.size()) {
    return false;
  }
  const char* x = a.data();
  const char* y = b.data();
  if (n > 16) {
    return a == b;
  }
  if (n >= 8) {
    return load<std::uint64_t>(x) == load<std::uint64_t>(y) &&
           load<std::uint64_t>(x + n - 8) == load<std::uint64_t>(y + n - 8);
  }
  if (n >= 4) {
    return load<std::uint32_t>(x) == load<std::uint32_t>(y) &&
           load<std::uint32_t>(x + n - 4) == load<std::uint32_t>(y + n - 4);
  }
  return n == 0 ||
         (x[0] == y[0] && x[n / 2] == y[n / 2] && x[n - 1] == y[n - 1]);
}

}  // namespace detail

class XmlElement;

/// Parses single-root documents.  Comments and an <?xml ...?> prolog are
/// skipped; attribute values take single or double quotes; the five
/// standard entities are decoded; CDATA, processing instructions, DTDs and
/// character references are not supported.
class XmlReader {
 public:
  /// Deepest nesting accepted (the root is depth 1).  The deepest document
  /// the rescheduler writes has depth 3.
  static constexpr std::size_t kMaxDepth = 16;

  /// Parses `input`, replacing the previous document, and returns its root.
  /// Malformed input (unterminated tags or entities, mismatched close tags,
  /// unknown entities, trailing content, nesting deeper than kMaxDepth) is
  /// an `xml_parse` error.
  support::Expected<XmlElement> parse(std::string_view input);

 private:
  friend class XmlElement;
  class Parser;

  struct Attribute {
    std::string_view key;
    std::string_view value;
  };
  /// Elements are stored in document order, so an element's descendants
  /// are the elements in [index + 1, end).
  struct Element {
    std::string_view name;
    std::size_t parent = 0;
    std::size_t end = 0;
    std::size_t attrs_begin = 0;
    std::size_t attrs_end = 0;
    std::string_view text;
  };

  /// The first element named `name` (any, when empty) among the siblings
  /// from `from` up to `to`.
  [[nodiscard]] inline std::optional<XmlElement> find(
      std::size_t from, std::size_t to, std::string_view name) const;

  std::vector<Element> elements_;
  std::vector<Attribute> attrs_;
  // Attribute values with entities, and element text that has entities or
  // is split by a child or a comment, decoded.  Other values and text are
  // views into the input.  parse() reserves the input's size, which no
  // decoded text exceeds, so the views above never dangle.
  std::vector<char> text_;
  std::string pending_;  // such text of the elements still open, innermost last
};

/// One element of the document an XmlReader parsed last.  Its views point
/// into that input and into the reader: they are valid while both live,
/// until the reader's next parse().  A text or attribute value that is one
/// run of the input without entities is a view into the input.
class XmlElement {
 public:
  [[nodiscard]] std::string_view name() const { return node().name; }
  /// All character data directly inside the element, entity-decoded, then
  /// trimmed.
  [[nodiscard]] std::string_view text() const { return node().text; }
  /// The attribute's value; of repeated attributes, the last one.
  [[nodiscard]] std::optional<std::string_view> attr(
      std::string_view key) const;
  /// The first direct child named `name` (any child when `name` is empty).
  [[nodiscard]] std::optional<XmlElement> child(
      std::string_view name = {}) const {
    return reader_->find(index_ + 1, node().end, name);
  }
  /// The next sibling named `name` (any sibling when `name` is empty).
  [[nodiscard]] std::optional<XmlElement> next_sibling(
      std::string_view name = {}) const {
    const std::size_t siblings_end =
        index_ == 0 ? 0 : reader_->elements_[node().parent].end;
    return reader_->find(node().end, siblings_end, name);
  }

 private:
  friend class XmlReader;
  XmlElement(const XmlReader& reader, std::size_t index) noexcept
      : reader_(&reader), index_(index) {}
  [[nodiscard]] const XmlReader::Element& node() const {
    return reader_->elements_[index_];
  }

  const XmlReader* reader_;
  std::size_t index_;
};

std::optional<XmlElement> XmlReader::find(std::size_t from, std::size_t to,
                                          std::string_view name) const {
  for (std::size_t i = from; i < to; i = elements_[i].end) {
    if (name.empty() || detail::same(elements_[i].name, name)) {
      return XmlElement{*this, i};
    }
  }
  return std::nullopt;
}

}  // namespace ars::xmlproto
