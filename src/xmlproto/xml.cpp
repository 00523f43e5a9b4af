#include "ars/xmlproto/xml.hpp"

#include <array>
#include <utility>

#include "ars/support/strings.hpp"

namespace ars::xmlproto {

using support::Error;
using support::Expected;
using support::make_error;

namespace {

// The "C" locale's isspace and isalnum, inline: the reader tests every byte.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

constexpr bool is_name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
         c == ':';
}

void append_escaped(std::string& out, std::string_view raw) {
  for (const char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
}

}  // namespace

// ---- writer -----------------------------------------------------------------

void XmlWriter::open(std::string_view name) {
  out_ += '<';
  out_ += name;
  out_ += '>';
  empty_at_ = out_.size();
}

void XmlWriter::attr(std::string_view key, std::string_view value) {
  out_.pop_back();  // the start tag's '>'
  out_ += ' ';
  out_ += key;
  out_ += "=\"";
  append_escaped(out_, value);
  out_ += "\">";
  empty_at_ = out_.size();
}

void XmlWriter::text(std::string_view value) { append_escaped(out_, value); }

void XmlWriter::close(std::string_view name) {
  if (out_.size() == empty_at_) {  // nothing since the start tag
    out_.insert(out_.size() - 1, 1, '/');
    return;
  }
  out_ += "</";
  out_ += name;
  out_ += '>';
}

void XmlWriter::element(std::string_view name, std::string_view text) {
  open(name);
  this->text(text);
  close(name);
}

void XmlWriter::element(std::string_view name, double value, int decimals) {
  // Room for the 309 integer digits of the largest double, sign, point and
  // the few decimals callers ask for.
  char digits[400];
  const auto result = std::to_chars(digits, digits + sizeof digits, value,
                                    std::chars_format::fixed, decimals);
  element(name, std::string_view(digits, result.ptr - digits));
}

// ---- reader -----------------------------------------------------------------

/// One pass over the input into the reader's arrays.  The open elements
/// form an explicit stack (no recursion), so nesting is bounded by
/// kMaxDepth rather than by the thread's stack.
class XmlReader::Parser {
 public:
  Parser(XmlReader& reader, std::string_view input)
      : reader_(reader), input_(input) {}

  /// Parses the whole input; on failure error() says why.
  bool document() {
    skip_whitespace();
    if (match("<?xml")) {
      skip_past("?>");
    }
    skip_whitespace_and_comments();
    if (eof() || peek() != '<') {
      return failed("expected element start '<'");
    }
    bool ok = start_tag();
    while (ok && depth_ > 0) {
      if (eof()) {
        return failed("unterminated element <" + std::string(open().name) +
                      ">");
      }
      if (peek() == '&') {
        ok = read_entity(reader_.pending_);
      } else if (peek() != '<') {
        const std::size_t start = pos_;
        while (!eof() && peek() != '<' && peek() != '&') {
          ++pos_;
        }
        reader_.pending_.append(input_.substr(start, pos_ - start));
      } else if (!skip_comment()) {
        ok = match("</") ? end_tag() : start_tag();
      }
    }
    skip_whitespace_and_comments();
    if (ok && !eof()) {
      return failed("trailing content after root element");
    }
    return ok;
  }

  Error error() && { return std::move(*error_); }

 private:
  /// Records an error at the current offset; returns false.
  bool failed(const std::string& message) {
    error_ = make_error("xml_parse", message + " (at offset " +
                                         std::to_string(pos_) + ")");
    return false;
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= input_.size(); }
  [[nodiscard]] char peek() const noexcept { return input_[pos_]; }
  [[nodiscard]] bool match(std::string_view token) const noexcept {
    return input_.substr(pos_, token.size()) == token;
  }
  Element& open() { return reader_.elements_[open_[depth_ - 1]]; }

  void skip_whitespace() {
    while (!eof() && is_space(peek())) {
      ++pos_;
    }
  }
  /// Moves past the next `token`, or to the end when there is none.
  void skip_past(std::string_view token) {
    const auto end = input_.find(token, pos_);
    pos_ = end == std::string_view::npos ? input_.size() : end + token.size();
  }
  bool skip_comment() {
    if (!match("<!--")) {
      return false;
    }
    pos_ += 4;
    skip_past("-->");
    return true;
  }
  void skip_whitespace_and_comments() {
    do {
      skip_whitespace();
    } while (skip_comment());
  }

  std::string_view read_name() {
    const std::size_t start = pos_;
    while (!eof() && is_name_char(peek())) {
      ++pos_;
    }
    return input_.substr(start, pos_ - start);
  }

  /// Decodes the entity at pos_ ('&') onto `out`.
  template <typename Out>
  bool read_entity(Out& out) {
    static constexpr std::pair<std::string_view, char> kEntities[] = {
        {"amp", '&'}, {"lt", '<'}, {"gt", '>'}, {"quot", '"'}, {"apos", '\''}};
    const auto length = input_.substr(pos_, 9).find(';');
    if (length == std::string_view::npos) {
      return failed("unterminated entity");
    }
    const std::string_view entity = input_.substr(pos_ + 1, length - 1);
    pos_ += length + 1;
    for (const auto& [name, c] : kEntities) {
      if (entity == name) {
        out.push_back(c);
        return true;
      }
    }
    return failed("unknown entity '&" + std::string(entity) + ";'");
  }

  /// Reads a quoted attribute value onto the reader's text.
  bool read_attr_value(std::string_view& value) {
    if (eof() || (peek() != '"' && peek() != '\'')) {
      return failed("expected quoted attribute value");
    }
    const char quote = peek();
    ++pos_;
    std::vector<char>& text = reader_.text_;
    const std::size_t begin = text.size();
    while (!eof() && peek() != quote) {
      if (peek() != '&') {
        text.push_back(peek());
        ++pos_;
      } else if (!read_entity(text)) {
        return false;
      }
    }
    if (eof()) {
      return failed("unterminated attribute value");
    }
    ++pos_;  // closing quote
    value = std::string_view(text.data() + begin, text.size() - begin);
    return true;
  }

  /// Reads the start tag at pos_ ('<') with its attributes, and opens the
  /// element unless it closes itself.
  bool start_tag() {
    ++pos_;
    Element element;
    element.name = read_name();
    const std::string_view name = element.name;
    if (name.empty()) {
      return failed("empty element name");
    }
    if (depth_ == kMaxDepth) {
      return failed("<" + std::string(name) + "> nested deeper than " +
                    std::to_string(kMaxDepth) + " levels");
    }
    element.parent = depth_ == 0 ? 0 : open_[depth_ - 1];
    element.attrs_begin = reader_.attrs_.size();
    while (true) {
      skip_whitespace();
      if (eof()) {
        return failed("unterminated start tag <" + std::string(name));
      }
      if (peek() == '/' || peek() == '>') {
        break;
      }
      Attribute attr;
      attr.key = read_name();
      if (attr.key.empty()) {
        return failed("malformed attribute in <" + std::string(name) + ">");
      }
      skip_whitespace();
      if (eof() || peek() != '=') {
        return failed("expected '=' after attribute '" +
                      std::string(attr.key) + "'");
      }
      ++pos_;
      skip_whitespace();
      if (!read_attr_value(attr.value)) {
        return false;
      }
      reader_.attrs_.push_back(attr);
    }
    element.attrs_end = reader_.attrs_.size();
    const std::size_t index = reader_.elements_.size();
    element.end = index + 1;
    reader_.elements_.push_back(element);
    if (peek() == '/') {
      ++pos_;
      if (eof() || peek() != '>') {
        return failed("malformed self-closing tag <" + std::string(name));
      }
      ++pos_;
      return true;
    }
    ++pos_;  // '>'
    open_[depth_] = index;
    text_mark_[depth_] = reader_.pending_.size();
    ++depth_;
    return true;
  }

  /// Reads the close tag at pos_ ("</") of the innermost open element and
  /// closes it.
  bool end_tag() {
    pos_ += 2;
    const std::string_view close = read_name();
    Element& element = open();
    if (close != element.name) {
      return failed("mismatched close tag </" + std::string(close) +
                    "> for <" + std::string(element.name) + ">");
    }
    skip_whitespace();
    if (eof() || peek() != '>') {
      return failed("malformed close tag </" + std::string(close));
    }
    ++pos_;
    std::string& pending = reader_.pending_;
    const std::size_t mark = text_mark_[depth_ - 1];
    const std::string_view text =
        support::trim(std::string_view(pending).substr(mark));
    std::vector<char>& out = reader_.text_;
    out.insert(out.end(), text.begin(), text.end());
    element.text = std::string_view(out.data() + out.size() - text.size(),
                                    text.size());
    pending.resize(mark);
    element.end = reader_.elements_.size();
    --depth_;
    return true;
  }

  XmlReader& reader_;
  std::string_view input_;
  std::size_t pos_ = 0;
  std::optional<Error> error_;
  // The open elements, outermost first, and where the text of each starts
  // in reader_.pending_.
  std::array<std::size_t, kMaxDepth> open_{};
  std::array<std::size_t, kMaxDepth> text_mark_{};
  std::size_t depth_ = 0;
};

Expected<XmlElement> XmlReader::parse(std::string_view input) {
  elements_.clear();
  attrs_.clear();
  text_.clear();
  text_.reserve(input.size());
  pending_.clear();
  Parser parser{*this, input};
  if (!parser.document()) {
    return std::move(parser).error();
  }
  return XmlElement{*this, 0};
}

std::optional<XmlElement> XmlReader::find(std::size_t from, std::size_t to,
                                          std::string_view name) const {
  for (std::size_t i = from; i < to; i = elements_[i].end) {
    if (name.empty() || elements_[i].name == name) {
      return XmlElement{*this, i};
    }
  }
  return std::nullopt;
}

std::optional<std::string_view> XmlElement::attr(std::string_view key) const {
  for (std::size_t i = node().attrs_end; i > node().attrs_begin; --i) {
    if (reader_->attrs_[i - 1].key == key) {
      return reader_->attrs_[i - 1].value;
    }
  }
  return std::nullopt;
}

}  // namespace ars::xmlproto
