#include "ars/xmlproto/xml.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

namespace ars::xmlproto {

using support::Error;
using support::Expected;
using support::make_error;

namespace {

// The "C" locale's isspace, inline: the reader tests every byte.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// support::trim, inline.
constexpr std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) {
    ++begin;
  }
  while (end > begin && is_space(text[end - 1])) {
    --end;
  }
  return text.substr(begin, end - begin);
}

/// The bytes a name may hold, indexed by byte.
constexpr auto kNameChars = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[c] = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
               c == ':';
  }
  return table;
}();

/// The entity that stands for `c` in escaped text, or nullptr.
constexpr const char* entity_for(char c) noexcept {
  switch (c) {
    case '&': return "&amp;";
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '"': return "&quot;";
    case '\'': return "&apos;";
    default: return nullptr;
  }
}

/// Copies `piece` to `out` and returns its end.  Names, numbers and most
/// text are shorter than 16 bytes, and two overlapping fixed-size moves
/// copy them for less than a call to memcpy does.
inline char* copy(char* out, std::string_view piece) {
  const char* in = piece.data();
  const std::size_t n = piece.size();
  if (n >= 16) {
    std::memcpy(out, in, n);
  } else if (n >= 8) {
    std::memcpy(out, in, 8);
    std::memcpy(out + n - 8, in + n - 8, 8);
  } else if (n >= 4) {
    std::memcpy(out, in, 4);
    std::memcpy(out + n - 4, in + n - 4, 4);
  } else if (n > 0) {
    out[0] = in[0];
    out[n / 2] = in[n / 2];
    out[n - 1] = in[n - 1];
  }
  return out + n;
}

// GCC's and Clang's 128-bit integer; __extension__ keeps -Wpedantic quiet.
__extension__ typedef unsigned __int128 Uint128;

/// 10^0 .. 10^19, every power of ten a std::uint64_t holds.
constexpr auto kPowersOf10 = [] {
  std::array<std::uint64_t, 20> powers{};
  powers[0] = 1;
  for (std::size_t i = 1; i < powers.size(); ++i) {
    powers[i] = powers[i - 1] * 10;
  }
  return powers;
}();

/// `value` in fixed notation with `decimals` digits, written at the end of
/// `buffer`, or nullopt when the value is not finite or |value| *
/// 10^decimals, rounded, does not fit 64 bits.  A finite double is m * 2^e
/// exactly (m < 2^53), so m * 10^decimals * 2^e is an exact 128-bit product
/// and shift, and the remainder of the shift decides the rounding: half to
/// even, as std::to_chars rounds the exact binary value.
std::optional<std::string_view> fixed_digits(char (&buffer)[48], double value,
                                             int decimals) {
  if (decimals < 0 || decimals >= static_cast<int>(kPowersOf10.size())) {
    return std::nullopt;
  }
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0x7ff) {  // infinity or NaN
    return std::nullopt;
  }
  std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
  int exponent = -1074;  // zero and subnormals
  if (biased != 0) {
    mantissa |= std::uint64_t{1} << 52;
    exponent = biased - 1075;
  }
  const Uint128 scaled =
      static_cast<Uint128>(mantissa) * kPowersOf10[decimals];  // < 2^117
  std::uint64_t n = 0;
  if (exponent >= 0) {  // an integer; mantissa >= 2^52 here
    if (exponent >= 64 || (scaled >> (64 - exponent)) != 0) {
      return std::nullopt;
    }
    n = static_cast<std::uint64_t>(scaled << exponent);
  } else if (exponent > -128) {
    const int shift = -exponent;
    Uint128 quotient = scaled >> shift;
    const Uint128 remainder = scaled - (quotient << shift);
    const Uint128 half = Uint128{1} << (shift - 1);
    if (remainder > half || (remainder == half && (quotient & 1) != 0)) {
      ++quotient;
    }
    if ((quotient >> 64) != 0) {
      return std::nullopt;
    }
    n = static_cast<std::uint64_t>(quotient);
  }  // else scaled < 2^117 <= half of 2^128: rounds to 0
  char* const end = buffer + sizeof buffer;
  char* p = end;
  for (int i = 0; i < decimals; ++i) {
    *--p = static_cast<char>('0' + n % 10);
    n /= 10;
  }
  if (decimals > 0) {
    *--p = '.';
  }
  do {
    *--p = static_cast<char>('0' + n % 10);
    n /= 10;
  } while (n != 0);
  if ((bits >> 63) != 0) {
    *--p = '-';
  }
  return std::string_view(p, static_cast<std::size_t>(end - p));
}

}  // namespace

// ---- writer -----------------------------------------------------------------

char* XmlWriter::extend(std::size_t n) {
  const std::size_t at = out_.size();
  if (at + n > out_.capacity()) {
    std::size_t capacity = out_.capacity();
    do {
      capacity *= 2;
    } while (capacity < at + n);
    out_.reserve(capacity);
  }
  out_.resize(at + n);
  return out_.data() + at;
}

namespace {

/// A piece put() appends: a string literal (its length known when this is
/// compiled) or a view.
template <std::size_t N>
constexpr std::string_view piece(const char (&literal)[N]) noexcept {
  return {literal, N - 1};
}
constexpr std::string_view piece(std::string_view view) noexcept {
  return view;
}

}  // namespace

template <typename... Pieces>
void XmlWriter::put(const Pieces&... pieces) {
  char* p = extend((piece(pieces).size() + ...));
  ((p = copy(p, piece(pieces))), ...);
}

void XmlWriter::put_escaped(std::string_view raw) {
  std::size_t run = 0;  // start of the bytes not yet written
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (const char* entity = entity_for(raw[i]); entity != nullptr) {
      put(raw.substr(run, i - run));
      out_ += entity;  // shorter than any capacity, so that doubles it too
      run = i + 1;
    }
  }
  put(raw.substr(run));
}

void XmlWriter::open(std::string_view name) {
  put("<", name, ">");
  empty_at_ = out_.size();
}

void XmlWriter::attr(std::string_view key, std::string_view value) {
  out_.pop_back();  // the start tag's '>'
  put(" ", key, "=\"");
  put_escaped(value);
  put("\">");
  empty_at_ = out_.size();
}

void XmlWriter::text(std::string_view value) { put_escaped(value); }

void XmlWriter::close(std::string_view name) {
  if (out_.size() == empty_at_) {  // nothing since the start tag
    out_.back() = '/';
    put(">");
    return;
  }
  put("</", name, ">");
}

void XmlWriter::element(std::string_view name, std::string_view text) {
  if (text.empty()) {
    put("<", name, "/>");
  } else if (std::none_of(text.begin(), text.end(), entity_for)) {
    put("<", name, ">", text, "</", name, ">");
  } else {
    put("<", name, ">");
    put_escaped(text);
    put("</", name, ">");
  }
}

void XmlWriter::element(std::string_view name, double value, int decimals) {
  char buffer[48];
  if (const auto digits = fixed_digits(buffer, value, decimals)) {
    number(name, *digits);
    return;
  }
  // Room for the 309 integer digits of the largest double, sign, point and
  // the few decimals callers ask for.
  char wide[400];
  const auto result = std::to_chars(wide, wide + sizeof wide, value,
                                    std::chars_format::fixed, decimals);
  number(name, std::string_view(wide, result.ptr - wide));
}

void XmlWriter::number(std::string_view name, std::string_view digits) {
  put("<", name, ">", digits, "</", name, ">");
}

// ---- reader -----------------------------------------------------------------

/// One pass over the input into the reader's arrays.  The open elements
/// form an explicit stack (no recursion), so nesting is bounded by
/// kMaxDepth rather than by the thread's stack.
class XmlReader::Parser {
 public:
  Parser(XmlReader& reader, std::string_view input)
      : reader_(reader),
        begin_(input.data()),
        end_(input.data() + input.size()),
        p_(begin_) {}

  /// Parses the whole input; on failure error() says why.
  bool document() {
    skip_whitespace();
    if (end_ - p_ >= 5 && std::string_view(p_, 5) == "<?xml") {
      skip_past("?>");
    }
    skip_whitespace_and_comments();
    if (eof() || *p_ != '<') {
      return failed("expected element start '<'");
    }
    bool ok = start_tag();
    while (ok && depth_ > 0) {
      if (eof()) {
        return failed("unterminated element <" +
                      std::string(element(open_[depth_ - 1]).name) + ">");
      }
      if (*p_ == '&') {
        ok = entity_text();
      } else if (*p_ != '<') {
        text_run();
      } else if (!skip_comment()) {
        ok = end_ - p_ >= 2 && p_[1] == '/' ? end_tag() : start_tag();
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
  /// An element whose close tag has not been read yet.  Its character data
  /// stays a view into the input while it is one run without entities;
  /// a second piece spills it into reader_.pending_.
  struct Open {
    std::size_t element = 0;
    std::string_view run;
    std::size_t spilled_at = std::string::npos;  // its start in pending_
  };

  /// Records an error at the current offset; returns false.
  bool failed(const std::string& message) {
    error_ = make_error("xml_parse", message + " (at offset " +
                                         std::to_string(p_ - begin_) + ")");
    return false;
  }

  [[nodiscard]] bool eof() const noexcept { return p_ == end_; }
  Element& element(const Open& open) {
    return reader_.elements_[open.element];
  }

  void skip_whitespace() {
    const char* p = p_;
    while (p != end_ && is_space(*p)) {
      ++p;
    }
    p_ = p;
  }
  /// Moves past the next `token`, or to the end when there is none.
  void skip_past(std::string_view token) {
    const std::string_view rest(p_, end_ - p_);
    const auto at = rest.find(token);
    p_ = at == std::string_view::npos ? end_ : p_ + at + token.size();
  }
  bool skip_comment() {
    if (end_ - p_ < 4 || p_[0] != '<' || p_[1] != '!' || p_[2] != '-' ||
        p_[3] != '-') {
      return false;
    }
    p_ += 4;
    skip_past("-->");
    return true;
  }
  void skip_whitespace_and_comments() {
    do {
      skip_whitespace();
    } while (skip_comment());
  }

  std::string_view read_name() {
    const char* const start = p_;
    const char* p = p_;
    while (p != end_ && kNameChars[static_cast<unsigned char>(*p)]) {
      ++p;
    }
    p_ = p;
    return {start, static_cast<std::size_t>(p - start)};
  }

  /// Decodes the entity at p_ ('&') onto `out`.
  template <typename Out>
  bool read_entity(Out& out) {
    static constexpr std::pair<std::string_view, char> kEntities[] = {
        {"amp", '&'}, {"lt", '<'}, {"gt", '>'}, {"quot", '"'}, {"apos", '\''}};
    const std::string_view rest(p_, end_ - p_);
    const auto length = rest.substr(0, 9).find(';');
    if (length == std::string_view::npos) {
      return failed("unterminated entity");
    }
    const std::string_view entity = rest.substr(1, length - 1);
    p_ += length + 1;
    for (const auto& [name, c] : kEntities) {
      if (entity == name) {
        out.push_back(c);
        return true;
      }
    }
    return failed("unknown entity '&" + std::string(entity) + ";'");
  }

  /// Moves the innermost open element's text into pending_, if it is still
  /// a view, so that more can be appended.
  std::string& spill() {
    Open& open = open_[depth_ - 1];
    std::string& pending = reader_.pending_;
    if (open.spilled_at == std::string::npos) {
      open.spilled_at = pending.size();
      pending.append(open.run);
    }
    return pending;
  }

  /// Character data up to the next '<' or '&'.
  void text_run() {
    const char* const start = p_;
    const char* p = p_;
    while (p != end_ && *p != '<' && *p != '&') {
      ++p;
    }
    p_ = p;
    const std::string_view run(start, static_cast<std::size_t>(p - start));
    Open& open = open_[depth_ - 1];
    if (open.spilled_at == std::string::npos && open.run.empty()) {
      open.run = run;
    } else {
      spill().append(run);
    }
  }

  bool entity_text() { return read_entity(spill()); }

  /// Reads a quoted attribute value: a view into the input, or its decoded
  /// copy in the reader's text when it has entities.
  bool read_attr_value(std::string_view& value) {
    if (eof() || (*p_ != '"' && *p_ != '\'')) {
      return failed("expected quoted attribute value");
    }
    const char quote = *p_++;
    const char* const start = p_;
    const char* p = p_;
    while (p != end_ && *p != quote && *p != '&') {
      ++p;
    }
    p_ = p;
    if (p != end_ && *p == quote) {
      ++p_;
      value = std::string_view(start, static_cast<std::size_t>(p - start));
      return true;
    }
    std::vector<char>& text = reader_.text_;
    const std::size_t begin = text.size();
    text.insert(text.end(), start, p);
    while (!eof() && *p_ != quote) {
      if (*p_ != '&') {
        text.push_back(*p_);
        ++p_;
      } else if (!read_entity(text)) {
        return false;
      }
    }
    if (eof()) {
      return failed("unterminated attribute value");
    }
    ++p_;  // closing quote
    value = std::string_view(text.data() + begin, text.size() - begin);
    return true;
  }

  /// Reads the start tag at p_ ('<') with its attributes, and opens the
  /// element unless it closes itself.
  bool start_tag() {
    ++p_;
    const std::string_view name = read_name();
    if (name.empty()) {
      return failed("empty element name");
    }
    if (depth_ == kMaxDepth) {
      return failed("<" + std::string(name) + "> nested deeper than " +
                    std::to_string(kMaxDepth) + " levels");
    }
    const std::size_t index = reader_.elements_.size();
    Element& element = reader_.elements_.emplace_back();
    element.name = name;
    element.parent = depth_ == 0 ? 0 : open_[depth_ - 1].element;
    element.attrs_begin = reader_.attrs_.size();
    while (true) {
      skip_whitespace();
      if (eof()) {
        return failed("unterminated start tag <" + std::string(name));
      }
      if (*p_ == '/' || *p_ == '>') {
        break;
      }
      Attribute& attr = reader_.attrs_.emplace_back();
      attr.key = read_name();
      if (attr.key.empty()) {
        return failed("malformed attribute in <" + std::string(name) + ">");
      }
      skip_whitespace();
      if (eof() || *p_ != '=') {
        return failed("expected '=' after attribute '" +
                      std::string(attr.key) + "'");
      }
      ++p_;
      skip_whitespace();
      if (!read_attr_value(attr.value)) {
        return false;
      }
    }
    element.attrs_end = reader_.attrs_.size();
    element.end = index + 1;
    if (*p_ == '/') {
      ++p_;
      if (eof() || *p_ != '>') {
        return failed("malformed self-closing tag <" + std::string(name));
      }
      ++p_;
      return true;
    }
    ++p_;  // '>'
    open_[depth_] = Open{index, {}, std::string::npos};
    ++depth_;
    return true;
  }

  /// Reads the close tag at p_ ("</") of the innermost open element and
  /// closes it.
  bool end_tag() {
    p_ += 2;
    const Open& open = open_[depth_ - 1];
    Element& element = this->element(open);
    // The close tag names the element when the input goes on with its name
    // and then a byte that cannot extend a name.
    const std::string_view name = element.name;
    if (static_cast<std::size_t>(end_ - p_) > name.size() &&
        detail::same(std::string_view(p_, name.size()), name) &&
        !kNameChars[static_cast<unsigned char>(p_[name.size()])]) {
      p_ += name.size();
    } else if (const std::string_view close = read_name();
               !detail::same(close, name)) {
      return failed("mismatched close tag </" + std::string(close) +
                    "> for <" + std::string(name) + ">");
    }
    skip_whitespace();
    if (eof() || *p_ != '>') {
      return failed("malformed close tag </" + std::string(name));
    }
    ++p_;
    if (open.spilled_at == std::string::npos) {
      element.text = trim(open.run);
    } else {
      std::string& pending = reader_.pending_;
      const std::string_view text =
          trim(std::string_view(pending).substr(open.spilled_at));
      std::vector<char>& out = reader_.text_;
      out.insert(out.end(), text.begin(), text.end());
      element.text = std::string_view(out.data() + out.size() - text.size(),
                                      text.size());
      pending.resize(open.spilled_at);
    }
    element.end = reader_.elements_.size();
    --depth_;
    return true;
  }

  XmlReader& reader_;
  const char* begin_;
  const char* end_;
  const char* p_;
  std::optional<Error> error_;
  std::array<Open, kMaxDepth> open_{};  // outermost first
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

std::optional<std::string_view> XmlElement::attr(std::string_view key) const {
  for (std::size_t i = node().attrs_end; i > node().attrs_begin; --i) {
    if (detail::same(reader_->attrs_[i - 1].key, key)) {
      return reader_->attrs_[i - 1].value;
    }
  }
  return std::nullopt;
}

}  // namespace ars::xmlproto
