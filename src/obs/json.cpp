#include "ars/obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace ars::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  support::Expected<JsonValue> run() {
    skip_ws();
    auto value = parse_value();
    if (!value.has_value()) {
      return value;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after document");
    }
    return value;
  }

 private:
  support::Error fail(const std::string& what) const {
    return support::make_error(
        "json_parse", what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool eat_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  support::Expected<JsonValue> parse_value() {
    if (depth_ > kMaxDepth) {
      return fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case 'n':
        return eat_word("null") ? support::Expected<JsonValue>(JsonValue())
                                : support::Expected<JsonValue>(
                                      fail("invalid literal"));
      case 't':
        return eat_word("true")
                   ? support::Expected<JsonValue>(JsonValue(true))
                   : support::Expected<JsonValue>(fail("invalid literal"));
      case 'f':
        return eat_word("false")
                   ? support::Expected<JsonValue>(JsonValue(false))
                   : support::Expected<JsonValue>(fail("invalid literal"));
      case '"':
        return parse_string_value();
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  support::Expected<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (eat('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return fail("expected a value");
    }
    double out = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{} || ptr != last || !std::isfinite(out)) {
      pos_ = start;
      return fail("malformed number");
    }
    return JsonValue(out);
  }

  support::Expected<std::string> parse_string() {
    if (!eat('"')) {
      return fail("expected '\"'");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as-is; the exporters never emit them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  support::Expected<JsonValue> parse_string_value() {
    auto s = parse_string();
    if (!s.has_value()) {
      return s.error();
    }
    return JsonValue(std::move(*s));
  }

  support::Expected<JsonValue> parse_array() {
    ++depth_;
    (void)eat('[');
    JsonArray out;
    skip_ws();
    if (eat(']')) {
      --depth_;
      return JsonValue(std::move(out));
    }
    while (true) {
      skip_ws();
      auto value = parse_value();
      if (!value.has_value()) {
        return value;
      }
      out.push_back(std::move(*value));
      skip_ws();
      if (eat(']')) {
        --depth_;
        return JsonValue(std::move(out));
      }
      if (!eat(',')) {
        return fail("expected ',' or ']'");
      }
    }
  }

  support::Expected<JsonValue> parse_object() {
    ++depth_;
    (void)eat('{');
    JsonObject out;
    skip_ws();
    if (eat('}')) {
      --depth_;
      return JsonValue(std::move(out));
    }
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key.has_value()) {
        return key.error();
      }
      skip_ws();
      if (!eat(':')) {
        return fail("expected ':'");
      }
      skip_ws();
      auto value = parse_value();
      if (!value.has_value()) {
        return value;
      }
      out.insert_or_assign(std::move(*key), std::move(*value));
      skip_ws();
      if (eat('}')) {
        --depth_;
        return JsonValue(std::move(out));
      }
      if (!eat(',')) {
        return fail("expected ',' or '}'");
      }
    }
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

support::Expected<JsonValue> json_parse(std::string_view text) {
  return Parser(text).run();
}

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";  // JSON has no Inf/NaN; exporters should not emit them
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
    return buffer;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string JsonValue::dump() const {
  if (is_null()) {
    return "null";
  }
  if (is_bool()) {
    return as_bool() ? "true" : "false";
  }
  if (is_number()) {
    return json_number(as_number());
  }
  if (is_string()) {
    return "\"" + json_escape(as_string()) + "\"";
  }
  std::string out;
  if (is_array()) {
    out = "[";
    for (const JsonValue& item : as_array()) {
      if (out.size() > 1) {
        out += ",";
      }
      out += item.dump();
    }
    return out + "]";
  }
  out = "{";
  for (const auto& [key, value] : as_object()) {
    if (out.size() > 1) {
      out += ",";
    }
    out += "\"" + json_escape(key) + "\":" + value.dump();
  }
  return out + "}";
}

const char* first_out_of_bounds(const JsonValue& object,
                                std::initializer_list<JsonBounds> bounds) {
  for (const JsonBounds& bound : bounds) {
    const JsonValue* member = object.find(bound.key);
    if (member == nullptr || !member->is_number()) {
      continue;
    }
    const double value = member->as_number();
    if (!(value >= bound.low && value <= bound.high) ||
        (bound.whole && value != std::trunc(value))) {
      return bound.key;
    }
  }
  return nullptr;
}

}  // namespace ars::obs
