#include "ars/obs/json.hpp"

#include <algorithm>
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

namespace {

/// `value` in its shortest round-trip form, for error messages ("2.7", not
/// the exporters' 17 significant digits).
std::string shortest(double value) {
  char buffer[32];
  const auto [end, error] =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  return error == std::errc{} ? std::string(buffer, end) : json_number(value);
}

}  // namespace

std::string JsonField::read(const JsonValue& value) const {
  const auto bounds = [this] {
    const std::string low = shortest(low_);
    if (high_ != std::numeric_limits<double>::infinity()) {
      return "in [" + low + ", " + shortest(high_) + "]";
    }
    return (low_open_ ? "> " : ">= ") + low;
  };
  const auto vocabulary = [this] {
    std::string out;
    for (const std::string_view name : names_) {
      out += (out.empty() ? "\"" : ", \"") + json_escape(name) + "\"";
    }
    return out;
  };
  return std::visit(
      [&](auto member) -> std::string {
        using M = decltype(member);
        if constexpr (std::is_same_v<M, bool*>) {
          if (!value.is_bool()) {
            return "expected true or false";
          }
          *member = value.as_bool();
        } else if constexpr (std::is_same_v<M, std::string*> ||
                             std::is_same_v<M, Enum>) {
          if (!value.is_string()) {
            return "expected a string";
          }
          const std::string& text = value.as_string();
          const auto name = std::find(names_.begin(), names_.end(), text);
          if (!names_.empty() && name == names_.end()) {
            return "expected one of " + vocabulary() + ", got \"" +
                   json_escape(text) + "\"";
          }
          if (non_empty_ && text.empty()) {
            return "must not be empty";
          }
          if constexpr (std::is_same_v<M, Enum>) {
            member.set(member.member,
                       static_cast<std::size_t>(name - names_.begin()));
          } else {
            *member = text;
          }
        } else if constexpr (std::is_same_v<M, JsonArray*>) {
          if (!value.is_array()) {
            return "expected an array";
          }
          if (non_empty_ && value.as_array().empty()) {
            return "must not be empty";
          }
          *member = value.as_array();
        } else if constexpr (std::is_same_v<M, JsonObject*>) {
          if (!value.is_object()) {
            return "expected an object";
          }
          *member = value.as_object();
        } else {
          using T = std::remove_pointer_t<M>;
          if (!value.is_number()) {
            return "expected a number";
          }
          const double number = value.as_number();
          if constexpr (std::is_integral_v<T>) {
            // Checked before the cast: a double outside T's range does not
            // convert (undefined behaviour), and a fraction would truncate.
            using Limits = std::numeric_limits<T>;
            const double past_max = std::ldexp(1.0, Limits::digits);
            if (number != std::trunc(number) ||
                !(number >= static_cast<double>(Limits::min()) &&
                  number < past_max)) {
              return "expected a whole number in [" +
                     std::to_string(Limits::min()) + ", " +
                     std::to_string(Limits::max()) + "], got " +
                     shortest(number);
            }
          }
          const bool low_ok = low_open_ ? number > low_ : number >= low_;
          if (!low_ok || number > high_) {
            return "must be " + bounds() + ", got " + shortest(number);
          }
          *member = static_cast<T>(number);
        }
        return {};
      },
      member_);
}

JsonValue JsonField::write() const {
  return std::visit(
      [this](auto member) -> JsonValue {
        using M = decltype(member);
        if constexpr (std::is_same_v<M, Enum>) {
          return std::string(names_[member.get(member.member)]);
        } else if constexpr (std::is_same_v<M, bool*> ||
                             std::is_same_v<M, std::string*> ||
                             std::is_same_v<M, JsonArray*> ||
                             std::is_same_v<M, JsonObject*>) {
          return *member;
        } else {
          return static_cast<double>(*member);
        }
      },
      member_);
}

support::Status json_read(const JsonValue& object,
                          std::span<const JsonField> fields,
                          std::string_view doc, const std::string& path) {
  const auto error = [&](std::string_view key, const std::string& what) {
    return support::make_error(std::string(doc) + "." + std::string(key),
                               path + "." + std::string(key) + ": " + what);
  };
  if (!object.is_object()) {
    return support::make_error(std::string(doc), path + ": expected an object");
  }
  for (const auto& [key, value] : object.as_object()) {
    const auto field =
        std::find_if(fields.begin(), fields.end(),
                     [&key](const JsonField& f) { return f.key_ == key; });
    if (field == fields.end()) {
      return error(key, "unknown key");
    }
    if (std::string what = field->read(value); !what.empty()) {
      return error(key, what);
    }
  }
  for (const JsonField& field : fields) {
    if (field.presence_ == JsonField::Presence::kRequired &&
        object.find(std::string(field.key_)) == nullptr) {
      return error(field.key_, "required key is missing");
    }
  }
  return support::Status::ok();
}

JsonValue json_write(std::span<const JsonField> fields) {
  JsonObject object;
  for (const JsonField& field : fields) {
    JsonValue value = field.write();
    const bool zero = value.is_bool()     ? !value.as_bool()
                      : value.is_number() ? value.as_number() == 0.0
                      : value.is_string() ? value.as_string().empty()
                      : value.is_array()  ? value.as_array().empty()
                      : value.is_object() ? value.as_object().empty()
                                          : false;
    if (field.presence_ != JsonField::Presence::kSparse || !zero) {
      object.emplace(std::string(field.key_), std::move(value));
    }
  }
  return JsonValue{std::move(object)};
}

}  // namespace ars::obs
