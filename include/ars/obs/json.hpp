#pragma once
// Minimal JSON support for the observability subsystem: a value type, a
// recursive-descent parser, and string escaping.  The exporters build their
// output with plain string concatenation (hot path, bounded cost); this
// parser exists so tests can load the exported documents back and assert
// structure, and so tooling that reads a dumped trace has an in-tree
// round-trip check.  It accepts strict JSON (RFC 8259) and nothing more.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ars/support/expected.hpp"

namespace ars::obs {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  JsonValue() : data_(nullptr) {}
  JsonValue(std::nullptr_t) : data_(nullptr) {}       // NOLINT
  JsonValue(bool b) : data_(b) {}                     // NOLINT
  JsonValue(double d) : data_(d) {}                   // NOLINT
  JsonValue(int i) : data_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(std::string s) : data_(std::move(s)) {}   // NOLINT
  JsonValue(const char* s) : data_(std::string(s)) {}  // NOLINT
  JsonValue(JsonArray a) : data_(std::move(a)) {}     // NOLINT
  JsonValue(JsonObject o) : data_(std::move(o)) {}    // NOLINT

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(data_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(data_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(data_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<JsonArray>(data_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<JsonObject>(data_);
  }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(data_); }
  [[nodiscard]] double as_number() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(data_);
  }
  [[nodiscard]] const JsonArray& as_array() const {
    return std::get<JsonArray>(data_);
  }
  [[nodiscard]] const JsonObject& as_object() const {
    return std::get<JsonObject>(data_);
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (!is_object()) {
      return nullptr;
    }
    const auto& object = as_object();
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  /// Serialize back to compact JSON text (stable member order: std::map).
  [[nodiscard]] std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      data_;
};

/// Parse one JSON document; trailing non-whitespace is an error.
[[nodiscard]] support::Expected<JsonValue> json_parse(std::string_view text);

/// Escape `raw` for embedding between double quotes in a JSON document.
[[nodiscard]] std::string json_escape(std::string_view raw);

/// Format a double the way the exporters do: integral values without a
/// fractional part, everything else with enough digits to round-trip.
[[nodiscard]] std::string json_number(double value);

/// The accepted range of one numeric member of outside input (a bundle or a
/// plan file), checked before the reader casts it.
struct JsonBounds {
  const char* key;
  double low;   // inclusive
  double high;  // inclusive
  bool whole = false;  // must also be an integer
};

/// The key of the first of `bounds` whose member of `object` is a number
/// out of range (or fractional where `whole`), or nullptr when every one
/// fits.  Absent and non-number members pass: readers default those.
[[nodiscard]] const char* first_out_of_bounds(
    const JsonValue& object, std::initializer_list<JsonBounds> bounds);

}  // namespace ars::obs
