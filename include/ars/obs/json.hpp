#pragma once
// Minimal JSON support: a value type, a recursive-descent parser, string
// escaping, and the field tables every document read from outside the
// program is declared with (fault plans, bundles, cluster and queue plans).
// The exporters build their output with plain string concatenation (hot
// path, bounded cost); the parser lets tests and tooling load documents
// back.  It accepts strict JSON (RFC 8259) and nothing more.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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

// -- field tables -----------------------------------------------------------
//
// A document read from outside the program (a fault plan, a bundle's root
// and scenario, a cluster or queue plan) is declared once, as a table of
// JsonFields bound to the members of the struct it fills.  json_read and
// json_write fold over that table under one set of rules:
//
//   * a key the table does not list is an error;
//   * a value of the wrong JSON type is an error;
//   * an integer member takes only a whole number inside its type's range;
//   * a number outside the field's bounds, or a string outside its
//     vocabulary, is an error;
//   * an absent key keeps the member's value, unless the field is required.
//
// An error's code is "<doc>.<key>" and its message "<path>.<key>: <what>".
// Presence borrows the wire tables' vocabulary (DESIGN.md §18): required
// and defaulted fields are always written, sparse ones only when they are
// not zero (empty string, array or object, 0, false).

/// One key of a JSON object and the member it reads into and writes from:
/// a bool, int, std::uint64_t, double, std::string, JsonArray, JsonObject,
/// or an enum whose enumerators index a name table.  The member must
/// outlive the field.
class JsonField {
 public:
  template <typename T>
  JsonField(std::string_view key, T& member) : key_(key), member_(&member) {}

  template <typename E>
    requires std::is_enum_v<E>
  JsonField(std::string_view key, E& member,
            std::span<const std::string_view> names)
      : key_(key),
        member_(Enum{&member,
                     [](const void* e) {
                       return static_cast<std::size_t>(
                           *static_cast<const E*>(e));
                     },
                     [](void* e, std::size_t index) {
                       *static_cast<E*>(e) = static_cast<E>(index);
                     }}),
        names_(names) {}

  // Rules, chained onto the constructor inside a table's initializer.
  /// Absence is an error.
  JsonField& required() {
    presence_ = Presence::kRequired;
    return *this;
  }
  /// Written only when not zero.
  JsonField& sparse() {
    presence_ = Presence::kSparse;
    return *this;
  }
  /// A string or array that must not be empty.
  JsonField& non_empty() {
    non_empty_ = true;
    return *this;
  }
  JsonField& at_least(double low) {
    low_ = low;
    return *this;
  }
  JsonField& above(double low) {
    low_open_ = true;
    return at_least(low);
  }
  JsonField& within(double low, double high) {
    high_ = high;
    return at_least(low);
  }
  /// A string member's closed vocabulary.
  JsonField& one_of(std::span<const std::string_view> names) {
    names_ = names;
    return *this;
  }

 private:
  friend support::Status json_read(const JsonValue&, std::span<const JsonField>,
                                   std::string_view, const std::string&);
  friend JsonValue json_write(std::span<const JsonField>);

  enum class Presence { kRequired, kDefaulted, kSparse };
  struct Enum {
    void* member;
    std::size_t (*get)(const void*);
    void (*set)(void*, std::size_t);
  };
  using Member = std::variant<bool*, int*, std::uint64_t*, double*,
                              std::string*, JsonArray*, JsonObject*, Enum>;

  /// Store `value` in the member; what is wrong with it, or "" once stored.
  [[nodiscard]] std::string read(const JsonValue& value) const;
  [[nodiscard]] JsonValue write() const;

  std::string_view key_;
  Member member_;
  std::span<const std::string_view> names_;
  Presence presence_ = Presence::kDefaulted;
  bool non_empty_ = false;
  double low_ = -std::numeric_limits<double>::infinity();
  double high_ = std::numeric_limits<double>::infinity();
  bool low_open_ = false;
};

/// Read `object` into the members `fields` are bound to.  `doc` prefixes
/// error codes ("plan", "bundle", "chaos") and `path` names the object in
/// messages ("$", "$.scenario", "$.faults[3]").  On error the members may
/// be partly written.
[[nodiscard]] support::Status json_read(const JsonValue& object,
                                        std::span<const JsonField> fields,
                                        std::string_view doc,
                                        const std::string& path);

/// The members `fields` are bound to, as one JSON object.
[[nodiscard]] JsonValue json_write(std::span<const JsonField> fields);

}  // namespace ars::obs
