#include "ars/support/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace ars::support {

namespace {

// The "C" locale's isspace (ASCII whitespace), inline: the wire codec trims
// every field it reads.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// 10^0 .. 10^22, the powers of ten a double holds exactly.
constexpr double kExactPowersOf10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// The value of `text` when it is plain fixed notation, -?d+(.d+)?, of at
/// most 19 characters after the sign, whose digits read as one integer
/// w <= 2^53; nullopt for any other text, without a verdict on it.  w and 10^decimals are then exact doubles,
/// and one correctly rounded division gives exactly the double
/// std::from_chars reads (Clinger's fast path).
std::optional<double> parse_plain_fixed(std::string_view text) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) {
    text.remove_prefix(1);
  }
  if (text.empty() || text.size() > 19) {  // so w cannot overflow
    return std::nullopt;
  }
  const char* p = text.data();
  const char* const end = p + text.size();
  std::uint64_t w = 0;
  for (; p != end && is_digit(*p); ++p) {
    w = w * 10 + static_cast<std::uint64_t>(*p - '0');
  }
  if (p == text.data()) {
    return std::nullopt;
  }
  std::size_t decimals = 0;
  if (p != end) {
    if (*p != '.') {
      return std::nullopt;
    }
    const char* const point = p++;
    for (; p != end && is_digit(*p); ++p) {
      w = w * 10 + static_cast<std::uint64_t>(*p - '0');
    }
    decimals = static_cast<std::size_t>(p - point - 1);
    if (p != end || decimals == 0) {
      return std::nullopt;
    }
  }
  if (w > (std::uint64_t{1} << 53)) {
    return std::nullopt;
  }
  const double value = static_cast<double>(w) / kExactPowersOf10[decimals];
  return negative ? -value : value;
}

}  // namespace

std::string_view trim(std::string_view text) noexcept {
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

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      return fields;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) {
      ++i;
    }
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) {
      ++i;
    }
    if (i > start) {
      fields.emplace_back(text.substr(start, i - start));
    }
  }
  return fields;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) {
    return false;
  }
  return std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
    return std::tolower(static_cast<unsigned char>(x)) ==
           std::tolower(static_cast<unsigned char>(y));
  });
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) {
    return std::nullopt;
  }
  if (const auto plain = parse_plain_fixed(text)) {
    return plain;
  }
  double value = 0.0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  text = trim(text);
  if (text.empty()) {
    return std::nullopt;
  }
  std::int64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

std::string format_fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

}  // namespace ars::support
