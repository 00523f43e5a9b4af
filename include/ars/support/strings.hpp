#pragma once
// String helpers shared by the rule-file and XML parsers.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ars::support {

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Split on a delimiter character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char delimiter);

/// Split on runs of ASCII whitespace; no empty fields.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view text);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text,
                               std::string_view prefix) noexcept;

/// Case-insensitive ASCII comparison.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Lower-cased copy (ASCII).
[[nodiscard]] std::string to_lower(std::string_view text);

/// Parse helpers returning nullopt on any malformed input (no partial reads).
[[nodiscard]] std::optional<double> parse_double(std::string_view text);
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view text);

/// printf-free "%.3f"-style formatting used by report tables.
[[nodiscard]] std::string format_fixed(double value, int decimals);

}  // namespace ars::support
