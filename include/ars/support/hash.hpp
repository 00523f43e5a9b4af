#pragma once
// The one digest runs are compared by: campaign and replay trace hashes,
// decision-log hashes and sharded-cluster report hashes.

#include <cstdint>
#include <string_view>

namespace ars::support {

/// 64-bit FNV-1a.  The offset basis, 1469598103934665603, is one digit
/// short of the published 14695981039346656037; it stays, because every
/// campaign report, CI output and recorded bundle carries hashes made
/// with it.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view data) noexcept {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace ars::support
