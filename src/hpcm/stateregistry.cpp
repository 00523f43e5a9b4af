#include "ars/hpcm/stateregistry.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ars::hpcm {

using support::Expected;
using support::make_error;

namespace {

constexpr std::uint32_t kMagic = 0x48504d53;       // "HPMS" — full snapshot
constexpr std::uint32_t kDeltaMagic = 0x48504d44;  // "HPMD" — dirty delta

/// Fixed bytes of a delta frame around its entries: magic, origin,
/// base/to generations, entry count, tombstone count.
constexpr std::uint64_t kDeltaHeaderBytes = 4 + 1 + 8 + 8 + 4 + 4;

void put_string(std::vector<std::byte>& out, const std::string& text) {
  support::put_be32(out, static_cast<std::uint32_t>(text.size()));
  const auto* data = reinterpret_cast<const std::byte*>(text.data());
  out.insert(out.end(), data, data + text.size());
}

/// Append `count` 8-byte big-endian words block-copied from `src` (the
/// zero-copy wire path for bulk payloads: one resize, no per-byte growth).
void put_be64_bulk(std::vector<std::byte>& out, const void* src,
                   std::size_t count) {
  if (count == 0) {
    return;  // an empty vector's data() may be null: memcpy must not see it
  }
  const std::size_t base = out.size();
  out.resize(base + count * 8);
  std::byte* dst = out.data() + base;
  std::memcpy(dst, src, count * 8);
  if (support::native_byte_order() == support::ByteOrder::kLittleEndian) {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t word = 0;
      std::memcpy(&word, dst + i * 8, 8);
      word = support::byteswap64(word);
      std::memcpy(dst + i * 8, &word, 8);
    }
  }
}

/// Block-read `count` big-endian 8-byte words into `dst` (caller validated
/// the buffer holds them).  Advances `offset`.
void get_be64_bulk(std::span<const std::byte> in, std::size_t& offset,
                   void* dst, std::size_t count) {
  if (count == 0) {
    return;
  }
  std::memcpy(dst, in.data() + offset, count * 8);
  if (support::native_byte_order() == support::ByteOrder::kLittleEndian) {
    auto* bytes = static_cast<std::byte*>(dst);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes + i * 8, 8);
      word = support::byteswap64(word);
      std::memcpy(bytes + i * 8, &word, 8);
    }
  }
  offset += count * 8;
}

Expected<std::string> get_string_field(std::span<const std::byte> in,
                                       std::size_t& offset) {
  const std::uint32_t length = support::get_be32(in, offset);
  if (length > in.size() - offset) {
    return make_error("state_decode", "string field overruns buffer");
  }
  std::string text(reinterpret_cast<const char*>(in.data() + offset), length);
  offset += length;
  return text;
}

}  // namespace

void StateRegistry::store(const std::string& name, Entry entry) {
  entry.gen = ++generation_;
  tombstones_.erase(name);
  entries_[name] = std::move(entry);
}

void StateRegistry::set_int(const std::string& name, std::int64_t value) {
  if (const auto it = entries_.find(name);
      it != entries_.end() && it->second.type == EntryType::kInt &&
      it->second.int_value == value) {
    return;  // value-identical: not re-dirtied
  }
  Entry entry;
  entry.type = EntryType::kInt;
  entry.int_value = value;
  store(name, std::move(entry));
}

void StateRegistry::set_double(const std::string& name, double value) {
  if (const auto it = entries_.find(name);
      it != entries_.end() && it->second.type == EntryType::kDouble &&
      it->second.double_value == value) {
    return;
  }
  Entry entry;
  entry.type = EntryType::kDouble;
  entry.double_value = value;
  store(name, std::move(entry));
}

void StateRegistry::set_string(const std::string& name, std::string value) {
  if (const auto it = entries_.find(name);
      it != entries_.end() && it->second.type == EntryType::kString &&
      it->second.string_value == value) {
    return;
  }
  Entry entry;
  entry.type = EntryType::kString;
  entry.string_value = std::move(value);
  store(name, std::move(entry));
}

void StateRegistry::set_doubles(const std::string& name,
                                std::vector<double> values) {
  if (const auto it = entries_.find(name);
      it != entries_.end() && it->second.type == EntryType::kDoubleVector &&
      it->second.doubles == values) {
    return;
  }
  Entry entry;
  entry.type = EntryType::kDoubleVector;
  entry.doubles = std::move(values);
  store(name, std::move(entry));
}

void StateRegistry::set_ints(const std::string& name,
                             std::vector<std::int64_t> values) {
  if (const auto it = entries_.find(name);
      it != entries_.end() && it->second.type == EntryType::kIntVector &&
      it->second.ints == values) {
    return;
  }
  Entry entry;
  entry.type = EntryType::kIntVector;
  entry.ints = std::move(values);
  store(name, std::move(entry));
}

void StateRegistry::set_opaque(const std::string& name,
                               std::uint64_t logical_bytes) {
  if (const auto it = entries_.find(name);
      it != entries_.end() && it->second.type == EntryType::kOpaque &&
      it->second.opaque_size == logical_bytes) {
    return;  // same region re-registered; dirtiness tracked by touch_opaque
  }
  Entry entry;
  entry.type = EntryType::kOpaque;
  entry.opaque_size = logical_bytes;
  store(name, std::move(entry));
}

void StateRegistry::touch_opaque(const std::string& name,
                                 std::uint64_t offset, std::uint64_t length) {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.type != EntryType::kOpaque) {
    return;
  }
  Entry& entry = it->second;
  if (length == 0 || offset >= entry.opaque_size) {
    return;
  }
  const std::uint64_t end =
      length > entry.opaque_size - offset ? entry.opaque_size : offset + length;
  const std::uint64_t first = offset / kOpaqueRegionBytes;
  const std::uint64_t last = (end - 1) / kOpaqueRegionBytes;
  const std::uint64_t gen = ++generation_;
  for (std::uint64_t region = first; region <= last; ++region) {
    entry.opaque_regions[region] = gen;
  }
  entry.regions_gen = gen;
}

void StateRegistry::erase(const std::string& name) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return;
  }
  entries_.erase(it);
  tombstones_[name] = ++generation_;
}

void StateRegistry::clear() {
  if (entries_.empty()) {
    return;
  }
  const std::uint64_t gen = ++generation_;
  for (const auto& [name, entry] : entries_) {
    tombstones_[name] = gen;
  }
  entries_.clear();
}

Expected<const StateRegistry::Entry*> StateRegistry::find_typed(
    const std::string& name, EntryType type) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return make_error("state_lookup", "no entry '" + name + "'");
  }
  if (it->second.type != type) {
    return make_error("state_lookup", "entry '" + name + "' has wrong type");
  }
  return &it->second;
}

Expected<std::int64_t> StateRegistry::get_int(const std::string& name) const {
  auto entry = find_typed(name, EntryType::kInt);
  if (!entry.has_value()) return entry.error();
  return (*entry)->int_value;
}

Expected<double> StateRegistry::get_double(const std::string& name) const {
  auto entry = find_typed(name, EntryType::kDouble);
  if (!entry.has_value()) return entry.error();
  return (*entry)->double_value;
}

Expected<std::string> StateRegistry::get_string(
    const std::string& name) const {
  auto entry = find_typed(name, EntryType::kString);
  if (!entry.has_value()) return entry.error();
  return (*entry)->string_value;
}

Expected<std::vector<double>> StateRegistry::get_doubles(
    const std::string& name) const {
  auto entry = find_typed(name, EntryType::kDoubleVector);
  if (!entry.has_value()) return entry.error();
  return (*entry)->doubles;
}

Expected<std::vector<std::int64_t>> StateRegistry::get_ints(
    const std::string& name) const {
  auto entry = find_typed(name, EntryType::kIntVector);
  if (!entry.has_value()) return entry.error();
  return (*entry)->ints;
}

Expected<std::uint64_t> StateRegistry::get_opaque_size(
    const std::string& name) const {
  auto entry = find_typed(name, EntryType::kOpaque);
  if (!entry.has_value()) return entry.error();
  return (*entry)->opaque_size;
}

bool StateRegistry::entry_dirty_since(const Entry& entry,
                                      std::uint64_t gen) const {
  return entry.gen > gen || entry.regions_gen > gen;
}

std::uint64_t StateRegistry::charged_opaque_since(const Entry& entry,
                                                  std::uint64_t gen) const {
  if (entry.type != EntryType::kOpaque) {
    return 0;
  }
  if (entry.gen > gen) {
    return entry.opaque_size;  // whole entry (re)registered
  }
  std::uint64_t regions = 0;
  for (const auto& [region, touched] : entry.opaque_regions) {
    if (touched > gen) {
      ++regions;
    }
  }
  return std::min(regions * kOpaqueRegionBytes, entry.opaque_size);
}

std::uint64_t StateRegistry::entry_wire_bytes(const std::string& name,
                                              const Entry& entry) {
  std::uint64_t payload = 0;
  switch (entry.type) {
    case EntryType::kInt:
    case EntryType::kDouble:
    case EntryType::kOpaque:
      payload = 8;
      break;
    case EntryType::kString:
      payload = 4 + entry.string_value.size();
      break;
    case EntryType::kDoubleVector:
      payload = 4 + 8 * entry.doubles.size();
      break;
    case EntryType::kIntVector:
      payload = 4 + 8 * entry.ints.size();
      break;
  }
  return 4 + name.size() + 1 + payload;
}

std::uint64_t StateRegistry::encoded_bytes() const {
  // Mirrors encode() exactly: magic + origin byte + count, then per entry
  // the length-prefixed name, the type tag, and the fixed-width payload.
  std::uint64_t total = 4 + 1 + 4;
  for (const auto& [name, entry] : entries_) {
    total += entry_wire_bytes(name, entry);
  }
  return total;
}

std::uint64_t StateRegistry::opaque_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.type == EntryType::kOpaque) {
      total += entry.opaque_size;
    }
  }
  return total;
}

std::vector<std::string> StateRegistry::dirty_since(std::uint64_t gen) const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_) {
    if (entry_dirty_since(entry, gen)) {
      names.push_back(name);
    }
  }
  return names;
}

std::vector<std::string> StateRegistry::tombstones_since(
    std::uint64_t gen) const {
  std::vector<std::string> names;
  for (const auto& [name, erased] : tombstones_) {
    if (erased > gen) {
      names.push_back(name);
    }
  }
  return names;
}

std::uint64_t StateRegistry::delta_bytes_since(std::uint64_t gen) const {
  std::uint64_t wire = 0;
  std::uint64_t opaque = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry_dirty_since(entry, gen)) {
      wire += entry_wire_bytes(name, entry);
      opaque += charged_opaque_since(entry, gen);
    }
  }
  std::uint64_t tombs = 0;
  for (const auto& [name, erased] : tombstones_) {
    if (erased > gen) {
      tombs += 4 + name.size();
    }
  }
  if (wire == 0 && tombs == 0) {
    return 0;  // nothing to ship — no frame at all
  }
  return kDeltaHeaderBytes + wire + tombs + opaque;
}

void StateRegistry::encode_entry(std::vector<std::byte>& out,
                                 const std::string& name, const Entry& entry) {
  put_string(out, name);
  out.push_back(static_cast<std::byte>(entry.type));
  switch (entry.type) {
    case EntryType::kInt:
      support::put_be64(out, static_cast<std::uint64_t>(entry.int_value));
      break;
    case EntryType::kDouble:
      support::put_be_double(out, entry.double_value);
      break;
    case EntryType::kString:
      put_string(out, entry.string_value);
      break;
    case EntryType::kDoubleVector:
      support::put_be32(out, static_cast<std::uint32_t>(entry.doubles.size()));
      put_be64_bulk(out, entry.doubles.data(), entry.doubles.size());
      break;
    case EntryType::kIntVector:
      support::put_be32(out, static_cast<std::uint32_t>(entry.ints.size()));
      put_be64_bulk(out, entry.ints.data(), entry.ints.size());
      break;
    case EntryType::kOpaque:
      support::put_be64(out, entry.opaque_size);
      break;
  }
}

void StateRegistry::encode_into(std::vector<std::byte>& out,
                                support::ByteOrder origin) const {
  out.clear();
  out.reserve(encoded_bytes());
  support::put_be32(out, kMagic);
  out.push_back(static_cast<std::byte>(
      origin == support::ByteOrder::kBigEndian ? 0 : 1));
  support::put_be32(out, static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [name, entry] : entries_) {
    encode_entry(out, name, entry);
  }
}

std::vector<std::byte> StateRegistry::encode(support::ByteOrder origin) const {
  std::vector<std::byte> out;
  encode_into(out, origin);
  return out;
}

StateRegistry::Delta StateRegistry::collect_delta(
    std::uint64_t since, support::ByteOrder origin) const {
  Delta delta;
  delta.base_generation = since;
  delta.to_generation = generation_;
  std::vector<const std::pair<const std::string, Entry>*> dirty;
  for (const auto& item : entries_) {
    if (entry_dirty_since(item.second, since)) {
      dirty.push_back(&item);
      delta.dirty_opaque_bytes += charged_opaque_since(item.second, since);
    }
  }
  std::vector<const std::string*> tombs;
  for (const auto& [name, erased] : tombstones_) {
    if (erased > since) {
      tombs.push_back(&name);
    }
  }
  delta.entries = dirty.size();
  delta.tombstones = tombs.size();
  std::vector<std::byte>& out = delta.wire;
  support::put_be32(out, kDeltaMagic);
  out.push_back(static_cast<std::byte>(
      origin == support::ByteOrder::kBigEndian ? 0 : 1));
  support::put_be64(out, since);
  support::put_be64(out, generation_);
  support::put_be32(out, static_cast<std::uint32_t>(dirty.size()));
  for (const auto* item : dirty) {
    encode_entry(out, item->first, item->second);
  }
  support::put_be32(out, static_cast<std::uint32_t>(tombs.size()));
  for (const auto* name : tombs) {
    put_string(out, *name);
  }
  return delta;
}

support::Status StateRegistry::apply_delta(std::span<const std::byte> wire) {
  // Parse the whole frame before touching any state: a malformed delta must
  // not leave a partially-updated registry behind.
  std::vector<std::pair<std::string, Entry>> updates;
  std::vector<std::string> tombs;
  std::size_t offset = 0;
  try {
    if (support::get_be32(wire, offset) != kDeltaMagic) {
      return make_error("state_delta", "bad delta magic");
    }
    if (offset >= wire.size()) {
      return make_error("state_delta", "truncated delta header");
    }
    ++offset;  // origin byte (diagnostic only)
    (void)support::get_be64(wire, offset);  // base generation
    (void)support::get_be64(wire, offset);  // to generation
    const std::uint32_t count = support::get_be32(wire, offset);
    updates.reserve(std::min<std::uint32_t>(count, 1024));
    for (std::uint32_t i = 0; i < count; ++i) {
      auto entry = decode_entry(wire, offset);
      if (!entry.has_value()) {
        return entry.error();
      }
      for (const auto& [name, existing] : updates) {
        if (name == entry->first) {
          return make_error("state_delta",
                            "duplicate entry '" + name + "' in delta");
        }
      }
      updates.push_back(std::move(*entry));
    }
    const std::uint32_t tomb_count = support::get_be32(wire, offset);
    tombs.reserve(std::min<std::uint32_t>(tomb_count, 1024));
    for (std::uint32_t i = 0; i < tomb_count; ++i) {
      auto name = get_string_field(wire, offset);
      if (!name.has_value()) {
        return name.error();
      }
      for (const auto& [update, existing] : updates) {
        if (update == *name) {
          return make_error("state_delta", "entry '" + *name +
                                               "' both updated and "
                                               "tombstoned");
        }
      }
      tombs.push_back(std::move(*name));
    }
  } catch (const std::out_of_range&) {
    return make_error("state_delta", "truncated delta frame");
  }
  if (offset != wire.size()) {
    return make_error("state_delta", "trailing bytes after delta");
  }
  for (auto& [name, entry] : updates) {
    store(name, std::move(entry));
  }
  for (const std::string& name : tombs) {
    erase(name);
  }
  return support::Status::ok();
}

Expected<std::pair<std::string, StateRegistry::Entry>>
StateRegistry::decode_entry(std::span<const std::byte> wire,
                            std::size_t& offset) {
  auto name = get_string_field(wire, offset);
  if (!name.has_value()) {
    return name.error();
  }
  if (offset >= wire.size()) {
    return make_error("state_decode", "truncated entry type");
  }
  const auto type = static_cast<EntryType>(wire[offset]);
  ++offset;
  Entry entry;
  entry.type = type;
  switch (type) {
    case EntryType::kInt:
      entry.int_value =
          static_cast<std::int64_t>(support::get_be64(wire, offset));
      break;
    case EntryType::kDouble:
      entry.double_value = support::get_be_double(wire, offset);
      break;
    case EntryType::kString: {
      auto text = get_string_field(wire, offset);
      if (!text.has_value()) {
        return text.error();
      }
      entry.string_value = std::move(*text);
      break;
    }
    case EntryType::kDoubleVector: {
      const std::uint32_t n = support::get_be32(wire, offset);
      // Validate the length prefix against the remaining buffer BEFORE
      // allocating: a corrupt 4 GB prefix must fail cleanly, not reserve.
      if (static_cast<std::uint64_t>(n) * 8 > wire.size() - offset) {
        return make_error("state_decode", "vector length overruns buffer");
      }
      entry.doubles.resize(n);
      get_be64_bulk(wire, offset, entry.doubles.data(), n);
      break;
    }
    case EntryType::kIntVector: {
      const std::uint32_t n = support::get_be32(wire, offset);
      if (static_cast<std::uint64_t>(n) * 8 > wire.size() - offset) {
        return make_error("state_decode", "vector length overruns buffer");
      }
      entry.ints.resize(n);
      get_be64_bulk(wire, offset, entry.ints.data(), n);
      break;
    }
    case EntryType::kOpaque:
      entry.opaque_size = support::get_be64(wire, offset);
      break;
    default:
      return make_error("state_decode", "unknown entry type");
  }
  return std::pair<std::string, Entry>{std::move(*name), std::move(entry)};
}

Expected<StateRegistry> StateRegistry::decode(
    std::span<const std::byte> wire) {
  StateRegistry registry;
  std::size_t offset = 0;
  try {
    if (support::get_be32(wire, offset) != kMagic) {
      return make_error("state_decode", "bad magic");
    }
    if (offset >= wire.size()) {
      return make_error("state_decode", "truncated header");
    }
    registry.origin_ = wire[offset] == std::byte{0}
                           ? support::ByteOrder::kBigEndian
                           : support::ByteOrder::kLittleEndian;
    ++offset;
    const std::uint32_t count = support::get_be32(wire, offset);
    for (std::uint32_t i = 0; i < count; ++i) {
      auto entry = decode_entry(wire, offset);
      if (!entry.has_value()) {
        return entry.error();
      }
      if (registry.entries_.contains(entry->first)) {
        // A silently-dropped duplicate would desynchronize the advertised
        // size from what a re-encode produces; reject the frame instead.
        return make_error("state_decode",
                          "duplicate entry '" + entry->first + "'");
      }
      registry.store(entry->first, std::move(entry->second));
    }
  } catch (const std::out_of_range&) {
    return make_error("state_decode", "truncated buffer");
  }
  if (offset != wire.size()) {
    return make_error("state_decode", "trailing bytes after entries");
  }
  return registry;
}

}  // namespace ars::hpcm
