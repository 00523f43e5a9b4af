#include "record.hpp"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <unordered_map>

#include "ars/obs/json.hpp"

namespace perfbench {

double reference_loop_s() {
  constexpr int kSteps = 5000;
  const double start = wall_now();
  std::uint64_t state = 88172645463325252ULL;  // xorshift64
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::priority_queue<std::uint64_t> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  char text[48];
  std::uint64_t sink = 0;
  for (int i = 0; i < kSteps; ++i) {
    heap.push(next());
    ++table[next() & 0xffff];
    sink += static_cast<std::uint64_t>(
        std::snprintf(text, sizeof text, "<host id=\"%d\"/>", i));
  }
  for (; !heap.empty(); heap.pop()) {
    sink += heap.top();
  }
  for (int i = 0; i < kSteps; ++i) {
    const auto it = table.find(next() & 0xffff);
    sink += it == table.end() ? 0 : it->second;
  }
  volatile std::uint64_t keep = sink;  // the work must not be optimised away
  (void)keep;
  return wall_now() - start;
}

double RunRecord::median(const std::string& name) const {
  const auto it = samples_.find(name);
  if (it == samples_.end() || it->second.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = it->second;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

std::string RunRecord::to_json() const {
  using ars::obs::JsonArray;
  using ars::obs::JsonObject;
  using ars::obs::JsonValue;
  JsonObject samples;
  for (const auto& [name, series] : samples_) {
    samples[name] = JsonValue{JsonArray(series.begin(), series.end())};
  }
  JsonObject values;
  for (const auto& [name, value] : values_) {
    values[name] = JsonValue{value};
  }
  JsonArray checks;
  for (const Check& check : checks_) {
    JsonObject object;
    object["name"] = JsonValue{check.name};
    object["ok"] = JsonValue{check.ok};
    object["detail"] = JsonValue{check.detail};
    checks.push_back(JsonValue{std::move(object)});
  }
  JsonObject document;
  document["samples"] = JsonValue{std::move(samples)};
  document["values"] = JsonValue{std::move(values)};
  document["checks"] = JsonValue{std::move(checks)};
  return JsonValue{std::move(document)}.dump();
}

}  // namespace perfbench
