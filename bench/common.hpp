#pragma once
// Shared helpers for the experiment harnesses: table printing, the
// paper-vs-measured report format used by every bench binary, and the
// opt-in ars::obs trace/metrics export.  Every bench binary — plain and
// google-benchmark alike — honours `--trace-out=FILE` / `--metrics-out=FILE`
// (or the ARS_TRACE_OUT / ARS_METRICS_OUT environment variables as
// fallbacks) through the helpers here.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "ars/obs/metrics.hpp"
#include "ars/obs/tracer.hpp"

namespace ars::bench {

inline void heading(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void subheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Fixed-width table printer: first row is the header.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : widths_(header.size()) {
    rows_.push_back(std::move(header));
  }

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() {
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < widths_.size(); ++i) {
        widths_[i] = std::max(widths_[i], row[i].size());
      }
    }
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::printf("  ");
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths_[i]),
                    rows_[r][i].c_str());
      }
      std::printf("\n");
      if (r == 0) {
        std::printf("  ");
        for (std::size_t i = 0; i < widths_.size(); ++i) {
          std::printf("%s  ", std::string(widths_[i], '-').c_str());
        }
        std::printf("\n");
      }
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> widths_;
};

inline std::string fmt(double value, int decimals = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

/// "paper X / measured Y" comparison line.
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit) {
  std::printf("  %-44s paper %10.3f %-6s measured %10.3f %s\n", what.c_str(),
              paper, unit.c_str(), measured, unit.c_str());
}

// -- ars::obs export ---------------------------------------------------------

/// Where to dump the observability artifacts; empty means "don't".
struct ObsExport {
  std::string trace_out;    // Chrome trace_event JSON (chrome://tracing)
  std::string metrics_out;  // Prometheus text exposition
};

inline ObsExport& obs_export() {
  static ObsExport options = [] {
    ObsExport o;
    if (const char* t = std::getenv("ARS_TRACE_OUT")) {
      o.trace_out = t;
    }
    if (const char* m = std::getenv("ARS_METRICS_OUT")) {
      o.metrics_out = m;
    }
    return o;
  }();
  return options;
}

/// Consume a --trace-out=FILE / --metrics-out=FILE flag (they override the
/// environment variables).  Returns true when `arg` was an obs flag —
/// rewrite_gbench_args uses this to strip them before google-benchmark sees
/// the argv.
inline bool consume_obs_flag(std::string_view arg) {
  if (arg.starts_with("--trace-out=")) {
    obs_export().trace_out = arg.substr(sizeof("--trace-out=") - 1);
    return true;
  }
  if (arg.starts_with("--metrics-out=")) {
    obs_export().metrics_out = arg.substr(sizeof("--metrics-out=") - 1);
    return true;
  }
  return false;
}

/// Consume --trace-out=/--metrics-out= flags; unknown arguments are left
/// alone.
inline void init_obs_export(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    consume_obs_flag(argv[i]);
  }
}

// -- sharded-run knobs -------------------------------------------------------

/// Shard-count override for benchmarks with a sharded variant: --shards=N.
/// 0 means "use the benchmark's own per-arg shard counts" — the default
/// sweep that the speedup baselines compare.
inline int& bench_shards() {
  static int shards = 0;
  return shards;
}

/// Cluster-plan file for scenario benchmarks: --cluster-plan=FILE; empty
/// means the benchmark's built-in defaults.
inline std::string& bench_cluster_plan() {
  static std::string path;
  return path;
}

/// Migratable-state size for the migration benchmarks, in MiB:
/// --state-mb=N.  0 means "use the benchmark's default size" — the pinned
/// baseline configuration.
inline int& bench_state_mb() {
  static int mb = 0;
  return mb;
}

/// The value of a --shards=N / --state-mb=N flag `arg`, whose name is its
/// first `name_size` characters: a whole number >= 0.  Anything else is a
/// usage error, and the program exits 2 before any benchmark runs.
inline int count_flag(std::string_view arg, std::size_t name_size) {
  const std::string_view value = arg.substr(name_size);
  int count = 0;
  const auto [stop, error] =
      std::from_chars(value.data(), value.data() + value.size(), count);
  if (error != std::errc{} || stop != value.data() + value.size() ||
      count < 0) {
    std::fprintf(stderr,
                 "bad %.*s\nusage: --shards=N, --state-mb=N: a whole number "
                 "N >= 0 (0: the benchmark's default)\n",
                 static_cast<int>(arg.size()), arg.data());
    std::exit(2);
  }
  return count;
}

/// Consume a --shards=N / --cluster-plan=FILE / --state-mb=N flag; returns
/// true when `arg` was one (rewrite_gbench_args strips them like the obs
/// flags).
inline bool consume_shard_flag(std::string_view arg) {
  if (arg.starts_with("--shards=")) {
    bench_shards() = count_flag(arg, sizeof("--shards=") - 1);
    return true;
  }
  if (arg.starts_with("--state-mb=")) {
    bench_state_mb() = count_flag(arg, sizeof("--state-mb=") - 1);
    return true;
  }
  if (arg.starts_with("--cluster-plan=")) {
    bench_cluster_plan() = arg.substr(sizeof("--cluster-plan=") - 1);
    return true;
  }
  return false;
}

/// Insert a label before the path's extension ("trace.json" + "with" ->
/// "trace.with.json") so harnesses that run several configurations can keep
/// all of them.
inline std::string labelled_path(const std::string& path,
                                 const std::string& label) {
  if (label.empty()) {
    return path;
  }
  const auto dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0) {
    return path + "." + label;
  }
  return path.substr(0, dot) + "." + label + path.substr(dot);
}

/// Create the directory an export path points into; best-effort (a failed
/// write is reported by the caller anyway).
inline void ensure_parent_dir(const std::string& path) {
  const std::filesystem::path target{path};
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
  }
}

/// Dump a tracer/metrics pair to the configured files.
inline void export_obs(const obs::Tracer& tracer,
                       const obs::MetricsRegistry& metrics,
                       const std::string& label = "") {
  const ObsExport& options = obs_export();
  if (!options.trace_out.empty()) {
    const std::string path = labelled_path(options.trace_out, label);
    ensure_parent_dir(path);
    std::ofstream out(path);
    out << tracer.to_chrome_trace();
    if (out) {
      std::printf("  [obs] wrote Chrome trace to %s (%zu events)\n",
                  path.c_str(), tracer.events().size());
    } else {
      std::fprintf(stderr, "  [obs] FAILED to write trace to %s\n",
                   path.c_str());
    }
  }
  if (!options.metrics_out.empty()) {
    const std::string path = labelled_path(options.metrics_out, label);
    ensure_parent_dir(path);
    std::ofstream out(path);
    out << metrics.to_prometheus();
    if (out) {
      std::printf("  [obs] wrote metrics to %s (%zu series)\n", path.c_str(),
                  metrics.series_count());
    } else {
      std::fprintf(stderr, "  [obs] FAILED to write metrics to %s\n",
                   path.c_str());
    }
  }
}

/// Dump `runtime`'s tracer/metrics to the configured files.
template <typename Runtime>
void export_obs(Runtime& runtime, const std::string& label = "") {
  export_obs(runtime.tracer(), runtime.metrics(), label);
}

// -- obs sinks for google-benchmark binaries ---------------------------------
//
// The micro benches build a fresh rig per iteration, so there is no runtime
// alive at the end to export.  Instead they attach these process-wide sinks
// to their rigs; ARS_BENCH_MAIN() exports whatever accumulated (the tracer
// is a ring, so the trace holds the tail of the run).  The sinks are nullptr
// when no export was requested — the instrumented components then skip all
// recording and the measured numbers are undisturbed.

inline obs::Tracer& gbench_tracer() {
  static obs::Tracer tracer;
  return tracer;
}

inline obs::MetricsRegistry& gbench_metrics() {
  static obs::MetricsRegistry metrics;
  return metrics;
}

inline obs::Tracer* obs_trace_sink() {
  return obs_export().trace_out.empty() ? nullptr : &gbench_tracer();
}

inline obs::MetricsRegistry* obs_metrics_sink() {
  return obs_export().metrics_out.empty() ? nullptr : &gbench_metrics();
}

inline void export_gbench_obs() {
  const ObsExport& options = obs_export();
  if (options.trace_out.empty() && options.metrics_out.empty()) {
    return;
  }
  export_obs(gbench_tracer(), gbench_metrics());
}

// -- google-benchmark argv handling ------------------------------------------

/// Translate our stable `--json-out=FILE` flag into google-benchmark's
/// `--benchmark_out=` / `--benchmark_out_format=json` pair, and strip the
/// `--trace-out=` / `--metrics-out=` obs flags (consumed into obs_export())
/// and the shard flags, leaving every other argument alone.  Returns a
/// rewritten argv (storage lives for the program's lifetime) and updates
/// `argc` in place; use through ARS_BENCH_MAIN() below.
inline char** rewrite_gbench_args(int* argc, char** argv) {
  static std::vector<std::string> storage;
  static std::vector<char*> pointers;
  std::string json_out;
  storage.clear();
  for (int i = 0; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--json-out=")) {
      json_out = arg.substr(sizeof("--json-out=") - 1);
    } else if (i > 0 && (consume_obs_flag(arg) || consume_shard_flag(arg))) {
      // stripped: google-benchmark would reject it as unrecognized
    } else {
      storage.emplace_back(arg);
    }
  }
  if (!json_out.empty()) {
    storage.push_back("--benchmark_out=" + json_out);
    storage.push_back("--benchmark_out_format=json");
  }
  pointers.clear();
  for (std::string& arg : storage) {
    pointers.push_back(arg.data());
  }
  pointers.push_back(nullptr);
  *argc = static_cast<int>(storage.size());
  return pointers.data();
}

}  // namespace ars::bench

/// Drop-in replacement for BENCHMARK_MAIN() that understands --json-out=
/// plus the uniform --trace-out=/--metrics-out= obs flags;
/// scripts/bench_check.py consumes the emitted JSON.  Only usable in files
/// that include <benchmark/benchmark.h>.
#define ARS_BENCH_MAIN()                                                  \
  int main(int argc, char** argv) {                                       \
    char** args = ::ars::bench::rewrite_gbench_args(&argc, argv);         \
    ::benchmark::Initialize(&argc, args);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, args)) {           \
      return 1;                                                           \
    }                                                                     \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    ::ars::bench::export_gbench_obs();                                    \
    return 0;                                                             \
  }                                                                       \
  static_assert(true, "require a trailing semicolon")
