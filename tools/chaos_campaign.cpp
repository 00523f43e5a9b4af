// chaos_campaign: the seed-sweep driver for the ars::chaos subsystem.
//
// Runs the standard chaos scenario (scenario.hpp) over a seed range for each
// cell, checks the invariants after every run, and re-runs a sample of seeds
// (always every failing seed) to prove the simulation replays
// byte-identically.  A cell is one fault plan, optionally crossed with the
// checkpoint-waste axes of DESIGN.md §17: --mtbf sweeps the plan's
// host_crash_rate MTBF (and the MTBF Young/Daly assumes) and runs each MTBF
// under both checkpoint strategies (periodic | cooperative), so their waste
// is compared under identical failure pressure.  Emits a human summary on
// stdout and, with --out, a JSON report.  Exit status is nonzero iff any
// invariant was violated, any replay diverged, or --require-coop-win saw
// cooperative waste fail to beat periodic in some cell.
//
// Usage:
//   chaos_campaign [--seeds=N] [--seed-base=N] [--plan=<builtin|file.json>]...
//                  [--hosts=N] [--apps=N] [--horizon=T] [--replay-passing=N]
//                  [--mtbf=M1,M2,...] [--state-mb=MB] [--aggregate-mbps=MBPS]
//                  [--require-coop-win]
//                  [--sabotage-lease-expiry] [--sabotage-migration-rollback]
//                  [--malleable-jobs=N] [--sabotage-resize-rollback]
//                  [--delta-heartbeats] [--precopy]
//                  [--out=report.json] [--bundle-dir=DIR]
//                  [--trace-out=FILE] [--metrics-out=FILE]
//                  [--replay-bundle=FILE] [--list-plans] [--dump-plan=NAME]
//
// --plan may be given multiple times; the default sweep covers every builtin
// plan plus a fault-free baseline.  --state-mb sizes each job's checkpoint
// image and --aggregate-mbps the shared store bandwidth all concurrent
// writes split (0 = unlimited): once enough jobs checkpoint into a narrow
// store, uncoordinated (periodic) writes stretch each other out and the
// cooperative I/O scheduler serializes them.
//
// --bundle-dir writes a flight-recorder bundle (scenario + seed + fault plan
// + violations + trace ring + metrics snapshot, one JSON file) for every
// failing seed; --replay-bundle re-runs such a bundle and exits 0 iff it
// reproduces the recorded trace hash and violations.
//
// The uniform bench flags are honoured too (with ARS_TRACE_OUT /
// ARS_METRICS_OUT as environment fallbacks): --trace-out=FILE writes each
// seed's JSONL trace to FILE with a "<cell>_seed<N>" label spliced before
// the extension (trace_critpath reads these), and --metrics-out=FILE does
// the same with the scenario's metrics snapshot (JSON).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <ranges>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ars/chaos/faultplan.hpp"
#include "ars/chaos/flight_recorder.hpp"
#include "ars/chaos/scenario.hpp"
#include "ars/obs/json.hpp"
#include "ars/support/log.hpp"

#include "../bench/common.hpp"  // uniform --trace-out/--metrics-out handling

namespace {

using ars::chaos::FaultPlan;
using ars::chaos::ScenarioOptions;
using ars::chaos::ScenarioReport;

struct CampaignOptions {
  int seeds = 20;
  std::uint64_t seed_base = 1;
  std::vector<std::string> plans;  // builtin names or JSON file paths
  std::vector<double> mtbfs;  // empty: own crash rates, no strategy axis
  bool require_coop_win = false;
  int replay_passing = 3;  // additionally replay this many passing seeds
  std::string out_path;
  std::string bundle_dir;  // flight-recorder bundles for failing seeds
  /// Every other knob (cluster shape, store sizing, sabotage) lands here;
  /// each cell starts from this scenario.
  ScenarioOptions scenario;
};

/// One cell of the sweep: the scenario every seed of the cell runs (plan and
/// checkpoint strategy filled in; --mtbf already applied).
struct Cell {
  ScenarioOptions scenario;
  double mtbf = 0.0;  // 0: the plan's own crash rate
  std::string label;  // names the cell's bundles and trace files
};

struct SeedResult {
  std::uint64_t seed = 0;
  ScenarioReport report;  // trace and metrics dropped once written out
  std::optional<bool> replay_identical;  // set when the seed was replayed
};

struct CellResult {
  Cell cell;
  std::vector<SeedResult> seeds;
  int failures = 0;
  int replay_mismatches = 0;
  double waste_s = 0.0;  // cluster waste summed over all seeds
  double overhead_s = 0.0;
  double lost_work_s = 0.0;
  double restart_s = 0.0;
  std::vector<std::string> bundles;  // flight-recorder bundle paths written
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "chaos_campaign: " << message << "\n"
            << "usage: chaos_campaign [--seeds=N] [--seed-base=N]\n"
            << "         [--plan=<builtin|file.json>]... [--hosts=N]\n"
            << "         [--apps=N] [--horizon=T] [--replay-passing=N]\n"
            << "         [--mtbf=M1,M2,...]\n"
            << "         [--state-mb=MB] [--aggregate-mbps=MBPS]\n"
            << "         [--require-coop-win]\n"
            << "         [--sabotage-lease-expiry]\n"
            << "         [--sabotage-migration-rollback]\n"
            << "         [--malleable-jobs=N] [--sabotage-resize-rollback]\n"
            << "         [--delta-heartbeats] [--precopy]\n"
            << "         [--out=report.json] [--bundle-dir=DIR]\n"
            << "         [--trace-out=FILE] [--metrics-out=FILE]\n"
            << "         [--replay-bundle=FILE] [--list-plans]\n"
            << "         [--dump-plan=NAME]\n";
  std::exit(2);
}

/// `text` as a finite number; the whole string must parse, else a usage
/// error naming `arg`.
template <typename T>
T parse_number(const std::string& arg, std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || last != end || !std::isfinite(value)) {
    usage_error("malformed number in " + arg);
  }
  return value;
}

/// A comma-separated list of numbers, every item parsed whole.
std::vector<double> parse_list(const std::string& arg, std::string_view text) {
  std::vector<double> items;
  for (const auto item : std::views::split(text, ',')) {
    items.push_back(
        parse_number<double>(arg, std::string_view(item.begin(), item.end())));
  }
  if (items.empty()) {
    usage_error("empty list in " + arg);
  }
  return items;
}

FaultPlan load_plan(const std::string& spec) {
  if (spec == "none") {
    return FaultPlan{"none"};
  }
  if (auto builtin = FaultPlan::builtin(spec); builtin.has_value()) {
    return *std::move(builtin);
  }
  std::ifstream in(spec);
  if (!in) {
    usage_error("--plan=" + spec +
                " is neither a builtin plan nor a readable file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto plan = FaultPlan::from_json(text.str());
  if (!plan.has_value()) {
    usage_error(spec + ": " + plan.error().message);
  }
  return *std::move(plan);
}

/// `plan` with every host_crash_rate fault's MTBF replaced by `mtbf`.
FaultPlan with_mtbf(const FaultPlan& plan, double mtbf) {
  FaultPlan swept{plan.name()};
  bool has_rate = false;
  for (ars::chaos::FaultSpec spec : plan.specs()) {
    if (spec.kind == ars::chaos::FaultKind::kHostCrashRate) {
      spec.mtbf = mtbf;
      has_rate = true;
    }
    swept.add(std::move(spec));
  }
  if (!has_rate) {
    usage_error("--mtbf: plan \"" + plan.name() +
                "\" has no host_crash_rate fault to sweep");
  }
  return swept;
}

/// Plans, or with --mtbf plans x MTBFs x {periodic, cooperative}, strategy
/// innermost so each cooperative cell directly follows its periodic twin.
/// Only the swept axes show up in the label: a plain plan's cell is just
/// the plan name.
std::vector<Cell> make_cells(const CampaignOptions& options) {
  std::vector<Cell> cells;
  for (const std::string& spec : options.plans) {
    const FaultPlan plan = load_plan(spec);
    if (options.mtbfs.empty()) {
      Cell cell{options.scenario, 0.0, plan.name()};
      cell.scenario.plan = plan;
      cells.push_back(std::move(cell));
      continue;
    }
    for (const double mtbf : options.mtbfs) {
      const FaultPlan swept = with_mtbf(plan, mtbf);
      std::ostringstream label;
      label << plan.name() << "_mtbf" << mtbf;
      for (const char* strategy : {"periodic", "cooperative"}) {
        Cell cell{options.scenario, mtbf, label.str() + "_" + strategy};
        cell.scenario.plan = swept;
        cell.scenario.ckpt_strategy = strategy;
        cell.scenario.ckpt_mtbf = mtbf;  // Young/Daly sees the true rate
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

/// Uniform bench flags: one labelled file per cell and seed.
void write_labelled(const std::string& path_template, const std::string& label,
                    const std::string& text) {
  if (path_template.empty() || text.empty()) {
    return;
  }
  const std::string path = ars::bench::labelled_path(path_template, label);
  ars::bench::ensure_parent_dir(path);
  std::ofstream out(path);
  if (out) {
    out << text;
  } else {
    std::cerr << "chaos_campaign: cannot write " << path << "\n";
  }
}

CellResult sweep_cell(const CampaignOptions& options, const Cell& cell) {
  CellResult result;
  result.cell = cell;
  int passing_replays_left = options.replay_passing;
  for (int i = 0; i < options.seeds; ++i) {
    const std::uint64_t seed =
        options.seed_base + static_cast<std::uint64_t>(i);
    ScenarioOptions scenario = cell.scenario;
    scenario.seed = seed;
    SeedResult seed_result;
    seed_result.seed = seed;
    seed_result.report = ars::chaos::run_scenario(scenario);
    ScenarioReport& report = seed_result.report;
    result.overhead_s += report.waste_overhead_s;
    result.lost_work_s += report.waste_lost_work_s;
    result.restart_s += report.waste_restart_s;
    result.waste_s += report.waste_total_s();
    const std::string seed_label = cell.label + "_seed" + std::to_string(seed);
    const ars::bench::ObsExport& obs = ars::bench::obs_export();
    write_labelled(obs.trace_out, seed_label, report.trace_jsonl);
    if (!report.metrics_json.empty()) {
      write_labelled(obs.metrics_out, seed_label, report.metrics_json + "\n");
    }
    // Flight recorder: one self-contained bundle per failing or diverging
    // seed.
    const auto bundle = [&](const ars::chaos::FlightTrigger& trigger) {
      if (options.bundle_dir.empty()) {
        return;
      }
      const std::string path =
          options.bundle_dir + "/bundle_" + seed_label + ".json";
      const auto status = ars::chaos::write_bundle(
          path, ars::chaos::make_bundle(scenario, report, trigger));
      if (!status.is_ok()) {
        std::cerr << "chaos_campaign: " << status.error().to_string() << "\n";
        return;
      }
      std::cout << "  flight recorder: " << path << "\n";
      result.bundles.push_back(path);
    };
    if (!report.ok()) {
      ++result.failures;
      std::cout << "  seed " << seed << " FAIL\n";
      for (const ars::chaos::Violation& violation :
           report.invariants.violations) {
        std::cout << "    " << violation.invariant << " ["
                  << violation.subject << "]: " << violation.detail << "\n";
      }
      bundle({"invariant-violation", report.invariants.summary()});
    }
    // Replay every failing seed (a reproducer must reproduce) and the first
    // few passing ones; the rerun must be byte-identical.
    if (!report.ok() || passing_replays_left > 0) {
      if (report.ok()) {
        --passing_replays_left;
      }
      const ScenarioReport again = ars::chaos::run_scenario(scenario);
      seed_result.replay_identical =
          again.trace_hash == report.trace_hash &&
          again.events_executed == report.events_executed;
      if (!*seed_result.replay_identical) {
        ++result.replay_mismatches;
        std::cout << "  seed " << seed << " REPLAY MISMATCH: trace "
                  << report.trace_hash << " vs " << again.trace_hash << "\n";
        bundle({"replay-mismatch", "trace " +
                                       std::to_string(report.trace_hash) +
                                       " vs " +
                                       std::to_string(again.trace_hash)});
      }
    }
    // The record keeps the counters; the evidence was written out above.
    std::string{}.swap(report.trace_jsonl);
    std::string{}.swap(report.metrics_json);
    result.seeds.push_back(std::move(seed_result));
  }
  return result;
}

void set_number(ars::obs::JsonObject& object, const char* key, double value) {
  object[key] = ars::obs::JsonValue{value};
}

ars::obs::JsonValue to_json(const SeedResult& seed) {
  const ScenarioReport& report = seed.report;
  ars::obs::JsonObject object;
  set_number(object, "seed", seed.seed);
  object["ok"] = ars::obs::JsonValue{report.ok()};
  if (!report.ok()) {
    object["violations"] = ars::obs::JsonValue{report.invariants.summary()};
  }
  // Hashes as decimal strings: they exceed a double's integer range.
  object["trace_hash"] = ars::obs::JsonValue{std::to_string(report.trace_hash)};
  object["decision_log_hash"] =
      ars::obs::JsonValue{std::to_string(report.decision_log_hash)};
  set_number(object, "events_executed", report.events_executed);
  set_number(object, "decisions", report.decisions);
  set_number(object, "migrations_succeeded", report.migrations_succeeded);
  set_number(object, "migrations_aborted", report.migrations_aborted);
  set_number(object, "migrations_rolled_back", report.migrations_rolled_back);
  set_number(object, "resizes_committed", report.resizes_committed);
  set_number(object, "resizes_aborted", report.resizes_aborted);
  set_number(object, "resizes_rolled_back", report.resizes_rolled_back);
  set_number(object, "messages_dropped", report.messages_dropped);
  set_number(object, "rate_crashes", report.faults.rate_crashes);
  set_number(object, "ckpt_commits", report.ckpt_commits);
  set_number(object, "ckpt_aborts", report.ckpt_aborts);
  set_number(object, "ckpt_deferred", report.ckpt_deferred);
  set_number(object, "ckpt_preempted", report.ckpt_preempted);
  set_number(object, "torn_restores", report.torn_restores);
  set_number(object, "waste_overhead_s", report.waste_overhead_s);
  set_number(object, "waste_lost_work_s", report.waste_lost_work_s);
  set_number(object, "waste_restart_s", report.waste_restart_s);
  if (seed.replay_identical.has_value()) {
    object["replay_identical"] = ars::obs::JsonValue{*seed.replay_identical};
  }
  return ars::obs::JsonValue{std::move(object)};
}

ars::obs::JsonValue to_json(const CellResult& result) {
  ars::obs::JsonObject object;
  object["label"] = ars::obs::JsonValue{result.cell.label};
  object["plan"] = ars::obs::JsonValue{result.cell.scenario.plan.name()};
  set_number(object, "mtbf", result.cell.mtbf);
  set_number(object, "apps", result.cell.scenario.apps);
  object["strategy"] = ars::obs::JsonValue{result.cell.scenario.ckpt_strategy};
  set_number(object, "failures", result.failures);
  set_number(object, "replay_mismatches", result.replay_mismatches);
  set_number(object, "waste_total_s", result.waste_s);
  set_number(object, "waste_overhead_s", result.overhead_s);
  set_number(object, "waste_lost_work_s", result.lost_work_s);
  set_number(object, "waste_restart_s", result.restart_s);
  ars::obs::JsonArray seeds;
  for (const SeedResult& seed : result.seeds) {
    seeds.push_back(to_json(seed));
  }
  object["seeds"] = ars::obs::JsonValue{std::move(seeds)};
  ars::obs::JsonArray bundles;
  for (const std::string& path : result.bundles) {
    bundles.push_back(ars::obs::JsonValue{path});
  }
  object["bundles"] = ars::obs::JsonValue{std::move(bundles)};
  return ars::obs::JsonValue{std::move(object)};
}

/// --replay-bundle: re-run one flight-recorder bundle and report whether it
/// reproduces.  Exit 0 iff it does.
int replay_bundle_main(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "chaos_campaign: cannot read " << path << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto replay = ars::chaos::replay_bundle(text.str());
  if (!replay.has_value()) {
    std::cerr << "chaos_campaign: " << path << ": "
              << replay.error().to_string() << "\n";
    return 2;
  }
  std::cout << "bundle " << path << " (trigger: " << replay->trigger.kind
            << ")\n"
            << "  trace "
            << (replay->trace_identical ? "identical" : "DIVERGED") << " ("
            << replay->report.trace_hash << " vs recorded "
            << replay->recorded_trace_hash << ")\n"
            << "  violations "
            << (replay->violations_match ? "reproduced" : "DIFFER") << ": "
            << replay->report.invariants.summary() << "\n";
  if (!replay->reproduced()) {
    std::cout << "BUNDLE DOES NOT REPRODUCE\n";
    return 1;
  }
  std::cout << "BUNDLE REPRODUCES\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Hundreds of runs, each of which legitimately drops messages and crashes
  // hosts — the per-event warnings would swamp the campaign summary.
  ars::support::Logger::global().set_level(ars::support::LogLevel::kOff);
  CampaignOptions options;
  ScenarioOptions& scenario = options.scenario;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t equals = arg.find('=');
    const std::string flag = arg.substr(0, equals);
    const std::string value =
        equals == std::string::npos ? "" : arg.substr(equals + 1);
    if (arg == "--list-plans") {
      for (const std::string& name : FaultPlan::builtin_names()) {
        std::cout << name << "\n";
      }
      std::cout << "none\n";
      return 0;
    }
    if (flag == "--dump-plan") {
      std::cout << load_plan(value).to_json() << "\n";
      return 0;
    }
    if (flag == "--replay-bundle") {
      return replay_bundle_main(value);
    }
    if (arg == "--require-coop-win") {
      options.require_coop_win = true;
    } else if (arg == "--sabotage-lease-expiry") {
      scenario.sabotage_lease_expiry = true;
    } else if (arg == "--sabotage-migration-rollback") {
      scenario.sabotage_migration_rollback = true;
    } else if (arg == "--sabotage-resize-rollback") {
      scenario.sabotage_resize_rollback = true;
    } else if (arg == "--delta-heartbeats") {
      scenario.delta_heartbeats = true;
    } else if (arg == "--precopy") {
      scenario.precopy = true;
    } else if (ars::bench::consume_obs_flag(arg)) {
      // --trace-out= / --metrics-out= recorded in bench::obs_export()
    } else if (equals == std::string::npos) {
      usage_error("unknown argument: " + arg);
    } else if (flag == "--seeds") {
      options.seeds = parse_number<int>(arg, value);
    } else if (flag == "--seed-base") {
      options.seed_base = parse_number<std::uint64_t>(arg, value);
    } else if (flag == "--plan") {
      options.plans.push_back(value);
    } else if (flag == "--mtbf") {
      options.mtbfs = parse_list(arg, value);
    } else if (flag == "--replay-passing") {
      options.replay_passing = parse_number<int>(arg, value);
    } else if (flag == "--out") {
      options.out_path = value;
    } else if (flag == "--bundle-dir") {
      options.bundle_dir = value;
    } else if (flag == "--hosts") {
      scenario.hosts = parse_number<int>(arg, value);
    } else if (flag == "--apps") {
      scenario.apps = parse_number<int>(arg, value);
    } else if (flag == "--horizon") {
      scenario.horizon = parse_number<double>(arg, value);
    } else if (flag == "--state-mb") {
      scenario.ckpt_state_mb = parse_number<double>(arg, value);
    } else if (flag == "--aggregate-mbps") {
      scenario.ckpt_aggregate_mbps = parse_number<double>(arg, value);
    } else if (flag == "--malleable-jobs") {
      scenario.malleable_jobs = parse_number<int>(arg, value);
    } else {
      usage_error("unknown argument: " + arg);
    }
  }
  if (options.seeds <= 0) {
    usage_error("--seeds must be positive");
  }
  // One rule for a runnable scenario: the bounds a bundle's scenario is
  // held to when it is replayed.
  if (const auto runnable = ars::chaos::check_scenario(scenario); !runnable) {
    usage_error(runnable.error().message);
  }
  if (std::ranges::any_of(options.mtbfs,
                          [](double mtbf) { return mtbf <= 0.0; })) {
    usage_error("--mtbf values must be positive");
  }
  if (options.require_coop_win && options.mtbfs.empty()) {
    usage_error("--require-coop-win needs --mtbf");
  }
  if (options.plans.empty()) {
    options.plans = FaultPlan::builtin_names();
    options.plans.push_back("none");
  }
  // Trace exports and replay-mismatch bundles need the bytes, not just the
  // hash (failing runs keep their trace regardless).
  scenario.keep_trace = !options.bundle_dir.empty() ||
                        !ars::bench::obs_export().trace_out.empty() ||
                        !ars::bench::obs_export().metrics_out.empty();

  std::vector<CellResult> results;
  int total_failures = 0;
  int total_mismatches = 0;
  int coop_losses = 0;
  for (const Cell& cell : make_cells(options)) {
    std::cout << "cell \"" << cell.label << "\": " << options.seeds
              << " seeds from " << options.seed_base << "\n";
    CellResult result = sweep_cell(options, cell);
    std::cout << "  " << (options.seeds - result.failures) << "/"
              << options.seeds << " clean, " << result.replay_mismatches
              << " replay mismatches";
    if (!options.mtbfs.empty()) {
      std::cout << ", waste " << result.waste_s << " s (overhead "
                << result.overhead_s << ", lost " << result.lost_work_s
                << ", restart " << result.restart_s << ")";
    }
    std::cout << "\n";
    if (cell.scenario.ckpt_strategy == "cooperative") {
      // make_cells puts the periodic twin right before this cell.
      const double saved = results.back().waste_s - result.waste_s;
      const bool win = saved > 0.0;
      std::cout << "  cooperative vs periodic: " << (win ? "saves " : "LOSES ")
                << (win ? saved : -saved) << " s total waste\n";
      if (!win) {
        ++coop_losses;
      }
    }
    total_failures += result.failures;
    total_mismatches += result.replay_mismatches;
    results.push_back(std::move(result));
  }

  if (!options.out_path.empty()) {
    ars::obs::JsonObject report;
    set_number(report, "seeds", options.seeds);
    set_number(report, "seed_base", options.seed_base);
    set_number(report, "hosts", scenario.hosts);
    set_number(report, "horizon", scenario.horizon);
    set_number(report, "state_mb", scenario.ckpt_state_mb);
    set_number(report, "aggregate_mbps", scenario.ckpt_aggregate_mbps);
    set_number(report, "failures", total_failures);
    set_number(report, "replay_mismatches", total_mismatches);
    set_number(report, "coop_losses", coop_losses);
    ars::obs::JsonArray cells;
    for (const CellResult& result : results) {
      cells.push_back(to_json(result));
    }
    report["cells"] = ars::obs::JsonValue{std::move(cells)};
    std::ofstream out(options.out_path);
    if (!out) {
      std::cerr << "chaos_campaign: cannot write " << options.out_path << "\n";
      return 2;
    }
    out << ars::obs::JsonValue{std::move(report)}.dump() << "\n";
  }

  const bool coop_gate_failed = options.require_coop_win && coop_losses > 0;
  if (total_failures > 0 || total_mismatches > 0 || coop_gate_failed) {
    std::cout << "CAMPAIGN FAIL: " << total_failures << " violations, "
              << total_mismatches << " replay mismatches";
    if (options.require_coop_win) {
      std::cout << ", " << coop_losses << " cells where cooperative lost";
    }
    std::cout << "\n";
    return 1;
  }
  std::cout << "CAMPAIGN OK\n";
  return 0;
}
