#include "ars/chaos/flight_recorder.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

namespace ars::chaos {

namespace {

using obs::JsonArray;
using obs::JsonField;
using obs::JsonObject;
using obs::JsonValue;

/// The checkpoint strategies MigrationEngine understands ("" and "none"
/// both keep the legacy every-N-iterations checkpoint).
constexpr std::string_view kCkptStrategies[] = {"", "none", "periodic",
                                                "cooperative"};

/// A bundle's scenario, bound to `o`: every field a run depends on
/// except the plan, which the bundle carries beside it.  The bounds are
/// what run_scenario can run: apps are placed round-robin over at least
/// one host, and each app's state becomes a byte count that 1e6 MB (1 TB)
/// keeps in range.
std::vector<JsonField> scenario_fields(ScenarioOptions& o) {
  return {
      JsonField("hosts", o.hosts).at_least(1),
      JsonField("apps", o.apps).at_least(1),
      JsonField("iterations", o.iterations).at_least(0),
      JsonField("checkpoint_every", o.checkpoint_every).at_least(0),
      JsonField("horizon", o.horizon),
      JsonField("seed", o.seed),
      JsonField("sabotage_lease_expiry", o.sabotage_lease_expiry),
      JsonField("sabotage_migration_rollback", o.sabotage_migration_rollback),
      JsonField("with_load", o.with_load),
      JsonField("delta_heartbeats", o.delta_heartbeats),
      JsonField("malleable_jobs", o.malleable_jobs).at_least(0),
      JsonField("sabotage_resize_rollback", o.sabotage_resize_rollback),
      JsonField("precopy", o.precopy),
      JsonField("ckpt_strategy", o.ckpt_strategy).one_of(kCkptStrategies),
      JsonField("ckpt_mtbf", o.ckpt_mtbf),
      JsonField("ckpt_aggregate_mbps", o.ckpt_aggregate_mbps).at_least(0.0),
      JsonField("ckpt_state_mb", o.ckpt_state_mb).within(0.0, 1.0e6),
      JsonField("sabotage_torn_checkpoint", o.sabotage_torn_checkpoint),
  };
}

JsonValue scenario_to_json(ScenarioOptions options) {
  return obs::json_write(scenario_fields(options));
}

support::Expected<ScenarioOptions> scenario_from_json(const JsonValue& value) {
  ScenarioOptions options;
  if (auto read = obs::json_read(value, scenario_fields(options), "bundle",
                                 "$.scenario");
      !read) {
    return read.error();
  }
  return options;
}

/// The one bundle format replay_bundle reads and make_bundle writes.
constexpr int kBundleVersion = 1;

/// A bundle's root object.  The replay runs the scenario with the plan and
/// compares its trace hash and violation summary with the recorded ones,
/// so those keys are required; the trigger is handed back, and the rest is
/// evidence for the post-mortem, only type-checked.
struct BundleRoot {
  int version = kBundleVersion;
  JsonObject trigger;
  JsonObject scenario;
  JsonObject plan;
  JsonArray violations;
  std::string violations_summary;
  std::string trace_hash;  // decimal: hashes exceed a double's integers
  std::string decision_log_hash;
  JsonObject stats;
  JsonObject metrics;
  std::string trace_jsonl;
};

std::vector<JsonField> bundle_fields(BundleRoot& b) {
  return {
      JsonField("version", b.version)
          .required()
          .within(kBundleVersion, kBundleVersion),
      JsonField("trigger", b.trigger),
      JsonField("scenario", b.scenario).required(),
      JsonField("plan", b.plan).required(),
      JsonField("violations", b.violations),
      JsonField("violations_summary", b.violations_summary).required(),
      JsonField("trace_hash", b.trace_hash).required(),
      JsonField("decision_log_hash", b.decision_log_hash),
      JsonField("stats", b.stats),
      JsonField("metrics", b.metrics).sparse(),
      JsonField("trace_jsonl", b.trace_jsonl),
  };
}

std::vector<JsonField> trigger_fields(FlightTrigger& t) {
  return {JsonField("kind", t.kind), JsonField("detail", t.detail)};
}

}  // namespace

JsonValue make_bundle(const ScenarioOptions& options,
                      const ScenarioReport& report,
                      const FlightTrigger& trigger) {
  BundleRoot root;
  FlightTrigger recorded = trigger;
  root.trigger = obs::json_write(trigger_fields(recorded)).as_object();
  root.scenario = scenario_to_json(options).as_object();
  // The fault plan round-trips through its own JSON form; embed it parsed
  // so the bundle is one well-formed document, not nested text.
  if (auto plan = obs::json_parse(options.plan.to_json());
      plan.has_value() && plan->is_object()) {
    root.plan = plan->as_object();
  }
  for (const Violation& violation : report.invariants.violations) {
    JsonObject entry;
    entry.emplace("invariant", violation.invariant);
    entry.emplace("subject", violation.subject);
    entry.emplace("detail", violation.detail);
    root.violations.push_back(JsonValue{std::move(entry)});
  }
  root.violations_summary = report.invariants.summary();
  root.trace_hash = std::to_string(report.trace_hash);
  root.decision_log_hash = std::to_string(report.decision_log_hash);
  JsonObject& stats = root.stats;
  stats.emplace("events_executed",
                static_cast<double>(report.events_executed));
  stats.emplace("final_time", report.final_time);
  stats.emplace("migration_attempts",
                static_cast<double>(report.migration_attempts));
  stats.emplace("migrations_succeeded",
                static_cast<double>(report.migrations_succeeded));
  stats.emplace("migrations_aborted",
                static_cast<double>(report.migrations_aborted));
  stats.emplace("migrations_rolled_back",
                static_cast<double>(report.migrations_rolled_back));
  stats.emplace("messages_dropped",
                static_cast<double>(report.messages_dropped));
  stats.emplace("decisions", static_cast<double>(report.decisions));
  if (!report.metrics_json.empty()) {
    if (auto metrics = obs::json_parse(report.metrics_json);
        metrics.has_value() && metrics->is_object()) {
      root.metrics = metrics->as_object();
    }
  }
  root.trace_jsonl = report.trace_jsonl;
  return obs::json_write(bundle_fields(root));
}

support::Status check_scenario(const ScenarioOptions& options) {
  auto read = scenario_from_json(scenario_to_json(options));
  return read.has_value() ? support::Status::ok()
                          : support::Status{read.error()};
}

support::Status write_bundle(const std::string& path,
                             const JsonValue& bundle) {
  const std::filesystem::path target{path};
  std::error_code ec;
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      return support::make_error("bundle.write", path + ": " + ec.message());
    }
  }
  std::ofstream out(path);
  if (!out) {
    return support::make_error("bundle.write", "cannot open " + path);
  }
  out << bundle.dump() << "\n";
  if (!out) {
    return support::make_error("bundle.write", "short write to " + path);
  }
  return support::Status::ok();
}

support::Expected<BundleReplay> replay_bundle(std::string_view bundle_json) {
  auto doc = obs::json_parse(bundle_json);
  if (!doc.has_value()) {
    return support::make_error("bundle.parse", doc.error().to_string());
  }
  BundleRoot root;
  if (auto read = obs::json_read(*doc, bundle_fields(root), "bundle", "$");
      !read) {
    return read.error();
  }
  BundleReplay replay;
  if (auto read = obs::json_read(JsonValue{std::move(root.trigger)},
                                 trigger_fields(replay.trigger), "bundle",
                                 "$.trigger");
      !read) {
    return read.error();
  }
  auto options = scenario_from_json(JsonValue{std::move(root.scenario)});
  if (!options.has_value()) {
    return options.error();
  }
  auto plan = FaultPlan::from_json(JsonValue{std::move(root.plan)}.dump());
  if (!plan.has_value()) {
    return support::make_error("bundle.parse",
                               "plan: " + plan.error().to_string());
  }
  options->plan = *std::move(plan);
  const std::string& hash = root.trace_hash;
  const char* const end = hash.data() + hash.size();
  const auto [last, error] =
      std::from_chars(hash.data(), end, replay.recorded_trace_hash);
  if (error != std::errc{} || last != end) {
    return support::make_error("bundle.parse",
                               "trace_hash is not a decimal number");
  }
  replay.recorded_violations = std::move(root.violations_summary);
  // The rerun must keep its trace so the comparison is on actual bytes,
  // not only the hash.
  options->keep_trace = true;
  replay.report = run_scenario(*options);
  replay.trace_identical =
      replay.report.trace_hash == replay.recorded_trace_hash;
  replay.violations_match =
      replay.report.invariants.summary() == replay.recorded_violations;
  return replay;
}

}  // namespace ars::chaos
