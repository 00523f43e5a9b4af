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

}  // namespace

JsonValue make_bundle(const ScenarioOptions& options,
                      const ScenarioReport& report,
                      const FlightTrigger& trigger) {
  JsonObject root;
  root.emplace("version", 1.0);
  JsonObject trigger_object;
  trigger_object.emplace("kind", trigger.kind);
  trigger_object.emplace("detail", trigger.detail);
  root.emplace("trigger", std::move(trigger_object));
  root.emplace("scenario", scenario_to_json(options));
  // The fault plan round-trips through its own JSON form; embed it parsed
  // so the bundle is one well-formed document, not nested text.
  if (auto plan = obs::json_parse(options.plan.to_json());
      plan.has_value()) {
    root.emplace("plan", *std::move(plan));
  }
  JsonArray violations;
  for (const Violation& violation : report.invariants.violations) {
    JsonObject entry;
    entry.emplace("invariant", violation.invariant);
    entry.emplace("subject", violation.subject);
    entry.emplace("detail", violation.detail);
    violations.push_back(JsonValue{std::move(entry)});
  }
  root.emplace("violations", std::move(violations));
  root.emplace("violations_summary", report.invariants.summary());
  // Hashes as decimal strings: they exceed a double's integer range.
  root.emplace("trace_hash", std::to_string(report.trace_hash));
  root.emplace("decision_log_hash", std::to_string(report.decision_log_hash));
  JsonObject stats;
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
  root.emplace("stats", std::move(stats));
  if (!report.metrics_json.empty()) {
    if (auto metrics = obs::json_parse(report.metrics_json);
        metrics.has_value()) {
      root.emplace("metrics", *std::move(metrics));
    }
  }
  root.emplace("trace_jsonl", report.trace_jsonl);
  return JsonValue{std::move(root)};
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
  const JsonValue* scenario = doc->find("scenario");
  if (scenario == nullptr) {
    return support::make_error("bundle.parse", "missing scenario");
  }
  auto options = scenario_from_json(*scenario);
  if (!options.has_value()) {
    return options.error();
  }
  if (const JsonValue* plan = doc->find("plan")) {
    auto parsed = FaultPlan::from_json(plan->dump());
    if (!parsed.has_value()) {
      return support::make_error("bundle.parse",
                                 "plan: " + parsed.error().to_string());
    }
    options->plan = *std::move(parsed);
  }
  BundleReplay replay;
  if (const JsonValue* trigger = doc->find("trigger")) {
    if (const JsonValue* kind = trigger->find("kind");
        kind != nullptr && kind->is_string()) {
      replay.trigger.kind = kind->as_string();
    }
    if (const JsonValue* detail = trigger->find("detail");
        detail != nullptr && detail->is_string()) {
      replay.trigger.detail = detail->as_string();
    }
  }
  if (const JsonValue* hash = doc->find("trace_hash");
      hash != nullptr && hash->is_string()) {
    const std::string& text = hash->as_string();
    const char* const end = text.data() + text.size();
    const auto [last, error] =
        std::from_chars(text.data(), end, replay.recorded_trace_hash);
    if (error != std::errc{} || last != end) {
      return support::make_error("bundle.parse",
                                 "trace_hash is not a decimal number");
    }
  }
  if (const JsonValue* summary = doc->find("violations_summary");
      summary != nullptr && summary->is_string()) {
    replay.recorded_violations = summary->as_string();
  }
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
