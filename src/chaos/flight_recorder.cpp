#include "ars/chaos/flight_recorder.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>

namespace ars::chaos {

namespace {

using obs::JsonArray;
using obs::JsonObject;
using obs::JsonValue;

JsonValue scenario_to_json(const ScenarioOptions& options) {
  JsonObject scenario;
  scenario.emplace("hosts", static_cast<double>(options.hosts));
  scenario.emplace("apps", static_cast<double>(options.apps));
  scenario.emplace("iterations", static_cast<double>(options.iterations));
  scenario.emplace("checkpoint_every",
                   static_cast<double>(options.checkpoint_every));
  scenario.emplace("horizon", options.horizon);
  scenario.emplace("seed", static_cast<double>(options.seed));
  scenario.emplace("sabotage_lease_expiry", options.sabotage_lease_expiry);
  scenario.emplace("sabotage_migration_rollback",
                   options.sabotage_migration_rollback);
  scenario.emplace("with_load", options.with_load);
  scenario.emplace("delta_heartbeats", options.delta_heartbeats);
  scenario.emplace("malleable_jobs",
                   static_cast<double>(options.malleable_jobs));
  scenario.emplace("sabotage_resize_rollback",
                   options.sabotage_resize_rollback);
  scenario.emplace("precopy", options.precopy);
  scenario.emplace("ckpt_strategy", options.ckpt_strategy);
  scenario.emplace("ckpt_mtbf", options.ckpt_mtbf);
  scenario.emplace("ckpt_aggregate_mbps", options.ckpt_aggregate_mbps);
  scenario.emplace("ckpt_state_mb", options.ckpt_state_mb);
  scenario.emplace("sabotage_torn_checkpoint",
                   options.sabotage_torn_checkpoint);
  return JsonValue{std::move(scenario)};
}

support::Expected<ScenarioOptions> scenario_from_json(const JsonValue& value) {
  if (!value.is_object()) {
    return support::make_error("bundle.scenario", "not an object");
  }
  // Outside input: refuse what run_scenario cannot run before anything is
  // cast — no hosts (apps are placed round-robin over them), a count an int
  // cannot hold, or a state size whose byte count overflows.
  constexpr double kIntMax = std::numeric_limits<int>::max();
  if (const char* key = obs::first_out_of_bounds(
          value,
          {{"hosts", 1, kIntMax},
           {"apps", 0, kIntMax},
           {"iterations", 0, kIntMax},
           {"checkpoint_every", 0, kIntMax},
           {"malleable_jobs", 0, kIntMax},
           {"seed", 0, 0x1p63},
           {"ckpt_state_mb", 0, 1.0e6},
           {"ckpt_aggregate_mbps", 0, std::numeric_limits<double>::max()}})) {
    return support::make_error("bundle.scenario",
                               std::string(key) + " out of range");
  }
  ScenarioOptions options;
  const auto number = [&value](const char* key, double fallback) {
    const JsonValue* member = value.find(key);
    return member != nullptr && member->is_number() ? member->as_number()
                                                    : fallback;
  };
  const auto boolean = [&value](const char* key, bool fallback) {
    const JsonValue* member = value.find(key);
    return member != nullptr && member->is_bool() ? member->as_bool()
                                                  : fallback;
  };
  const auto string = [&value](const char* key, const std::string& fallback) {
    const JsonValue* member = value.find(key);
    return member != nullptr && member->is_string() ? member->as_string()
                                                    : fallback;
  };
  options.hosts = static_cast<int>(number("hosts", options.hosts));
  options.apps = static_cast<int>(number("apps", options.apps));
  options.iterations =
      static_cast<int>(number("iterations", options.iterations));
  options.checkpoint_every = static_cast<int>(
      number("checkpoint_every", options.checkpoint_every));
  options.horizon = number("horizon", options.horizon);
  options.seed = static_cast<std::uint64_t>(
      number("seed", static_cast<double>(options.seed)));
  options.sabotage_lease_expiry =
      boolean("sabotage_lease_expiry", options.sabotage_lease_expiry);
  options.sabotage_migration_rollback = boolean(
      "sabotage_migration_rollback", options.sabotage_migration_rollback);
  options.with_load = boolean("with_load", options.with_load);
  options.delta_heartbeats =
      boolean("delta_heartbeats", options.delta_heartbeats);
  options.malleable_jobs = static_cast<int>(
      number("malleable_jobs", options.malleable_jobs));
  options.sabotage_resize_rollback = boolean(
      "sabotage_resize_rollback", options.sabotage_resize_rollback);
  // Bundles recorded before pre-copy existed have no such key; the default
  // (false) preserves their byte-identical replays.
  options.precopy = boolean("precopy", options.precopy);
  // Likewise for bundles recorded before the checkpoint fields were
  // serialized: absent keys keep the defaults those runs used.
  options.ckpt_strategy = string("ckpt_strategy", options.ckpt_strategy);
  options.ckpt_mtbf = number("ckpt_mtbf", options.ckpt_mtbf);
  options.ckpt_aggregate_mbps =
      number("ckpt_aggregate_mbps", options.ckpt_aggregate_mbps);
  options.ckpt_state_mb = number("ckpt_state_mb", options.ckpt_state_mb);
  options.sabotage_torn_checkpoint = boolean(
      "sabotage_torn_checkpoint", options.sabotage_torn_checkpoint);
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
