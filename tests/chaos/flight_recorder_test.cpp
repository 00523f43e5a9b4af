// Flight-recorder tests (tentpole part 3): an induced invariant violation
// produces a complete, self-contained post-mortem bundle that survives a
// disk round-trip and — because one ScenarioOptions value determines the
// whole run — replays to the very same violation, byte-identical trace
// included.  A tampered bundle must be called out, not rubber-stamped.

#include "ars/chaos/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "ars/obs/json.hpp"

namespace ars::chaos {
namespace {

/// The known-bad configuration from the migration-fault suite: rollback
/// sabotaged, destination crashed in init — the no-lost-process invariant
/// trips deterministically.
ScenarioOptions sabotaged_options() {
  ScenarioOptions options;
  options.seed = 9;
  options.horizon = 900.0;
  options.plan = FaultPlan{"dest-crash-init"};
  options.plan.migration_dest_crash(/*at=*/50.0, /*until=*/400.0, "init",
                                    /*probability=*/1.0,
                                    /*reboot_after=*/30.0);
  options.sabotage_migration_rollback = true;
  return options;
}

TEST(FlightRecorder, ViolationProducesACompleteBundle) {
  const ScenarioOptions options = sabotaged_options();
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok());
  // A failing run keeps its own evidence — no keep_trace, no re-run.
  ASSERT_FALSE(report.trace_jsonl.empty());
  ASSERT_FALSE(report.metrics_json.empty());

  const obs::JsonValue bundle = make_bundle(
      options, report,
      FlightTrigger{"invariant-violation", report.invariants.summary()});
  ASSERT_TRUE(bundle.is_object());
  const auto field = [&bundle](const char* key) {
    const obs::JsonValue* member = bundle.find(key);
    EXPECT_NE(member, nullptr) << key;
    return member;
  };
  EXPECT_EQ(field("trigger")->find("kind")->as_string(),
            "invariant-violation");
  EXPECT_EQ(field("scenario")->find("seed")->as_number(), 9.0);
  EXPECT_TRUE(field("scenario")
                  ->find("sabotage_migration_rollback")
                  ->as_bool());
  EXPECT_EQ(field("plan")->find("name")->as_string(), "dest-crash-init");
  EXPECT_FALSE(field("violations")->as_array().empty());
  EXPECT_EQ(field("trace_hash")->as_string(),
            std::to_string(report.trace_hash));
  EXPECT_NE(field("trace_jsonl"), nullptr);
  EXPECT_NE(field("metrics"), nullptr);
}

TEST(FlightRecorder, BundleSurvivesDiskAndReplaysToTheSameViolation) {
  const ScenarioOptions options = sabotaged_options();
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok());
  const obs::JsonValue bundle = make_bundle(
      options, report,
      FlightTrigger{"invariant-violation", report.invariants.summary()});

  const std::string path =
      ::testing::TempDir() + "/ars-flight/flight_recorder_test.bundle.json";
  const auto status = write_bundle(path, bundle);
  ASSERT_TRUE(status.is_ok()) << status.error().to_string();

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();

  const auto replay = replay_bundle(text.str());
  ASSERT_TRUE(replay.has_value()) << replay.error().to_string();
  EXPECT_EQ(replay->trigger.kind, "invariant-violation");
  EXPECT_EQ(replay->recorded_trace_hash, report.trace_hash);
  EXPECT_EQ(replay->recorded_violations, report.invariants.summary());
  // The replay reproduced the recording: same trace bytes, same violation
  // summary, and the fresh run failed the same way.
  EXPECT_TRUE(replay->trace_identical);
  EXPECT_TRUE(replay->violations_match);
  EXPECT_TRUE(replay->reproduced());
  EXPECT_FALSE(replay->report.ok());
}

TEST(FlightRecorder, PassingRunBundleAlsoReproduces) {
  // The recorder is not failure-only: a clean run (keep_trace on, so the
  // evidence is captured) bundles and replays the same way.
  ScenarioOptions options;
  options.seed = 21;
  options.keep_trace = true;
  const ScenarioReport report = run_scenario(options);
  ASSERT_TRUE(report.ok()) << report.invariants.summary();
  ASSERT_FALSE(report.trace_jsonl.empty());

  const obs::JsonValue bundle =
      make_bundle(options, report, FlightTrigger{"manual", "keep-trace run"});
  const auto replay = replay_bundle(bundle.dump());
  ASSERT_TRUE(replay.has_value()) << replay.error().to_string();
  EXPECT_TRUE(replay->reproduced());
  EXPECT_TRUE(replay->report.ok());
}

TEST(FlightRecorder, CheckpointRunBundleReplaysTheSameTornRestore) {
  // The checkpoint knobs are part of the run: a bundle that dropped them
  // would replay a different store and miss the torn restore.  Same
  // configuration as the ckpt-storm torn-commit sabotage test.
  ScenarioOptions options;
  options.seed = 4;
  options.plan = *FaultPlan::builtin("ckpt-storm");
  options.ckpt_strategy = "periodic";
  options.ckpt_mtbf = 150.0;
  options.ckpt_state_mb = 100.0;
  options.ckpt_aggregate_mbps = 10.0;
  options.sabotage_torn_checkpoint = true;
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok());
  ASSERT_GT(report.torn_restores, 0u);

  const obs::JsonValue bundle = make_bundle(
      options, report,
      FlightTrigger{"invariant-violation", report.invariants.summary()});
  const auto replay = replay_bundle(bundle.dump());
  ASSERT_TRUE(replay.has_value()) << replay.error().to_string();
  EXPECT_TRUE(replay->reproduced());
  EXPECT_EQ(replay->report.torn_restores, report.torn_restores);
}

// Every field the scenario serializes, set away from its default: the bundle
// must carry each one, or its replay runs a different scenario.
TEST(FlightRecorder, EveryScenarioFieldSurvivesTheBundle) {
  ScenarioOptions options;
  options.hosts = 5;
  options.apps = 2;
  options.iterations = 30;
  options.checkpoint_every = 5;
  options.horizon = 200.0;
  options.seed = 7;
  options.plan = *FaultPlan::builtin("churn");
  options.sabotage_lease_expiry = true;
  options.sabotage_migration_rollback = true;
  options.with_load = false;
  options.keep_trace = true;
  options.delta_heartbeats = true;
  options.malleable_jobs = 1;
  options.sabotage_resize_rollback = true;
  options.precopy = true;
  options.ckpt_strategy = "cooperative";
  options.ckpt_mtbf = 200.0;
  options.ckpt_aggregate_mbps = 20.0;
  options.ckpt_state_mb = 10.0;
  options.sabotage_torn_checkpoint = true;
  const ScenarioReport report = run_scenario(options);

  const obs::JsonValue bundle =
      make_bundle(options, report, FlightTrigger{"manual", "every field"});
  EXPECT_EQ(bundle.find("scenario")->dump(),
            R"({"apps":2,"checkpoint_every":5,"ckpt_aggregate_mbps":20,)"
            R"("ckpt_mtbf":200,"ckpt_state_mb":10,)"
            R"("ckpt_strategy":"cooperative","delta_heartbeats":true,)"
            R"("horizon":200,"hosts":5,"iterations":30,"malleable_jobs":1,)"
            R"("precopy":true,"sabotage_lease_expiry":true,)"
            R"("sabotage_migration_rollback":true,)"
            R"("sabotage_resize_rollback":true,)"
            R"("sabotage_torn_checkpoint":true,"seed":7,"with_load":false})");
  const auto replay = replay_bundle(bundle.dump());
  ASSERT_TRUE(replay.has_value()) << replay.error().to_string();
  EXPECT_EQ(replay->report.trace_hash, report.trace_hash);
  EXPECT_TRUE(replay->reproduced());
}

TEST(FlightRecorder, TamperedTraceHashFailsTheReplayCheck) {
  const ScenarioOptions options = sabotaged_options();
  const ScenarioReport report = run_scenario(options);
  ASSERT_FALSE(report.ok());
  const obs::JsonValue bundle = make_bundle(
      options, report, FlightTrigger{"invariant-violation", "tamper test"});

  obs::JsonObject doctored = bundle.as_object();
  doctored.insert_or_assign(
      "trace_hash",
      obs::JsonValue{std::to_string(report.trace_hash + 1)});
  const auto replay = replay_bundle(obs::JsonValue{std::move(doctored)}.dump());
  ASSERT_TRUE(replay.has_value()) << replay.error().to_string();
  EXPECT_FALSE(replay->trace_identical);
  EXPECT_FALSE(replay->reproduced());
}

/// The smallest bundle replay_bundle reads: every required key, a default
/// scenario and an empty fault plan.
obs::JsonObject minimal_bundle() {
  auto doc = obs::json_parse(
      R"({"version":1,"scenario":{},"plan":{"faults":[]},)"
      R"("violations_summary":"ok","trace_hash":"0"})");
  EXPECT_TRUE(doc.has_value());
  return doc->as_object();
}

/// `minimal_bundle()` with `key` set to the JSON text `value`, or removed
/// when `value` is null.
std::string bundle_with(const std::string& key, const char* value) {
  obs::JsonObject root = minimal_bundle();
  if (value == nullptr) {
    root.erase(key);
  } else {
    auto parsed = obs::json_parse(value);
    EXPECT_TRUE(parsed.has_value()) << value;
    root.insert_or_assign(key, *std::move(parsed));
  }
  return obs::JsonValue{std::move(root)}.dump();
}

TEST(FlightRecorder, MalformedBundleIsRejected) {
  EXPECT_FALSE(replay_bundle("not json").has_value());
  EXPECT_FALSE(replay_bundle("[1,2,3]").has_value());
  EXPECT_FALSE(replay_bundle("{\"version\":1}").has_value());
  // Outside input: a trace hash that is not a number is a parse error, not
  // an exception.
  const auto bad_hash = replay_bundle(bundle_with("trace_hash",
                                                  R"("not-a-number")"));
  ASSERT_FALSE(bad_hash.has_value());
  EXPECT_EQ(bad_hash.error().code, "bundle.parse");
  // The root is read as strictly as the scenario: a bundle that does not
  // say what to replay, or says it in a form no writer produced, is
  // refused with the key named instead of replaying some other run (a
  // numeric hash read as 0, a missing plan run fault-free).
  struct Refusal {
    const char* key;
    const char* value;  // JSON text; nullptr removes the key
    const char* code;
    const char* message;
  };
  const Refusal refused_roots[] = {
      {"trace_hash", "12345", "bundle.trace_hash",
       "$.trace_hash: expected a string"},
      {"trace_hash", nullptr, "bundle.trace_hash",
       "$.trace_hash: required key is missing"},
      {"plan", nullptr, "bundle.plan", "$.plan: required key is missing"},
      {"plan", "[]", "bundle.plan", "$.plan: expected an object"},
      {"version", "2", "bundle.version", "$.version: must be in [1, 1], got 2"},
      {"version", R"("1")", "bundle.version", "$.version: expected a number"},
      {"version", nullptr, "bundle.version",
       "$.version: required key is missing"},
      {"trigger", R"("invariant-violation")", "bundle.trigger",
       "$.trigger: expected an object"},
      {"trigger", R"({"kind":7})", "bundle.kind",
       "$.trigger.kind: expected a string"},
      {"trigger", R"({"knid":"watchdog"})", "bundle.knid",
       "$.trigger.knid: unknown key"},
      {"tracehash", R"("0")", "bundle.tracehash", "$.tracehash: unknown key"},
      {"violations_summary", nullptr, "bundle.violations_summary",
       "$.violations_summary: required key is missing"},
      {"stats", "[]", "bundle.stats", "$.stats: expected an object"},
  };
  for (const Refusal& refusal : refused_roots) {
    const std::string what =
        std::string(refusal.key) + " = " +
        (refusal.value == nullptr ? "(absent)" : refusal.value);
    const auto bad = replay_bundle(bundle_with(refusal.key, refusal.value));
    ASSERT_FALSE(bad.has_value()) << what;
    EXPECT_EQ(bad.error().code, refusal.code) << what;
    EXPECT_EQ(bad.error().message, refusal.message) << what;
  }
  // Nor may a scenario reach run_scenario that it cannot run, or run a
  // different one than recorded: an unknown key, a value of the wrong type,
  // a fractional count, a number outside its type or its bounds, or a
  // checkpoint strategy MigrationEngine does not know is refused, and the
  // error names the key.
  const std::pair<const char*, const char*> refused[] = {
      {R"({"hosts":0})", "bundle.hosts"},
      {R"({"hosts":2.7})", "bundle.hosts"},
      {R"({"apps":0})", "bundle.apps"},
      {R"({"apps":1e300})", "bundle.apps"},
      {R"({"iterations":"60"})", "bundle.iterations"},
      {R"({"seed":-1})", "bundle.seed"},
      {R"({"precopy":1})", "bundle.precopy"},
      {R"({"precopyy":true})", "bundle.precopyy"},
      {R"({"ckpt_strategy":"cooprative"})", "bundle.ckpt_strategy"},
      {R"({"ckpt_state_mb":-1})", "bundle.ckpt_state_mb"},
      {R"({"ckpt_state_mb":1e300})", "bundle.ckpt_state_mb"},
  };
  for (const auto& [scenario, code] : refused) {
    const auto bad = replay_bundle(bundle_with("scenario", scenario));
    ASSERT_FALSE(bad.has_value()) << scenario;
    EXPECT_EQ(bad.error().code, code) << scenario;
    const std::string path =
        "$.scenario." + std::string(code).substr(7) + ": ";
    EXPECT_EQ(bad.error().message.rfind(path, 0), 0u)
        << scenario << " -> " << bad.error().message;
  }
}

}  // namespace
}  // namespace ars::chaos
