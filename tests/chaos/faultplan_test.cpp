#include "ars/chaos/faultplan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

namespace ars::chaos {
namespace {

std::string read_plan_file(const std::string& name) {
  std::ifstream in(ARS_SOURCE_DIR "/plans/" + name + ".json");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(FaultPlanTest, BuilderRecordsSpecsInOrder) {
  FaultPlan plan{"p"};
  plan.message_loss(10.0, 20.0, 0.5, "ws1", "ws2")
      .partition(30.0, 40.0, "ws3")
      .host_crash(50.0, 60.0, "ws2")
      .registry_crash(70.0, 80.0);
  ASSERT_EQ(plan.specs().size(), 4u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kMessageLoss);
  EXPECT_EQ(plan.specs()[0].host_a, "ws1");
  EXPECT_EQ(plan.specs()[0].host_b, "ws2");
  EXPECT_DOUBLE_EQ(plan.specs()[0].probability, 0.5);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kPartition);
  EXPECT_EQ(plan.specs()[1].host_b, "*");
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kHostCrash);
  EXPECT_EQ(plan.specs()[3].kind, FaultKind::kRegistryCrash);
  EXPECT_DOUBLE_EQ(plan.last_disruption_end(), 80.0);
}

TEST(FaultPlanTest, KindStringsRoundTrip) {
  FaultPlan plan{"kinds"};
  for (const FaultKind kind :
       {FaultKind::kMessageLoss, FaultKind::kMessageDuplicate,
        FaultKind::kMessageDelay, FaultKind::kLinkDegrade,
        FaultKind::kPartition, FaultKind::kHostCrash,
        FaultKind::kHostCrashRate, FaultKind::kCpuSlowdown,
        FaultKind::kMonitorStall, FaultKind::kRegistryCrash,
        FaultKind::kMigrationDestCrash, FaultKind::kMigrationLinkCut,
        FaultKind::kMigrationPrecopyStall, FaultKind::kResizeStall,
        FaultKind::kResizeTargetCrash}) {
    FaultSpec spec;
    spec.kind = kind;
    spec.until = 10.0;  // host_crash_rate needs a finite window
    spec.mtbf = 5.0;
    spec.phase = kind == FaultKind::kResizeStall ||
                         kind == FaultKind::kResizeTargetCrash
                     ? "spawn"
                     : "precopy";
    plan.add(spec);
  }
  const auto parsed = FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  ASSERT_EQ(parsed->specs().size(), plan.specs().size());
  for (std::size_t i = 0; i < plan.specs().size(); ++i) {
    EXPECT_EQ(parsed->specs()[i].kind, plan.specs()[i].kind)
        << to_string(plan.specs()[i].kind);
  }
  const auto unknown = FaultPlan::from_json(
      R"({"name":"p","faults":[{"kind":"meteor_strike","at":1}]})");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, "chaos.kind");
}

TEST(FaultPlanTest, JsonRoundTripIsExact) {
  for (const std::string& name : FaultPlan::builtin_names()) {
    const auto plan = FaultPlan::builtin(name);
    ASSERT_TRUE(plan.has_value()) << name;
    const std::string text = plan->to_json();
    const auto reparsed = FaultPlan::from_json(text);
    ASSERT_TRUE(reparsed.has_value()) << name;
    EXPECT_EQ(reparsed->name(), plan->name());
    EXPECT_EQ(reparsed->specs().size(), plan->specs().size());
    // Byte-identical re-serialization: plans/<name>.json is canonical.
    EXPECT_EQ(reparsed->to_json(), text) << name;
  }
}

TEST(FaultPlanTest, BuiltinPlanFilesAreTheirSerialization) {
  for (const std::string& name : FaultPlan::builtin_names()) {
    const auto plan = FaultPlan::builtin(name);
    ASSERT_TRUE(plan.has_value()) << name;
    EXPECT_EQ(plan->to_json() + "\n", read_plan_file(name)) << name;
  }
}

// Every committed fault plan loads, the hand-written ones included
// (large-cluster and migration-storm are not a builtin's serialization).
TEST(FaultPlanTest, CommittedPlanFilesLoad) {
  for (const char* name :
       {"churn", "ckpt-storm", "control-loss", "large-cluster",
        "migration-storm", "precopy-storm", "resize-storm"}) {
    const auto plan = FaultPlan::from_json(read_plan_file(name));
    ASSERT_TRUE(plan.has_value()) << name << ": " << plan.error().to_string();
    EXPECT_EQ(plan->name(), name);
    EXPECT_FALSE(plan->empty()) << name;
  }
}

TEST(FaultPlanTest, UnknownBuiltinIsAnError) {
  EXPECT_FALSE(FaultPlan::builtin("no-such-plan").has_value());
  const auto names = FaultPlan::builtin_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "control-loss"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "churn"), names.end());
}

TEST(FaultPlanTest, StrictParserRejectsBadDocuments) {
  // Not JSON at all.
  EXPECT_FALSE(FaultPlan::from_json("not json").has_value());
  // Root must be an object.
  EXPECT_FALSE(FaultPlan::from_json("[]").has_value());
  // Unknown root key.
  EXPECT_FALSE(
      FaultPlan::from_json(R"({"name":"p","faults":[],"extra":1})")
          .has_value());
  // Fault entries must be objects.
  EXPECT_FALSE(
      FaultPlan::from_json(R"({"name":"p","faults":[42]})").has_value());
  // Missing "kind".
  EXPECT_FALSE(
      FaultPlan::from_json(R"({"name":"p","faults":[{"at":1}]})")
          .has_value());
  // Missing "at".
  EXPECT_FALSE(FaultPlan::from_json(
                   R"({"name":"p","faults":[{"kind":"message_loss"}]})")
                   .has_value());
  // Unknown kind.
  EXPECT_FALSE(
      FaultPlan::from_json(
          R"({"name":"p","faults":[{"kind":"meteor_strike","at":1}]})")
          .has_value());
  // Unknown fault key.
  EXPECT_FALSE(
      FaultPlan::from_json(
          R"({"name":"p","faults":[{"kind":"partition","at":1,"wat":2}]})")
          .has_value());
  // Probability out of range.
  EXPECT_FALSE(FaultPlan::from_json(
                   R"({"name":"p","faults":[{"kind":"message_loss","at":1,)"
                   R"("probability":1.5}]})")
                   .has_value());
  // Negative factor.
  EXPECT_FALSE(FaultPlan::from_json(
                   R"({"name":"p","faults":[{"kind":"link_degrade","at":1,)"
                   R"("factor":-0.5}]})")
                   .has_value());
}

TEST(FaultPlanTest, PrecopyStallValidation) {
  // The builder stamps the fixed "precopy" phase.
  FaultPlan plan{"p"};
  plan.migration_precopy_stall(10.0, 50.0, 30.0);
  ASSERT_EQ(plan.specs().size(), 1u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kMigrationPrecopyStall);
  EXPECT_EQ(plan.specs()[0].phase, "precopy");
  EXPECT_DOUBLE_EQ(plan.specs()[0].delay, 30.0);

  // Parsing defaults an omitted phase to "precopy"…
  const auto parsed = FaultPlan::from_json(
      R"({"name":"p","faults":[{"kind":"migration_precopy_stall",)"
      R"("at":1,"delay":20}]})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->specs()[0].phase, "precopy");
  // …and rejects any other phase.
  EXPECT_FALSE(FaultPlan::from_json(
                   R"({"name":"p","faults":[{"kind":"migration_precopy_stall",)"
                   R"("at":1,"phase":"eager"}]})")
                   .has_value());
  // Migration-window faults may now target the precopy phase.
  EXPECT_TRUE(FaultPlan::from_json(
                  R"({"name":"p","faults":[{"kind":"migration_dest_crash",)"
                  R"("at":1,"phase":"precopy"}]})")
                  .has_value());
}

TEST(FaultPlanTest, MinimalDocumentParsesWithDefaults) {
  const auto plan = FaultPlan::from_json(
      R"({"name":"tiny","faults":[{"kind":"partition","at":5}]})");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->name(), "tiny");
  ASSERT_EQ(plan->specs().size(), 1u);
  const FaultSpec& spec = plan->specs()[0];
  EXPECT_EQ(spec.kind, FaultKind::kPartition);
  EXPECT_DOUBLE_EQ(spec.at, 5.0);
  EXPECT_TRUE(spec.permanent());
  EXPECT_EQ(spec.host_a, "*");
  EXPECT_EQ(spec.host_b, "*");
  EXPECT_DOUBLE_EQ(spec.probability, 1.0);
}

}  // namespace
}  // namespace ars::chaos
