// Productivity campaign: plan parsing (strict unknown-key rejection with
// key paths) and the headline claim — on the committed queue plan, enabling
// malleability strictly improves both makespan and utilization.

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ars/apps/productivity.hpp"
#include "ars/apps/resizable.hpp"

namespace {

using ars::apps::load_queue_plan;
using ars::apps::run_queue;

std::string minimal_plan(const std::string& extra_top = "",
                         const std::string& extra_job = "") {
  std::ostringstream out;
  out << "{\"hosts\": 4" << extra_top << ", \"jobs\": [{\"name\": \"j1\", "
      << "\"kind\": \"custom\", \"blocks\": 8, \"iterations\": 4, "
      << "\"work_per_block\": 0.05" << extra_job << "}]}";
  return out.str();
}

TEST(QueuePlanParse, MinimalPlanLoads) {
  auto plan = load_queue_plan(minimal_plan());
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  EXPECT_EQ(plan.value().hosts, 4);
  ASSERT_EQ(plan.value().jobs.size(), 1U);
  EXPECT_EQ(plan.value().jobs[0].name, "j1");
  EXPECT_EQ(plan.value().jobs[0].workload.blocks, 8);
  EXPECT_DOUBLE_EQ(plan.value().jobs[0].workload.work_per_block, 0.05);
}

TEST(QueuePlanParse, UnknownTopLevelKeyIsRejectedWithPath) {
  auto plan = load_queue_plan(minimal_plan(", \"hots\": 9"));
  ASSERT_FALSE(plan.has_value());
  EXPECT_NE(plan.error().message.find("$.hots"), std::string::npos)
      << plan.error().to_string();
}

TEST(QueuePlanParse, UnknownJobKeyIsRejectedWithIndexedPath) {
  auto plan = load_queue_plan(minimal_plan("", ", \"blokcs\": 9"));
  ASSERT_FALSE(plan.has_value());
  EXPECT_NE(plan.error().message.find("$.jobs[0].blokcs"), std::string::npos)
      << plan.error().to_string();
}

TEST(QueuePlanParse, BadRankOrderingIsRejected) {
  auto plan = load_queue_plan(
      "{\"jobs\": [{\"name\": \"j\", \"min_ranks\": 4, \"initial_ranks\": 2, "
      "\"max_ranks\": 8}]}");
  ASSERT_FALSE(plan.has_value());
  EXPECT_NE(plan.error().message.find("min_ranks"), std::string::npos);
}

TEST(QueuePlanParse, UnknownKindIsRejected) {
  auto plan = load_queue_plan(
      "{\"jobs\": [{\"name\": \"j\", \"kind\": \"fft\"}]}");
  ASSERT_FALSE(plan.has_value());
  EXPECT_NE(plan.error().message.find("$.jobs[0].kind"), std::string::npos);
}

// Numbers are outside input too: a fraction is never truncated into a
// count, a number beyond int never reaches the cast, and every count and
// amount stays in its bounds.  The error names the key and its path.
TEST(QueuePlanParse, RefusesFractionalAndOutOfRangeNumbers) {
  const std::pair<std::string, std::string> refused[] = {
      {minimal_plan(", \"resize_cooldown\": -10"), "$.resize_cooldown"},
      {minimal_plan(", \"max_expand_step\": -3"), "$.max_expand_step"},
      {minimal_plan(", \"max_expand_step\": 1e300"), "$.max_expand_step"},
      {minimal_plan("", ", \"min_ranks\": 0"), "$.jobs[0].min_ranks"},
      {minimal_plan("", ", \"work_per_block\": -1"),
       "$.jobs[0].work_per_block"},
      {minimal_plan("", ", \"initial_ranks\": 2.5"),
       "$.jobs[0].initial_ranks"},
      {"{\"hosts\": 2.5, \"jobs\": [{\"name\": \"j\"}]}", "$.hosts"},
      {"{\"jobs\": [{\"name\": \"j\", \"blocks\": 8.9}]}",
       "$.jobs[0].blocks"},
      {"{\"jobs\": []}", "$.jobs"},
      {"{\"jobs\": [{\"name\": \"\"}]}", "$.jobs[0].name"},
  };
  for (const auto& [text, path] : refused) {
    auto plan = load_queue_plan(text);
    ASSERT_FALSE(plan.has_value()) << text;
    EXPECT_EQ(plan.error().code, "plan." + path.substr(path.rfind('.') + 1))
        << text;
    EXPECT_EQ(plan.error().message.rfind(path + ": ", 0), 0U)
        << text << " -> " << plan.error().message;
  }
}

TEST(QueuePlanParse, PresetKindsFillTheWorkload) {
  auto plan = load_queue_plan(
      "{\"jobs\": [{\"name\": \"s\", \"kind\": \"stencil\"}, "
      "{\"name\": \"m\", \"kind\": \"matmul\"}]}");
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  const auto stencil = ars::apps::resizable_stencil(ars::apps::Stencil1D::Params{});
  EXPECT_DOUBLE_EQ(plan.value().jobs[0].workload.work_per_block,
                   stencil.work_per_block);
  const auto matmul = ars::apps::resizable_matmul(ars::apps::MatMul::Params{});
  EXPECT_DOUBLE_EQ(plan.value().jobs[1].workload.work_per_block,
                   matmul.work_per_block);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The committed plan is the experiment of record: with the resize planner
// on, the same queue must finish sooner AND keep the cluster busier.
TEST(ProductivityCampaign, MalleabilityStrictlyImprovesCommittedPlan) {
  const std::string text = read_file(ARS_SOURCE_DIR "/plans/productivity-queue.json");
  ASSERT_FALSE(text.empty());
  auto plan = load_queue_plan(text);
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();

  const auto rigid = run_queue(plan.value(), /*malleability=*/false);
  const auto malleable = run_queue(plan.value(), /*malleability=*/true);

  ASSERT_TRUE(rigid.all_finished);
  ASSERT_TRUE(malleable.all_finished);
  EXPECT_EQ(rigid.resizes_commanded, 0);
  EXPECT_GT(malleable.resizes_committed, 0);
  EXPECT_LT(malleable.makespan, rigid.makespan);
  EXPECT_GT(malleable.utilization, rigid.utilization);
}

// Same plan, same seed-free determinism: two runs of the malleable queue
// agree on every finish time.
TEST(ProductivityCampaign, QueueRunIsDeterministic) {
  const std::string text = read_file(ARS_SOURCE_DIR "/plans/productivity-queue.json");
  auto plan = load_queue_plan(text);
  ASSERT_TRUE(plan.has_value());
  const auto a = run_queue(plan.value(), true);
  const auto b = run_queue(plan.value(), true);
  EXPECT_EQ(a.finish_times, b.finish_times);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.resizes_commanded, b.resizes_commanded);
}

}  // namespace
