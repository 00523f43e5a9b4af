#pragma once
// Productivity campaign: a job queue run through the full runtime twice —
// once with static worlds, once with the registry's resize planner enabled
// — to measure what malleability buys in makespan and cluster utilization
// (the DMR line of work's headline claim, grafted onto the paper's
// registry).

#include <string>
#include <vector>

#include "ars/core/runtime.hpp"
#include "ars/malleable/malleable.hpp"
#include "ars/support/expected.hpp"

namespace ars::apps {

struct QueueJob {
  std::string name;
  /// "stencil" | "matmul" | "custom" — presets fill the workload from the
  /// classic app parameter spaces; "custom" takes the workload verbatim.
  std::string kind = "custom";
  double arrival = 0.0;
  int initial_ranks = 2;
  int min_ranks = 1;
  int max_ranks = 16;
  malleable::Workload workload;
};

struct QueuePlan {
  int hosts = 8;
  double resize_cooldown = 10.0;
  int max_expand_step = 4;
  std::vector<QueueJob> jobs;
};

/// Parse a productivity plan from JSON text.  Unknown keys, wrong types,
/// fractional counts and out-of-range values (top-level or per-job) are
/// errors: the code is "plan.<key>" and the message starts with the key's
/// path ("$.jobs[2].blocks").
[[nodiscard]] support::Expected<QueuePlan> load_queue_plan(
    const std::string& json_text);

struct CampaignResult {
  bool all_finished = false;
  double makespan = 0.0;     // time of the last job completion
  double utilization = 0.0;  // busy cpu-seconds / (hosts * makespan)
  int resizes_commanded = 0;
  int resizes_committed = 0;
  std::vector<double> finish_times;  // per job, plan order
};

/// Run the queue through a fresh runtime.  With `malleability` the registry
/// sweep may expand jobs into idle hosts and shrink them off overloaded
/// ones; without it every job keeps its initial world.
[[nodiscard]] CampaignResult run_queue(const QueuePlan& plan,
                                       bool malleability,
                                       double deadline = 36000.0);

}  // namespace ars::apps
