#include "ars/apps/productivity.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ars/apps/resizable.hpp"
#include "ars/obs/json.hpp"
#include "ars/rules/policy.hpp"

namespace ars::apps {
namespace {

using obs::JsonField;

constexpr std::string_view kJobKinds[] = {"stencil", "matmul", "custom"};

// Workload presets for the named kinds; "custom" starts from the
// malleable::Workload defaults and takes overrides verbatim.
malleable::Workload preset_workload(const std::string& kind) {
  if (kind == "stencil") {
    return resizable_stencil(Stencil1D::Params{});
  }
  if (kind == "matmul") {
    return resizable_matmul(MatMul::Params{});
  }
  return malleable::Workload{};
}

/// One job of the queue, read into `job` over its kind's preset workload.
support::Status read_job(const obs::JsonValue& entry, const std::string& path,
                         QueueJob& job) {
  // The preset comes first so the job's own numbers override it; an
  // unknown kind is refused by the table below.
  if (const obs::JsonValue* kind = entry.find("kind");
      kind != nullptr && kind->is_string()) {
    job.workload = preset_workload(kind->as_string());
  }
  malleable::Workload& work = job.workload;
  const JsonField fields[] = {
      JsonField("name", job.name).required().non_empty(),
      JsonField("kind", job.kind).one_of(kJobKinds),
      JsonField("arrival", job.arrival).at_least(0.0),
      JsonField("initial_ranks", job.initial_ranks).at_least(1),
      JsonField("min_ranks", job.min_ranks).at_least(1),
      JsonField("max_ranks", job.max_ranks).at_least(1),
      JsonField("blocks", work.blocks).at_least(1),
      JsonField("work_per_block", work.work_per_block).at_least(0.0),
      JsonField("bytes_per_block", work.bytes_per_block).at_least(0.0),
      JsonField("iterations", work.iterations).at_least(1),
      JsonField("sync_bytes", work.sync_bytes).at_least(0.0),
  };
  if (auto read = obs::json_read(entry, fields, "plan", path); !read) {
    return read;
  }
  if (job.min_ranks > job.initial_ranks || job.initial_ranks > job.max_ranks) {
    return support::make_error(
        "plan.initial_ranks",
        path + ".initial_ranks: need min_ranks <= initial_ranks <= max_ranks");
  }
  return support::Status::ok();
}

}  // namespace

support::Expected<QueuePlan> load_queue_plan(const std::string& json_text) {
  auto parsed = obs::json_parse(json_text);
  if (!parsed) {
    return support::make_error("plan", "$: " + parsed.error().message);
  }
  QueuePlan plan;
  obs::JsonArray jobs;
  const JsonField fields[] = {
      JsonField("hosts", plan.hosts).at_least(1),
      JsonField("resize_cooldown", plan.resize_cooldown).at_least(0.0),
      JsonField("max_expand_step", plan.max_expand_step).at_least(1),
      JsonField("jobs", jobs).required().non_empty(),
  };
  if (auto read = obs::json_read(*parsed, fields, "plan", "$"); !read) {
    return read.error();
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    QueueJob job;
    if (auto read = read_job(jobs[i], "$.jobs[" + std::to_string(i) + "]", job);
        !read) {
      return read.error();
    }
    plan.jobs.push_back(std::move(job));
  }
  return plan;
}

CampaignResult run_queue(const QueuePlan& plan, bool malleability,
                         double deadline) {
  core::ClusterConfig config =
      core::make_cluster(plan.hosts, rules::paper_policy2());
  config.enable_resize_planner = malleability;
  config.resize_cooldown = plan.resize_cooldown;
  config.max_expand_step = plan.max_expand_step;
  core::ReschedulerRuntime runtime{config};
  runtime.start_rescheduler();

  const std::vector<std::string> host_names = runtime.host_names();

  // Launch each job at its arrival on the emptiest hosts: count live ranks
  // of unfinished malleable jobs per host and fill least-loaded first (ties
  // break on host order, so placement is deterministic).
  for (const QueueJob& queued : plan.jobs) {
    runtime.engine().schedule_at(
        queued.arrival, [&runtime, &queued, &host_names] {
          std::map<std::string, int> occupancy;
          for (const std::string& host : host_names) {
            occupancy[host] = 0;
          }
          auto& malleable = runtime.malleable();
          for (const std::string& job : malleable.job_names()) {
            if (malleable.finished(job)) {
              continue;
            }
            for (const std::string& host : malleable.rank_hosts(job)) {
              ++occupancy[host];
            }
          }
          std::vector<std::string> ordered = host_names;
          std::stable_sort(ordered.begin(), ordered.end(),
                           [&occupancy](const std::string& a,
                                        const std::string& b) {
                             return occupancy[a] < occupancy[b];
                           });
          const int world =
              std::min<int>(queued.initial_ranks,
                            static_cast<int>(ordered.size()));
          ordered.resize(static_cast<std::size_t>(world));

          malleable::JobSpec spec;
          spec.name = queued.name;
          spec.workload = queued.workload;
          spec.min_ranks = queued.min_ranks;
          spec.max_ranks = queued.max_ranks;
          (void)runtime.launch_malleable_job(spec, ordered);
        });
  }

  double last_arrival = 0.0;
  for (const QueueJob& queued : plan.jobs) {
    last_arrival = std::max(last_arrival, queued.arrival);
  }

  // Step until every job has both launched and finished (all_finished() is
  // vacuously true before the first launch, hence the arrival guard).
  auto& malleable = runtime.malleable();
  while (runtime.engine().now() < deadline) {
    runtime.run_until(runtime.engine().now() + 1.0);
    if (runtime.engine().now() > last_arrival && malleable.all_finished() &&
        malleable.job_names().size() == plan.jobs.size()) {
      break;
    }
  }

  CampaignResult result;
  result.all_finished = malleable.all_finished() &&
                        malleable.job_names().size() == plan.jobs.size();
  for (const QueueJob& queued : plan.jobs) {
    const double at =
        malleable.finished(queued.name) ? malleable.finished_at(queued.name)
                                        : runtime.engine().now();
    result.finish_times.push_back(at);
    result.makespan = std::max(result.makespan, at);
  }
  double busy = 0.0;
  for (const std::string& host : host_names) {
    busy += runtime.host(host).cpu().cumulative_busy();
  }
  if (result.makespan > 0.0) {
    result.utilization =
        busy / (static_cast<double>(host_names.size()) * result.makespan);
  }
  result.resizes_commanded = runtime.scheduler().resizes_commanded();
  for (const malleable::ResizeOutcome& outcome : malleable.history()) {
    if (outcome.outcome == malleable::kCommitted) {
      ++result.resizes_committed;
    }
  }
  return result;
}

}  // namespace ars::apps
