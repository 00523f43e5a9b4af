// Productivity campaign driver: run a job-queue plan through the runtime
// twice — static worlds vs. the registry's resize planner — and print the
// makespan / utilization comparison.
//
//   productivity_campaign [--plan plans/productivity-queue.json] [--deadline S]

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "ars/apps/productivity.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr, "usage: %s [--plan FILE.json] [--deadline SECONDS]\n",
               program);
  return 2;
}

void print_row(const char* label, const ars::apps::CampaignResult& r) {
  std::printf("%-16s %9.1f s   %6.1f %%   %4d commanded   %4d committed   %s\n",
              label, r.makespan, 100.0 * r.utilization, r.resizes_commanded,
              r.resizes_committed, r.all_finished ? "all finished" : "TIMEOUT");
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_path = "plans/productivity-queue.json";
  double deadline = 36000.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plan" && i + 1 < argc) {
      plan_path = argv[++i];
    } else if (arg == "--deadline" && i + 1 < argc) {
      // The whole argument must be a finite, positive number of seconds.
      const std::string_view text = argv[++i];
      const char* const end = text.data() + text.size();
      const auto [last, error] = std::from_chars(text.data(), end, deadline);
      if (error != std::errc{} || last != end || !std::isfinite(deadline) ||
          deadline <= 0.0) {
        std::fprintf(stderr, "bad --deadline %s: need seconds > 0\n",
                     argv[i]);
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }

  std::ifstream in(plan_path);
  if (!in) {
    std::fprintf(stderr, "cannot open plan: %s\n", plan_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  auto plan = ars::apps::load_queue_plan(buffer.str());
  if (!plan) {
    std::fprintf(stderr, "bad plan: %s\n", plan.error().to_string().c_str());
    return 2;
  }

  std::printf("plan %s: %zu jobs on %d hosts\n", plan_path.c_str(),
              plan.value().jobs.size(), plan.value().hosts);
  const auto rigid = ars::apps::run_queue(plan.value(), false, deadline);
  const auto malleable = ars::apps::run_queue(plan.value(), true, deadline);

  std::printf("%-16s %11s   %8s   %-16s %-16s\n", "mode", "makespan",
              "util", "resizes", "");
  print_row("rigid", rigid);
  print_row("malleable", malleable);

  if (rigid.makespan > 0.0) {
    std::printf("makespan improvement: %.1f %%   utilization delta: %+.1f pp\n",
                100.0 * (rigid.makespan - malleable.makespan) / rigid.makespan,
                100.0 * (malleable.utilization - rigid.utilization));
  }

  const bool improved = malleable.all_finished && rigid.all_finished &&
                        malleable.makespan < rigid.makespan &&
                        malleable.utilization > rigid.utilization;
  return improved ? 0 : 1;
}
