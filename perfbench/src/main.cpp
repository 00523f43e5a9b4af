// perfbench: the measuring half of the end-to-end benchmark.  run.py builds
// it, runs it and turns its output into metrics.
//
//   perfbench --workload <policies|heartbeats-20k|ckpt-storm>
//             --seed N --seconds S --trace 0|1
//
// Runs one untimed warm-up pass, then timed passes until S seconds of wall
// time have gone (at least one), and prints one JSON document on stdout:
// timing samples, exact simulated values and correctness checks.
// --trace 1 adds the per-layer probes (recording fault policy, 1 s slices,
// replays, and the 4-shard pass of heartbeats-20k).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "ars/support/log.hpp"
#include "record.hpp"

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n",
               message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Chaos runs crash hosts and drop datagrams on purpose; per-event warnings
  // would only cost time.
  ars::support::Logger::global().set_level(ars::support::LogLevel::kOff);

  if (argc % 2 != 1) {
    usage("flags take one value each");
  }
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.seconds <= 0.0) {
    usage("--seconds must be positive");
  }

  perfbench::RunRecord record;
  try {
    if (args.workload == "policies") {
      perfbench::run_policies(args, record);
    } else if (args.workload == "heartbeats-20k") {
      perfbench::run_heartbeats(args, record);
    } else if (args.workload == "ckpt-storm") {
      perfbench::run_ckpt_storm(args, record);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 error.what());
    return 1;
  }
  record.set("peak_rss_mb", perfbench::peak_rss_mib());
  std::printf("%s\n", record.to_json().c_str());
  return 0;
}
