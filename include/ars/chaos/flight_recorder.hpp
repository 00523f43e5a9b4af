#pragma once
// Black-box flight recorder (tentpole part 3): when a chaos run trips an
// invariant, mismatches on replay, or hits a sabotage check, everything
// needed for the post-mortem is dumped into ONE self-contained JSON bundle:
// the scenario options and seed, the fault plan, the violations, the full
// trace ring (JSONL), and the metrics snapshot.  Because one ScenarioOptions
// value fully determines a run, the bundle doubles as a reproducer:
// replay_bundle() re-runs the recorded scenario and checks that it
// reproduces the same trace hash and the same violations.

#include <cstdint>
#include <string>
#include <string_view>

#include "ars/chaos/scenario.hpp"
#include "ars/obs/json.hpp"
#include "ars/support/expected.hpp"

namespace ars::chaos {

/// What tripped the recorder ("invariant-violation", "replay-mismatch",
/// "watchdog", ...) plus free-form detail.
struct FlightTrigger {
  std::string kind;
  std::string detail;
};

/// Assemble the post-mortem bundle for a finished (failed) run.  The report
/// must carry its trace (keep_trace, or any violation — run_scenario keeps
/// the evidence automatically on failure).
[[nodiscard]] obs::JsonValue make_bundle(const ScenarioOptions& options,
                                         const ScenarioReport& report,
                                         const FlightTrigger& trigger);

/// Whether a bundle could carry `options`: the scenario's fields within the
/// bounds replay_bundle enforces (the error names the first key outside
/// them).  The plan is not checked.
[[nodiscard]] support::Status check_scenario(const ScenarioOptions& options);

/// Serialize `bundle` to `path` (parent directories are created).
[[nodiscard]] support::Status write_bundle(const std::string& path,
                                           const obs::JsonValue& bundle);

/// Outcome of re-running a bundle's recorded scenario.
struct BundleReplay {
  FlightTrigger trigger;                 // as recorded
  std::uint64_t recorded_trace_hash = 0;
  std::string recorded_violations;       // InvariantReport::summary()
  ScenarioReport report;                 // the fresh run
  bool trace_identical = false;
  bool violations_match = false;

  /// The bundle reproduces: same trace bytes, same violation summary.
  [[nodiscard]] bool reproduced() const noexcept {
    return trace_identical && violations_match;
  }
};

/// Parse a bundle document, reconstruct its ScenarioOptions (including the
/// embedded fault plan), re-run the scenario, and compare.  The root is
/// read as strictly as the scenario: a missing `version` (it must be 1),
/// `scenario`, `plan`, `violations_summary` or `trace_hash` (a decimal
/// string), a key of the wrong type or an unknown key is an error naming
/// the key, and nothing is run.
[[nodiscard]] support::Expected<BundleReplay> replay_bundle(
    std::string_view bundle_json);

}  // namespace ars::chaos
