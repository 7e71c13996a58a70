// iosim: statistical aggregation of a sweep's run matrix.
//
// Groups the executor's outputs by scenario point, summarizes every metric
// across the point's repeats (mean / min / max / p50 / p95 / 95% CI via
// sim::summarize), and renders the result as versioned BENCH JSON
// ("bench_format": 1) and as a human table. Aggregation walks runs in
// run_index order and the JSON writer formats doubles reproducibly, so the
// file is byte-identical for any worker count.
#pragma once

#include <string>
#include <vector>

#include "exp/executor.hpp"
#include "exp/scenario.hpp"
#include "metrics/table.hpp"
#include "sim/stats.hpp"

namespace iosim::exp {

/// The BENCH JSON schema version this build writes.
inline constexpr int kBenchFormat = 1;

struct MetricSummary {
  std::string name;
  sim::Summary s;
  std::vector<double> samples;  // per successful repeat, in repeat order
};

struct PointAggregate {
  ScenarioPoint point;
  std::size_t runs = 0;      // outputs recorded for this point
  std::size_t failures = 0;  // of which failed
  std::vector<MetricSummary> metrics;  // successful runs only, emission order
};

struct SweepAggregate {
  std::vector<PointAggregate> points;  // expansion order
  std::size_t total_runs = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
};

SweepAggregate aggregate(const ScenarioSpec& spec,
                         const std::vector<ScenarioPoint>& points,
                         const std::vector<RunTask>& tasks, const ExecResult& exec);

enum class Verdict : std::uint8_t { kHolds, kWithinNoise, kFails };

/// One resolved `expect` check judged on the points' per-repeat samples.
struct CheckResult {
  std::string expect;  // canonical text
  std::string group;   // "" without `per`
  Verdict verdict = Verdict::kFails;
  double lhs = 0.0, rhs = 0.0;  // each term's mean over the repeats
  sim::Summary d;               // rhs_r - lhs_r
  std::string note;             // why a check without data fails
};

/// Judge every check (rules in scenario.hpp); one whose points have a failed
/// or missing run, or lack the metric, fails with a note.
std::vector<CheckResult> evaluate_checks(const ScenarioSpec& spec,
                                         const std::vector<ResolvedCheck>& checks,
                                         const SweepAggregate& agg);

/// "holds         [workload=sort] per workload: a < b  (lhs 1.00, ...)"
std::string verdict_line(const CheckResult& c);

/// Versioned BENCH JSON of the whole sweep. `partial` marks an artifact
/// written by a gracefully cancelled sweep (SIGINT/SIGTERM): the key is
/// emitted only when true, so complete sweeps stay byte-identical to
/// pre-robustness outputs (and to a resumed run of the same spec). The
/// "checks" array is emitted only when the spec has `expect` lines.
std::string to_json(const ScenarioSpec& spec, const SweepAggregate& agg,
                    bool partial = false, const std::vector<CheckResult>& checks = {});

/// Human table: one row per point, the named metric's summary columns.
/// Empty `metric` selects the mode's primary metric (seconds /
/// adaptive_seconds).
metrics::Table to_table(const ScenarioSpec& spec, const SweepAggregate& agg,
                        const std::string& metric = "");

}  // namespace iosim::exp
