// Fuzzer for the scenario-spec grammar (exp/scenario.hpp).
//
// Contract: ScenarioSpec::parse never crashes; an accepted spec's canonical
// to_string() re-parses, is idempotent, keeps its fingerprint and its
// `expect` checks, its expansion respects the validate() matrix caps, and
// its checks never move the fingerprint.

#include <string>

#include "exp/scenario.hpp"
#include "fuzz_util.hpp"

namespace {

using iosim::exp::ScenarioSpec;

std::string check_scenario(const std::string& text) {
  std::string err;
  const auto spec = ScenarioSpec::parse(text, &err);
  if (!spec.has_value()) return "";  // rejection is always acceptable

  if (spec->n_points() > ScenarioSpec::kMaxPoints) {
    return "accepted spec exceeds kMaxPoints (" + std::to_string(spec->n_points()) +
           " points)";
  }
  if (spec->n_runs() > ScenarioSpec::kMaxRuns) {
    return "accepted spec exceeds kMaxRuns (" + std::to_string(spec->n_runs()) +
           " runs)";
  }

  const std::string canon = spec->to_string();
  std::string err2;
  const auto re = ScenarioSpec::parse(canon, &err2);
  if (!re.has_value()) {
    return "canonical text failed to re-parse: " + err2 + " | canon: " +
           iosim::fuzz::escape_for_log(canon);
  }
  if (re->to_string() != canon) return "to_string is not idempotent";
  if (re->fingerprint() != spec->fingerprint()) {
    return "fingerprint changed across a round-trip";
  }
  if (re->expects.size() != spec->expects.size()) {
    return "expect lines changed across a round-trip";
  }
  for (std::size_t i = 0; i < spec->expects.size(); ++i) {
    if (re->expects[i].to_string() != spec->expects[i].to_string()) {
      return "expect line " + std::to_string(i) + " changed across a round-trip";
    }
  }
  ScenarioSpec unchecked = *spec;
  unchecked.expects.clear();
  if (unchecked.fingerprint() != spec->fingerprint()) {
    return "expect lines moved the fingerprint";
  }
  if (!spec->expects.empty() && !iosim::exp::resolve_checks(*spec, spec->expand())) {
    return "accepted spec has an unresolvable check";
  }

  // Expanding a huge-but-legal matrix is valid and slow; only materialize
  // small ones to verify the expansion really matches n_points().
  if (spec->n_points() <= 4096) {
    if (spec->expand().size() != spec->n_points()) {
      return "expand() size disagrees with n_points()";
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  iosim::fuzz::FuzzOptions opt;
  if (!iosim::fuzz::parse_args(argc, argv, &opt)) return iosim::fuzz::usage(argv[0]);
  return iosim::fuzz::run_campaign(
      "fuzz_scenario", opt, check_scenario,
      {"name=", "mode=", "base_seed=", "repeats=", "pair=", "workload=", "hosts=",
       "vms=", "mb=", "fault=", "timeout=", "max_events=", "max_sim_seconds=",
       "all16", "run", "adapt", "sysbench", "switchcost", "finegrained", "sort",
       "wordcount", "wc-nocombiner", "+", "wc+sort+wcnc",
       "none", "transient:host=0,p=0.1", "lse:host=0,lba=0-100", "|", ",", ";",
       "stream=", "stream_policy=", "arrive,poisson,rate=0.1,jobs=4",
       "class,name=a,wl=sort,mb=8-8", "policy,fair", "fifo", "fair", "capacity",
       "expect=", "per workload:", "per pair,fault:", "seconds", "min(", "max(",
       "mean(", ")", "[", "]", "<", "<=", "*", "2 *", "[pair=cc]", "[vmm=n|c]",
       "[fault=none]", "[workload=sort]", "vmm", "guest",
       "tune=", "[tune=none]", "dom0.as.antic_expire_ms", "dom0.cfq.slice_sync_ms",
       "dom0.cfq.slice_idle_ms", "ring_slots", "switch_freeze_ms", "ncq_depth",
       "meta.phases", "mapred.speculate",
       "\n", "#", "=", "9e9", "1e10", "nan", "inf", "-1", "0",
       "18446744073709551615", "999999999999999999999"});
}
