// Fuzzer for the fault-plan grammar (fault/fault_plan.hpp).
//
// Contract: FaultPlan::parse never crashes; an accepted plan's to_string()
// re-parses to the same canonical text and to the same specs, field for
// field (no digit is lost in the rendering), and every accepted spec
// carries finite, in-range numbers (NaN/inf seconds would be UB in
// Time::from_sec_f — the original fuzzer-found bug this corpus pins).

#include <cmath>
#include <string>

#include "fault/fault_plan.hpp"
#include "fuzz_util.hpp"

namespace {

using iosim::fault::FaultPlan;

std::string check_fault_plan(const std::string& text) {
  std::string err;
  const auto plan = FaultPlan::parse(text, &err);
  if (!plan.has_value()) return "";  // rejection is always acceptable

  for (const auto& s : plan->specs) {
    if (!std::isfinite(s.probability) || s.probability < 0.0 || s.probability > 1.0) {
      return "accepted spec has out-of-range probability";
    }
    if (!std::isfinite(s.factor)) return "accepted spec has non-finite factor";
    if (s.lba_begin > s.lba_end) return "accepted spec has inverted LBA range";
    if (s.from > s.until) return "accepted spec has inverted time window";
  }

  const std::string canon = plan->to_string();
  std::string err2;
  const auto re = FaultPlan::parse(canon, &err2);
  if (!re.has_value()) {
    return "canonical text failed to re-parse: " + err2 + " | canon: " +
           iosim::fuzz::escape_for_log(canon);
  }
  if (re->to_string() != canon) return "to_string is not idempotent";
  if (re->specs.size() != plan->specs.size()) {
    return "round-trip changed the spec count";
  }
  if (re->specs != plan->specs) {
    return "round-trip changed a field | canon: " + iosim::fuzz::escape_for_log(canon);
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  iosim::fuzz::FuzzOptions opt;
  if (!iosim::fuzz::parse_args(argc, argv, &opt)) return iosim::fuzz::usage(argv[0]);
  return iosim::fuzz::run_campaign(
      "fuzz_fault_plan", opt, check_fault_plan,
      {"transient:", "lse:", "failslow:", "vmdown:", "switchfail:", "switchdelay:",
       "host=", "vm=", "p=", "lba=", "factor=", "delay=", "from=", "until=",
       ",", ";", "\n", "#", "=", "-", "0-100", "-1", "0.5", "1", "nan", "inf",
       "-inf", "9e9", "1e10", "9.3e9", "1e-300", "99999999999999999999"});
}
