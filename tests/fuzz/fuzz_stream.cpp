// Fuzzer for the job-stream grammar (tenancy/stream_spec.hpp).
//
// Contract: StreamSpec::parse never crashes; an accepted spec's canonical
// to_string() re-parses byte-identically (idempotent canonical form),
// describes at least one job and one class, so the planner downstream can
// never be handed an empty stream, and carries only finite numbers (NaN
// passes every range check and would poison the arrival plan).

#include <cmath>
#include <string>
#include <vector>

#include "fuzz_util.hpp"
#include "tenancy/stream_spec.hpp"

namespace {

using iosim::tenancy::StreamSpec;

std::string check_stream(const std::string& text) {
  std::string err;
  const auto spec = StreamSpec::parse(text, &err);
  if (!spec.has_value()) return "";  // rejection is always acceptable

  if (spec->job_count() < 1) return "accepted spec with no jobs";
  if (spec->classes.empty()) return "accepted spec with no classes";
  std::vector<double> numbers = {spec->rate_hz, spec->retry_backoff_s,
                                 spec->meta.explore, spec->meta.decay};
  numbers.insert(numbers.end(), spec->trace_times_s.begin(), spec->trace_times_s.end());
  for (const auto& c : spec->classes) {
    if (c.mb_min > c.mb_max) return "accepted class with mb_min > mb_max";
    if (!(c.weight > 0.0) || !(c.mix > 0.0) || !(c.alpha > 0.0)) {
      return "accepted class with non-positive weight/mix/alpha";
    }
    numbers.insert(numbers.end(), {c.alpha, c.weight, c.share, c.deadline_s, c.mix});
  }
  for (const double x : numbers) {
    if (!std::isfinite(x)) return "accepted spec with a non-finite number";
  }

  const std::string canon = spec->to_string();
  std::string err2;
  const auto re = StreamSpec::parse(canon, &err2);
  if (!re.has_value()) {
    return "canonical text failed to re-parse: " + err2 + " | canon: " +
           iosim::fuzz::escape_for_log(canon);
  }
  if (re->to_string() != canon) return "to_string is not idempotent";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  iosim::fuzz::FuzzOptions opt;
  if (!iosim::fuzz::parse_args(argc, argv, &opt)) return iosim::fuzz::usage(argv[0]);
  return iosim::fuzz::run_campaign(
      "fuzz_stream", opt, check_stream,
      {"arrive", "poisson", "trace", "class", "policy", "fifo", "fair",
       "capacity", "rate=", "jobs=", "t=", "name=", "wl=", "mb=", "weight=",
       "prio=", "share=", "deadline=", "mix=", "alpha=", "sort", "wordcount",
       "wc", "wc-nocombiner", ";", ",", ":", "=", "-", "8-64", "16-16",
       "0.5", "0", "-1", "1e308", "-1e308", "nan", "inf",
       "18446744073709551615", "0:2.5:2.5:100"});
}
