// bench_compare — CI regression gate over two BENCH JSON files.
//
//   bench_compare BASELINE.json FRESH.json [--max-regress 0.25]
//
// Reads two bench reports in the standard BENCH format (bench_util.hpp /
// the sweep engine: {"bench_format":1,...,"metrics":{name:value,...}}) and
// compares every metric the baseline carries. The comparison direction is
// keyed off the metric-name suffix — the naming contract the benches
// follow:
//
//   *_per_sec   higher is better (throughput); regression = fresh falls
//               more than the threshold below the baseline
//   *_seconds   lower is better (wall clock); regression = fresh rises
//               more than the threshold above the baseline
//
// Metrics with any other suffix are printed but never gate (no direction
// is known for them). A metric present in the baseline but missing from
// the fresh report is a failure — a silently dropped probe must not turn
// the gate green. Metrics only in the fresh report are listed as new and
// pass (refreshing the baseline adopts them).
//
// Exit codes: 0 all gated metrics within threshold; 1 regression or
// missing metric; 2 usage / unreadable / malformed input. The perf-smoke
// CI job runs this against bench/baselines/micro_sim.json (see
// EXPERIMENTS.md "Reading the perf-smoke artifact").
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/json_parse.hpp"
#include "sim/text.hpp"

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
};

enum class Dir { kHigherBetter, kLowerBetter, kUnknown };

Dir direction(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_per_sec")) return Dir::kHigherBetter;
  if (ends_with("_seconds")) return Dir::kLowerBetter;
  return Dir::kUnknown;
}

bool load_metrics(const char* path, std::vector<Metric>* out, std::string* name) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  const auto doc = iosim::exp::json_parse(ss.str(), &err);
  if (!doc) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path, err.c_str());
    return false;
  }
  if (const auto* n = doc->find("name");
      n && n->kind == iosim::exp::JsonValue::Kind::kString) {
    *name = n->str;
  }
  const auto* metrics = doc->find("metrics");
  if (!metrics || metrics->kind != iosim::exp::JsonValue::Kind::kObject) {
    std::fprintf(stderr, "bench_compare: %s: no \"metrics\" object\n", path);
    return false;
  }
  for (const auto& [k, v] : metrics->obj) {
    if (v.kind != iosim::exp::JsonValue::Kind::kNumber) continue;
    out->push_back(Metric{k, v.num});
  }
  return true;
}

const Metric* find(const std::vector<Metric>& ms, const std::string& name) {
  for (const auto& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare BASELINE.json FRESH.json "
               "[--max-regress FRACTION]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* fresh_path = nullptr;
  double max_regress = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-regress") == 0 && i + 1 < argc) {
      if (!iosim::lex::parse_double(argv[++i], &max_regress) || max_regress < 0.0) {
        return usage();
      }
    } else if (!baseline_path) {
      baseline_path = argv[i];
    } else if (!fresh_path) {
      fresh_path = argv[i];
    } else {
      return usage();
    }
  }
  if (!baseline_path || !fresh_path) return usage();

  std::vector<Metric> base, fresh;
  std::string base_name, fresh_name;
  if (!load_metrics(baseline_path, &base, &base_name)) return 2;
  if (!load_metrics(fresh_path, &fresh, &fresh_name)) return 2;
  if (!base_name.empty() && !fresh_name.empty() && base_name != fresh_name) {
    std::fprintf(stderr, "bench_compare: comparing different benches (%s vs %s)\n",
                 base_name.c_str(), fresh_name.c_str());
    return 2;
  }

  std::printf("bench_compare: %s  (threshold %.0f%%)\n",
              base_name.empty() ? "<unnamed>" : base_name.c_str(),
              max_regress * 100.0);
  std::printf("  %-34s %14s %14s %9s  %s\n", "metric", "baseline", "fresh",
              "delta", "verdict");

  int failures = 0;
  for (const auto& b : base) {
    const Metric* f = find(fresh, b.name);
    if (!f) {
      std::printf("  %-34s %14.6g %14s %9s  MISSING\n", b.name.c_str(), b.value,
                  "-", "-");
      ++failures;
      continue;
    }
    const double delta = b.value != 0.0 ? (f->value - b.value) / b.value : 0.0;
    const Dir dir = direction(b.name);
    const char* verdict = "ok";
    if (dir == Dir::kUnknown) {
      verdict = "info";
    } else {
      const bool regressed = dir == Dir::kHigherBetter ? delta < -max_regress
                                                       : delta > max_regress;
      if (regressed) {
        verdict = "REGRESSED";
        ++failures;
      }
    }
    std::printf("  %-34s %14.6g %14.6g %+8.1f%%  %s\n", b.name.c_str(), b.value,
                f->value, delta * 100.0, verdict);
  }
  for (const auto& f : fresh) {
    if (!find(base, f.name)) {
      std::printf("  %-34s %14s %14.6g %9s  new (not gated)\n", f.name.c_str(),
                  "-", f.value, "-");
    }
  }

  if (failures > 0) {
    std::printf("bench_compare: FAIL — %d metric%s regressed or missing\n",
                failures, failures == 1 ? "" : "s");
    return 1;
  }
  std::printf("bench_compare: PASS\n");
  return 0;
}
