#include "exp/aggregate.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "exp/json.hpp"

namespace iosim::exp {

constexpr const char* kVerdicts[] = {"holds", "within noise", "fails"};

SweepAggregate aggregate(const ScenarioSpec& spec,
                         const std::vector<ScenarioPoint>& points,
                         const std::vector<RunTask>& tasks, const ExecResult& exec) {
  SweepAggregate agg;
  agg.total_runs = tasks.size();
  agg.completed = exec.completed;
  agg.failed = exec.failed;
  agg.skipped = exec.skipped;
  agg.points.reserve(points.size());

  // Collect per-point, per-metric sample vectors in run_index order.
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointAggregate pa;
    pa.point = points[p];
    std::vector<std::string> order;                    // metric emission order
    std::map<std::string, std::vector<double>> vals;   // name -> repeat samples
    for (int r = 0; r < spec.repeats; ++r) {
      const std::size_t idx = p * static_cast<std::size_t>(spec.repeats) +
                              static_cast<std::size_t>(r);
      if (idx >= exec.outputs.size() || !exec.outputs[idx].has_value()) continue;
      const RunOutput& out = *exec.outputs[idx];
      ++pa.runs;
      if (!out.ok) {
        ++pa.failures;
        continue;  // a failed run has no trustworthy metrics
      }
      for (const auto& [name, v] : out.metrics) {
        auto it = vals.find(name);
        if (it == vals.end()) {
          order.push_back(name);
          it = vals.emplace(name, std::vector<double>{}).first;
        }
        it->second.push_back(v);
      }
    }
    for (const auto& name : order) {
      pa.metrics.push_back({name, sim::summarize(vals[name]), vals[name]});
    }
    agg.points.push_back(std::move(pa));
  }
  return agg;
}

std::vector<CheckResult> evaluate_checks(const ScenarioSpec& spec,
                                         const std::vector<ResolvedCheck>& checks,
                                         const SweepAggregate& agg) {
  using Reduce = ExpectTerm::Reduce;
  const auto repeats = static_cast<std::size_t>(spec.repeats);
  std::vector<CheckResult> out;
  for (const ResolvedCheck& rc : checks) {
    const Expectation& e = spec.expects[rc.expect];
    CheckResult& res = out.emplace_back();
    res.expect = e.to_string();
    res.group = rc.group;
    // Per term, one value per repeat: factor x the selected point's metric
    // (min/max: the point with the extreme mean; mean: the points' average).
    std::vector<double> series[2];
    for (int t = 0; t < 2 && res.note.empty(); ++t) {
      const ExpectTerm& term = t ? e.rhs : e.lhs;
      std::vector<const MetricSummary*> picked;
      for (const std::size_t p : t ? rc.rhs : rc.lhs) {
        const PointAggregate& pa = agg.points[p];
        const auto m = std::find_if(pa.metrics.begin(), pa.metrics.end(),
                                    [&](const MetricSummary& x) { return x.name == term.metric; });
        if (m == pa.metrics.end() || m->samples.size() < repeats) {  // failed/missing runs
          res.note = pa.point.label() + ": no " + term.metric + " from some run";
          break;
        }
        picked.push_back(&*m);
      }
      if (!res.note.empty()) break;
      const auto by_mean = [](const MetricSummary* a, const MetricSummary* b) {
        return a->s.mean < b->s.mean;
      };
      const MetricSummary* pick =
          term.reduce == Reduce::kMax ? *std::max_element(picked.begin(), picked.end(), by_mean)
                                      : *std::min_element(picked.begin(), picked.end(), by_mean);
      const double n = static_cast<double>(picked.size());
      for (std::size_t r = 0; r < repeats; ++r) {
        double mean = 0.0;
        for (const MetricSummary* m : picked) mean += m->samples[r] / n;
        series[t].push_back(term.factor * (term.reduce == Reduce::kMean ? mean : pick->samples[r]));
      }
    }
    if (!res.note.empty()) continue;
    std::vector<double> d;
    for (std::size_t r = 0; r < repeats; ++r) d.push_back(series[1][r] - series[0][r]);
    res.lhs = sim::summarize(series[0]).mean;
    res.rhs = sim::summarize(series[1]).mean;
    res.d = sim::summarize(d);
    res.verdict = (e.or_equal ? res.d.mean < 0.0 : res.d.mean <= 0.0) ? Verdict::kFails
                  : res.d.n >= 2 && res.d.mean - res.d.ci95 > 0.0   ? Verdict::kHolds
                                                                     : Verdict::kWithinNoise;
  }
  return out;
}

std::string verdict_line(const CheckResult& c) {
  char nums[160];
  std::snprintf(nums, sizeof nums, "(lhs %.2f, rhs %.2f, d = %+.2f ± %.2f, n=%llu)", c.lhs,
                c.rhs, c.d.mean, c.d.ci95, static_cast<unsigned long long>(c.d.n));
  std::string s = kVerdicts[static_cast<int>(c.verdict)];
  s.resize(14, ' ');
  return s + (c.group.empty() ? "" : "[" + c.group + "] ") + c.expect + "  " +
         (c.note.empty() ? nums : "(" + c.note + ")");
}

std::string to_json(const ScenarioSpec& spec, const SweepAggregate& agg,
                    bool partial, const std::vector<CheckResult>& checks) {
  JsonWriter w;
  w.obj_begin();
  w.kv("bench_format", kBenchFormat);
  w.kv("kind", "sweep");
  w.kv("name", spec.name);
  w.kv("mode", to_string(spec.mode));
  w.kv("base_seed", spec.base_seed);
  w.kv("repeats", spec.repeats);
  if (partial) w.kv("partial", true);
  w.key("runs").obj_begin();
  w.kv("total", agg.total_runs);
  w.kv("completed", agg.completed);
  w.kv("failed", agg.failed);
  w.kv("skipped", agg.skipped);
  w.obj_end();
  w.key("points").arr_begin();
  for (const auto& pa : agg.points) {
    w.obj_begin();
    w.kv("label", pa.point.label());
    if (!pa.point.workload.empty()) w.kv("workload", pa.point.workload);
    w.kv("hosts", pa.point.hosts);
    w.kv("vms", pa.point.vms);
    w.kv("mb", static_cast<std::int64_t>(pa.point.mb));
    w.kv("pair", pa.point.pair.letters());
    w.kv("fault", pa.point.fault_text);
    w.kv("runs", pa.runs);
    w.kv("failures", pa.failures);
    w.key("metrics").obj_begin();
    for (const auto& m : pa.metrics) {
      w.key(m.name).obj_begin();
      w.kv("n", m.s.n);
      w.kv("mean", m.s.mean);
      w.kv("min", m.s.min);
      w.kv("max", m.s.max);
      w.kv("p50", m.s.p50);
      w.kv("p95", m.s.p95);
      w.kv("ci95", m.s.ci95);
      w.obj_end();
    }
    w.obj_end();
    w.obj_end();
  }
  w.arr_end();
  if (!spec.expects.empty()) {
    w.key("checks").arr_begin();
    for (const auto& c : checks) {
      w.obj_begin().kv("expect", c.expect).kv("group", c.group);
      w.kv("verdict", kVerdicts[static_cast<int>(c.verdict)]).kv("lhs", c.lhs).kv("rhs", c.rhs);
      w.kv("d_mean", c.d.mean).kv("d_ci95", c.d.ci95).kv("n", c.d.n);
      if (!c.note.empty()) w.kv("note", c.note);
      w.obj_end();
    }
    w.arr_end();
  }
  w.obj_end();
  std::string s = w.str();
  s += '\n';
  return s;
}

metrics::Table to_table(const ScenarioSpec& spec, const SweepAggregate& agg,
                        const std::string& metric) {
  const std::string primary =
      !metric.empty() ? metric
                      : (spec.mode == RunMode::kAdapt ? "adaptive_seconds" : "seconds");
  metrics::Table tab(spec.name + " — " + primary + " (" +
                     std::to_string(spec.repeats) + " repeats)");
  tab.headers({"scenario", "mean", "±ci95", "min", "p50", "p95", "max", "runs"});
  for (const auto& pa : agg.points) {
    const MetricSummary* ms = nullptr;
    for (const auto& m : pa.metrics) {
      if (m.name == primary) {
        ms = &m;
        break;
      }
    }
    if (!ms) {
      tab.row({pa.point.label(), "-", "-", "-", "-", "-", "-",
               std::to_string(pa.runs) + (pa.failures ? " (failed)" : "")});
      continue;
    }
    tab.row({pa.point.label(), metrics::Table::num(ms->s.mean, 1),
             metrics::Table::num(ms->s.ci95, 2), metrics::Table::num(ms->s.min, 1),
             metrics::Table::num(ms->s.p50, 1), metrics::Table::num(ms->s.p95, 1),
             metrics::Table::num(ms->s.max, 1), std::to_string(pa.runs)});
  }
  return tab;
}

}  // namespace iosim::exp
