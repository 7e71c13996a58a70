// iosimctl — command-line front end for the simulator.
//
//   iosimctl run      --workload sort --hosts 4 --vms 4 --mb 512 --pair ad
//   iosimctl adapt    --workload sort                      (meta-scheduler)
//   iosimctl finegrained --workload sort                   (online controller)
//   iosimctl sysbench --vms 3 --mb 1024 --pair cc
//   iosimctl switchcost [--mb 600]                          (Fig. 5 matrix)
//   iosimctl stream   --spec 'arrive,poisson,rate=0.05,jobs=8;class,...'
//                     [--policy fifo|fair|capacity] [--jobs]
//
// Every command runs a one-point scenario spec (exp/scenario.hpp): the
// command is its mode= line and each axis flag is one more spec line
// (--seed is base_seed=, --seeds repeats=, --fault and --fault-file one
// fault=, --spec stream=, --policy stream_policy=), so the flags take the
// grammar's values and bounds. The engine's materializer (exp/runner.hpp)
// builds the cluster and jobs. Every command prints a table; `--csv`
// switches to CSV for scripting. Unknown or repeated flags, stray
// positionals, values the grammar rejects and flags that give more than one
// point exit 2 with a diagnostic.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/fine_grained.hpp"
#include "core/meta_scheduler.hpp"
#include "core/online_scheduler.hpp"
#include "core/phase_detector.hpp"
#include "exp/runner.hpp"
#include "metrics/iostat_sampler.hpp"
#include "metrics/registry_table.hpp"
#include "metrics/table.hpp"
#include "obs/attribution.hpp"
#include "tenancy/stream_runner.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"

using namespace iosim;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string str(const std::string& k, const std::string& d) const {
    auto it = kv.find(k);
    return it == kv.end() ? d : it->second;
  }
};

/// The axis flags and the spec key each one writes. --fault and
/// --fault-file together write one fault= line.
const std::map<std::string, std::string> kSpecKeys = {
    {"workload", "workload"}, {"hosts", "hosts"},     {"vms", "vms"},
    {"mb", "mb"},             {"pair", "pair"},       {"seed", "base_seed"},
    {"seeds", "repeats"},     {"spec", "stream"},     {"policy", "stream_policy"}};

/// Per-command flag whitelist: `valued` flags consume the next argv token,
/// `boolean` flags stand alone.
struct FlagSet {
  std::set<std::string> valued;
  std::set<std::string> boolean;
};

int usage() {
  std::fprintf(stderr,
               "usage: iosimctl <run|adapt|finegrained|sysbench|switchcost|stream> "
               "[--workload sort|wordcount|wc|wc-nocombiner|wcnc] [--hosts N] [--vms N] "
               "[--mb N] [--pair xy] [--seed N] [--seeds N] [--csv] "
               "[--trace FILE] [--metrics] [--fault SPEC] [--fault-file FILE] "
               "[--speculate]\n"
               "axis flags take the sweep-spec grammar's values, one each: "
               "--hosts/--vms 1-1024, --mb >= 1, --seed an unsigned integer "
               "(base_seed=), --seeds N repeats (run: averaged over seeds "
               "derived from --seed; adapt: seeds per evaluation)\n"
               "pair letters: n=noop d=deadline a=anticipatory c=cfq; first "
               "letter = VMM (Dom0), second = VM guests\n"
               "adapt also takes a `+`-joined chain: --workload wc+sort\n"
               "--trace FILE   record a flight-recorder trace of the run; "
               "FILE ending in .csv selects CSV, anything else Chrome "
               "trace-event JSON (chrome://tracing / ui.perfetto.dev)\n"
               "--metrics      collect the named-metrics registry and print it "
               "after the run\n"
               "--obs          enable request-path latency attribution: per-"
               "(host,vm,dir,sync,phase) waterfall table after the run, lane "
               "sketch summaries + stall log pinned into the trace (feed the "
               "JSON to iosim-report), obs.* gauges in --metrics\n"
               "--fault SPEC   inject faults (repeatable); SPEC is "
               "kind:key=value,... — e.g. transient:host=0,p=0.01 "
               "lse:host=1,lba=1000-2000 failslow:host=0,factor=4 "
               "vmdown:vm=3,from=10,until=30 switchfail:p=1 switchdelay:delay=2\n"
               "--fault-file FILE  load a `;`/newline-separated fault plan\n"
               "--speculate    enable Hadoop-style speculative map execution\n"
               "stream flags:\n"
               "--spec SPEC    job-stream grammar (arrive,... ;class,... ;policy,...)\n"
               "--policy P     override the stream's slot policy (fifo|fair|capacity)\n"
               "--jobs         also print the per-job arrival/sojourn table\n");
  return 2;
}

/// Strict parser: every token must be a whitelisted flag given once (only
/// --fault repeats); valued flags must have a value. Returns nullopt (after
/// printing a diagnostic) on any violation so the caller can exit non-zero
/// instead of silently ignoring a typo.
std::optional<Args> parse(int argc, char** argv, int from, const std::string& cmd,
                          const FlagSet& flags) {
  Args a;
  for (int i = from; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) != 0) {
      std::fprintf(stderr, "iosimctl %s: unexpected argument '%s'\n", cmd.c_str(),
                   s.c_str());
      return std::nullopt;
    }
    const std::string key = s.substr(2);
    const bool valued = flags.valued.count(key) != 0;
    if (!valued && flags.boolean.count(key) == 0) {
      std::fprintf(stderr, "iosimctl %s: unknown flag --%s\n", cmd.c_str(), key.c_str());
      return std::nullopt;
    }
    if (valued && i + 1 >= argc) {
      std::fprintf(stderr, "iosimctl %s: --%s requires a value\n", cmd.c_str(),
                   key.c_str());
      return std::nullopt;
    }
    const std::string val = valued ? argv[++i] : "1";
    if (key == "fault" && a.has("fault")) {
      a.kv["fault"] += ";" + val;  // --fault is repeatable
    } else if (!a.kv.emplace(key, val).second) {
      std::fprintf(stderr, "iosimctl %s: --%s given twice\n", cmd.c_str(), key.c_str());
      return std::nullopt;
    }
  }
  return a;
}

/// A command: the spec lines it writes before the flags' own (the mode
/// first), and the flags it takes.
struct Command {
  int (*handler)(const Args&, const exp::ScenarioSpec&, const exp::ScenarioPoint&);
  std::vector<std::pair<std::string, std::string>> lines;
  FlagSet flags;
};

/// The fault= value of --fault-file's text and the --fault specs ("" when
/// neither is given); nullopt after a diagnostic when the file is unreadable.
std::optional<std::string> fault_text(const Args& a, const std::string& cmd) {
  std::string text;
  if (a.has("fault-file")) {
    const std::string path = a.str("fault-file", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "iosimctl %s: cannot read fault file '%s'\n", cmd.c_str(),
                   path.c_str());
      return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  if (a.has("fault")) {
    if (!text.empty()) text += "\n";
    text += a.str("fault", "");
  }
  return text;
}

/// The command line as a one-point spec: the command's lines, then one
/// line per axis flag, validated and expanded by the grammar. nullopt after
/// the grammar's diagnostic, or when the flags give more than one point.
std::optional<exp::ScenarioSpec> spec_of(const Command& c, const Args& a,
                                         const std::string& cmd) {
  exp::ScenarioSpec spec;
  spec.repeats = 1;
  std::string err;
  for (const auto& [key, value] : c.lines) spec.apply(key, value);
  const auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "iosimctl %s: %s\n", cmd.c_str(), msg.c_str());
    return std::nullopt;
  };
  for (const auto& [flag, key] : kSpecKeys) {
    if (a.has(flag) && !spec.apply(key, a.str(flag, ""), &err)) {
      return fail("--" + flag + ": " + err);
    }
  }
  const auto faults = fault_text(a, cmd);
  if (!faults) return std::nullopt;
  if (!faults->empty() && !spec.apply("fault", *faults, &err)) return fail(err);
  if (!spec.validate(&err)) return fail(err);
  if (spec.n_points() != 1) {
    return fail("the flags give " + std::to_string(spec.n_points()) +
                " points; give one value per axis");
  }
  return spec;
}

/// RAII wrapper for --trace / --metrics / --obs: installs the global tracer,
/// registry, and/or attribution layer for the duration of a command, then
/// writes the trace file and prints the tables on the way out.
class Telemetry {
 public:
  explicit Telemetry(const Args& a)
      : trace_path_(a.str("trace", "")), want_metrics_(a.has("metrics")) {
    if (!trace_path_.empty()) trace_.emplace();
    if (want_metrics_) metrics_.emplace();
    if (a.has("obs")) obs_.emplace();
  }
  ~Telemetry() {
    if (obs_) {
      // Export attribution *before* the trace file is written / the registry
      // is printed, so both carry the lane summaries.
      auto& at = obs_->attribution();
      if (trace_) at.export_to_trace(trace_->tracer());
      if (metrics_) at.publish(metrics_->registry());
      print_waterfall(at);
    }
    if (trace_) {
      auto& tr = trace_->tracer();
      if (tr.write_file(trace_path_)) {
        std::fprintf(stderr, "trace: %zu events (%llu dropped) -> %s\n", tr.size(),
                     static_cast<unsigned long long>(tr.dropped()), trace_path_.c_str());
      } else {
        std::fprintf(stderr, "trace: failed to write %s\n", trace_path_.c_str());
      }
    }
    if (metrics_) {
      auto tab = metrics::registry_table(metrics_->registry());
      tab.print();
    }
  }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool active() const { return trace_.has_value() || metrics_.has_value(); }

  /// SetupHook add-on: attach an iostat sampler to every Dom0 and guest
  /// block layer of the cluster, stopping when the job completes. The
  /// sampler must outlive the run, so it parks in `samplers_`.
  void attach_sampler(cluster::Cluster& cl, mapred::Job& job) {
    if (!active()) return;
    auto s = std::make_shared<metrics::IostatSampler>(cl.simr());
    for (std::size_t h = 0; h < cl.n_hosts(); ++h) {
      auto& host = cl.host(h);
      s->watch(host.dom0_layer());
      for (std::size_t v = 0; v < host.vm_count(); ++v) s->watch(host.vm(v).layer());
    }
    s->stop_when([&job] { return job.done() || job.failed(); });
    s->start();
    samplers_.push_back(std::move(s));
  }

  /// iostat summary of the last run (multi-seed runs keep only the last).
  void print_iostat() const {
    if (samplers_.empty()) return;
    auto tab = samplers_.back()->table();
    tab.print();
  }

 private:
  /// Per-key latency waterfall: lane means (µs) plus end-to-end percentiles.
  static void print_waterfall(obs::Attribution& at) {
    metrics::Table tab("latency attribution (" + std::to_string(at.records_completed()) +
                       " requests, " + std::to_string(at.stalls_total()) + " stalls)");
    tab.headers({"key", "count", "guest q µs", "ring µs", "elv wait µs",
                 "service µs", "ret µs", "p50 ms", "p99 ms"});
    for (std::size_t i = 0; i < at.n_keys(); ++i) {
      const auto& total = at.lane(i, obs::Lane::kTotal);
      auto mean_us = [&](obs::Lane l) {
        const auto& sk = at.lane(i, l);
        return metrics::Table::num(
            sk.count() > 0
                ? static_cast<double>(sk.sum()) / static_cast<double>(sk.count()) / 1e3
                : 0.0,
            1);
      };
      tab.row({obs::Attribution::key_name(at.key_at(i)),
               std::to_string(total.count()), mean_us(obs::Lane::kGuestQueue),
               mean_us(obs::Lane::kRingWait), mean_us(obs::Lane::kElvWait),
               mean_us(obs::Lane::kService), mean_us(obs::Lane::kReturn),
               metrics::Table::num(static_cast<double>(total.quantile(0.5)) / 1e6, 2),
               metrics::Table::num(static_cast<double>(total.quantile(0.99)) / 1e6, 2)});
    }
    tab.print();
  }

  std::string trace_path_;
  bool want_metrics_;
  std::optional<trace::TraceSession> trace_;
  std::optional<trace::MetricsSession> metrics_;
  std::optional<obs::AttributionSession> obs_;
  std::vector<std::shared_ptr<metrics::IostatSampler>> samplers_;
};

void emit(const Args& a, metrics::Table& tab) {
  if (a.has("csv")) {
    std::fputs(tab.to_csv().c_str(), stdout);
  } else {
    tab.print();
  }
}

/// Failed jobs must be loud: print the diagnostic and exit non-zero so
/// scripted experiments notice.
int report_failure(const cluster::RunResult& r) {
  std::fprintf(stderr, "job FAILED: %s\n", r.failure.c_str());
  return 1;
}

/// The point's jobs; --speculate turns on speculative map execution.
std::vector<mapred::JobConf> jobs_of(const Args& a, const exp::ScenarioPoint& pt) {
  auto confs = exp::jobs_of(pt);
  for (auto& jc : confs) {
    if (a.has("speculate")) jc.speculative_execution = true;
  }
  return confs;
}

int cmd_run(const Args& a, const exp::ScenarioSpec& spec, const exp::ScenarioPoint& pt) {
  const auto cfg = exp::cluster_of(pt, spec.base_seed);
  const auto jc = jobs_of(a, pt).front();
  Telemetry tel(a);
  const auto plan = core::PhasePlan::for_job(jc, pt.hosts * pt.vms);
  // The run matrix of a one-point spec: repeat i at derive_run_seed(seed, i).
  const auto r = cluster::run_job_avg(
      cfg, jc, spec.repeats, [&tel, plan](cluster::Cluster& cl, mapred::Job& job) {
        if (tel.active()) {
          // Observation only: phase-transition instants on the trace without
          // any switching (the adaptive commands do the switching).
          core::PhaseDetector::attach(job, plan, [](int, sim::Time) {});
        }
        tel.attach_sampler(cl, job);
      });
  tel.print_iostat();
  if (r.failed) return report_failure(r);
  metrics::Table tab("job run");
  tab.headers({"pair", "seconds", "ph1", "ph2", "ph3", "maps", "reduces",
               "shuffle MB", "output MB", "retries", "failovers"});
  tab.row({pt.pair.to_string(), metrics::Table::num(r.seconds, 1),
           metrics::Table::num(r.ph1_seconds, 1), metrics::Table::num(r.ph2_seconds, 1),
           metrics::Table::num(r.ph3_seconds, 1), std::to_string(r.stats.maps_total),
           std::to_string(r.stats.reduces_total),
           metrics::Table::num(static_cast<double>(r.stats.shuffle_bytes) / 1e6, 0),
           metrics::Table::num(static_cast<double>(r.stats.output_bytes) / 1e6, 0),
           std::to_string(r.stats.map_attempts_failed + r.stats.reduce_attempts_failed),
           std::to_string(r.stats.hdfs_failovers)});
  emit(a, tab);
  return 0;
}

/// mode=adapt's pipeline at the raw seed, with --seeds runs averaged per
/// evaluation; a chain takes its first job's phase plan for every job.
int cmd_adapt(const Args& a, const exp::ScenarioSpec& spec, const exp::ScenarioPoint& pt) {
  const auto confs = jobs_of(a, pt);
  const auto plan = core::PhasePlan::for_job(confs.front(), pt.hosts * pt.vms);
  Telemetry tel(a);
  core::MetaScheduler ms(core::make_chain_experiment(exp::cluster_of(pt, spec.base_seed),
                                                     confs, spec.repeats, plan),
                         {});
  const auto r = ms.optimize();
  if (r.adaptive_run.failed) return report_failure(r.adaptive_run);
  metrics::Table tab("meta-scheduler result");
  tab.headers({"metric", "value"});
  tab.row({"solution", r.solution.to_string() + (r.fell_back ? " (fallback)" : "")});
  tab.row({"default (cfq,cfq)", metrics::Table::num(r.default_seconds, 1) + " s"});
  tab.row({"best single", metrics::Table::num(r.best_single_seconds, 1) + " s  " +
                              r.best_single.to_string()});
  tab.row({"adaptive", metrics::Table::num(r.adaptive_seconds, 1) + " s"});
  tab.row({"vs default", metrics::Table::pct(100 * r.improvement_vs_default(), 1)});
  tab.row({"vs best single", metrics::Table::pct(100 * r.improvement_vs_best_single(), 1)});
  tab.row({"heuristic evals", std::to_string(r.heuristic_evaluations)});
  emit(a, tab);
  return 0;
}

int cmd_finegrained(const Args& a, const exp::ScenarioSpec& spec,
                    const exp::ScenarioPoint& pt) {
  const auto jc = jobs_of(a, pt).front();
  Telemetry tel(a);
  std::shared_ptr<core::FineGrainedController> ctl;
  const auto r = cluster::run_job(
      exp::cluster_of(pt, spec.base_seed), jc,
      [&ctl, &tel](cluster::Cluster& cl, mapred::Job& job) {
        ctl = core::FineGrainedController::attach(cl, job);
        tel.attach_sampler(cl, job);
      });
  tel.print_iostat();
  if (r.failed) return report_failure(r);
  metrics::Table tab("fine-grained controller run");
  tab.headers({"metric", "value"});
  tab.row({"seconds", metrics::Table::num(r.seconds, 1)});
  tab.row({"switches", std::to_string(ctl->total_switches())});
  tab.row({"samples", std::to_string(ctl->samples())});
  emit(a, tab);
  return 0;
}

/// Execute one point; a failed run is fatal (exit 1) with its diagnostic.
std::optional<exp::RunOutput> execute(const exp::ScenarioPoint& pt, std::uint64_t seed) {
  auto out = exp::execute_point(pt, seed);
  if (!out.ok) {
    std::fprintf(stderr, "%s FAILED: %s\n", pt.label().c_str(), out.error.c_str());
    return std::nullopt;
  }
  return out;
}

int cmd_sysbench(const Args& a, const exp::ScenarioSpec& spec, const exp::ScenarioPoint& pt) {
  const auto out = execute(pt, spec.base_seed);
  if (!out) return 1;
  const double seconds = out->metrics.at(0).second;
  metrics::Table tab("sysbench seqwr");
  tab.headers({"pair", "VMs", "MB/VM", "elapsed s", "agg MB/s"});
  tab.row({pt.pair.to_string(), std::to_string(pt.vms), std::to_string(pt.mb),
           metrics::Table::num(seconds, 1),
           metrics::Table::num(static_cast<double>(pt.mb * mapred::kMiB) * pt.vms /
                                   seconds / 1e6,
                               1)});
  emit(a, tab);
  return 0;
}

int cmd_stream(const Args& a, const exp::ScenarioSpec& spec, const exp::ScenarioPoint& pt) {
  if (pt.stream_text.empty()) {
    std::fprintf(stderr, "iosimctl stream: --spec is required\n");
    return 2;
  }
  const auto cfg = exp::cluster_of(pt, spec.base_seed);
  Telemetry tel(a);
  // Honours the spec's meta segment: policy=static/offline/ucb/egreedy runs
  // through the meta-scheduling pipeline, a meta-free spec is a plain
  // run_stream (DESIGN.md §14).
  const auto mr = core::run_stream_with_policy(cfg, pt.stream);
  const auto& r = mr.stream;
  if (!r.ok) {
    std::fprintf(stderr, "stream FAILED: %s\n", r.error.c_str());
    return 1;
  }
  metrics::Table head("job stream (" + std::string(tenancy::to_string(pt.stream.policy)) +
                      " policy)");
  head.headers({"pair", "jobs", "completed", "failed", "SLA viol", "makespan s"});
  head.row({cfg.pair.to_string(), std::to_string(static_cast<int>(r.jobs.size())),
            std::to_string(r.jobs_completed), std::to_string(r.jobs_failed),
            std::to_string(r.sla_violations), metrics::Table::num(r.makespan_s, 1)});
  emit(a, head);
  if (pt.stream.meta.enabled()) {
    metrics::Table mt("meta-scheduling (" +
                      std::string(tenancy::to_string(pt.stream.meta.policy)) + ")");
    mt.headers({"boot pair", "pulls", "switches", "switch fails", "decays",
                "profile runs", "schedule"});
    mt.row({mr.boot_pair, std::to_string(mr.arm_pulls),
            std::to_string(mr.arm_switches), std::to_string(mr.switch_failures),
            std::to_string(mr.decays), std::to_string(mr.profile_runs),
            mr.schedule_key.empty() ? "-" : mr.schedule_key});
    emit(a, mt);
  }
  metrics::Table cls("per-class sojourn (arrival -> completion, seconds)");
  cls.headers({"class", "jobs", "done", "failed", "SLA viol", "p50", "p95", "p99",
               "mean"});
  for (const auto& c : r.classes) {
    cls.row({c.name, std::to_string(c.jobs), std::to_string(c.completed),
             std::to_string(c.failed), std::to_string(c.sla_violations),
             metrics::Table::num(c.p50_s, 1), metrics::Table::num(c.p95_s, 1),
             metrics::Table::num(c.p99_s, 1), metrics::Table::num(c.mean_s, 1)});
  }
  emit(a, cls);
  if (a.has("jobs")) {
    metrics::Table jt("per-job timeline");
    jt.headers({"job", "class", "MB", "arrive s", "done s", "sojourn s", "state"});
    for (const auto& j : r.jobs) {
      const auto& cname = pt.stream.classes[static_cast<std::size_t>(j.class_index)].name;
      jt.row({std::to_string(j.job_id), cname, std::to_string(j.size_mb),
              metrics::Table::num(j.t_arrive_s, 1),
              j.completed ? metrics::Table::num(j.t_done_s, 1) : "-",
              j.completed ? metrics::Table::num(j.sojourn_s, 1) : "-",
              j.failed ? "FAILED" : (j.completed ? (j.sla_violated ? "SLA-VIOL" : "ok")
                                                 : "unfinished")});
    }
    emit(a, jt);
  }
  return 0;
}

/// The Fig. 5 matrix: the point once per `from` pair (dd, 4 VMs, raw seed
/// 42 by default), Cost(a -> b) = T(a then b) - (T(a) + T(b)) / 2.
int cmd_switchcost(const Args& a, const exp::ScenarioSpec& spec,
                   const exp::ScenarioPoint& pt) {
  const auto pairs = iosched::all_scheduler_pairs();
  std::vector<exp::RunOutput> rows;
  for (const auto& p : pairs) {
    exp::ScenarioPoint row = pt;
    row.pair = p;
    auto out = execute(row, spec.base_seed);
    if (!out) return 1;
    rows.push_back(std::move(*out));
  }
  const auto metric = [&](const iosched::SchedulerPair& p, const std::string& name) {
    for (const auto& [k, v] : rows[static_cast<std::size_t>(p.index())].metrics) {
      if (k == name) return v;
    }
    return 0.0;  // unreachable: every point emits all 17 metrics
  };
  metrics::Table tab("switch-cost matrix (seconds)");
  std::vector<std::string> hdr{"from \\ to"};
  for (const auto& p : pairs) hdr.push_back(p.letters());
  tab.headers(hdr);
  for (const auto& x : pairs) {
    std::vector<std::string> row{x.letters()};
    for (const auto& y : pairs) {
      const double both =
          metric(x, x == y ? "self_seconds" : "to_" + y.letters() + "_seconds");
      const double base = 0.5 * (metric(x, "seconds") + metric(y, "seconds"));
      row.push_back(metrics::Table::num(both - base, 1));
    }
    tab.row(row);
  }
  emit(a, tab);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  const FlagSet cluster_flags{{"workload", "hosts", "vms", "mb", "pair", "seed",
                               "seeds", "trace", "fault", "fault-file"},
                              {"csv", "metrics", "obs", "speculate"}};
  FlagSet finegrained_flags = cluster_flags;
  finegrained_flags.valued.erase("seeds");  // one run, no average
  const std::map<std::string, Command> commands = {
      {"run", {cmd_run, {{"mode", "run"}}, cluster_flags}},
      {"adapt", {cmd_adapt, {{"mode", "adapt"}}, cluster_flags}},
      {"finegrained", {cmd_finegrained, {{"mode", "finegrained"}}, finegrained_flags}},
      {"sysbench",
       {cmd_sysbench,
        {{"mode", "sysbench"}, {"hosts", "1"}, {"mb", "1024"}},
        {{"vms", "mb", "pair", "seed"}, {"csv"}}}},
      {"switchcost",
       {cmd_switchcost,
        {{"mode", "switchcost"}, {"hosts", "1"}, {"vms", "4"}, {"mb", "600"},
         {"base_seed", "42"}},
        {{"mb"}, {"csv"}}}},
      {"stream",
       {cmd_stream,
        {{"mode", "run"}},
        {{"spec", "policy", "hosts", "vms", "pair", "seed", "trace", "fault", "fault-file"},
         {"csv", "metrics", "obs", "jobs"}}}},
  };
  const auto it = commands.find(cmd);
  if (it == commands.end()) {
    std::fprintf(stderr, "iosimctl: unknown command '%s'\n", cmd.c_str());
    return usage();
  }
  const Command& c = it->second;
  const auto a = parse(argc, argv, 2, cmd, c.flags);
  if (!a) return usage();
  const auto spec = spec_of(c, *a, cmd);
  if (!spec) return 2;
  return c.handler(*a, *spec, spec->expand().front());
}
