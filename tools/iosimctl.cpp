// iosimctl — command-line front end for the simulator.
//
//   iosimctl run      --workload sort --hosts 4 --vms 4 --mb 512 --pair ad
//   iosimctl adapt    --workload sort [--phases 2|3]       (meta-scheduler)
//   iosimctl finegrained --workload sort                   (online controller)
//   iosimctl sysbench --vms 3 --mb 1024 --pair cc
//   iosimctl switchcost [--mb 600]                          (Fig. 5 matrix)
//   iosimctl stream   --spec 'arrive,poisson,rate=0.05,jobs=8;class,...'
//                     [--policy fifo|fair|capacity] [--jobs]
//
// Every command prints a table; `--csv` switches to CSV for scripting.
// Unknown flags, stray positionals, non-integer numeric flags and malformed
// `--fault` specs are rejected with a diagnostic and exit code 2.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
#include "fault/fault_plan.hpp"
#include "metrics/iostat_sampler.hpp"
#include "metrics/registry_table.hpp"
#include "metrics/table.hpp"
#include "obs/attribution.hpp"
#include "sim/text.hpp"
#include "tenancy/stream_runner.hpp"
#include "tenancy/stream_spec.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

using namespace iosim;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string str(const std::string& k, const std::string& d) const {
    auto it = kv.find(k);
    return it == kv.end() ? d : it->second;
  }
  /// Integer flag value (parse() has rejected malformed ones) or `d`.
  std::int64_t num(const std::string& k, std::int64_t d) const {
    if (auto it = kv.find(k); it != kv.end()) lex::parse_i64(it->second, &d);
    return d;
  }
};

/// Valued flags that take an integer.
const std::set<std::string> kIntegerFlags = {"hosts", "vms", "mb", "seed", "seeds",
                                             "phases"};

/// Per-command flag whitelist: `valued` flags consume the next argv token,
/// `boolean` flags stand alone.
struct FlagSet {
  std::set<std::string> valued;
  std::set<std::string> boolean;
};

int usage() {
  std::fprintf(stderr,
               "usage: iosimctl <run|adapt|finegrained|sysbench|switchcost|stream> "
               "[--workload sort|wordcount|wc-nocombiner] [--hosts N] [--vms N] "
               "[--mb N] [--pair xy] [--seeds N] [--phases 2|3] [--csv] "
               "[--trace FILE] [--metrics] [--fault SPEC] [--fault-file FILE] "
               "[--speculate]\n"
               "pair letters: n=noop d=deadline a=anticipatory c=cfq; first "
               "letter = VMM (Dom0), second = VM guests\n"
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

/// Strict parser: every token must be a whitelisted flag; valued flags must
/// have a value. Returns nullopt (after printing a diagnostic) on any
/// violation so the caller can exit non-zero instead of silently ignoring a
/// typo.
std::optional<Args> parse(int argc, char** argv, int from, const std::string& cmd,
                          const FlagSet& flags) {
  Args a;
  const std::set<std::string> fault_flags = {"fault", "fault-file", "speculate"};
  for (int i = from; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) != 0) {
      std::fprintf(stderr, "iosimctl %s: unexpected argument '%s'\n", cmd.c_str(),
                   s.c_str());
      return std::nullopt;
    }
    const std::string key = s.substr(2);
    if (flags.valued.count(key) != 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "iosimctl %s: --%s requires a value\n", cmd.c_str(),
                     key.c_str());
        return std::nullopt;
      }
      const std::string val = argv[++i];
      std::int64_t n = 0;
      if (kIntegerFlags.count(key) != 0 && !lex::parse_i64(val, &n)) {
        std::fprintf(stderr, "iosimctl %s: --%s expects an integer, got '%s'\n",
                     cmd.c_str(), key.c_str(), val.c_str());
        return std::nullopt;
      }
      if (key == "fault" && a.has("fault")) {
        a.kv["fault"] += ";" + val;  // --fault is repeatable
      } else {
        a.kv[key] = val;
      }
    } else if (flags.boolean.count(key) != 0) {
      a.kv[key] = "1";
    } else if (fault_flags.count(key) != 0) {
      std::fprintf(stderr, "iosimctl %s: fault injection (--%s) is not supported "
                           "by this command\n",
                   cmd.c_str(), key.c_str());
      return std::nullopt;
    } else {
      std::fprintf(stderr, "iosimctl %s: unknown flag --%s\n", cmd.c_str(),
                   key.c_str());
      return std::nullopt;
    }
  }
  return a;
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

mapred::JobConf workload_of(const Args& a) {
  const std::string w = a.str("workload", "sort");
  const auto mb = a.num("mb", 512);
  const auto model = workloads::by_name(w);
  if (!model) {
    std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
    std::exit(2);
  }
  auto jc = workloads::make_job(*model, mb * mapred::kMiB);
  if (a.has("speculate")) jc.speculative_execution = true;
  return jc;
}

/// Assemble the fault plan from --fault specs and/or --fault-file. Malformed
/// specs and unreadable files are fatal (exit 2) with a diagnostic naming
/// the offending token — a silently dropped fault would invalidate the
/// experiment it was meant to perturb.
fault::FaultPlan faults_of(const Args& a) {
  std::string text;
  if (a.has("fault-file")) {
    const std::string path = a.str("fault-file", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "iosimctl: cannot read fault file '%s'\n", path.c_str());
      std::exit(2);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  if (a.has("fault")) {
    if (!text.empty()) text += "\n";
    text += a.str("fault", "");
  }
  if (text.empty()) return {};
  std::string err;
  auto plan = fault::FaultPlan::parse(text, &err);
  if (!plan) {
    std::fprintf(stderr, "iosimctl: bad fault spec: %s\n", err.c_str());
    std::exit(2);
  }
  return *plan;
}

cluster::ClusterConfig cluster_of(const Args& a) {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = static_cast<int>(a.num("hosts", 4));
  cfg.vms_per_host = static_cast<int>(a.num("vms", 4));
  cfg.seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const std::string p = a.str("pair", "cc");
  const auto pair = iosched::SchedulerPair::from_letters(p);
  if (!pair) {
    std::fprintf(stderr, "iosimctl: bad scheduler pair '%s' (two of n/d/a/c)\n",
                 p.c_str());
    std::exit(2);
  }
  cfg.pair = *pair;
  cfg.faults = faults_of(a);
  return cfg;
}

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

int cmd_run(const Args& a) {
  const auto cfg = cluster_of(a);
  const auto jc = workload_of(a);
  Telemetry tel(a);
  const auto plan = core::PhasePlan::for_job(jc, cfg.n_hosts * cfg.vms_per_host);
  const auto r = cluster::run_job_avg(
      cfg, jc, static_cast<int>(a.num("seeds", 1)),
      [&tel, plan](cluster::Cluster& cl, mapred::Job& job) {
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
  tab.row({cfg.pair.to_string(), metrics::Table::num(r.seconds, 1),
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

int cmd_adapt(const Args& a) {
  const auto cfg = cluster_of(a);
  const auto jc = workload_of(a);
  core::MetaSchedulerOptions opts;
  if (a.has("phases")) {
    opts.plan = core::PhasePlan{a.num("phases", 2) == 2};
  } else {
    opts.plan = core::PhasePlan::for_job(jc, cfg.n_hosts * cfg.vms_per_host);
  }
  opts.seeds_per_eval = static_cast<int>(a.num("seeds", 1));
  opts.verbose = a.has("verbose");
  Telemetry tel(a);
  core::MetaScheduler ms(cfg, jc, opts);
  const auto r = ms.optimize();
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

int cmd_finegrained(const Args& a) {
  const auto cfg = cluster_of(a);
  const auto jc = workload_of(a);
  Telemetry tel(a);
  std::shared_ptr<core::FineGrainedController> ctl;
  const auto r =
      cluster::run_job(cfg, jc, [&ctl, &tel](cluster::Cluster& cl, mapred::Job& job) {
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

/// A single-host microbenchmark point (mode=sysbench / mode=switchcost) of
/// the spec engine, from the command's flags.
exp::ScenarioPoint single_host_point(exp::RunMode mode, iosched::SchedulerPair pair, int vms,
                                     std::int64_t mb) {
  exp::ScenarioPoint pt;
  pt.mode = mode;
  pt.pair = pair;
  pt.hosts = 1;
  pt.vms = vms;
  pt.mb = mb;
  return pt;
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

int cmd_sysbench(const Args& a) {
  const auto cfg = cluster_of(a);
  const auto mb = a.num("mb", 1024);
  const auto out = execute(
      single_host_point(exp::RunMode::kSysbench, cfg.pair, cfg.vms_per_host, mb), cfg.seed);
  if (!out) return 1;
  const double seconds = out->metrics.at(0).second;
  metrics::Table tab("sysbench seqwr");
  tab.headers({"pair", "VMs", "MB/VM", "elapsed s", "agg MB/s"});
  tab.row({cfg.pair.to_string(), std::to_string(cfg.vms_per_host), std::to_string(mb),
           metrics::Table::num(seconds, 1),
           metrics::Table::num(static_cast<double>(mb * mapred::kMiB) * cfg.vms_per_host /
                                   seconds / 1e6,
                               1)});
  emit(a, tab);
  return 0;
}

int cmd_stream(const Args& a) {
  if (!a.has("spec")) {
    std::fprintf(stderr, "iosimctl stream: --spec is required\n");
    return 2;
  }
  std::string err;
  auto spec = tenancy::StreamSpec::parse(a.str("spec", ""), &err);
  if (!spec) {
    std::fprintf(stderr, "iosimctl stream: bad --spec: %s\n", err.c_str());
    return 2;
  }
  if (a.has("policy")) {
    const auto p = tenancy::policy_by_name(a.str("policy", ""));
    if (!p) {
      std::fprintf(stderr, "iosimctl stream: bad --policy '%s' (fifo|fair|capacity)\n",
                   a.str("policy", "").c_str());
      return 2;
    }
    spec->policy = *p;
  }
  const auto cfg = cluster_of(a);
  Telemetry tel(a);
  // Honours the spec's meta segment: policy=static/offline/ucb/egreedy runs
  // through the meta-scheduling pipeline, a meta-free spec is a plain
  // run_stream (DESIGN.md §14).
  const auto mr = core::run_stream_with_policy(cfg, *spec);
  const auto& r = mr.stream;
  if (!r.ok) {
    std::fprintf(stderr, "stream FAILED: %s\n", r.error.c_str());
    return 1;
  }
  metrics::Table head("job stream (" + std::string(tenancy::to_string(spec->policy)) +
                      " policy)");
  head.headers({"pair", "jobs", "completed", "failed", "SLA viol", "makespan s"});
  head.row({cfg.pair.to_string(), std::to_string(static_cast<int>(r.jobs.size())),
            std::to_string(r.jobs_completed), std::to_string(r.jobs_failed),
            std::to_string(r.sla_violations), metrics::Table::num(r.makespan_s, 1)});
  emit(a, head);
  if (spec->meta.enabled()) {
    metrics::Table mt("meta-scheduling (" +
                      std::string(tenancy::to_string(spec->meta.policy)) + ")");
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
      const auto& cname = spec->classes[static_cast<std::size_t>(j.class_index)].name;
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

/// The Fig. 5 matrix: one mode=switchcost point per `from` pair (dd, 4 VMs,
/// raw seed 42), Cost(a -> b) = T(a then b) - (T(a) + T(b)) / 2.
int cmd_switchcost(const Args& a) {
  const auto pairs = iosched::all_scheduler_pairs();
  std::vector<exp::RunOutput> rows;
  for (const auto& p : pairs) {
    auto out = execute(single_host_point(exp::RunMode::kSwitchcost, p, 4, a.num("mb", 600)), 42);
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
  FlagSet adapt_flags = cluster_flags;
  adapt_flags.valued.insert("phases");
  adapt_flags.boolean.insert("verbose");
  const FlagSet sysbench_flags{{"vms", "mb", "pair", "seed"}, {"csv"}};
  const FlagSet switchcost_flags{{"mb"}, {"csv"}};
  const FlagSet stream_flags{{"spec", "policy", "hosts", "vms", "pair", "seed",
                              "trace", "fault", "fault-file"},
                             {"csv", "metrics", "obs", "jobs"}};

  const FlagSet* flags = nullptr;
  int (*handler)(const Args&) = nullptr;
  if (cmd == "run") {
    flags = &cluster_flags;
    handler = cmd_run;
  } else if (cmd == "adapt") {
    flags = &adapt_flags;
    handler = cmd_adapt;
  } else if (cmd == "finegrained") {
    flags = &cluster_flags;
    handler = cmd_finegrained;
  } else if (cmd == "sysbench") {
    flags = &sysbench_flags;
    handler = cmd_sysbench;
  } else if (cmd == "switchcost") {
    flags = &switchcost_flags;
    handler = cmd_switchcost;
  } else if (cmd == "stream") {
    flags = &stream_flags;
    handler = cmd_stream;
  } else {
    std::fprintf(stderr, "iosimctl: unknown command '%s'\n", cmd.c_str());
    return usage();
  }

  const auto a = parse(argc, argv, 2, cmd, *flags);
  if (!a) return usage();
  return handler(*a);
}
