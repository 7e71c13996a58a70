#include "tenancy/stream_runner.hpp"

#include <algorithm>
#include <cassert>

#include "check/check.hpp"
#include "obs/attribution.hpp"
#include "obs/sketch.hpp"
#include "sim/random.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::tenancy {

namespace {

/// Tenancy milestone instants: names interned lazily at first emission (a
/// tracer that never sees a stream keeps its string table — and therefore
/// every pinned digest — unchanged) and pinned so ring overflow on long
/// streams cannot evict them. iosim-report's job-stream section reads
/// these back by name.
void emit_job_instant(const char* name, int job_id, int class_index,
                      std::int64_t arg, sim::Time now) {
  auto* tr = trace::tracer();
  if (tr == nullptr) return;
  const trace::Str n = tr->intern(name);
  tr->pin_name(n);
  tr->instant(tr->track("tenancy"), n, tr->ids.cat_mapred, now,
              tr->intern("job"), job_id, tr->intern("class"), class_index,
              tr->intern("arg"), arg);
}

}  // namespace

StreamRunner::StreamRunner(cluster::Cluster& cl, std::vector<PlannedEntry> plan,
                           Options opts)
    : cl_(cl), plan_(std::move(plan)), opts_(std::move(opts)) {
  assert(!plan_.empty());
  records_.resize(plan_.size());
  stats_.resize(plan_.size());
  jobs_.resize(plan_.size());
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    StreamJobRecord& r = records_[i];
    r.job_id = static_cast<int>(i);
    r.class_index = plan_[i].class_index;
    r.size_mb = plan_[i].size_mb;
    r.t_arrive_s = plan_[i].t_arrive_s;
  }
  unfinished_ = static_cast<int>(plan_.size());
  // Slot capacity is a TaskTracker property, uniform across the stream:
  // taken from the first entry's conf.
  arbiter_ = std::make_unique<PolicyArbiter>(
      opts_.policy, cl_.n_vms(), plan_[0].conf.map_slots,
      plan_[0].conf.reduce_slots, &cl_.simr());
  std::vector<double> shares;
  shares.reserve(opts_.classes.size());
  for (const ClassSpec& c : opts_.classes) shares.push_back(c.share);
  arbiter_->set_class_shares(std::move(shares));
  arbiter_->on_release = [this] { schedule_kick(); };
  phases_.on_cluster_phase = [](int phase) {
    if (auto* at = obs::attribution()) at->set_phase(phase);
  };
}

StreamRunner::~StreamRunner() = default;

void StreamRunner::start() {
  assert(!started_);
  started_ = true;
  if (auto* at = obs::attribution()) at->set_phase(0);
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const auto idx = static_cast<int>(i);
    cl_.simr().at(sim::Time::from_sec_f(plan_[i].t_arrive_s),
                  [this, idx] { arrive(idx); });
  }
}

int StreamRunner::class_priority(int class_index) const {
  return static_cast<std::size_t>(class_index) < opts_.classes.size()
             ? opts_.classes[static_cast<std::size_t>(class_index)].priority
             : 0;
}

void StreamRunner::arrive(int index) {
  if (!gate_enabled() || active_ < opts_.max_active) {
    admit(index);
    return;
  }
  // Gate full: queue behind it, then shed the worst waiter if the queue
  // overflowed (the newcomer itself may be that waiter).
  const StreamJobRecord& r = records_[static_cast<std::size_t>(index)];
  waiting_.push_back(index);
  emit_job_instant("job_wait", r.job_id, r.class_index, r.size_mb,
                   cl_.simr().now());
  if (static_cast<int>(waiting_.size()) > opts_.max_queue) shed_worst_waiting();
}

void StreamRunner::shed_worst_waiting() {
  assert(!waiting_.empty());
  std::size_t worst = 0;
  for (std::size_t i = 1; i < waiting_.size(); ++i) {
    const int a = waiting_[i], b = waiting_[worst];
    const int pa = class_priority(plan_[static_cast<std::size_t>(a)].class_index);
    const int pb = class_priority(plan_[static_cast<std::size_t>(b)].class_index);
    if (pa < pb || (pa == pb && a > b)) worst = i;  // lowest class, tie newest
  }
  const int victim = waiting_[worst];
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(worst));
  StreamJobRecord& r = records_[static_cast<std::size_t>(victim)];
  r.shed = true;
  --unfinished_;
  const sim::Time now = cl_.simr().now();
  if (auto* ck = check::auditor()) ck->on_stream_job_shed(r.job_id, now.ns());
  emit_job_instant("job_shed", r.job_id, r.class_index, r.size_mb, now);
}

void StreamRunner::pump_admissions() {
  if (!gate_enabled()) return;
  while (active_ < opts_.max_active && !waiting_.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < waiting_.size(); ++i) {
      const int a = waiting_[i], b = waiting_[best];
      const int pa = class_priority(plan_[static_cast<std::size_t>(a)].class_index);
      const int pb = class_priority(plan_[static_cast<std::size_t>(b)].class_index);
      if (pa > pb || (pa == pb && a < b)) best = i;  // highest class, tie oldest
    }
    const int next = waiting_[best];
    waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(best));
    admit(next);
  }
}

void StreamRunner::admit(int index) {
  const PlannedEntry& e = plan_[static_cast<std::size_t>(index)];
  auto& slot = jobs_[static_cast<std::size_t>(index)];
  slot = std::make_unique<mapred::Job>(cl_.env(), e.conf, e.seed);
  mapred::Job* job = slot.get();
  ++active_;
  // Plan index for a first admission; a fresh id past the plan for retries,
  // so the superseded attempt's ctx window and auditor account stay closed.
  const int job_id = records_[static_cast<std::size_t>(index)].job_id;
  const std::uint64_t ctx_lo = mapred::ctx::job_window(job_id);
  job->set_identity(job_id, ctx_lo);
  job->set_arbiter(arbiter_.get());
  const bool have_class =
      static_cast<std::size_t>(e.class_index) < opts_.classes.size();
  const ClassSpec* cls = have_class
      ? &opts_.classes[static_cast<std::size_t>(e.class_index)] : nullptr;
  arbiter_->admit(job_id, e.class_index, cls != nullptr ? cls->priority : 0,
                  cls != nullptr ? cls->weight : 1.0, /*order=*/index,
                  [job](bool reduce) {
                    return reduce ? job->queued_reduce_count()
                                  : job->pending_map_count();
                  });
  if (auto* ck = check::auditor()) {
    ck->on_stream_job_admit(job_id, ctx_lo, ctx_lo + mapred::ctx::kJobWindowSize,
                            cl_.simr().now().ns());
  }
  phases_.job_admitted(job_id);
  if (opts_.setup) opts_.setup(cl_, *job, index);

  // Chain onto (never over) whatever the setup hook installed.
  job->append_hooks({
      .on_maps_done = [this, job_id](sim::Time) { phases_.job_phase(job_id, 1); },
      .on_shuffle_done = [this, job_id](sim::Time) { phases_.job_phase(job_id, 2); },
      .on_done = [this, index](sim::Time) { on_job_finished(index, /*failed=*/false); },
      .on_failed = [this, index](sim::Time, const std::string&) {
        on_job_finished(index, /*failed=*/true);
      }});

  emit_job_instant("job_admit", job_id, e.class_index, e.size_mb,
                   cl_.simr().now());
  job->run();
  schedule_kick();  // a new tenant may shrink others' quotas; rescan anyway
}

void StreamRunner::on_job_finished(int index, bool failed) {
  StreamJobRecord& r = records_[static_cast<std::size_t>(index)];
  assert(!r.completed && !r.failed && "job finished twice");
  const sim::Time now = cl_.simr().now();
  --active_;

  mapred::Job* job = jobs_[static_cast<std::size_t>(index)].get();
  if (failed && r.retries < opts_.job_retries && job->failed_on_dead_vm()) {
    // The attempt died with its host, not on its own merits: retire this
    // incarnation and re-admit a fresh one through the gate after the
    // backoff. The record stays open (neither completed nor failed).
    ++r.retries;
    const int old_id = r.job_id;
    phases_.job_retired(old_id);
    arbiter_->retire_job(old_id);
    if (auto* ck = check::auditor()) ck->on_stream_job_retire(old_id, now.ns());
    emit_job_instant("job_retry", old_id, r.class_index, r.retries, now);
    superseded_jobs_.push_back(
        std::move(jobs_[static_cast<std::size_t>(index)]));
    r.job_id = static_cast<int>(plan_.size()) + retry_seq_++;
    cl_.simr().after(sim::Time::from_sec_f(opts_.retry_backoff_s),
                     [this, index] { arrive(index); });
    pump_admissions();
    schedule_kick();
    return;
  }

  r.t_done_s = now.sec();
  r.completed = !failed;
  r.failed = failed;
  r.sojourn_s = r.t_done_s - r.t_arrive_s;
  stats_[static_cast<std::size_t>(index)] =
      jobs_[static_cast<std::size_t>(index)]->stats();
  --unfinished_;

  const int job_id = r.job_id;
  if (static_cast<std::size_t>(r.class_index) < opts_.classes.size()) {
    const double deadline = opts_.classes[static_cast<std::size_t>(r.class_index)].deadline_s;
    r.sla_violated = sla_violated(failed, r.sojourn_s, deadline);
  }
  phases_.job_retired(job_id);
  arbiter_->retire_job(job_id);  // no-op after an abort's own retirement
  if (auto* ck = check::auditor()) {
    ck->on_stream_job_retire(job_id, now.ns());
  }
  emit_job_instant(failed ? "job_fail" : "job_done", job_id, r.class_index,
                   static_cast<std::int64_t>(r.sojourn_s * 1e3), now);
  pump_admissions();
  schedule_kick();
}

void StreamRunner::schedule_kick() {
  if (kick_pending_) return;
  kick_pending_ = true;
  // Coalesce: every release in the current event settles into one rescan,
  // in admission order (deterministic regardless of which release fired
  // first inside the event).
  cl_.simr().after(sim::Time::zero(), [this] {
    kick_pending_ = false;
    for (auto& j : jobs_) {
      if (j) j->kick();
    }
  });
}

const mapred::JobStats& StreamRunner::job_stats(int index) const {
  return stats_[static_cast<std::size_t>(index)];
}

StreamResult StreamRunner::finish() {
  StreamResult out;
  out.stop = cl_.simr().stop_reason();
  const bool drained = out.stop == sim::StopReason::kDrained;
  if (auto* ck = check::auditor()) {
    check::verify_simulator(*ck, cl_.simr(), drained);
    if (drained) ck->verify_end_of_run(cl_.simr().now().ns());
  }
  if (unfinished_ > 0) {
    // A drained queue with unfinished jobs is a deadlock (a failed job
    // still fires on_failed).
    assert(!drained && "jobs unfinished on a drained stream");
    out.ok = false;
    out.error = std::to_string(unfinished_) + " job(s) unfinished (" +
                sim::to_string(out.stop) + ") after " +
                std::to_string(cl_.simr().executed()) + " events at t=" +
                cl_.simr().now().to_string();
  }

  double first_arrive = 0.0, last_done = 0.0;
  bool any = false;
  for (const StreamJobRecord& r : records_) {
    out.jobs.push_back(r);
    if (r.completed) ++out.jobs_completed;
    if (r.failed) ++out.jobs_failed;
    if (r.sla_violated) ++out.sla_violations;
    if (r.shed) ++out.jobs_shed;
    out.jobs_retried += r.retries;
    if (r.completed || r.failed) {
      if (!any || r.t_arrive_s < first_arrive) first_arrive = r.t_arrive_s;
      if (!any || r.t_done_s > last_done) last_done = r.t_done_s;
      any = true;
    }
  }
  if (any) out.makespan_s = last_done - first_arrive;

  // Per-class sojourn distributions over completed jobs, through the same
  // integer-ns QuantileSketch as the attribution layer: deterministic and
  // mergeable, so sweep workers can fold partial streams exactly.
  out.classes.resize(opts_.classes.size());
  std::vector<obs::QuantileSketch> sketches(opts_.classes.size());
  for (std::size_t c = 0; c < opts_.classes.size(); ++c) {
    out.classes[c].name = opts_.classes[c].name;
  }
  for (const StreamJobRecord& r : records_) {
    if (static_cast<std::size_t>(r.class_index) >= out.classes.size()) continue;
    ClassOutcome& co = out.classes[static_cast<std::size_t>(r.class_index)];
    ++co.jobs;
    if (r.shed) {
      ++co.shed;
      continue;
    }
    if (r.failed) ++co.failed;
    if (r.sla_violated) ++co.sla_violations;
    if (!r.completed) continue;
    ++co.completed;
    sketches[static_cast<std::size_t>(r.class_index)].record(
        static_cast<std::int64_t>(r.sojourn_s * 1e9));
  }
  for (std::size_t c = 0; c < out.classes.size(); ++c) {
    const obs::QuantileSketch& sk = sketches[c];
    if (sk.count() == 0) continue;
    ClassOutcome& co = out.classes[c];
    co.p50_s = static_cast<double>(sk.quantile(0.50)) / 1e9;
    co.p95_s = static_cast<double>(sk.quantile(0.95)) / 1e9;
    co.p99_s = static_cast<double>(sk.quantile(0.99)) / 1e9;
    co.mean_s = static_cast<double>(sk.sum()) / static_cast<double>(sk.count()) / 1e9;
  }

  if (const auto* ms = cl_.membership()) {
    const auto& mc = ms->counters();
    out.blocks_repaired = static_cast<long long>(mc.blocks_repaired);
    out.blocks_lost = static_cast<long long>(mc.blocks_lost);
    out.repair_mb = static_cast<double>(mc.repair_bytes) / (1024.0 * 1024.0);
  }
  return out;
}

StreamResult run_stream(const cluster::ClusterConfig& cfg, const StreamSpec& spec,
                        const StreamSetupHook& setup) {
  const std::vector<PlannedJob> plan = plan_arrivals(spec, cfg.seed);
  std::vector<StreamRunner::PlannedEntry> entries;
  entries.reserve(plan.size());
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const ClassSpec& cls = spec.classes[static_cast<std::size_t>(plan[j].class_index)];
    const auto model = workloads::by_name(cls.workload);
    assert(model.has_value() && "StreamSpec::parse vets workload names");
    StreamRunner::PlannedEntry e;
    e.t_arrive_s = plan[j].t_arrive_s;
    e.conf = workloads::make_job(*model,
                                 static_cast<std::int64_t>(plan[j].size_mb) * mapred::kMiB);
    e.seed = sim::derive_run_seed(cfg.seed, kJobSeedBase + j);
    e.class_index = plan[j].class_index;
    e.size_mb = plan[j].size_mb;
    e.deadline_s = cls.deadline_s;
    entries.push_back(std::move(e));
  }

  cluster::Cluster cl(cfg);
  cl.simr().set_budget(cfg.budget);
  StreamRunner::Options opts;
  opts.policy = spec.policy;
  opts.classes = spec.classes;
  opts.setup = setup;
  opts.max_active = spec.max_active;
  opts.max_queue = spec.max_queue;
  opts.job_retries = spec.job_retries;
  opts.retry_backoff_s = spec.retry_backoff_s;
  StreamRunner sr(cl, std::move(entries), std::move(opts));
  sr.start();
  cl.simr().run();
  return sr.finish();
}

}  // namespace iosim::tenancy
