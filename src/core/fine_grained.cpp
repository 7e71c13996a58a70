#include "core/fine_grained.hpp"

#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "virt/physical_host.hpp"

namespace iosim::core {

namespace {

// Regime -> pair map, following the per-phase profiling insight: read-heavy
// map-style traffic and write-heavy reduce-style traffic prefer different
// pairs. A host's sync-read byte share at or above kReadRegimeThreshold is
// read-dominated; at or below kWriteRegimeThreshold, write-dominated.
constexpr double kReadRegimeThreshold = 0.55;
constexpr double kWriteRegimeThreshold = 0.35;
constexpr iosched::SchedulerPair kReadPair{iosched::SchedulerKind::kAnticipatory,
                                           iosched::SchedulerKind::kAnticipatory};
constexpr iosched::SchedulerPair kWritePair{iosched::SchedulerKind::kDeadline,
                                            iosched::SchedulerKind::kDeadline};
constexpr iosched::SchedulerPair kMixedPair{iosched::SchedulerKind::kDeadline,
                                            iosched::SchedulerKind::kAnticipatory};

// Hysteresis: the classifier must propose the same target pair for this
// many consecutive samples before a switch is issued (the mixed middle of a
// job oscillates around the thresholds).
constexpr int kConfirmSamples = 3;

}  // namespace

std::shared_ptr<FineGrainedController> FineGrainedController::attach(
    cluster::Cluster& cl, mapred::Job& job, FineGrainedPolicy policy) {
  auto ctl = std::shared_ptr<FineGrainedController>(
      new FineGrainedController(cl, job, policy));
  cl.simr().after(ctl->policy_.sample_period,
                  [ctl] { ctl->sample(ctl); });
  return ctl;
}

FineGrainedController::FineGrainedController(cluster::Cluster& cl, mapred::Job& job,
                                             FineGrainedPolicy policy)
    : cl_(cl), job_(job), policy_(policy), hosts_(cl.n_hosts()) {}

void FineGrainedController::sample(const std::shared_ptr<FineGrainedController>& self) {
  // Stop sampling once the job ends either way; an aborted job that kept a
  // sampler alive would keep the simulator from ever draining.
  if (job_.done() || job_.failed()) return;
  ++samples_;
  const sim::Time now = cl_.simr().now();
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("core"), tr->ids.fg_sample, tr->ids.cat_core, now,
                tr->ids.index, samples_);
  }
  if (auto* reg = trace::registry()) reg->counter("core.fg.samples").inc();

  for (std::size_t h = 0; h < cl_.n_hosts(); ++h) {
    auto& host = cl_.host(h);
    HostState& st = hosts_[h];
    const auto& c = host.dom0_layer().counters();
    const std::int64_t reads = c.bytes_completed[0] - st.last_read_bytes;
    const std::int64_t writes = c.bytes_completed[1] - st.last_write_bytes;
    st.last_read_bytes = c.bytes_completed[0];
    st.last_write_bytes = c.bytes_completed[1];
    const std::int64_t total = reads + writes;
    if (total <= 0) continue;  // idle host: nothing to adapt to

    const double read_share = static_cast<double>(reads) / static_cast<double>(total);
    iosched::SchedulerPair target = kMixedPair;
    if (read_share >= kReadRegimeThreshold) {
      target = kReadPair;
    } else if (read_share <= kWriteRegimeThreshold) {
      target = kWritePair;
    }

    const iosched::SchedulerPair current = host.pair();
    if (target == current) {
      st.pending_count = 0;
      continue;
    }
    // Hysteresis: confirm the regime over consecutive samples.
    if (st.pending_count > 0 && st.pending_target == target) {
      ++st.pending_count;
    } else {
      st.pending_target = target;
      st.pending_count = 1;
    }
    if (st.pending_count < kConfirmSamples) continue;
    if (now - st.last_switch < policy_.min_switch_gap) continue;

    // Gate on the switch cost: a rough remaining horizon from job progress.
    const double progress = job_.progress();
    const double elapsed = (now - job_.stats().t_start).sec();
    const double remaining =
        progress > 0.02 ? elapsed * (1.0 - progress) / progress : 600.0;
    if (policy_.assumed_rate_gain * remaining <= kSwitchCostSeconds) continue;

    if (auto* tr = trace::tracer()) {
      tr->instant(tr->track("core"), tr->ids.fg_switch, tr->ids.cat_core, now,
                  tr->ids.host, static_cast<std::int64_t>(h), tr->ids.pair,
                  virt::PhysicalHost::pair_code(target), tr->ids.share,
                  static_cast<std::int64_t>(read_share * 1000.0));
    }
    if (auto* reg = trace::registry()) reg->counter("core.fg.switches").inc();
    host.set_pair(target);
    st.last_switch = now;
    st.pending_count = 0;
    ++total_switches_;
  }

  cl_.simr().after(policy_.sample_period, [self] { self->sample(self); });
}

}  // namespace iosim::core
