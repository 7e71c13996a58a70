// iosim: the one skeleton under every cluster-wide pair controller.
//
// The paper's Algorithm 1 replay, the stream replay and the online bandit
// run the same loop: observe a phase, pick an elevator pair, issue the
// switch. PairController owns everything in that loop except the pick:
//
//   switch     the single cluster-wide switch command. It travels through
//              the cluster's fault layer (Cluster::try_switch_pair). A
//              rejected command leaves the old pair installed and is retried
//              with capped exponential backoff; a pending retry goes inert
//              the moment a newer decision supersedes it.
//   telemetry  pair_switch / switch_fail instants on the core track;
//              subclasses may override on_switched / on_switch_failed.
//   phases     the stream phase source: attach_stream_job chains a job's
//              milestones into one shared PhaseAggregator, whose cluster
//              phase changes arrive at enter_phase.
//
// Subclasses keep only their decision and its state: AdaptiveController
// (per-job schedule replay at PhaseDetector boundaries), SchedulePlayer
// (schedule replay at cluster phases) and OnlineScheduler (the bandit),
// the latter two in core/online_scheduler.hpp.
#pragma once

#include <memory>

#include "cluster/cluster.hpp"
#include "mapred/job.hpp"
#include "tenancy/phase_agg.hpp"

namespace iosim::core {

class PairController : public std::enable_shared_from_this<PairController> {
 public:
  /// First retry delay after a failed switch command; doubles per failure up
  /// to 8x. Kept short relative to phase lengths so a transient management-
  /// plane fault rarely costs a whole phase.
  static constexpr sim::Time kRetryBase = sim::Time::from_ms(500);
  static constexpr sim::Time kRetryCap = sim::Time::from_sec(4);
  /// Retry budget per requested target. A management plane that is still
  /// down after this many attempts is treated as gone: the old pair stays
  /// installed and the run simply continues without switching.
  static constexpr int kMaxRetries = 8;

  PairController(const PairController&) = delete;
  PairController& operator=(const PairController&) = delete;
  virtual ~PairController() = default;

  /// Stream wiring: chain this job's phase/lifecycle callbacks into the
  /// shared PhaseAggregator. Call from a StreamSetupHook — the runner
  /// chains its own callbacks after the hook, so both see every event.
  void attach_stream_job(mapred::Job& job);

  int switches_performed() const { return switches_; }
  /// Switch commands rejected by the fault layer (each schedules a retry).
  int switch_failures() const { return failures_; }
  /// Retries actually issued (superseded ones don't count).
  int switch_retries() const { return retries_; }

 protected:
  explicit PairController(cluster::Cluster& cl);

  /// The decision: phase `phase` has begun. Stream jobs report cluster
  /// phase kinds (0 = map, 1 = shuffle, 2 = reduce) from the aggregator.
  virtual void enter_phase(int phase, sim::Time t) = 0;
  /// A stream job was admitted to the aggregator (after its own phase
  /// update).
  virtual void stream_job_admitted() {}
  /// Switch telemetry: after a command lands, and after a rejected one
  /// (before any retry is scheduled; `attempt` counts from 1).
  virtual void on_switched(int tag, iosched::SchedulerPair target);
  virtual void on_switch_failed(int tag, int attempt);

  /// Supersede any pending retry. Call at every decision boundary, even when
  /// no new switch is requested — a stale retry must never land after the
  /// phase that wanted it has passed.
  void supersede() { ++epoch_; }
  /// Issue a switch command (and its retry chain) toward `target`; `tag` is
  /// the requester's phase tag, handed back to the telemetry hooks.
  void request_switch(int tag, iosched::SchedulerPair target) {
    attempt(tag, target, /*failures=*/0);
  }

  cluster::Cluster& cl_;
  tenancy::PhaseAggregator agg_;

 private:
  void attempt(int tag, iosched::SchedulerPair target, int failures);

  int switches_ = 0;
  int failures_ = 0;
  int retries_ = 0;
  /// Monotone epoch: bumped by supersede(); pending retries carry the epoch
  /// they were issued under and go inert when it is stale.
  int epoch_ = 0;
};

}  // namespace iosim::core
