// iosim: the elevator (I/O scheduler) interface and registry.
//
// Re-implementations of the four Linux 2.6 disk schedulers the paper
// evaluates — noop, deadline, anticipatory (AS) and CFQ — all conform to
// this interface. The BlockLayer owns one scheduler at a time and can swap
// it at run time ("echo cfq > /sys/block/sda/queue/scheduler"), which is the
// primitive the paper's meta-scheduler is built on.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "iosched/params.hpp"
#include "iosched/request.hpp"

namespace iosim::iosched {

/// The four disciplines of the 2.6.22-era kernel.
enum class SchedulerKind : std::uint8_t { kNoop = 0, kDeadline = 1, kAnticipatory = 2, kCfq = 3 };

inline constexpr int kNumSchedulerKinds = 4;

/// All four kinds, in the paper's habitual order (CFQ, Deadline, AS, Noop is
/// the paper's table order; we enumerate in enum order for sweeps).
inline constexpr SchedulerKind kAllSchedulerKinds[] = {
    SchedulerKind::kNoop, SchedulerKind::kDeadline, SchedulerKind::kAnticipatory,
    SchedulerKind::kCfq};

const char* to_string(SchedulerKind k);
/// Short name used in the paper's Fig. 5 axis labels: n, d, a, c.
char to_letter(SchedulerKind k);
/// Parse "noop"/"deadline"/"anticipatory"/"as"/"cfq" (case-insensitive).
std::optional<SchedulerKind> scheduler_from_string(const std::string& s);

/// Queue discipline interface. The BlockLayer calls:
///   add()       when a (possibly merged) request is queued,
///   dispatch()  whenever the downstream device can accept work,
///   on_complete() when the device finishes a request,
///   wakeup()    to learn when an idling scheduler wants to be re-polled.
///
/// dispatch() may return nullptr while !empty(): that is deliberate idling
/// (AS anticipation, CFQ slice idling). In that case wakeup() must return a
/// finite time, and any later add() also re-arms dispatching.
class IoScheduler {
 public:
  virtual ~IoScheduler() = default;

  virtual SchedulerKind kind() const = 0;

  /// Queue a request. The pointer remains valid until it is returned from
  /// dispatch().
  virtual void add(Request* rq, Time now) = 0;

  /// Pick the next request to send to the device, or nullptr to idle.
  virtual Request* dispatch(Time now) = 0;

  /// Device completed `rq` at `now`. Called before any dispatch retry, so
  /// disciplines can arm anticipation based on the completion.
  virtual void on_complete(const Request& rq, Time now) = 0;

  /// Earliest time dispatch() should be re-polled when it returned nullptr
  /// while requests are queued; nullopt when not idling.
  virtual std::optional<Time> wakeup(Time now) const = 0;

  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
};

/// Instantiate a discipline with the given tunables.
std::unique_ptr<IoScheduler> make_scheduler(SchedulerKind kind, const SchedTunables& tun = {});

}  // namespace iosim::iosched
