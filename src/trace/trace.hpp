// iosim: flight-recorder event tracing.
//
// A Tracer records structured events (spans, instants, counters) into a
// bounded ring buffer and exports them as Chrome/Perfetto trace-event JSON
// (open in chrome://tracing or ui.perfetto.dev) or CSV. Every layer of the
// simulator carries instrumentation sites guarded by `trace::tracer()`:
// when no tracer is installed the cost is one pointer load per site, so
// bench numbers are unaffected; when one is installed, a whole 4-host sort
// run — bio-level spans, elevator-switch drains, phase transitions, task
// lifecycles — lands on one timeline.
//
// Determinism: timestamps come exclusively from sim::Simulator::now()
// passed in by the call sites, string ids are assigned in emission order,
// and the exporters format from integers only — two same-seed runs produce
// byte-identical trace files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "trace/hint.hpp"

namespace iosim::trace {

/// Interned-string id. 0 is reserved for "absent".
using Str = std::uint32_t;
inline constexpr Str kNoStr = 0;

/// Chrome trace-event phase letters (the subset we emit).
enum class Ph : char {
  kBegin = 'B',    // span open (nesting, per track)
  kEnd = 'E',      // span close
  kComplete = 'X', // span with explicit duration
  kInstant = 'i',  // point event
  kCounter = 'C',  // sampled numeric value
};

/// One recorded event. Fixed-size POD so the ring buffer is a flat array;
/// strings are interned. Up to three integer arguments with interned names.
struct Event {
  Ph ph = Ph::kInstant;
  Str name = kNoStr;
  Str cat = kNoStr;
  std::uint32_t track = 0;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;  // kComplete only
  Str arg_name[3] = {kNoStr, kNoStr, kNoStr};
  std::int64_t arg[3] = {0, 0, 0};
};

struct TracerConfig {
  /// Ring capacity in events; once full the oldest events are dropped and
  /// `dropped()` counts them (reported in the export too).
  std::size_t capacity = 1u << 20;
  /// Capacity of the pinned store for rare structural events (elevator
  /// switches, phase transitions, job milestones, ...) which must survive
  /// ring overflow on long runs. Once full, pinned events fall back to the
  /// ring. See Tracer::pin_name.
  std::size_t pinned_capacity = 1u << 16;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig cfg = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Intern a string; equal strings get equal ids, assigned in first-use
  /// order (deterministic for a deterministic emission sequence).
  Str intern(std::string_view s);
  const std::string& str(Str id) const { return strings_[id]; }

  /// Get-or-create the track (Chrome "tid") named `name`. Track names are
  /// exported as thread_name metadata, kept outside the ring so they
  /// survive overflow.
  std::uint32_t track(std::string_view name);

  /// Mark a name as pinned: events with this name go to the bounded pinned
  /// store instead of the ring, so a flood of bio-level events cannot push
  /// out the rare structural ones. The constructor pre-pins the milestone
  /// names in CommonIds (elv switch, phase, job lifecycle, ...).
  void pin_name(Str name);
  bool is_pinned(Str name) const {
    return name < pinned_names_.size() && pinned_names_[name] != 0;
  }

  void emit(const Event& e);

  // -- convenience emitters (all timestamps are simulated time) --
  void instant(std::uint32_t track, Str name, Str cat, sim::Time ts,
               Str a0n = kNoStr, std::int64_t a0 = 0, Str a1n = kNoStr,
               std::int64_t a1 = 0, Str a2n = kNoStr, std::int64_t a2 = 0);
  void complete(std::uint32_t track, Str name, Str cat, sim::Time begin,
                sim::Time end, Str a0n = kNoStr, std::int64_t a0 = 0,
                Str a1n = kNoStr, std::int64_t a1 = 0, Str a2n = kNoStr,
                std::int64_t a2 = 0);
  void begin(std::uint32_t track, Str name, Str cat, sim::Time ts,
             Str a0n = kNoStr, std::int64_t a0 = 0);
  void end(std::uint32_t track, Str name, sim::Time ts);
  void counter(std::uint32_t track, Str name, sim::Time ts, std::int64_t value);

  /// Events currently held (ring + pinned, <= capacity + pinned_capacity).
  std::size_t size() const { return count_ + pinned_.size(); }
  /// Events held in the pinned store only.
  std::size_t pinned_size() const { return pinned_.size(); }
  /// Events pushed out of the ring by overflow.
  std::uint64_t dropped() const { return dropped_; }
  /// Total events ever emitted (size() + dropped()).
  std::uint64_t emitted() const { return emitted_; }
  std::size_t n_tracks() const { return track_names_.size(); }

  /// Visit held events: pinned store first, then the ring oldest-first
  /// (each in emission order; exports follow the same order).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Event& e : pinned_) fn(e);
    for (std::size_t i = 0; i < count_; ++i) {
      fn(ring_[(head_ + i) % ring_.size()]);
    }
  }

  /// Chrome trace-event JSON (object form, with thread-name metadata and
  /// the drop counter under "otherData").
  std::string to_json() const;
  /// Flat CSV: one row per event, interned strings resolved.
  std::string to_csv() const;
  /// Write to_csv() to `path` if it ends in ".csv", else to_json(); false
  /// on I/O error.
  bool write_file(const std::string& path) const;

  /// Pre-interned names for the hot instrumentation sites, so call sites
  /// avoid a hash lookup per string per event.
  struct CommonIds {
    Str cat_blk, cat_disk, cat_virt, cat_core, cat_mapred, cat_meta, cat_fault;
    Str rq_read, rq_write, rq_service, bio_submit, bio_merge;
    Str elv_switch, elv_retarget, drain_done, disk_io;
    Str phase, pair_switch, fg_switch, fg_sample, probe, profile, vm_boot;
    Str map_span, shuffle_span, reduce_span;
    Str job_start, first_map_done, maps_done, shuffle_done, job_done;
    Str fault, io_error, vm_down, vm_up, switch_fail;
    Str task_fail, task_retry, task_speculate, hdfs_failover, fetch_retry;
    Str job_failed;
    Str lba, sectors, value, index, pair, host, task, bytes, target, share;
    Str queued, in_flight, read_mb_s, write_mb_s, attempt;
    // Attribution / observability (obs/): lane summaries, stall markers,
    // and the ring-overflow marker. All pinned.
    Str cat_obs, io_stall, io_stall_wait, obs_summary, trace_overflow;
    Str obs_lane[6];  // "obs guest_queue" .. "obs total", Lane order
    Str obs_total_win;
    Str count, sum_ns, max_ns, p50_ns, p95_ns, p99_ns;
    Str elv_wait_ns, service_ns, total_ns, writes_ahead, reads_ahead, stalls;
  };
  CommonIds ids;

 private:
  std::vector<Event> ring_;
  std::size_t head_ = 0;   // oldest event
  std::size_t count_ = 0;  // held events in the ring
  std::vector<Event> pinned_;  // pinned-name events, emission order
  std::size_t pinned_capacity_ = 0;
  std::vector<char> pinned_names_;  // Str -> pinned? (indexed, not a set)
  std::uint64_t dropped_ = 0;
  std::uint64_t emitted_ = 0;

  std::vector<std::string> strings_;  // [0] = ""
  std::unordered_map<std::string, Str> string_ids_;
  std::vector<Str> track_names_;  // track id -> name id
  std::unordered_map<std::string, std::uint32_t> track_ids_;
};

/// Per-thread tracer. Null (the default) means tracing is off and every
/// instrumentation site reduces to a pointer load + branch. Each simulation
/// is single-threaded, but the experiment engine fans independent
/// simulations out across worker threads — the pointer is thread_local so
/// a tracer installed on the main thread is never shared with (or clobbered
/// by) a worker's simulation. Workers that want tracing install their own.
/// The pointer is an inline variable so the off-check compiles to exactly
/// that load + branch — an out-of-line accessor call per bio would be
/// measurable on the hot path.
namespace detail {
inline thread_local Tracer* g_tracer = nullptr;
}
/// The return is hinted null-expected (see hint.hpp): call sites fall
/// straight through when tracing is off and the emit code moves off the
/// hot path's cache lines.
inline Tracer* tracer() {
  Tracer* t = detail::g_tracer;
  return detail::unlikely_on(t != nullptr) ? t : nullptr;
}
inline void set_tracer(Tracer* t) { detail::g_tracer = t; }

/// RAII install/uninstall of a tracer as the process global.
class TraceSession {
 public:
  explicit TraceSession(TracerConfig cfg = {}) : tracer_(cfg), prev_(trace::tracer()) {
    set_tracer(&tracer_);
  }
  ~TraceSession() { set_tracer(prev_); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  Tracer& tracer() { return tracer_; }

 private:
  Tracer tracer_;
  Tracer* prev_;
};

}  // namespace iosim::trace
