// iosim: end-to-end request-path latency attribution.
//
// Attribution owns the per-request stamp records (obs/attr.hpp) and the
// per-key streaming sketches they fold into on completion. Block layers on
// the DomU->Dom0 path call the on_*() stamping hooks; the hooks take plain
// scalars so obs/ never depends on blk/ (blk depends on obs). Like the
// tracer and the metrics registry, the layer is reached through a
// thread-local pointer that is null by default: with no AttributionSession
// installed every instrumentation site costs one hinted pointer check, and
// bare layers (LayerRole::kNone) skip even that.
//
// On every guest-request completion:
//  * the stage stamps become a five-lane waterfall (plus total) and fold
//    into the cumulative per-lane sketches of the request's (host, vm, dir,
//    sync, phase) key, and into the key's windowed total-latency sketch;
//  * the stall detector compares the total against a percentile-based
//    threshold and, on a hit, logs the request with the Dom0 queue snapshot
//    captured when it arrived there ("who was ahead") and emits pinned
//    trace events.
//
// Determinism: all state advances only from stamping calls, which happen in
// simulator event order; keys are kept in first-touch order; sketches are
// integer-only. Same seed => byte-identical publish/export output.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/attr.hpp"
#include "obs/sketch.hpp"
#include "sim/time.hpp"
#include "trace/hint.hpp"

namespace iosim::trace {
class Tracer;
class Registry;
}  // namespace iosim::trace

namespace iosim::obs {

struct StallConfig {
  /// A request stalls when total > max(floor, factor * p99(key total)).
  double factor = 3.0;
  sim::Time floor = sim::Time::from_ms(50);
  /// Completions a key must have seen before its detector arms (an early
  /// p99 over a handful of samples is noise, not a threshold).
  std::uint64_t min_samples = 64;
  /// Bound on the in-memory stall log; later stalls are counted but not
  /// logged (stalls_total() keeps the true count).
  std::size_t max_log = 256;
};

class Attribution {
 public:
  /// Windowed total-latency sketch: kWindowFrames windows of kWindow each.
  static constexpr sim::Time kWindow = sim::Time::from_sec(1);
  static constexpr int kWindowFrames = 8;

  explicit Attribution(StallConfig stall = {});
  Attribution(const Attribution&) = delete;
  Attribution& operator=(const Attribution&) = delete;

  // -- stamping hooks (called by blk::BlockLayer / virt::BlkfrontRing) --

  /// Guest layer created a new request from a fresh bio: allocate a record.
  /// `ctx` is the bio's scheduling context id; a ctx inside a per-job window
  /// (attr.hpp job_of_ctx) keys the record to that stream job, any other
  /// value (including the default 0) keys it to the shared namespace.
  AttrHandle on_submit(int host, int vm, bool is_write, bool sync,
                       std::int64_t lba, std::int64_t sectors, sim::Time now,
                       std::uint64_t ctx = 0);
  /// Guest elevator dispatched the request into the ring.
  void on_guest_dispatch(AttrHandle h, sim::Time now);
  /// A ring segment of the request reached the Dom0 elevator. First arrival
  /// wins the stamp and the queue snapshot (counts exclude this segment).
  void on_dom0_arrive(AttrHandle h, sim::Time now, std::size_t reads_ahead,
                      std::size_t writes_ahead, std::size_t in_flight);
  /// A Dom0 request carrying this record was dispatched (first wins).
  void on_dom0_dispatch(AttrHandle h, sim::Time now);
  /// A Dom0 request carrying this record completed (last wins).
  void on_dom0_complete(AttrHandle h, sim::Time now);
  /// The guest request completed: fold the waterfall, run the stall
  /// detector, recycle the record.
  void on_complete(AttrHandle h, sim::Time now);

  /// MapReduce phase for keying new records (cluster::run_job wires this to
  /// the job's phase transitions when a session is installed).
  void set_phase(int phase) {
    cur_phase_ = static_cast<std::uint8_t>(phase < 0 ? 0 : (phase > 63 ? 63 : phase));
  }
  int phase() const { return cur_phase_; }

  // -- results --

  std::size_t n_keys() const { return keys_.size(); }
  const AttrKey& key_at(std::size_t i) const { return keys_[i].key; }
  /// Cumulative per-lane sketch of key i (ns).
  const QuantileSketch& lane(std::size_t i, Lane l) const {
    return keys_[i].lanes[static_cast<int>(l)];
  }
  /// Decaying total-latency view of key i at the last stamped time.
  QuantileSketch windowed_total(std::size_t i) {
    return keys_[i].windowed.snapshot(last_activity_);
  }

  const std::vector<StallEvent>& stalls() const { return stall_log_; }
  std::uint64_t stalls_total() const { return stalls_total_; }

  std::uint64_t records_created() const { return records_created_; }
  std::uint64_t records_completed() const { return records_completed_; }
  /// Records still in flight (created - completed).
  std::uint64_t records_live() const { return records_created_ - records_completed_; }
  sim::Time last_activity() const { return last_activity_; }

  /// "host0.vm1.read.sync.ph0" — registry metric prefix / report row label.
  /// Keys of a stream job append ".jobN"; shared-namespace keys (job = -1)
  /// keep the historical five-part name.
  static std::string key_name(const AttrKey& k);

  /// Publish per-key per-lane count/sum/percentile gauges (plus the
  /// windowed total p99 and the stall counter) into `reg`, in first-touch
  /// key order.
  void publish(trace::Registry& reg);

  /// Emit the sketch summaries as pinned instants on per-key "obs/..."
  /// tracks at last_activity() time — the machine-readable surface
  /// iosim-report consumes from the trace JSON.
  void export_to_trace(trace::Tracer& tr);

 private:
  struct KeyStats {
    AttrKey key;
    QuantileSketch lanes[kNumLanes];
    WindowedSketch windowed;
    explicit KeyStats(const AttrKey& k) : key(k), windowed(kWindow, kWindowFrames) {}
  };

  AttrRecord* record_of(AttrHandle h);
  KeyStats& stats_of(const AttrKey& key);

  StallConfig stall_;
  std::vector<AttrRecord> arena_;
  std::vector<std::uint32_t> free_;  // recycled arena indices
  std::vector<KeyStats> keys_;       // first-touch order
  std::unordered_map<std::uint64_t, std::size_t> key_idx_;  // pack() -> index
  std::vector<StallEvent> stall_log_;
  std::uint64_t stalls_total_ = 0;
  std::uint64_t records_created_ = 0;
  std::uint64_t records_completed_ = 0;
  std::uint8_t cur_phase_ = 0;
  sim::Time last_activity_;
};

/// Per-thread attribution layer; null (default) = attribution off. Inline
/// thread_local + branch hint for the same hot-path and sweep-worker
/// isolation reasons as trace::tracer() — see trace/trace.hpp.
namespace detail {
inline thread_local Attribution* g_attribution = nullptr;
}
inline Attribution* attribution() {
  Attribution* a = detail::g_attribution;
  return trace::detail::unlikely_on(a != nullptr) ? a : nullptr;
}
inline void set_attribution(Attribution* a) { detail::g_attribution = a; }

/// RAII install/uninstall, mirroring TraceSession / MetricsSession.
class AttributionSession {
 public:
  explicit AttributionSession(StallConfig stall = {})
      : attribution_(stall), prev_(obs::attribution()) {
    set_attribution(&attribution_);
  }
  ~AttributionSession() { set_attribution(prev_); }
  AttributionSession(const AttributionSession&) = delete;
  AttributionSession& operator=(const AttributionSession&) = delete;

  Attribution& attribution() { return attribution_; }

 private:
  Attribution attribution_;
  Attribution* prev_;
};

}  // namespace iosim::obs
