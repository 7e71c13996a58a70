#include "obs/attribution.hpp"

#include <algorithm>
#include <cassert>

#include "check/check.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"

namespace iosim::obs {

namespace {

/// Lane spans from the stamp array with carry-forward: a stage that was
/// never stamped (e.g. a request completed while a record was mid-path
/// during teardown) contributes a zero-width lane, so the lanes always sum
/// exactly to the total.
void lanes_of(const AttrRecord& r, std::int64_t out[kNumLanes]) {
  std::int64_t prev = r.stamp[0];
  for (int s = 1; s < kNumStages; ++s) {
    const std::int64_t cur = r.stamp[s] >= 0 ? r.stamp[s] : prev;
    out[s - 1] = cur > prev ? cur - prev : 0;
    prev = cur;
  }
  out[static_cast<int>(Lane::kTotal)] =
      prev > r.stamp[0] ? prev - r.stamp[0] : 0;
}

}  // namespace

Attribution::Attribution(StallConfig stall) : stall_(stall) {
  arena_.reserve(256);
}

AttrRecord* Attribution::record_of(AttrHandle h) {
  if (h == kNoAttr || h > arena_.size()) return nullptr;
  AttrRecord& r = arena_[h - 1];
  return r.in_use ? &r : nullptr;
}

Attribution::KeyStats& Attribution::stats_of(const AttrKey& key) {
  const std::uint64_t packed = key.pack();
  if (auto it = key_idx_.find(packed); it != key_idx_.end()) return keys_[it->second];
  key_idx_.emplace(packed, keys_.size());
  keys_.emplace_back(key);
  return keys_.back();
}

AttrHandle Attribution::on_submit(int host, int vm, bool is_write, bool sync,
                                  std::int64_t lba, std::int64_t sectors,
                                  sim::Time now, std::uint64_t ctx) {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  AttrRecord& r = arena_[idx];
  for (auto& s : r.stamp) s = -1;
  r.stamp[static_cast<int>(Stage::kSubmit)] = now.ns();
  r.lba = lba;
  r.sectors = sectors;
  r.key.host = static_cast<std::uint16_t>(host);
  r.key.vm = static_cast<std::uint16_t>(vm);
  r.key.dir = is_write ? 1 : 0;
  r.key.sync = sync ? 1 : 0;
  r.key.phase = cur_phase_;
  r.key.job = job_of_ctx(ctx);
  r.reads_ahead = 0;
  r.writes_ahead = 0;
  r.dom0_in_flight = 0;
  r.in_use = true;
  ++records_created_;
  last_activity_ = now;
  return idx + 1;
}

void Attribution::on_guest_dispatch(AttrHandle h, sim::Time now) {
  if (AttrRecord* r = record_of(h)) {
    r->stamp[static_cast<int>(Stage::kGuestDispatch)] = now.ns();
    last_activity_ = now;
  }
}

void Attribution::on_dom0_arrive(AttrHandle h, sim::Time now, std::size_t reads_ahead,
                                 std::size_t writes_ahead, std::size_t in_flight) {
  AttrRecord* r = record_of(h);
  if (r == nullptr) return;
  auto& stamp = r->stamp[static_cast<int>(Stage::kDom0Arrive)];
  if (stamp >= 0) return;  // first segment wins the stamp and the snapshot
  stamp = now.ns();
  r->reads_ahead = static_cast<std::uint32_t>(reads_ahead);
  r->writes_ahead = static_cast<std::uint32_t>(writes_ahead);
  r->dom0_in_flight = static_cast<std::uint32_t>(in_flight);
  last_activity_ = now;
}

void Attribution::on_dom0_dispatch(AttrHandle h, sim::Time now) {
  if (AttrRecord* r = record_of(h)) {
    auto& stamp = r->stamp[static_cast<int>(Stage::kDom0Dispatch)];
    if (stamp < 0) stamp = now.ns();  // first dispatch wins
    last_activity_ = now;
  }
}

void Attribution::on_dom0_complete(AttrHandle h, sim::Time now) {
  if (AttrRecord* r = record_of(h)) {
    // Last completion wins: a guest request spread over several Dom0
    // requests is in service until its final segment finishes.
    r->stamp[static_cast<int>(Stage::kDom0Complete)] = now.ns();
    last_activity_ = now;
  }
}

void Attribution::on_complete(AttrHandle h, sim::Time now) {
  AttrRecord* r = record_of(h);
  if (r == nullptr) return;
  r->stamp[static_cast<int>(Stage::kComplete)] = now.ns();
  last_activity_ = now;
  if (auto* ck = check::auditor()) {
    ck->on_stamps(r->key.host, r->key.vm, r->stamp, kNumStages, now.ns());
  }

  std::int64_t lanes[kNumLanes];
  lanes_of(*r, lanes);
  const std::int64_t total = lanes[static_cast<int>(Lane::kTotal)];

  KeyStats& ks = stats_of(r->key);
  // Stall check against the key's history *before* this request joins it.
  const QuantileSketch& totals = ks.lanes[static_cast<int>(Lane::kTotal)];
  bool stalled = false;
  std::int64_t threshold = 0;
  if (totals.count() >= stall_.min_samples) {
    const auto p99 = static_cast<double>(totals.quantile(0.99));
    threshold = std::max(stall_.floor.ns(),
                         static_cast<std::int64_t>(p99 * stall_.factor));
    stalled = total > threshold;
  }

  for (int l = 0; l < kNumLanes; ++l) ks.lanes[l].record(lanes[l]);
  ks.windowed.record(total, now);
  ++records_completed_;

  if (stalled) {
    ++stalls_total_;
    if (stall_log_.size() < stall_.max_log) {
      StallEvent ev;
      ev.key = r->key;
      ev.lba = r->lba;
      ev.sectors = r->sectors;
      ev.submit_ns = r->stamp[static_cast<int>(Stage::kSubmit)];
      ev.total_ns = total;
      ev.threshold_ns = threshold;
      for (int l = 0; l < kNumLanes; ++l) ev.lane_ns[l] = lanes[l];
      ev.reads_ahead = r->reads_ahead;
      ev.writes_ahead = r->writes_ahead;
      ev.dom0_in_flight = r->dom0_in_flight;
      stall_log_.push_back(ev);
    }
    if (auto* tr = trace::tracer()) {
      std::string path = "obs/host" + std::to_string(r->key.host) + "/vm" +
                         std::to_string(r->key.vm);
      if (r->key.job >= 0) path += "/job" + std::to_string(r->key.job);
      const auto track = tr->track(path);
      // The stalled span itself, with the Dom0 queue it arrived behind —
      // pinned, so stalls survive the bio flood that caused them.
      tr->complete(track, tr->ids.io_stall, tr->ids.cat_obs,
                   sim::Time::from_ns(r->stamp[static_cast<int>(Stage::kSubmit)]),
                   now, tr->ids.lba, r->lba, tr->ids.writes_ahead,
                   r->writes_ahead, tr->ids.reads_ahead, r->reads_ahead);
      tr->instant(track, tr->ids.io_stall_wait, tr->ids.cat_obs, now,
                  tr->ids.elv_wait_ns, lanes[static_cast<int>(Lane::kElvWait)],
                  tr->ids.service_ns, lanes[static_cast<int>(Lane::kService)],
                  tr->ids.total_ns, total);
    }
  }

  // Recycle: every Dom0 segment of this request completed before the guest
  // request did, so no live reference to the handle remains.
  r->in_use = false;
  free_.push_back(h - 1);
}

std::string Attribution::key_name(const AttrKey& k) {
  std::string s = "host" + std::to_string(k.host) + ".vm" + std::to_string(k.vm);
  if (k.job >= 0) s += ".job" + std::to_string(k.job);
  s += k.dir ? ".write" : ".read";
  s += k.sync ? ".sync" : ".async";
  s += ".ph" + std::to_string(k.phase);
  return s;
}

void Attribution::publish(trace::Registry& reg) {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    KeyStats& ks = keys_[i];
    const std::string prefix = "obs." + key_name(ks.key) + ".";
    for (int l = 0; l < kNumLanes; ++l) {
      const QuantileSketch& sk = ks.lanes[l];
      const std::string lane_prefix = prefix + lane_name(static_cast<Lane>(l)) + ".";
      reg.gauge(lane_prefix + "count").set(static_cast<double>(sk.count()));
      reg.gauge(lane_prefix + "sum_ns").set(static_cast<double>(sk.sum()));
      reg.gauge(lane_prefix + "p50_ns").set(static_cast<double>(sk.quantile(0.5)));
      reg.gauge(lane_prefix + "p95_ns").set(static_cast<double>(sk.quantile(0.95)));
      reg.gauge(lane_prefix + "p99_ns").set(static_cast<double>(sk.quantile(0.99)));
    }
    const QuantileSketch win = ks.windowed.snapshot(last_activity_);
    reg.gauge(prefix + "win.count").set(static_cast<double>(win.count()));
    reg.gauge(prefix + "win.p99_ns").set(static_cast<double>(win.quantile(0.99)));
  }
  reg.gauge("obs.stalls").set(static_cast<double>(stalls_total_));
  reg.gauge("obs.records_completed").set(static_cast<double>(records_completed_));
  reg.gauge("obs.records_live").set(static_cast<double>(records_live()));
}

void Attribution::export_to_trace(trace::Tracer& tr) {
  const sim::Time at = last_activity_;
  tr.instant(tr.track("obs"), tr.ids.obs_summary, tr.ids.cat_obs, at,
             tr.ids.count, static_cast<std::int64_t>(records_completed_),
             tr.ids.in_flight, static_cast<std::int64_t>(records_live()),
             tr.ids.stalls, static_cast<std::int64_t>(stalls_total_));
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    KeyStats& ks = keys_[i];
    const AttrKey& k = ks.key;
    std::string path =
        "obs/host" + std::to_string(k.host) + "/vm" + std::to_string(k.vm);
    if (k.job >= 0) path += "/job" + std::to_string(k.job);
    path += (k.dir ? "/write" : "/read");
    path += (k.sync ? "/sync" : "/async");
    path += "/ph" + std::to_string(k.phase);
    const auto track = tr.track(path);
    for (int l = 0; l < kNumLanes; ++l) {
      const QuantileSketch& sk = ks.lanes[l];
      // Two pinned instants per lane: counts then percentiles (three args
      // each — the Event arg limit). iosim-report joins them by name.
      tr.instant(track, tr.ids.obs_lane[l], tr.ids.cat_obs, at, tr.ids.count,
                 static_cast<std::int64_t>(sk.count()), tr.ids.sum_ns, sk.sum(),
                 tr.ids.max_ns, sk.max());
      tr.instant(track, tr.ids.obs_lane[l], tr.ids.cat_obs, at, tr.ids.p50_ns,
                 sk.quantile(0.5), tr.ids.p95_ns, sk.quantile(0.95), tr.ids.p99_ns,
                 sk.quantile(0.99));
    }
    const QuantileSketch win = ks.windowed.snapshot(at);
    tr.instant(track, tr.ids.obs_total_win, tr.ids.cat_obs, at, tr.ids.count,
               static_cast<std::int64_t>(win.count()), tr.ids.p95_ns,
               win.quantile(0.95), tr.ids.p99_ns, win.quantile(0.99));
  }
}

}  // namespace iosim::obs
