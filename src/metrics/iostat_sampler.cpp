#include "metrics/iostat_sampler.hpp"

#include <cassert>

#include "trace/registry.hpp"
#include "trace/trace.hpp"

namespace iosim::metrics {

IostatSampler::IostatSampler(sim::Simulator& simr) : simr_(simr) {}

IostatSampler::~IostatSampler() { stop(); }

void IostatSampler::watch(blk::BlockLayer& layer) {
  Watched w;
  w.layer = &layer;
  w.last_bytes[0] = layer.counters().bytes_completed[0];
  w.last_bytes[1] = layer.counters().bytes_completed[1];
  watched_.push_back(std::move(w));
}

const std::string& IostatSampler::layer_name(std::size_t i) const {
  return watched_[i].layer->name();
}

const std::vector<IostatSampler::Sample>& IostatSampler::series(std::size_t i) const {
  return watched_[i].series;
}

void IostatSampler::start() {
  assert(ev_ == sim::kInvalidEvent && "sampler already started");
  last_tick_ = simr_.now();
  ev_ = simr_.after(kPeriod, [this] { tick(); });
}

void IostatSampler::stop() {
  if (ev_ == sim::kInvalidEvent) return;
  simr_.cancel(ev_);
  ev_ = sim::kInvalidEvent;
}

void IostatSampler::tick() {
  ev_ = sim::kInvalidEvent;
  const sim::Time now = simr_.now();
  const double dt = (now - last_tick_).sec();
  last_tick_ = now;
  ++ticks_;

  auto* tr = trace::tracer();
  auto* reg = trace::registry();

  for (auto& w : watched_) {
    const auto& c = w.layer->counters();
    Sample s;
    s.t = now;
    s.queued = w.layer->queued();
    s.in_flight = w.layer->in_flight();
    const std::int64_t dr = c.bytes_completed[0] - w.last_bytes[0];
    const std::int64_t dw = c.bytes_completed[1] - w.last_bytes[1];
    w.last_bytes[0] = c.bytes_completed[0];
    w.last_bytes[1] = c.bytes_completed[1];
    if (dt > 0) {
      s.read_mb_s = static_cast<double>(dr) / dt / 1e6;
      s.write_mb_s = static_cast<double>(dw) / dt / 1e6;
    }
    w.series.push_back(s);

    if (tr != nullptr) {
      const auto track = tr->track(w.layer->name());
      tr->counter(track, tr->ids.queued, now, static_cast<std::int64_t>(s.queued));
      tr->counter(track, tr->ids.in_flight, now, static_cast<std::int64_t>(s.in_flight));
      tr->counter(track, tr->ids.read_mb_s, now, static_cast<std::int64_t>(s.read_mb_s));
      tr->counter(track, tr->ids.write_mb_s, now, static_cast<std::int64_t>(s.write_mb_s));
    }
    if (reg != nullptr) {
      const std::string& n = w.layer->name();
      reg->gauge("iostat." + n + ".queued").set(static_cast<double>(s.queued));
      reg->gauge("iostat." + n + ".in_flight").set(static_cast<double>(s.in_flight));
      reg->histogram("iostat." + n + ".qdepth").record(static_cast<std::int64_t>(s.queued));
      reg->histogram("iostat." + n + ".read_mb_s")
          .record(static_cast<std::int64_t>(s.read_mb_s));
      reg->histogram("iostat." + n + ".write_mb_s")
          .record(static_cast<std::int64_t>(s.write_mb_s));
    }
  }

  if (stop_pred_ && stop_pred_()) return;
  // Drain guard: when every watched layer is idle and no other event is
  // pending (our own tick has already fired, so pending() counts only
  // foreign events), the simulation is over except for us — rescheduling
  // would keep the loop alive forever on runs whose stop predicate never
  // trips (or that never set one). Auto-stop instead.
  if (simr_.pending() == 0) {
    bool idle = true;
    for (const auto& w : watched_) {
      if (w.layer->queued() != 0 || w.layer->in_flight() != 0) {
        idle = false;
        break;
      }
    }
    if (idle) return;
  }
  ev_ = simr_.after(kPeriod, [this] { tick(); });
}

Table IostatSampler::table() const {
  Table tab("iostat (" + Table::num(kPeriod.sec(), 1) + "s windows)");
  tab.headers({"layer", "samples", "avg qdepth", "peak qdepth", "avg read MB/s",
               "avg write MB/s"});
  for (const auto& w : watched_) {
    double q = 0, rd = 0, wr = 0;
    std::size_t peak = 0;
    for (const auto& s : w.series) {
      q += static_cast<double>(s.queued);
      rd += s.read_mb_s;
      wr += s.write_mb_s;
      peak = std::max(peak, s.queued);
    }
    const double n = w.series.empty() ? 1.0 : static_cast<double>(w.series.size());
    tab.row({w.layer->name(), std::to_string(w.series.size()), Table::num(q / n, 1),
             std::to_string(peak), Table::num(rd / n, 1), Table::num(wr / n, 1)});
  }
  return tab;
}

}  // namespace iosim::metrics
