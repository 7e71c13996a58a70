// iosim: periodic iostat-style sampler.
//
// Watches any number of BlockLayers and, on a fixed simulated-time period,
// records per-layer queue depth, in-flight count, and per-direction
// throughput over the elapsed interval — the same signal the paper's
// testbed iostat sampling produced. Each tick also feeds the global tracer
// (counter events on the layer's track, so chrome://tracing draws the
// queue-depth and MB/s curves under the spans) and the global metrics
// registry (gauges + histograms), when either is installed.
//
// The sampler reschedules itself on the simulator; because the simulator
// runs until its queue is empty, a self-rescheduling sampler could keep a
// finished simulation alive forever. Three things end it: a stop predicate
// (typically "the job is done"), an explicit stop(), or the built-in drain
// guard — when a tick finds every watched layer idle and no event besides
// the sampler's own pending, it declines to reschedule and the loop drains.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "blk/block_layer.hpp"
#include "metrics/table.hpp"
#include "sim/simulator.hpp"

namespace iosim::metrics {

class IostatSampler {
 public:
  struct Sample {
    sim::Time t;
    std::size_t queued = 0;
    std::size_t in_flight = 0;
    double read_mb_s = 0.0;
    double write_mb_s = 0.0;
  };

  /// Sampling period: one iostat window per simulated second.
  static constexpr sim::Time kPeriod = sim::Time::from_sec(1);

  explicit IostatSampler(sim::Simulator& simr);
  ~IostatSampler();
  IostatSampler(const IostatSampler&) = delete;
  IostatSampler& operator=(const IostatSampler&) = delete;

  /// Add a layer to the watch set (before start()).
  void watch(blk::BlockLayer& layer);

  /// Sampling stops (no further events are scheduled) once `pred()` returns
  /// true at a tick. Without one, call stop() explicitly.
  void stop_when(std::function<bool()> pred) { stop_pred_ = std::move(pred); }

  void start();
  void stop();

  std::size_t n_layers() const { return watched_.size(); }
  const std::string& layer_name(std::size_t i) const;
  const std::vector<Sample>& series(std::size_t i) const;
  std::size_t ticks() const { return ticks_; }

  /// Per-layer summary (samples, mean/peak queue depth, mean MB/s each way).
  Table table() const;

 private:
  void tick();

  struct Watched {
    blk::BlockLayer* layer;
    std::int64_t last_bytes[2] = {0, 0};
    std::vector<Sample> series;
  };

  sim::Simulator& simr_;
  std::vector<Watched> watched_;
  std::function<bool()> stop_pred_;
  sim::EventId ev_ = sim::kInvalidEvent;
  sim::Time last_tick_;
  std::size_t ticks_ = 0;
};

}  // namespace iosim::metrics
