// iosim: named metrics registry — counters, gauges, and histograms
// (obs::QuantileSketch), registered by name on first touch and flushed as a table at
// the end of a run (metrics::registry_table renders it through
// metrics::Table).
//
// Like the tracer, the registry is reached through a thread-local pointer
// that is null by default: instrumentation sites pay one load + branch when
// metrics are off. Iteration order is first-registration order, which is
// deterministic for a deterministic run.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/sketch.hpp"
#include "trace/hint.hpp"

namespace iosim::trace {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void inc(std::int64_t d = 1) { v_ += d; }
  std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Last-written numeric value.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

class Registry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Item {
    std::string name;
    Kind kind;
    std::size_t idx;  // index into the per-kind store
  };

  /// Get-or-create by name. Returned references stay valid for the
  /// registry's lifetime (deque storage).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  obs::QuantileSketch& histogram(const std::string& name);

  /// All registered metrics in first-touch order.
  const std::vector<Item>& items() const { return items_; }
  const Counter& counter_at(std::size_t idx) const { return counters_[idx]; }
  const Gauge& gauge_at(std::size_t idx) const { return gauges_[idx]; }
  const obs::QuantileSketch& histogram_at(std::size_t idx) const { return histograms_[idx]; }
  std::size_t size() const { return items_.size(); }

 private:
  std::vector<Item> items_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<obs::QuantileSketch> histograms_;
  std::unordered_map<std::string, std::size_t> by_name_[3];  // per Kind
};

/// Per-thread registry; null (default) = metrics collection off. Inline
/// variable for the same hot-path reason as trace::tracer(), thread_local
/// for the same executor-isolation reason: parallel sweep workers must not
/// interleave their counters into a registry the main thread installed.
namespace detail {
inline thread_local Registry* g_registry = nullptr;
}
/// Same disabled-is-expected branch hint as trace::tracer(): metrics-off
/// call sites fall straight through and the recording code moves off the
/// hot path's cache lines.
inline Registry* registry() {
  Registry* r = detail::g_registry;
  return detail::unlikely_on(r != nullptr) ? r : nullptr;
}
inline void set_registry(Registry* r) { detail::g_registry = r; }

/// RAII install/uninstall of a registry as the process global.
class MetricsSession {
 public:
  MetricsSession() : prev_(trace::registry()) { set_registry(&registry_); }
  ~MetricsSession() { set_registry(prev_); }
  MetricsSession(const MetricsSession&) = delete;
  MetricsSession& operator=(const MetricsSession&) = delete;

  Registry& registry() { return registry_; }

 private:
  Registry registry_;
  Registry* prev_;
};

}  // namespace iosim::trace
