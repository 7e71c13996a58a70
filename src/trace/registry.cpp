#include "trace/registry.hpp"

namespace iosim::trace {

Counter& Registry::counter(const std::string& name) {
  auto& ids = by_name_[static_cast<int>(Kind::kCounter)];
  if (auto it = ids.find(name); it != ids.end()) return counters_[it->second];
  const std::size_t idx = counters_.size();
  counters_.emplace_back();
  ids.emplace(name, idx);
  items_.push_back({name, Kind::kCounter, idx});
  return counters_[idx];
}

Gauge& Registry::gauge(const std::string& name) {
  auto& ids = by_name_[static_cast<int>(Kind::kGauge)];
  if (auto it = ids.find(name); it != ids.end()) return gauges_[it->second];
  const std::size_t idx = gauges_.size();
  gauges_.emplace_back();
  ids.emplace(name, idx);
  items_.push_back({name, Kind::kGauge, idx});
  return gauges_[idx];
}

obs::QuantileSketch& Registry::histogram(const std::string& name) {
  auto& ids = by_name_[static_cast<int>(Kind::kHistogram)];
  if (auto it = ids.find(name); it != ids.end()) return histograms_[it->second];
  const std::size_t idx = histograms_.size();
  histograms_.emplace_back();
  ids.emplace(name, idx);
  items_.push_back({name, Kind::kHistogram, idx});
  return histograms_[idx];
}

}  // namespace iosim::trace
