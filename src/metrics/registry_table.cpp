#include "metrics/registry_table.hpp"

namespace iosim::metrics {

Table registry_table(const trace::Registry& reg, std::string title) {
  Table tab(std::move(title));
  tab.headers({"metric", "kind", "value", "count", "p50", "p99", "max"});
  for (const auto& item : reg.items()) {
    switch (item.kind) {
      case trace::Registry::Kind::kCounter: {
        const auto& c = reg.counter_at(item.idx);
        tab.row({item.name, "counter", std::to_string(c.value())});
        break;
      }
      case trace::Registry::Kind::kGauge: {
        const auto& g = reg.gauge_at(item.idx);
        tab.row({item.name, "gauge", Table::num(g.value(), 2)});
        break;
      }
      case trace::Registry::Kind::kHistogram: {
        const auto& h = reg.histogram_at(item.idx);
        const double mean =
            h.count() ? static_cast<double>(h.sum()) / static_cast<double>(h.count()) : 0.0;
        tab.row({item.name, "histogram", Table::num(mean, 1), std::to_string(h.count()),
                 std::to_string(h.quantile(0.5)), std::to_string(h.quantile(0.99)),
                 std::to_string(h.max())});
        break;
      }
    }
  }
  return tab;
}

}  // namespace iosim::metrics
