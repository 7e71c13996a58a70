// Test-only reference model: net::FlowNetwork as it was before the
// allocation-free, bucketed water-fill replaced it. The algorithm is kept
// verbatim — a std::map flow table, link and flow vectors rebuilt on every
// call, and a bottleneck round that scans every link and every flow — so the
// differential test can require the production network to reproduce its
// rates bit for bit and its completions to the nanosecond.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/flow_network.hpp"
#include "sim/simulator.hpp"

namespace iosim::net::oracle {

class WaterFillOracle {
 public:
  WaterFillOracle(sim::Simulator& simr, int n_hosts, NetParams params);

  FlowId start_flow(int src, int dst, std::int64_t bytes,
                    std::function<void(Time)> on_done);

  std::size_t active_flows() const { return flows_.size(); }
  std::int64_t bytes_delivered() const { return bytes_delivered_; }

  /// Current max-min rate of an active flow in bytes/second; 0 for an id
  /// that is not active.
  double rate(FlowId id) const;

 private:
  struct Flow {
    FlowId id;
    int src;
    int dst;
    double total = 0.0;  // payload bytes (for accounting)
    double remaining;    // bytes
    double rate = 0.0; // bytes/sec, valid since last_update_
    std::function<void(Time)> on_done;
  };

  void advance(Time now);       // progress all flows to `now`
  void recompute_rates();       // max-min fair share
  void schedule_next_completion(Time now);

  sim::Simulator& simr_;
  int n_hosts_;
  NetParams params_;
  FlowId next_id_ = 1;
  std::map<FlowId, Flow> flows_;
  Time last_update_;
  sim::EventId completion_ev_ = sim::kInvalidEvent;
  std::int64_t bytes_delivered_ = 0;
};

}  // namespace iosim::net::oracle
