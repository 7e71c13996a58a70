// iosim: fluid flow network with max-min fair sharing.
//
// Models the paper's 1 GbE cluster fabric: every physical host has an uplink
// and a downlink of `host_bw` through a non-blocking switch; VM-to-VM
// traffic inside one host goes over a fast loopback path instead. Active
// flows receive their max-min fair share, re-leveled by water-filling on
// every arrival and departure, and flow completions are simulated exactly
// from the resulting piecewise-constant rates.
//
// The water-fill allocates nothing in steady state: the link table is sized
// in the constructor and the per-link flow buckets grow to the peak flow
// count, each flow's links are resolved once in start_flow, and a
// bottleneck round touches only the links that still carry unfixed flows
// and the flows of the bottleneck link (DESIGN.md §8.5). Rates are
// bit-identical to the textbook all-links, all-flows loop, which
// tests/net/water_fill_oracle.* keeps as the reference.
//
// This is the substrate for HDFS remote reads, shuffle fetches, and output
// replication in the MapReduce model.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"

namespace iosim::net {

using sim::Time;

struct NetParams {
  /// Per-host NIC bandwidth, bytes/second (1 Gb/s ≈ 119 MiB/s; we use the
  /// usual 125 MB/s line rate and let protocol efficiency be part of it).
  double host_bw = 117.0e6;
  /// Same-host VM-to-VM path (shared memory / bridge), bytes/second.
  double loopback_bw = 800.0e6;
  /// Fixed latency added to every flow (connection setup + first byte).
  Time flow_latency = Time::from_ms(1);
};

using FlowId = std::uint64_t;

/// One fluid flow between two hosts (src == dst means loopback).
class FlowNetwork {
 public:
  FlowNetwork(sim::Simulator& simr, int n_hosts, NetParams params);

  /// Start a flow of `bytes` from host `src` to host `dst`; `on_done` fires
  /// when the last byte arrives. Flows that finish at the same instant fire
  /// in ascending FlowId order.
  FlowId start_flow(int src, int dst, std::int64_t bytes,
                    std::function<void(Time)> on_done);

  /// Number of flows currently in the system.
  std::size_t active_flows() const { return flows_.size(); }

  /// Total bytes delivered since construction.
  std::int64_t bytes_delivered() const { return bytes_delivered_; }

  /// Current max-min rate of an active flow in bytes/second; 0 for an id
  /// that is not active.
  double rate(FlowId id) const;

  const NetParams& params() const { return params_; }

 private:
  static constexpr std::uint32_t kNoLink = 0xffffffffu;

  struct Flow {
    FlowId id;
    std::uint32_t up;    // uplink, or the loopback link
    std::uint32_t down;  // downlink, or kNoLink for loopback
    double total = 0.0;  // payload bytes (for accounting)
    double remaining;    // bytes
    double rate = 0.0;   // bytes/sec, valid since last_update_
    std::function<void(Time)> on_done;
  };

  void advance(Time now);       // progress all flows to `now`
  void recompute_rates();       // max-min fair share
  void schedule_next_completion(Time now);

  sim::Simulator& simr_;
  int n_hosts_;
  NetParams params_;
  FlowId next_id_ = 1;
  /// Active flows in ascending id: start_flow appends, completion compacts
  /// in place.
  std::vector<Flow> flows_;
  Time last_update_;
  sim::EventId completion_ev_ = sim::kInvalidEvent;
  std::int64_t bytes_delivered_ = 0;

  /// Water-fill state of one link, kept across calls.
  struct Link {
    double cap;
    double used = 0.0;
    int unfixed = 0;          // flows on the link not fixed yet
    std::uint32_t first = 0;  // its flows are bucket_[first, first + count)
    std::uint32_t count = 0;
  };

  /// [0, n) uplinks, [n, 2n) downlinks, [2n, 3n) loopbacks; sized in the
  /// constructor.
  std::vector<Link> links_;
  /// Flow indices grouped by link, ascending within each link.
  std::vector<std::uint32_t> bucket_;
  /// Links that still carry unfixed flows, ascending.
  std::vector<std::uint32_t> busy_;
  std::vector<char> fixed_;  // per flow
  std::vector<std::function<void(Time)>> done_;  // completion callbacks
};

}  // namespace iosim::net
