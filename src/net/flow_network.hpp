// iosim: fluid flow network with max-min fair sharing.
//
// Models the paper's 1 GbE cluster fabric: every physical host has an uplink
// and a downlink of `host_bw` through a non-blocking switch; VM-to-VM
// traffic inside one host goes over a fast loopback path instead. Active
// flows receive their max-min fair share, re-leveled by water-filling on
// every arrival and departure, and flow completions are simulated exactly
// from the resulting piecewise-constant rates.
//
// A re-level touches only the connected components of the flow-link graph
// that contain a link of a flow just started or finished; every other
// component keeps the rates it has, which are the rates a full re-level
// would give it (DESIGN.md §8.5). The water-fill allocates nothing in steady
// state: flows live in stable slots, each link keeps the slots of its flows
// in ascending id, and the scratch lists are sized in the constructor or
// grow to their peak and stay there.
// Rates are bit-identical to the textbook all-links, all-flows loop, which
// tests/net/water_fill_oracle.* keeps as the reference.
//
// This is the substrate for HDFS remote reads, shuffle fetches, and output
// replication in the MapReduce model.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
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

/// Completion callback of a flow (argument: the arrival time of its last
/// byte). Inline up to 48 bytes of capture, like sim::EventFn: a shuffle
/// fetch's callback (task pointer, byte count, map output) costs no
/// allocation.
using FlowDoneFn = sim::SmallFn<void(Time)>;

/// One fluid flow between two hosts (src == dst means loopback).
class FlowNetwork {
 public:
  FlowNetwork(sim::Simulator& simr, int n_hosts, NetParams params);

  /// Start a flow of `bytes` from host `src` to host `dst`; `on_done` fires
  /// when the last byte arrives. Flows that finish at the same instant fire
  /// in ascending FlowId order.
  FlowId start_flow(int src, int dst, std::int64_t bytes, FlowDoneFn on_done);

  /// Number of flows currently in the system.
  std::size_t active_flows() const { return order_.size(); }

  /// Total bytes delivered since construction.
  std::int64_t bytes_delivered() const { return bytes_delivered_; }

  /// Current max-min rate of an active flow in bytes/second; 0 for an id
  /// that is not active.
  double rate(FlowId id) const;

  const NetParams& params() const { return params_; }

  /// Deterministic work counts since construction: the same on every
  /// machine, so a test can pin them exactly.
  struct Work {
    std::uint64_t relevels = 0;          // re-levels: one per start or completion
    std::uint64_t flows_relevelled = 0;  // flows in the re-leveled components
    std::uint64_t rounds = 0;            // bottleneck rounds
    std::uint64_t link_visits = 0;       // links examined by bottleneck searches
  };
  const Work& work() const { return work_; }

 private:
  static constexpr std::uint32_t kNoLink = 0xffffffffu;

  struct Flow {
    FlowId id = 0;
    double total = 0.0;      // payload bytes (for accounting)
    double remaining = 0.0;  // bytes
    double rate = 0.0;       // bytes/sec, valid since last_update_
    FlowDoneFn on_done;
  };

  /// The links of the flow in the same slot and its fixed stamp, apart
  /// from Flow so a bottleneck round reads only these.
  struct Ends {
    std::uint32_t up = kNoLink;    // uplink, or the loopback link
    std::uint32_t down = kNoLink;  // downlink, or kNoLink for loopback
    std::uint64_t fixed_at = 0;    // == stamp_: rate fixed in this re-level
  };

  void advance(Time now);       // progress all flows to `now`
  void recompute_rates();       // max-min fair share around seeds_
  // Add the flow in `slot` to link l (`other` is its other link, or
  // kNoLink), or remove it; either way l becomes a seed.
  void link(std::uint32_t slot, std::uint32_t l, std::uint32_t other);
  void unlink(std::uint32_t slot, std::uint32_t l);
  void schedule_next_completion(Time now);
  std::uint32_t first_loopback() const { return static_cast<std::uint32_t>(2 * n_hosts_); }

  sim::Simulator& simr_;
  int n_hosts_;
  NetParams params_;
  FlowId next_id_ = 1;
  /// Flow storage; a slot is reused once its flow has finished.
  std::vector<Flow> slots_;
  std::vector<Ends> ends_;  // per slot
  std::vector<std::uint32_t> free_slots_;
  /// Slots of the active flows in ascending id: start_flow appends,
  /// completion compacts in place.
  std::vector<std::uint32_t> order_;
  Time last_update_;
  sim::EventId completion_ev_ = sim::kInvalidEvent;
  std::int64_t bytes_delivered_ = 0;

  /// A flow on a link, with the flow's other link (kNoLink for loopback).
  struct Member {
    std::uint32_t slot;
    std::uint32_t other;
  };

  /// Water-fill state of one link, kept across calls.
  struct Link {
    double cap = 0.0;
    double used = 0.0;
    int unfixed = 0;          // flows on the link not fixed yet
    std::uint32_t open = 0;   // its entry in open_, while it has one
    std::uint64_t mark = 0;   // == stamp_: in a component being re-leveled
    std::vector<Member> flows;  // its flows, ascending id
  };

  /// A link of the components being re-leveled that still carries unfixed
  /// flows, with its share (cap - used) / unfixed.
  struct Open {
    double share;
    std::uint32_t link;
  };

  /// [0, n) uplinks, [n, 2n) downlinks, [2n, 3n) loopbacks; sized in the
  /// constructor.
  std::vector<Link> links_;
  std::size_t busy_host_links_ = 0;  // up- and downlinks that carry a flow
  std::size_t host_link_flows_ = 0;  // their flow lists' total length
  /// Links of the flows started or finished since the last re-level.
  std::vector<std::uint32_t> seeds_;
  /// The re-leveled components' links: the walk's queue, then the open
  /// links in no particular order. Sized 3n + 1 in the constructor.
  std::vector<Open> open_;
  std::uint64_t stamp_ = 0;  // one per re-level
  std::vector<FlowDoneFn> done_;  // completion callbacks
  Work work_;
};

}  // namespace iosim::net
