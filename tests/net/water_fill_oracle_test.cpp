// Differential test: net::FlowNetwork against the verbatim pre-rewrite
// water-fill (water_fill_oracle.hpp). Each seed draws a random flow set —
// 1-128 hosts, 0-600 scripted flows, about 10 % loopback, hot-spot
// destinations so many links tie for the bottleneck, and a few equal sizes
// started at equal instants so flows finish together — and runs it through
// both networks, each on its own simulator, one event at a time in
// lockstep. One large set puts 2 000 flows on 128 hosts at once, and a
// scripted set merges two components with a bridging flow and splits them
// again when it finishes. After every event (a scripted start or a
// completion) every active flow's rate must be bit-identical in the two
// networks; the runs must fire the same completions, in the same order, at
// the same nanosecond. Some completions start a follow-up flow from their callback,
// as shuffle fetches do.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/flow_network.hpp"
#include "water_fill_oracle.hpp"

namespace iosim::net {
namespace {

using sim::Time;

std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ScriptedFlow {
  Time at;
  int src;
  int dst;
  std::int64_t bytes;
};

struct FlowSet {
  int hosts = 1;
  NetParams params;
  std::vector<ScriptedFlow> flows;
  /// Every flow whose id is a multiple of this starts a follow-up flow from
  /// its completion callback; 0 for none.
  FlowId follow_up_every = 7;
};

/// A random flow set. A `large` one has 2 000 flows on 128 hosts, all
/// started within 20 ms and 96 % of them aimed at the two hot spots, so
/// they are all active at once while the oracle's all-flows rounds stay
/// affordable.
FlowSet draw_flow_set(std::uint64_t seed, bool large = false) {
  std::uint64_t rng = seed;
  FlowSet fs;
  fs.hosts = large ? 128 : 1 + static_cast<int>(mix(rng) % 128);
  if (mix(rng) % 2 == 0) fs.params.flow_latency = Time::zero();
  const int n = large ? 2'000 : static_cast<int>(mix(rng) % 601);
  // Every 32nd set starts its flows within 20 ms, so hundreds of them
  // overlap even on 128 hosts; the rest spread over 2 s.
  const std::int64_t spacing_us = large || seed % 32 == 0 ? 500 : 50'000;
  const int hot[2] = {static_cast<int>(mix(rng) % static_cast<std::uint64_t>(fs.hosts)),
                      static_cast<int>(mix(rng) % static_cast<std::uint64_t>(fs.hosts))};
  const auto host = [&] {
    return static_cast<int>(mix(rng) % static_cast<std::uint64_t>(fs.hosts));
  };
  for (int i = 0; i < n; ++i) {
    ScriptedFlow f;
    // 40 start instants: bursts of flows start together.
    f.at = Time::from_us(spacing_us * static_cast<std::int64_t>(mix(rng) % 40));
    f.src = host();
    const std::uint64_t kind = mix(rng) % (large ? 50 : 10);
    if (kind == 0 || fs.hosts == 1) {
      f.dst = f.src;  // loopback
    } else if (kind < 3 || (large && kind > 3)) {
      f.dst = hot[kind % 2];  // hot spot
      if (f.dst == f.src) f.dst = (f.src + 1) % fs.hosts;
    } else {
      f.dst = (f.src + 1 + static_cast<int>(mix(rng) % static_cast<std::uint64_t>(
                                                fs.hosts - 1))) %
              fs.hosts;
    }
    // Half the flows share one of three sizes, so equal-rate flows started
    // together finish together.
    static constexpr std::int64_t kEqual[] = {250'000, 1'000'000, 4'000'000};
    f.bytes = mix(rng) % 2 == 0 ? kEqual[mix(rng) % 3]
                                : 1 + static_cast<std::int64_t>(mix(rng) % 8'000'000);
    fs.flows.push_back(f);
  }
  return fs;
}

/// One network on its own simulator, plus the record of what it did. Every
/// completion logs (id, ns) and, for every seventh id, starts a follow-up
/// flow in the reverse direction from its callback, as a reducer's next
/// fetch would.
template <class Net>
class Side {
 public:
  Side(int hosts, NetParams p, FlowId follow_up_every)
      : net_(simr_, hosts, p), follow_up_every_(follow_up_every) {}

  sim::Simulator& simr() { return simr_; }
  const Net& net() const { return net_; }
  const std::vector<std::pair<FlowId, std::int64_t>>& finished() const { return finished_; }
  const std::vector<FlowId>& live() const { return live_; }

  void start(int src, int dst, std::int64_t bytes) {
    // Ids are issued 1, 2, 3, ... so the callback can know its own.
    const FlowId want = ++issued_;
    const FlowId id = net_.start_flow(src, dst, bytes, [this, want, src, dst, bytes](Time t) {
      finished_.emplace_back(want, t.ns());
      std::erase(live_, want);
      if (follow_up_every_ != 0 && want % follow_up_every_ == 0) {
        start(dst, src, bytes / 2 + 1);
      }
    });
    EXPECT_EQ(id, want);
    live_.push_back(id);
  }

 private:
  sim::Simulator simr_;
  Net net_;
  FlowId follow_up_every_;
  FlowId issued_ = 0;
  std::vector<std::pair<FlowId, std::int64_t>> finished_;
  std::vector<FlowId> live_;
};

struct LockstepCount {
  std::uint64_t events = 0;       // events compared
  std::uint64_t same_instant = 0;  // completions sharing their predecessor's ns
  std::size_t peak_active = 0;     // most flows active at once
};

/// Runs one flow set through both networks in lockstep; `seed` labels the
/// failure messages. The counts let the caller see that the set exercised
/// something.
LockstepCount run_lockstep(const FlowSet& fs, std::uint64_t seed) {
  Side<FlowNetwork> prod(fs.hosts, fs.params, fs.follow_up_every);
  Side<oracle::WaterFillOracle> ref(fs.hosts, fs.params, fs.follow_up_every);
  for (const ScriptedFlow& f : fs.flows) {
    prod.simr().at(f.at, [&prod, f] { prod.start(f.src, f.dst, f.bytes); });
    ref.simr().at(f.at, [&ref, f] { ref.start(f.src, f.dst, f.bytes); });
  }
  std::uint64_t steps = 0;
  std::size_t peak_active = 0;
  for (;;) {
    const bool more = prod.simr().step();
    EXPECT_EQ(more, ref.simr().step()) << "seed " << seed << " step " << steps;
    if (!more) break;
    ++steps;
    EXPECT_EQ(prod.simr().now(), ref.simr().now()) << "seed " << seed << " step " << steps;
    EXPECT_EQ(prod.live(), ref.live()) << "seed " << seed << " step " << steps;
    EXPECT_EQ(prod.net().active_flows(), ref.net().active_flows()) << "seed " << seed;
    peak_active = std::max(peak_active, prod.net().active_flows());
    EXPECT_EQ(prod.net().bytes_delivered(), ref.net().bytes_delivered()) << "seed " << seed;
    for (const FlowId id : ref.live()) {
      const auto got = std::bit_cast<std::uint64_t>(prod.net().rate(id));
      const auto want = std::bit_cast<std::uint64_t>(ref.net().rate(id));
      if (got != want) {
        ADD_FAILURE() << "seed " << seed << " step " << steps << " flow " << id
                      << ": rate " << prod.net().rate(id) << " vs oracle "
                      << ref.net().rate(id);
        return {steps, 0, peak_active};
      }
    }
    if (testing::Test::HasFailure()) return {steps, 0, peak_active};
  }
  EXPECT_EQ(prod.finished(), ref.finished()) << "seed " << seed;
  EXPECT_EQ(prod.net().active_flows(), 0u) << "seed " << seed;
  LockstepCount count{steps, 0, peak_active};
  for (std::size_t i = 1; i < ref.finished().size(); ++i) {
    if (ref.finished()[i].second == ref.finished()[i - 1].second) ++count.same_instant;
  }
  return count;
}

// 1 024 seeds in eight shards, so ctest can spread them over its workers.
constexpr std::uint64_t kShards = 8;
constexpr std::uint64_t kSeedsPerShard = 128;

class WaterFillDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(WaterFillDifferential, RatesAndCompletionsMatchBitForBit) {
  LockstepCount total;
  for (std::uint64_t i = 0; i < kSeedsPerShard; ++i) {
    const std::uint64_t seed = GetParam() * kSeedsPerShard + i;
    const LockstepCount c = run_lockstep(draw_flow_set(seed), seed);
    if (HasFailure()) return;
    total.events += c.events;
    total.same_instant += c.same_instant;
  }
  EXPECT_GT(total.events, kSeedsPerShard * 100);
  EXPECT_GT(total.same_instant, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterFillDifferential, testing::Range<std::uint64_t>(0, kShards));

TEST(WaterFillDifferentialLarge, TwoThousandActiveFlowsOn128Hosts) {
  const LockstepCount c = run_lockstep(draw_flow_set(1, /*large=*/true), 1);
  EXPECT_GE(c.peak_active, 1'900u);
  EXPECT_GT(c.same_instant, 0u);
}

// Two disjoint components on hosts 0-2 and 4-6, mirror images of each
// other, and a loopback flow on host 7 that outlives everything. A short
// flow in each mirror finishes at one instant (one completion, two
// components); a bridging flow 0 -> 5 then merges the two components, and
// its completion splits them again; twin flows in each half finish
// together. Rates must match the oracle after every event.
TEST(WaterFillDifferentialScripted, BridgeMergesAndSplitsComponents) {
  FlowSet fs;
  fs.hosts = 8;
  fs.follow_up_every = 0;
  const Time t0 = Time::zero();
  for (const int base : {0, 4}) {
    fs.flows.push_back({t0, base, base + 1, 100'000});     // the short flow
    fs.flows.push_back({t0, base, base + 1, 4'000'000});   // twins
    fs.flows.push_back({t0, base, base + 1, 4'000'000});
    fs.flows.push_back({t0, base + 2, base + 1, 1'000'000});
  }
  fs.flows.push_back({t0, 7, 7, 200'000'000});              // loopback
  fs.flows.push_back({Time::from_ms(10), 0, 5, 500'000});   // the bridge
  const LockstepCount c = run_lockstep(fs, 0);
  EXPECT_EQ(c.peak_active, 9u);
  EXPECT_GE(c.same_instant, 3u);  // the short pair, and each pair of twins
}

}  // namespace
}  // namespace iosim::net
