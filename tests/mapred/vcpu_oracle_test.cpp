// Differential oracle for mapred::VCpu: the production vCPU (bursts in a
// flat vector, inline callbacks, a reused completion list) against the
// id-keyed map version it replaced (legacy_vcpu.hpp). Random scripts of
// bursts — zero-cost ones, ties at one instant, costs from a nanosecond to
// tens of milliseconds, and follow-up bursts submitted from inside
// completion callbacks — must complete the same bursts in the same order at
// the same nanosecond, and leave the same consumed CPU time.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "legacy_vcpu.hpp"
#include "mapred/vcpu.hpp"
#include "sim/random.hpp"

namespace iosim::mapred {
namespace {

struct Completion {
  int burst;
  std::int64_t ns;
  bool operator==(const Completion&) const = default;
};

struct Outcome {
  std::vector<Completion> completions;
  std::int64_t consumed_ns = 0;
  std::size_t active_at_end = 0;
};

/// A cost from a mix that makes ties and sub-epsilon bursts common.
sim::Time draw_cost(sim::Rng& rng) {
  switch (rng.below(6)) {
    case 0: return sim::Time::zero();
    case 1: return sim::Time::from_ns(rng.range(1, 3));
    case 2: return sim::Time::from_ms(rng.range(1, 3));
    case 3: return sim::Time::from_us(rng.range(1, 500));
    default: return sim::Time::from_ns(rng.range(1, 40'000'000));
  }
}

template <class Cpu>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed), cpu_(simr_) {}

  Outcome run() {
    const int arrivals = static_cast<int>(rng_.range(1, 60));
    for (int i = 0; i < arrivals; ++i) {
      // Half the arrivals share one of a few instants.
      const sim::Time at = rng_.chance(0.5)
                               ? sim::Time::from_ms(rng_.range(0, 4))
                               : sim::Time::from_ns(rng_.range(0, 50'000'000));
      const sim::Time cost = draw_cost(rng_);
      simr_.at(at, [this, cost] { submit(cost); });
    }
    simr_.run();
    return {out_.completions, cpu_.consumed().ns(), cpu_.active()};
  }

 private:
  void submit(sim::Time cost) {
    const int id = next_id_++;
    cpu_.run(cost, [this, id] { finished(id); });
  }

  void finished(int id) {
    out_.completions.push_back({id, simr_.now().ns()});
    // run() from inside a completion: sometimes one follow-up, sometimes two.
    if (next_id_ < kMaxBursts && rng_.chance(0.35)) {
      submit(draw_cost(rng_));
      if (rng_.chance(0.3)) submit(draw_cost(rng_));
    }
  }

  static constexpr int kMaxBursts = 400;

  sim::Simulator simr_;
  sim::Rng rng_;
  Cpu cpu_;
  int next_id_ = 0;
  Outcome out_;
};

TEST(VCpuOracle, MatchesMapVCpuOnRandomScripts) {
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Outcome fresh = Script<VCpu>(seed).run();
    const Outcome legacy = Script<legacy::VCpu>(seed).run();
    ASSERT_EQ(fresh.completions.size(), legacy.completions.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fresh.completions.size(); ++i) {
      ASSERT_EQ(fresh.completions[i], legacy.completions[i])
          << "seed " << seed << ", completion " << i;
    }
    EXPECT_EQ(fresh.consumed_ns, legacy.consumed_ns) << "seed " << seed;
    EXPECT_EQ(fresh.active_at_end, 0u);
    EXPECT_EQ(legacy.active_at_end, 0u);
    total += fresh.completions.size();
  }
  // The scripts are not vacuous: thousands of bursts, follow-ups included.
  EXPECT_GT(total, 5'000u);
}

}  // namespace
}  // namespace iosim::mapred
