// Property tests that every discipline must satisfy, run over all four
// kinds and several synthetic workload shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "iosched/pair.hpp"
#include "iosched/scheduler.hpp"
#include "sched_test_util.hpp"
#include "sim/random.hpp"

namespace iosim::iosched {
namespace {

using namespace iosim::sim::literals;
using test::RequestFactory;

struct Workload {
  const char* name;
  int n;
  int contexts;
  double write_frac;
  Lba span;
};

const Workload kWorkloads[] = {
    {"seq-reader", 100, 1, 0.0, 1 << 10},
    {"multi-stream", 200, 4, 0.0, 1 << 24},
    {"write-heavy", 200, 4, 0.9, 1 << 24},
    {"mixed", 300, 8, 0.5, 1 << 26},
    {"single-shot", 1, 1, 0.0, 1},
};

class SchedProperty
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, int>> {
 protected:
  SchedulerKind kind() const { return std::get<0>(GetParam()); }
  const Workload& wl() const { return kWorkloads[std::get<1>(GetParam())]; }
};

TEST_P(SchedProperty, EveryRequestDispatchedExactlyOnce) {
  auto s = make_scheduler(kind());
  RequestFactory f;
  sim::Rng rng(1234);
  std::vector<Request*> rqs;
  sim::Time now = 0_ms;
  for (int i = 0; i < wl().n; ++i) {
    const bool write = rng.uniform() < wl().write_frac;
    const Lba lba = static_cast<Lba>(rng.below(static_cast<std::uint64_t>(wl().span)));
    const auto ctx = rng.below(static_cast<std::uint64_t>(wl().contexts));
    Request* rq = write ? f.write(lba, ctx) : f.read(lba, ctx);
    rqs.push_back(rq);
    s->add(rq, now);
    now += sim::Time::from_us(200);
  }
  auto out = test::drain_dispatch(*s, now);
  EXPECT_EQ(out.size(), rqs.size());
  const std::set<Request*> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), out.size()) << "a request was dispatched twice";
  std::sort(out.begin(), out.end());
  std::sort(rqs.begin(), rqs.end());
  EXPECT_EQ(out, rqs);
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(s->size(), 0u);
}

TEST_P(SchedProperty, NullDispatchImpliesWakeupOrEmpty) {
  auto s = make_scheduler(kind());
  RequestFactory f;
  sim::Rng rng(99);
  sim::Time now = 0_ms;
  for (int i = 0; i < wl().n; ++i) {
    const bool write = rng.uniform() < wl().write_frac;
    const Lba lba = static_cast<Lba>(rng.below(static_cast<std::uint64_t>(wl().span)));
    const auto ctx = rng.below(static_cast<std::uint64_t>(wl().contexts));
    s->add(write ? f.write(lba, ctx) : f.read(lba, ctx), now);
    // The core liveness contract the BlockLayer depends on.
    int dispatched = 0;
    while (dispatched < 2) {  // pull a couple per add
      Request* rq = s->dispatch(now);
      if (rq == nullptr) {
        if (!s->empty()) {
          const auto w = s->wakeup(now);
          ASSERT_TRUE(w.has_value())
              << "non-empty scheduler idled without a wakeup time";
          ASSERT_GE(*w, now);
          now = *w;
          continue;
        }
        break;
      }
      now += sim::Time::from_us(500);
      s->on_complete(*rq, now);
      ++dispatched;
    }
  }
}

// An elevator switch drains the old elevator by dispatching it until it is
// empty (BlockLayer::maybe_finish_switch), then hands what queued up behind
// the switch to a fresh elevator of the same kind.
TEST_P(SchedProperty, DrainMatchesSizeAndEmpties) {
  auto s = make_scheduler(kind());
  RequestFactory f;
  sim::Rng rng(7);
  std::vector<Request*> before;
  std::vector<Request*> held;
  for (int i = 0; i < wl().n; ++i) {
    const bool write = rng.uniform() < wl().write_frac;
    const Lba lba = static_cast<Lba>(rng.below(static_cast<std::uint64_t>(wl().span)));
    Request* rq = write ? f.write(lba, 1) : f.read(lba, 1);
    if (i % 2 == 0) {
      before.push_back(rq);
      s->add(rq, 0_ms);
    } else {
      held.push_back(rq);
    }
  }
  const std::size_t size_before = s->size();
  auto drained = test::drain_dispatch(*s, 0_ms);
  EXPECT_EQ(drained.size(), size_before);
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(s->size(), 0u);
  EXPECT_EQ(s->dispatch(0_ms), nullptr);
  std::sort(drained.begin(), drained.end());
  std::sort(before.begin(), before.end());
  EXPECT_EQ(drained, before);
  auto s2 = make_scheduler(kind());
  for (Request* rq : held) s2->add(rq, 0_ms);
  EXPECT_EQ(test::drain_dispatch(*s2, 0_ms).size(), held.size());
  EXPECT_TRUE(s2->empty());
}

// A switch that lands mid-stream, with dispatch history (and any idling
// state it left) in place, still drains exactly what is queued.
TEST_P(SchedProperty, DispatchAfterPartialDrainIsClean) {
  auto s = make_scheduler(kind());
  RequestFactory f;
  std::vector<Request*> rqs;
  for (int i = 0; i < 10; ++i) {
    rqs.push_back(f.read(i * 100, 1));
    s->add(rqs.back(), 0_ms);
  }
  std::vector<Request*> out;
  for (int i = 0; i < 5; ++i) {
    Request* rq = s->dispatch(0_ms);
    ASSERT_NE(rq, nullptr);
    out.push_back(rq);
    s->on_complete(*rq, sim::Time::from_ms(i));
  }
  const auto drained = test::drain_dispatch(*s, sim::Time::from_ms(4));
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_TRUE(s->empty());
  out.insert(out.end(), drained.begin(), drained.end());
  std::sort(out.begin(), out.end());
  std::sort(rqs.begin(), rqs.end());
  EXPECT_EQ(out, rqs);
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<SchedulerKind, int>>& info) {
  return std::string(to_string(std::get<0>(info.param))) + "_" +
         kWorkloads[std::get<1>(info.param)].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllWorkloads, SchedProperty,
    ::testing::Combine(::testing::Values(SchedulerKind::kNoop, SchedulerKind::kDeadline,
                                         SchedulerKind::kAnticipatory, SchedulerKind::kCfq),
                       ::testing::Range(0, static_cast<int>(std::size(kWorkloads)))),
    [](const auto& pinfo) {
      std::string n = param_name(pinfo);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Factory, MakesEveryKind) {
  for (SchedulerKind k : kAllSchedulerKinds) {
    auto s = make_scheduler(k);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), k);
  }
}

TEST(Factory, NamesRoundTrip) {
  for (SchedulerKind k : kAllSchedulerKinds) {
    const auto parsed = scheduler_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(scheduler_from_string("AS"), SchedulerKind::kAnticipatory);
  EXPECT_EQ(scheduler_from_string("NOOP"), SchedulerKind::kNoop);
  EXPECT_FALSE(scheduler_from_string("bfq").has_value());
}

TEST(Pair, IndexRoundTrip) {
  for (int i = 0; i < kNumSchedulerPairs; ++i) {
    const SchedulerPair p = SchedulerPair::from_index(i);
    EXPECT_EQ(p.index(), i);
  }
}

TEST(Pair, AllPairsUnique) {
  const auto pairs = all_scheduler_pairs();
  std::set<int> idx;
  for (const auto& p : pairs) idx.insert(p.index());
  EXPECT_EQ(idx.size(), static_cast<std::size_t>(kNumSchedulerPairs));
}

TEST(Pair, StringFormats) {
  const SchedulerPair p{SchedulerKind::kAnticipatory, SchedulerKind::kDeadline};
  EXPECT_EQ(p.to_string(), "(anticipatory, deadline)");
  EXPECT_EQ(p.letters(), "ad");
  EXPECT_EQ(kDefaultPair.letters(), "cc");
}

}  // namespace
}  // namespace iosim::iosched
