#include "iosched/noop.hpp"

#include <gtest/gtest.h>

#include "sched_test_util.hpp"

namespace iosim::iosched {
namespace {

using namespace iosim::sim::literals;
using test::RequestFactory;

TEST(Noop, EmptyInitially) {
  NoopScheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.dispatch(0_ms), nullptr);
}

TEST(Noop, FifoOrderRegardlessOfLba) {
  NoopScheduler s;
  RequestFactory f;
  Request* a = f.read(900);
  Request* b = f.read(100);
  Request* c = f.write(500);
  s.add(a, 0_ms);
  s.add(b, 0_ms);
  s.add(c, 0_ms);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dispatch(1_ms), a);
  EXPECT_EQ(s.dispatch(1_ms), b);
  EXPECT_EQ(s.dispatch(1_ms), c);
  EXPECT_TRUE(s.empty());
}

TEST(Noop, NeverIdles) {
  NoopScheduler s;
  RequestFactory f;
  s.add(f.read(1), 0_ms);
  EXPECT_EQ(s.wakeup(0_ms), std::nullopt);
}

TEST(Noop, KindIsNoop) {
  NoopScheduler s;
  EXPECT_EQ(s.kind(), SchedulerKind::kNoop);
}

TEST(Noop, InterleavesContextsInArrivalOrder) {
  NoopScheduler s;
  RequestFactory f;
  // Two "VMs" interleaving — noop preserves the thrash-inducing order.
  std::vector<Request*> rqs;
  for (int i = 0; i < 10; ++i) {
    rqs.push_back(f.read(i % 2 == 0 ? 1000 + i : 900000 + i,
                         static_cast<std::uint64_t>(i % 2)));
    s.add(rqs.back(), 0_ms);
  }
  const auto out = test::drain_dispatch(s, 0_ms);
  EXPECT_EQ(out, rqs);
}

}  // namespace
}  // namespace iosim::iosched
