#include "iosched/cfq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "sched_test_util.hpp"

namespace iosim::iosched {
namespace {

using namespace iosim::sim::literals;
using test::RequestFactory;

CfqTunables tun() { return CfqTunables{}; }

TEST(Cfq, SingleQueueLbaOrder) {
  CfqScheduler s(tun());
  RequestFactory f;
  Request* b = f.read(2000, 1);
  Request* a = f.read(1000, 1);
  s.add(b, 0_ms);
  s.add(a, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), a);
  EXPECT_EQ(s.dispatch(0_ms), b);
}

TEST(Cfq, PerContextSyncQueues) {
  CfqScheduler s(tun());
  RequestFactory f;
  s.add(f.read(1, 1), 0_ms);
  s.add(f.read(2, 2), 0_ms);
  s.add(f.read(3, 3), 0_ms);
  EXPECT_EQ(s.sync_queue_count(), 3u);
}

TEST(Cfq, AsyncSharedAcrossContexts) {
  CfqScheduler s(tun());
  RequestFactory f;
  s.add(f.write(1, 1), 0_ms);
  s.add(f.write(2, 2), 0_ms);
  EXPECT_EQ(s.sync_queue_count(), 0u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Cfq, ActiveQueueServedExclusivelyWithinSlice) {
  CfqScheduler s(tun());
  RequestFactory f;
  Request* a1 = f.read(1000, 1);
  Request* a2 = f.read(1008, 1);
  Request* b1 = f.read(500000, 2);
  s.add(a1, 0_ms);
  s.add(b1, 0_ms);
  s.add(a2, 0_ms);
  // ctx 1 was enqueued first: its queue is activated and both its requests
  // go out before ctx 2 gets a turn.
  EXPECT_EQ(s.dispatch(0_ms), a1);
  EXPECT_EQ(s.dispatch(1_ms), a2);
  // ctx 1's queue is now dry: CFQ holds its idle window open before it
  // yields the disk to ctx 2.
  EXPECT_EQ(s.dispatch(2_ms), nullptr);
  const auto w = s.wakeup(2_ms);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(s.dispatch(*w), b1);
}

TEST(Cfq, SliceExpiryRotatesQueues) {
  CfqTunables t;
  t.slice_sync = 10_ms;
  CfqScheduler s(t);
  RequestFactory f;
  Request* a1 = f.read(1000, 1);
  Request* a2 = f.read(1008, 1);
  Request* b1 = f.read(500000, 2);
  s.add(a1, 0_ms);
  s.add(b1, 0_ms);
  s.add(a2, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), a1);
  // Past the slice end, ctx 1 must yield even though it has work.
  EXPECT_EQ(s.dispatch(20_ms), b1);
  // ctx 2's queue is dry: ride out its idle window, then ctx 1 resumes.
  sim::Time now = 21_ms;
  Request* got = s.dispatch(now);
  if (got == nullptr) {
    const auto w = s.wakeup(now);
    ASSERT_TRUE(w.has_value());
    got = s.dispatch(*w);
  }
  EXPECT_EQ(got, a2);
}

TEST(Cfq, IdlesForEmptyActiveSyncQueue) {
  CfqScheduler s(tun());
  RequestFactory f;
  Request* a1 = f.read(1000, 1);
  s.add(a1, 0_ms);
  Request* b1 = f.read(500000, 2);
  s.add(b1, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), a1);
  s.on_complete(*a1, 1_ms);
  // ctx 1's queue is empty but its slice lives: CFQ idles briefly rather
  // than seeking to ctx 2.
  EXPECT_EQ(s.dispatch(1_ms), nullptr);
  const auto w = s.wakeup(1_ms);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 1_ms + tun().slice_idle);
  // The owner returns within the window: served immediately.
  Request* a2 = f.read(1008, 1);
  s.add(a2, 3_ms);
  EXPECT_EQ(s.dispatch(3_ms), a2);
}

TEST(Cfq, IdleWindowExpiryMovesOn) {
  CfqScheduler s(tun());
  RequestFactory f;
  Request* a1 = f.read(1000, 1);
  s.add(a1, 0_ms);
  Request* b1 = f.read(500000, 2);
  s.add(b1, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), a1);
  s.on_complete(*a1, 1_ms);
  EXPECT_EQ(s.dispatch(1_ms), nullptr);
  const sim::Time deadline = *s.wakeup(1_ms);
  EXPECT_EQ(s.dispatch(deadline), b1);
}

TEST(Cfq, ThinkyOwnerGetsNoIdle) {
  CfqTunables t;
  CfqScheduler s(t);
  RequestFactory f;
  sim::Time now = 0_ms;
  // Train both contexts' think times to be long (100 ms between requests);
  // a fresh context would legitimately get an optimistic idle window.
  for (int i = 0; i < 8; ++i) {
    Request* r = f.read(1000 + i * 8, 1 + static_cast<std::uint64_t>(i % 2));
    s.add(r, now);
    Request* got = s.dispatch(now);
    if (got == nullptr) {
      now = *s.wakeup(now);
      got = s.dispatch(now);
    }
    ASSERT_NE(got, nullptr);
    now += 1_ms;
    s.on_complete(*got, now);
    now += 100_ms;
  }
  // Now with ctx 2 waiting, an empty ctx-1 queue should NOT idle: both
  // requests must come out back-to-back with no idle window in between
  // (activation order between the two queues is unspecified).
  Request* r1 = f.read(2000, 1);
  s.add(r1, now);
  Request* b = f.read(500000, 2);
  s.add(b, now);
  int idles = 0;
  std::vector<Request*> got;
  while (got.size() < 2) {
    Request* rq = s.dispatch(now);
    if (rq == nullptr) {
      ++idles;
      const auto w = s.wakeup(now);
      ASSERT_TRUE(w.has_value());
      now = *w;
      continue;
    }
    got.push_back(rq);
    now += 1_ms;
    s.on_complete(*rq, now);
  }
  EXPECT_EQ(idles, 0) << "idled for a context whose think time exceeds the window";
}

TEST(Cfq, AsyncQuantumBoundsWriteRun) {
  CfqTunables t;
  t.async_quantum = 4;
  t.slice_async = 1_sec;  // quantum, not time, must bound the run
  CfqScheduler s(t);
  RequestFactory f;
  for (int i = 0; i < 10; ++i) s.add(f.write(i * 100, 1), 0_ms);
  Request* r = f.read(500000, 2);
  s.add(r, 0_ms);
  // Async queue activated first (enqueued first); after 4 writes the sync
  // queue must get its turn.
  int writes_before_read = 0;
  for (int i = 0; i < 11; ++i) {
    Request* got = s.dispatch(sim::Time::from_ms(i));
    ASSERT_NE(got, nullptr);
    if (got == r) break;
    ++writes_before_read;
  }
  EXPECT_EQ(writes_before_read, 4);
}

TEST(Cfq, FairnessAcrossContexts) {
  CfqTunables t;
  t.slice_sync = 5_ms;
  CfqScheduler s(t);
  RequestFactory f;
  // Two contexts with plenty of queued work: dispatch time should split
  // roughly evenly (each request "takes" 1 ms in the drain helper).
  std::map<std::uint64_t, int> served;
  for (int i = 0; i < 40; ++i) {
    s.add(f.read(1000 + i * 8, 1), 0_ms);
    s.add(f.read(900000 + i * 8, 2), 0_ms);
  }
  sim::Time now = 0_ms;
  for (int i = 0; i < 40; ++i) {
    Request* rq = s.dispatch(now);
    ASSERT_NE(rq, nullptr);
    ++served[rq->ctx];
    now += 1_ms;
    s.on_complete(*rq, now);
  }
  EXPECT_NEAR(served[1], served[2], 6);
}

TEST(Cfq, AllRequestsEventuallyDispatched) {
  CfqScheduler s(tun());
  RequestFactory f;
  std::vector<Request*> rqs;
  for (int i = 0; i < 120; ++i) {
    rqs.push_back(i % 3 == 0 ? f.write(i * 101 % 6000, static_cast<std::uint64_t>(i % 5))
                             : f.read(i * 67 % 6000, static_cast<std::uint64_t>(i % 5)));
    s.add(rqs.back(), sim::Time::from_ms(i / 2));
  }
  auto out = test::drain_dispatch(s, 100_ms);
  EXPECT_EQ(out.size(), rqs.size());
  std::sort(out.begin(), out.end());
  std::sort(rqs.begin(), rqs.end());
  EXPECT_EQ(out, rqs);
}

TEST(Cfq, KindIsCfq) {
  CfqScheduler s(tun());
  EXPECT_EQ(s.kind(), SchedulerKind::kCfq);
}

}  // namespace
}  // namespace iosim::iosched
