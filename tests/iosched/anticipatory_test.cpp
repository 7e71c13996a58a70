#include "iosched/anticipatory.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sched_test_util.hpp"

namespace iosim::iosched {
namespace {

using namespace iosim::sim::literals;
using test::RequestFactory;

AnticipatoryTunables tun() { return AnticipatoryTunables{}; }

TEST(Anticipatory, BasicElevatorOrder) {
  AnticipatoryScheduler s(tun());
  RequestFactory f;
  Request* b = f.read(2000);
  Request* a = f.read(1000);
  s.add(b, 0_ms);
  s.add(a, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), a);
  EXPECT_EQ(s.dispatch(0_ms), b);
}

TEST(Anticipatory, AnticipatesAfterSyncReadWhenCandidateIsForeign) {
  AnticipatoryScheduler s(tun());
  RequestFactory f;
  // ctx 1 reads at low LBAs; ctx 2 far away.
  Request* r1 = f.read(1000, 1);
  s.add(r1, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), r1);
  s.on_complete(*r1, 1_ms);  // arms anticipation for ctx 1

  Request* foreign = f.read(900000, 2);
  s.add(foreign, 1_ms);
  // Dispatch should idle instead of seeking away.
  EXPECT_EQ(s.dispatch(1_ms), nullptr);
  EXPECT_TRUE(s.anticipating());
  const auto w = s.wakeup(1_ms);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 1_ms + tun().antic_expire);
}

TEST(Anticipatory, AnticipationHitServesReturningContext) {
  AnticipatoryScheduler s(tun());
  RequestFactory f;
  Request* r1 = f.read(1000, 1);
  s.add(r1, 0_ms);
  (void)s.dispatch(0_ms);
  s.on_complete(*r1, 1_ms);
  s.add(f.read(900000, 2), 1_ms);
  EXPECT_EQ(s.dispatch(1_ms), nullptr);  // anticipating
  Request* r2 = f.read(1008, 1);         // ctx 1 comes back nearby
  s.add(r2, 3_ms);
  EXPECT_EQ(s.dispatch(3_ms), r2);
  EXPECT_FALSE(s.anticipating());
}

TEST(Anticipatory, AnticipationTimeoutFallsThrough) {
  AnticipatoryScheduler s(tun());
  RequestFactory f;
  Request* r1 = f.read(1000, 1);
  s.add(r1, 0_ms);
  (void)s.dispatch(0_ms);
  s.on_complete(*r1, 1_ms);
  Request* foreign = f.read(900000, 2);
  s.add(foreign, 1_ms);
  EXPECT_EQ(s.dispatch(1_ms), nullptr);
  const sim::Time deadline = *s.wakeup(1_ms);
  EXPECT_EQ(s.dispatch(deadline), foreign);  // timed out: serve the other ctx
}

TEST(Anticipatory, CloseCandidateDispatchedWithoutWaiting) {
  AnticipatoryScheduler s(tun());
  RequestFactory f;
  Request* r1 = f.read(1000, 1);
  s.add(r1, 0_ms);
  (void)s.dispatch(0_ms);
  s.on_complete(*r1, 1_ms);
  // Foreign but within the close window of the head (1008).
  Request* near_foreign = f.read(1100, 2);
  s.add(near_foreign, 1_ms);
  EXPECT_EQ(s.dispatch(1_ms), near_foreign);
  EXPECT_FALSE(s.anticipating());
}

TEST(Anticipatory, ThinkyContextStopsBeingAnticipated) {
  AnticipatoryTunables t;
  AnticipatoryScheduler s(t);
  RequestFactory f;
  sim::Time now = 0_ms;
  // ctx 1 repeatedly takes far longer than the window to come back; after a
  // few rounds the scheduler should stop waiting for it.
  bool anticipated_last_round = true;
  for (int round = 0; round < 6; ++round) {
    Request* r = f.read(1000 + round * 8, 1);
    s.add(r, now);
    Request* got = s.dispatch(now);
    if (got == nullptr) {
      now = *s.wakeup(now);
      got = s.dispatch(now);
    }
    ASSERT_NE(got, nullptr);
    now += 1_ms;
    s.on_complete(*got, now);
    // Foreign candidate appears; does AS wait?
    Request* foreign = f.read(900000 + round * 8, 2);
    s.add(foreign, now);
    Request* next = s.dispatch(now);
    anticipated_last_round = (next == nullptr);
    if (next == nullptr) {
      now = *s.wakeup(now);       // wait out the window
      next = s.dispatch(now);     // then the foreign one is served
    }
    ASSERT_EQ(next, foreign);
    now += 1_ms;
    s.on_complete(*next, now);
    now += 100_ms;  // ctx 1 "thinks" for 100 ms every time
  }
  EXPECT_FALSE(anticipated_last_round);
}

TEST(Anticipatory, WritesDoNotArmAnticipation) {
  AnticipatoryScheduler s(tun());
  RequestFactory f;
  Request* w = f.write(1000, 1);
  s.add(w, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), w);
  s.on_complete(*w, 1_ms);
  Request* foreign = f.read(900000, 2);
  s.add(foreign, 1_ms);
  EXPECT_EQ(s.dispatch(1_ms), foreign);  // no wait after a write
}

TEST(Anticipatory, ExpiredReadJumpsToFifoHead) {
  AnticipatoryTunables t;
  t.read_expire = 10_ms;
  AnticipatoryScheduler s(t);
  RequestFactory f;
  Request* old_far = f.read(900000, 1);
  s.add(old_far, 0_ms);
  Request* fresh_near = f.read(10, 1);
  s.add(fresh_near, 50_ms);
  EXPECT_EQ(s.dispatch(50_ms), old_far);
}

TEST(Anticipatory, WriteBatchRunsWhenNoReads) {
  AnticipatoryScheduler s(tun());
  RequestFactory f;
  for (int i = 0; i < 5; ++i) s.add(f.write(i * 1000, 1), 0_ms);
  const auto out = test::drain_dispatch(s, 0_ms);
  EXPECT_EQ(out.size(), 5u);
}

TEST(Anticipatory, AllRequestsEventuallyDispatched) {
  AnticipatoryScheduler s(tun());
  RequestFactory f;
  std::vector<Request*> rqs;
  for (int i = 0; i < 150; ++i) {
    rqs.push_back(i % 4 == 0 ? f.write(i * 131 % 7000, static_cast<std::uint64_t>(i % 3))
                             : f.read(i * 71 % 7000, static_cast<std::uint64_t>(i % 3)));
    s.add(rqs.back(), sim::Time::from_ms(i / 3));
  }
  auto out = test::drain_dispatch(s, 100_ms);
  EXPECT_EQ(out.size(), rqs.size());
  std::sort(out.begin(), out.end());
  std::sort(rqs.begin(), rqs.end());
  EXPECT_EQ(out, rqs);
}

TEST(Anticipatory, KindIsAnticipatory) {
  AnticipatoryScheduler s(tun());
  EXPECT_EQ(s.kind(), SchedulerKind::kAnticipatory);
}

}  // namespace
}  // namespace iosim::iosched
