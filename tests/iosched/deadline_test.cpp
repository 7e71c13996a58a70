#include "iosched/deadline.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sched_test_util.hpp"

namespace iosim::iosched {
namespace {

using namespace iosim::sim::literals;
using test::RequestFactory;

DeadlineScheduler make(DeadlineTunables t = {}) { return DeadlineScheduler(t); }

TEST(Deadline, DispatchesInLbaOrderWithinBatch) {
  auto s = make();
  RequestFactory f;
  Request* c = f.read(3000);
  Request* a = f.read(1000);
  Request* b = f.read(2000);
  s.add(c, 0_ms);
  s.add(a, 0_ms);
  s.add(b, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), a);
  EXPECT_EQ(s.dispatch(0_ms), b);
  EXPECT_EQ(s.dispatch(0_ms), c);
}

TEST(Deadline, PrefersReadsOverWrites) {
  auto s = make();
  RequestFactory f;
  Request* w = f.write(100);
  Request* r = f.read(200);
  s.add(w, 0_ms);
  s.add(r, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), r);
}

TEST(Deadline, WritesNotStarvedForever) {
  DeadlineTunables t;
  t.fifo_batch = 2;
  t.writes_starved = 2;
  auto s = make(t);
  RequestFactory f;
  // Keep a write pending while feeding reads; after `writes_starved` read
  // batches the write must be serviced.
  Request* w = f.write(1);
  s.add(w, 0_ms);
  std::vector<Request*> dispatched;
  int write_pos = -1;
  for (int i = 0; i < 20; ++i) {
    s.add(f.read(1000 + i * 10), 0_ms);
  }
  for (int i = 0; i < 21; ++i) {
    Request* rq = s.dispatch(0_ms);
    ASSERT_NE(rq, nullptr);
    if (rq == w) {
      write_pos = i;
      break;
    }
  }
  ASSERT_GE(write_pos, 0) << "write was starved";
  // 2 read batches of 2 may precede it.
  EXPECT_LE(write_pos, 2 * t.fifo_batch + 1);
}

TEST(Deadline, ExpiredReadJumpsToFifoHead) {
  DeadlineTunables t;
  t.read_expire = 10_ms;
  t.fifo_batch = 1;  // re-examine deadlines every dispatch
  auto s = make(t);
  RequestFactory f;
  Request* old_far = f.read(900000);
  s.add(old_far, 0_ms);
  Request* fresh_near = f.read(10);
  s.add(fresh_near, 50_ms);  // far younger
  // At t=50ms the old request is expired: it must be served first even
  // though the elevator would prefer the low-LBA one.
  EXPECT_EQ(s.dispatch(50_ms), old_far);
  EXPECT_EQ(s.dispatch(50_ms), fresh_near);
}

TEST(Deadline, NoExpiryKeepsElevatorOrder) {
  DeadlineTunables t;
  t.fifo_batch = 1;
  auto s = make(t);
  RequestFactory f;
  Request* far = f.read(900000);
  Request* near = f.read(10);
  s.add(far, 0_ms);
  s.add(near, 1_ms);
  // Nothing expired at t=2ms: scan from position 0 picks the near one.
  EXPECT_EQ(s.dispatch(2_ms), near);
}

TEST(Deadline, BatchContinuesPastNewArrivals) {
  auto s = make();
  RequestFactory f;
  s.add(f.read(1000), 0_ms);
  Request* first = s.dispatch(0_ms);
  EXPECT_EQ(first->lba, 1000);
  // A request behind the scan position queues; one ahead continues batch.
  Request* behind = f.read(500);
  Request* ahead = f.read(1500);
  s.add(behind, 0_ms);
  s.add(ahead, 0_ms);
  EXPECT_EQ(s.dispatch(0_ms), ahead);  // one-way scan
  EXPECT_EQ(s.dispatch(0_ms), behind); // wraps after the end
}

TEST(Deadline, NeverIdles) {
  auto s = make();
  RequestFactory f;
  s.add(f.read(1), 0_ms);
  EXPECT_EQ(s.wakeup(0_ms), std::nullopt);
}

TEST(Deadline, SizeTracksAddAndDispatch) {
  auto s = make();
  RequestFactory f;
  s.add(f.read(1), 0_ms);
  s.add(f.write(2), 0_ms);
  EXPECT_EQ(s.size(), 2u);
  (void)s.dispatch(0_ms);
  EXPECT_EQ(s.size(), 1u);
  (void)s.dispatch(0_ms);
  EXPECT_TRUE(s.empty());
}

TEST(Deadline, AllRequestsEventuallyDispatched) {
  auto s = make();
  RequestFactory f;
  std::vector<Request*> rqs;
  for (int i = 0; i < 200; ++i) {
    rqs.push_back(i % 3 == 0 ? f.write(i * 37 % 5000, static_cast<std::uint64_t>(i % 4))
                             : f.read(i * 53 % 9000, static_cast<std::uint64_t>(i % 4)));
    s.add(rqs.back(), sim::Time::from_ms(i));
  }
  auto out = test::drain_dispatch(s, 200_ms);
  EXPECT_EQ(out.size(), rqs.size());
  std::sort(out.begin(), out.end());
  std::sort(rqs.begin(), rqs.end());
  EXPECT_EQ(out, rqs);
}

TEST(Deadline, WriteOnlyWorkloadServed) {
  auto s = make();
  RequestFactory f;
  for (int i = 0; i < 10; ++i) s.add(f.write(i * 1000), 0_ms);
  const auto out = test::drain_dispatch(s, 0_ms);
  EXPECT_EQ(out.size(), 10u);
}

class DeadlineBatchSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeadlineBatchSweep, WorkConservingForAnyBatchSize) {
  DeadlineTunables t;
  t.fifo_batch = GetParam();
  DeadlineScheduler s(t);
  RequestFactory f;
  for (int i = 0; i < 64; ++i) {
    s.add(i % 2 ? f.read(i * 11 % 997) : f.write(i * 7 % 997), 0_ms);
  }
  EXPECT_EQ(test::drain_dispatch(s, 0_ms).size(), 64u);
}

INSTANTIATE_TEST_SUITE_P(Batches, DeadlineBatchSweep, ::testing::Values(1, 2, 8, 16, 64));

}  // namespace
}  // namespace iosim::iosched
