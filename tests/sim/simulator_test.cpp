#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <vector>

namespace iosim::sim {
namespace {

using namespace iosim::sim::literals;

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.at(30_ms, [&] { order.push_back(3); });
  s.at(10_ms, [&] { order.push_back(1); });
  s.at(20_ms, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30_ms);
  EXPECT_EQ(s.executed(), 3u);
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(5_ms, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator s;
  Time fired;
  s.at(10_ms, [&] {
    s.after(5_ms, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, 15_ms);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  Time fired = Time::max();
  s.at(10_ms, [&] {
    s.after(Time::from_ms(-5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, 10_ms);
}

TEST(Simulator, PastTimeClampsToNow) {
  Simulator s;
  Time fired = Time::max();
  s.at(10_ms, [&] {
    s.at(1_ms, [&] { fired = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(fired, 10_ms);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const EventId id = s.at(10_ms, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Simulator, CancelInvalidIdFails) {
  Simulator s;
  EXPECT_FALSE(s.cancel(kInvalidEvent));
  EXPECT_FALSE(s.cancel(9999));  // never issued
}

TEST(Simulator, DoubleCancelFails) {
  Simulator s;
  const EventId id = s.at(10_ms, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  s.run();
}

TEST(Simulator, CancelOneOfSeveral) {
  Simulator s;
  std::vector<int> order;
  s.at(10_ms, [&] { order.push_back(1); });
  const EventId id = s.at(20_ms, [&] { order.push_back(2); });
  s.at(30_ms, [&] { order.push_back(3); });
  s.cancel(id);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.at(1_ms, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  std::vector<int> order;
  s.at(10_ms, [&] { order.push_back(1); });
  s.at(20_ms, [&] { order.push_back(2); });
  s.at(30_ms, [&] { order.push_back(3); });
  s.run_until(20_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // events at deadline run
  EXPECT_EQ(s.now(), 20_ms);
  s.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.run_until(50_ms);
  EXPECT_EQ(s.now(), 50_ms);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.after(1_ms, chain);
  };
  s.after(1_ms, chain);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 100_ms);
}

TEST(Simulator, PendingCountsUncancelled) {
  Simulator s;
  const EventId a = s.at(1_ms, [] {});
  s.at(2_ms, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, ScheduledCountsCancelledEventsAndFiringLeavesItAlone) {
  Simulator s;
  EXPECT_EQ(s.scheduled(), 0u);
  const EventId a = s.at(1_ms, [] {});
  s.at(2_ms, [] {});
  EXPECT_EQ(s.scheduled(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.scheduled(), 2u);  // a cancelled event keeps its number
  s.run();
  EXPECT_EQ(s.scheduled(), 2u);  // firing issues none
  EXPECT_EQ(s.executed(), 1u);
  s.at(3_ms, [&] { s.after(1_ms, [] {}); });
  s.run();
  EXPECT_EQ(s.scheduled(), 4u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator s;
  Time fired = Time::max();
  s.at(7_ms, [&] {
    s.after(Time::zero(), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, 7_ms);
}

// --- Progress sentinel (SimBudget) ----------------------------------------

TEST(SimulatorBudget, DefaultRunDrains) {
  Simulator s;
  s.at(1_ms, [] {});
  s.run();
  EXPECT_EQ(s.stop_reason(), StopReason::kDrained);
}

TEST(SimulatorBudget, EventBudgetStopsLivelock) {
  // A self-rescheduling zero-delay event never drains; the event budget must
  // terminate it deterministically.
  Simulator s;
  SimBudget b;
  b.max_events = 1000;
  s.set_budget(b);
  std::function<void()> spin = [&] { s.after(Time::zero(), spin); };
  s.after(Time::zero(), spin);
  s.run();
  EXPECT_EQ(s.stop_reason(), StopReason::kEventBudget);
  EXPECT_EQ(s.executed(), 1000u);
}

TEST(SimulatorBudget, SimTimeBudgetStopsBeforeEvent) {
  Simulator s;
  SimBudget b;
  b.max_sim_time = 20_ms;
  s.set_budget(b);
  bool late_ran = false;
  s.at(10_ms, [] {});
  s.at(30_ms, [&] { late_ran = true; });
  s.run();
  EXPECT_EQ(s.stop_reason(), StopReason::kTimeBudget);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.executed(), 1u);  // the 10ms event ran; the 30ms one did not
}

TEST(SimulatorBudget, EventAtDeadlineStillRuns) {
  Simulator s;
  SimBudget b;
  b.max_sim_time = 20_ms;
  s.set_budget(b);
  bool ran = false;
  s.at(20_ms, [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);  // t == deadline is inside the budget
  EXPECT_EQ(s.stop_reason(), StopReason::kDrained);
}

TEST(SimulatorBudget, AbortFlagStopsRun) {
  // The executor watchdog's cooperative flag: flipped before run(), the loop
  // must stop within its polling period instead of draining.
  Simulator s;
  std::atomic<bool> abort{false};
  SimBudget b;
  b.abort = &abort;
  s.set_budget(b);
  std::function<void()> spin = [&] { s.after(1_ms, spin); };
  s.after(1_ms, spin);
  abort.store(true);
  s.run();
  EXPECT_EQ(s.stop_reason(), StopReason::kAborted);
  EXPECT_LE(s.executed(), 256u);  // at most one polling period of events
}

TEST(SimulatorBudget, StopReasonNames) {
  EXPECT_STREQ(to_string(StopReason::kDrained), "drained");
  EXPECT_STREQ(to_string(StopReason::kEventBudget), "event-budget");
  EXPECT_STREQ(to_string(StopReason::kTimeBudget), "sim-time-budget");
  EXPECT_STREQ(to_string(StopReason::kAborted), "aborted");
}

}  // namespace
}  // namespace iosim::sim
