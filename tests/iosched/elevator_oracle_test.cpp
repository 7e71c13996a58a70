// Dispatch-order differential: the production elevators against reference
// copies of the versions they replaced (legacy_elevators.hpp) — deadline
// and AS, whose FIFO and deadline state lives in Request and whose sorted
// queues are flat LbaQueues, against the hash-map + std::list + multimap
// versions; CFQ, whose per-context queues are LbaQueues, against the
// multimap + deque version. Both sides see identical random
// add/dispatch/complete/drain streams with equal-LBA ties, FIFO heads left
// to expire, slices running out and idle windows opening and timing out;
// every dispatch, wakeup, size and drain order must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "iosched/anticipatory.hpp"
#include "iosched/cfq.hpp"
#include "iosched/deadline.hpp"
#include "legacy_elevators.hpp"
#include "sched_test_util.hpp"

namespace iosim::iosched {
namespace {

using test::RequestFactory;

std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t id_of(const Request* rq) { return rq == nullptr ? 0 : rq->id; }

std::vector<std::uint64_t> ids(const std::vector<Request*>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const Request* rq : v) out.push_back(rq->id);
  return out;
}

struct Tally {
  int dispatched = 0;
  int expired_heads = 0;  // reads dispatched after their own deadline
  int drained = 0;
  int idle_polls = 0;     // dispatch() idled while requests were queued
  // Dispatches from another (ctx, sync) queue while the previous dispatch's
  // queue still held requests: a slice or an async quantum ran out, or an
  // expired FIFO head jumped the scan.
  int preempted = 0;
};

/// One random stream against `fresh` and `legacy`. Each side owns its own
/// requests, built identically, so ids line up. Adds what the stream
/// exercised to `*tally`, so the test can require that expiries happened.
void run_stream(IoScheduler& fresh, IoScheduler& legacy, std::uint64_t seed, int ops,
                Tally* tally) {
  RequestFactory fa;
  RequestFactory fb;
  std::deque<std::pair<Request*, Request*>> in_flight;
  // Queued requests per (ctx, sync), and the queue of the last dispatch.
  std::map<std::pair<std::uint64_t, bool>, int> queued;
  std::pair<std::uint64_t, bool> last{~0ULL, false};
  std::uint64_t rng = seed;
  Time now = Time::zero();
  // A few LBAs recur so the sorted queues hold equal keys, in both
  // directions, from several contexts.
  const Lba hot[] = {0, 4096, 4096 + 8, 1 << 20, 3 << 20};
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = mix(rng);
    const int kind = static_cast<int>(r % 100);
    if (kind < 45) {
      const Lba lba = (r >> 8) % 3 == 0 ? hot[(r >> 12) % 5]
                                        : static_cast<Lba>((r >> 16) % 8'000'000);
      const bool write = ((r >> 24) & 3u) == 0;
      const bool sync = !write || ((r >> 26) & 3u) == 0;
      const std::uint64_t ctx = (r >> 28) % 4;
      const std::int64_t sectors = 8 + static_cast<std::int64_t>((r >> 32) % 4) * 120;
      Request* a = fa.make(lba, sectors, write ? Dir::kWrite : Dir::kRead, sync, ctx);
      Request* b = fb.make(lba, sectors, write ? Dir::kWrite : Dir::kRead, sync, ctx);
      fresh.add(a, now);
      legacy.add(b, now);
      ++queued[{ctx, sync}];
    } else if (kind < 80) {
      const bool was_empty = fresh.empty();
      Request* a = fresh.dispatch(now);
      Request* b = legacy.dispatch(now);
      ASSERT_EQ(id_of(a), id_of(b)) << "seed " << seed << " op " << op;
      if (a == nullptr && !was_empty) ++tally->idle_polls;
      if (a != nullptr) {
        ++tally->dispatched;
        if (now >= a->elv.expire && a->dir == Dir::kRead) ++tally->expired_heads;
        const std::pair<std::uint64_t, bool> key{a->ctx, a->sync};
        if (key != last && queued[last] > 0) ++tally->preempted;
        --queued[key];
        last = key;
        in_flight.emplace_back(a, b);
      }
    } else if (kind < 92) {
      if (!in_flight.empty()) {
        auto [a, b] = in_flight.front();
        in_flight.pop_front();
        fresh.on_complete(*a, now);
        legacy.on_complete(*b, now);
      }
    } else if (kind < 99) {
      // Time moves in small steps (inside anticipation windows and batch
      // quanta) and now and then far enough for every FIFO head to expire.
      const auto step = static_cast<std::int64_t>((r >> 16) % 6000);
      now += (r >> 8) % 8 == 0 ? Time::from_ms(600 + step) : Time::from_us(step);
    } else {
      const auto da = fresh.drain();
      const auto db = legacy.drain();
      ASSERT_EQ(ids(da), ids(db)) << "seed " << seed << " op " << op;
      tally->drained += static_cast<int>(da.size());
      queued.clear();
    }
    ASSERT_EQ(fresh.size(), legacy.size()) << "seed " << seed << " op " << op;
    ASSERT_EQ(fresh.empty(), legacy.empty());
    ASSERT_EQ(fresh.wakeup(now), legacy.wakeup(now)) << "seed " << seed << " op " << op;
  }
  // Run both dry.
  const auto ra = test::drain_dispatch(fresh, now);
  const auto rb = test::drain_dispatch(legacy, now);
  ASSERT_EQ(ids(ra), ids(rb)) << "seed " << seed << " final drain";
}

TEST(ElevatorOracle, DeadlineMatchesLegacyDispatchOrder) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    DeadlineTunables t;
    t.fifo_batch = seed % 2 == 0 ? 16 : 3;
    t.writes_starved = 1 + static_cast<int>(seed % 3);
    DeadlineScheduler fresh(t);
    test::LegacyDeadline legacy(t);
    run_stream(fresh, legacy, seed, 3000, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.dispatched, 10000);
  EXPECT_GT(tally.expired_heads, 100);
  EXPECT_GT(tally.drained, 0);
}

TEST(ElevatorOracle, AnticipatoryMatchesLegacyDispatchOrder) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    AnticipatoryTunables t;
    if (seed % 2 == 0) t.close_window_sectors = 64;
    AnticipatoryScheduler fresh(t);
    test::LegacyAnticipatory legacy(t);
    run_stream(fresh, legacy, seed, 3000, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.dispatched, 10000);
  EXPECT_GT(tally.expired_heads, 100);
  EXPECT_GT(tally.drained, 0);
}

TEST(ElevatorOracle, CfqMatchesLegacyDispatchOrder) {
  // Think-time gating: with a small idle_think_factor most owners stop
  // earning idle windows, with a large one nearly all keep them; the two
  // tallies must differ, or the gate was never decided by the stream.
  Tally gated;
  Tally open;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    CfqTunables t;
    t.idle_think_factor = seed % 2 == 0 ? 0.05 : 4.0;
    if (seed % 3 == 0) t.async_quantum = 2;
    if (seed % 5 == 0) t.slice_sync = Time::from_ms(5);
    CfqScheduler fresh(t);
    test::LegacyCfq legacy(t);
    run_stream(fresh, legacy, seed, 3000, seed % 2 == 0 ? &gated : &open);
    if (HasFatalFailure()) return;
    EXPECT_EQ(fresh.sync_queue_count(), legacy.sync_queue_count());
  }
  EXPECT_GT(gated.dispatched + open.dispatched, 10000);
  EXPECT_GT(gated.drained + open.drained, 0);
  EXPECT_GT(gated.preempted + open.preempted, 500);
  EXPECT_GT(open.idle_polls, 100);
  EXPECT_LT(gated.idle_polls, open.idle_polls);
}

}  // namespace
}  // namespace iosim::iosched
