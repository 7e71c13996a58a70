// Hand-built edge cases of the batched Dom0 submission, on the blkfront
// ring differential rig (ring_oracle.hpp). The production ring hands a
// guest request to Dom0 as one run of segments; the legacy ring submits one
// bio per segment. Each case is built so that a run stops merging partway
// for a different reason, and checks that it did, besides requiring every
// observable of the two rings to agree:
//   * the Dom0 disk is idle, so the first segment dispatches alone;
//   * a run reaches the Dom0 merge limit partway through;
//   * a queued request of the same VM already holds an intermediate
//     segment's end key (overlapping guest LBAs), so the merge index sends
//     the next segment to that request;
//   * Dom0 elevator switches, whose drain and freeze hold whole runs back;
//   * a burst that overfills the ring, so returns leave it full.
// Every case runs with and without the auditor, attribution and tracer.
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ring_oracle.hpp"

namespace iosim::virt::test {
namespace {

using Dispatches = std::vector<std::array<std::int64_t, 3>>;

GuestBio read(std::uint64_t task, disk::Lba lba, std::int64_t sectors) {
  GuestBio g;
  g.ctx = task;
  g.lba = lba;
  g.sectors = sectors;
  return g;
}

std::string label(const iosched::SchedulerPair& pair, bool observe) {
  return pair.to_string() + (observe ? " observed" : " unobserved");
}

class RingOracleEdge : public ::testing::TestWithParam<int> {
 protected:
  iosched::SchedulerPair pair() const {
    return iosched::SchedulerPair::from_index(GetParam());
  }
};

TEST_P(RingOracleEdge, IdleDiskDispatchesTheFirstSegmentAlone) {
  for (const bool observe : {true, false}) {
    SCOPED_TRACE(label(pair(), observe));
    OracleCase c{pair()};
    c.observe = observe;
    c.stream = {read(1, 0, 512)};
    const Outcome o = expect_rings_agree(c);
    // 512 sectors cross as 5 x 88 + 72: the first segment finds the disk
    // idle and goes alone, the other five merge behind it.
    EXPECT_EQ(dom0_dispatches(o), (Dispatches{{0, 88, 1}, {88, 424, 5}}));
  }
}

TEST_P(RingOracleEdge, RunReachesTheMergeLimitPartway) {
  for (const bool observe : {true, false}) {
    SCOPED_TRACE(label(pair(), observe));
    // A 200-sector limit: two segments per request.
    OracleCase small{pair()};
    small.observe = observe;
    small.dom0_max_sectors = 200;
    small.stream = {read(1, 0, 512)};
    EXPECT_EQ(dom0_dispatches(expect_rings_agree(small)),
              (Dispatches{{0, 88, 1}, {88, 176, 2}, {264, 176, 2}, {440, 72, 1}}));

    // The default limit: the second guest request's first segment fills
    // the first one's Dom0 request to exactly 512 sectors; its second
    // segment starts a new request.
    OracleCase full{pair()};
    full.observe = observe;
    full.stream = {read(1, 0, 512), read(1, 512, 512)};
    EXPECT_EQ(dom0_dispatches(expect_rings_agree(full)),
              (Dispatches{{0, 88, 1}, {88, 512, 6}, {600, 424, 5}}));
  }
}

TEST(RingOracleEdgeKeys, QueuedRequestHoldsAnIntermediateEndKey) {
  // A noop guest passes all three requests to the ring at once; every VMM
  // elevator then sees them arrive together.
  for (const iosched::SchedulerKind vmm : iosched::kAllSchedulerKinds) {
    for (const bool observe : {true, false}) {
      const iosched::SchedulerPair pair{vmm, iosched::SchedulerKind::kNoop};
      SCOPED_TRACE(label(pair, observe));
      // Three guest tasks of one VM at one instant: X keeps the Dom0 disk
      // busy; A = [0, 176) queues as one Dom0 request ending at 176; then
      // B = [0, 264) starts a second request at 0 whose second segment
      // also ends at 176. A holds that key (the merge index's first writer
      // wins), so B's third segment merges into A's request, not B's.
      OracleCase c{pair};
      c.observe = observe;
      c.stream = {read(1, 1 << 20, 8), read(2, 0, 176), read(3, 0, 264)};
      EXPECT_EQ(dom0_dispatches(expect_rings_agree(c)),
                (Dispatches{{1 << 20, 8, 1}, {0, 264, 3}, {0, 176, 2}}));
    }
  }
}

TEST_P(RingOracleEdge, OverfullRingSkipsGuestKicks) {
  for (const bool observe : {true, false}) {
    SCOPED_TRACE(label(pair(), observe));
    // Eight 512-sector writes at one instant, six segments each: the ring
    // takes a request while it has a free slot, so it ends up holding 36
    // segments in its 32 slots, and its first returns leave it full. The
    // production ring skips those returns' guest kicks (the rig requires
    // strictly fewer); the legacy ring kicks a full ring after every one.
    OracleCase c{pair()};
    c.observe = observe;
    for (std::uint64_t task = 1; task <= 8; ++task) {
      GuestBio g = read(task, static_cast<disk::Lba>(task) << 16, 512);
      g.dir = iosched::Dir::kWrite;
      g.sync = false;
      c.stream.push_back(g);
    }
    EXPECT_TRUE(ring_overfilled(expect_rings_agree(c)));
  }
}

TEST_P(RingOracleEdge, ElevatorSwitchesHoldRuns) {
  std::int64_t held = 0;
  for (const bool observe : {true, false}) {
    for (const double error_p : {0.0, 0.05}) {
      for (int vms = 1; vms <= 4; ++vms) {
        SCOPED_TRACE(label(pair(), observe) + " vms=" + std::to_string(vms) +
                     " error_p=" + std::to_string(error_p));
        OracleCase c{pair(), vms, Drive::kSeek, 7 + static_cast<std::uint64_t>(GetParam()),
                     error_p, observe};
        for (const int ms : {1, 30, 35, 90, 150}) c.switches.push_back(sim::Time::from_ms(ms));
        const Outcome o = expect_rings_agree(c);
        EXPECT_GT(o.counters[0].scheduler_switches, 0u);
        held += o.held_bios;
      }
    }
  }
  EXPECT_GT(held, 0) << "no run arrived while Dom0 was switching";
}

INSTANTIATE_TEST_SUITE_P(AllPairs, RingOracleEdge,
                         ::testing::Range(0, iosched::kNumSchedulerPairs),
                         [](const auto& pinfo) {
                           return iosched::SchedulerPair::from_index(pinfo.param).letters();
                         });

}  // namespace
}  // namespace iosim::virt::test
