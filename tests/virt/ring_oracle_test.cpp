// Fault-free half of the blkfront ring differential (see ring_oracle.hpp):
// every (VMM, guest) elevator pair, 1 to 4 VMs sharing one Dom0, both
// drives. The I/O-error half lives in ring_oracle_fault_test.cpp.
#include "ring_oracle.hpp"

namespace iosim::virt::test {
namespace {

class RingOracle : public ::testing::TestWithParam<int> {};

TEST_P(RingOracle, MatchesPerSegmentRing) {
  const auto pair = iosched::SchedulerPair::from_index(GetParam());
  for (const Drive drive : {Drive::kSeek, Drive::kInstant}) {
    for (int vms = 1; vms <= 4; ++vms) {
      SCOPED_TRACE(pair.to_string() + " vms=" + std::to_string(vms) +
                   (drive == Drive::kInstant ? " instant drive" : " seek drive"));
      const std::uint64_t failed = expect_rings_agree(
          {pair, vms, drive, 1 + static_cast<std::uint64_t>(GetParam()), 0.0});
      EXPECT_EQ(failed, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, RingOracle,
                         ::testing::Range(0, iosched::kNumSchedulerPairs),
                         [](const auto& pinfo) {
                           return iosched::SchedulerPair::from_index(pinfo.param).letters();
                         });

}  // namespace
}  // namespace iosim::virt::test
