// I/O-error half of the blkfront ring differential (see ring_oracle.hpp):
// the disk fails commands at random, so failed segments must fail their
// guest request identically on both rings, with and without the auditor,
// attribution and tracer installed. Runs in the fault-stress job.
//
// The stream and fault seed honour IOSIM_FAULT_SEED (the CI fault-stress
// job randomizes it and logs the value); the default is 1.
#include <cstdio>
#include <cstdlib>

#include "ring_oracle.hpp"

namespace iosim::virt::test {
namespace {

std::uint64_t fault_seed() {
  if (const char* s = std::getenv("IOSIM_FAULT_SEED")) {
    const auto v = std::strtoull(s, nullptr, 10);
    std::fprintf(stderr, "IOSIM_FAULT_SEED=%llu\n", static_cast<unsigned long long>(v));
    return v;
  }
  return 1;
}

class RingOracleFault : public ::testing::TestWithParam<int> {};

TEST_P(RingOracleFault, MatchesPerSegmentRingUnderIoErrors) {
  const auto pair = iosched::SchedulerPair::from_index(GetParam());
  const std::uint64_t seed = fault_seed() * 31 + static_cast<std::uint64_t>(GetParam());
  for (const bool observe : {true, false}) {
    std::uint64_t failed = 0;
    for (const Drive drive : {Drive::kSeek, Drive::kInstant}) {
      for (int vms = 1; vms <= 4; ++vms) {
        SCOPED_TRACE(pair.to_string() + " vms=" + std::to_string(vms) +
                     (drive == Drive::kInstant ? " instant drive" : " seek drive") +
                     (observe ? " observed" : " unobserved") + " seed=" + std::to_string(seed));
        failed += failed_bios(expect_rings_agree({pair, vms, drive, seed, 0.05, observe}));
      }
    }
    EXPECT_GT(failed, 0u) << "the fault plan never failed a guest bio";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, RingOracleFault,
                         ::testing::Range(0, iosched::kNumSchedulerPairs),
                         [](const auto& pinfo) {
                           return iosched::SchedulerPair::from_index(pinfo.param).letters();
                         });

}  // namespace
}  // namespace iosim::virt::test
