// Byte-identity guard for the event-loop refactor: a seeded Fig.-2-style
// run must produce a byte-identical trace before and after any hot-path
// change. The expected value below is the FNV-1a 64 digest of the trace
// JSON produced by the pre-refactor simulator (binary std::priority_queue +
// tombstone set, std::function callbacks) — the indexed-heap/EventFn
// rewrite must reproduce it bit for bit, because event *identity* (ids,
// pool slots) is allowed to change but event *order and timing* is not.
//
// If this test ever fails, the event loop reordered same-seed work — that
// is a correctness bug, not a baseline to refresh. Only an intentional
// change to the trace format or to the simulated models may update the
// constant (and must say so in its commit).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/runner.hpp"
#include "exp/artifact.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim {
namespace {

/// FNV-1a 64 of the trace JSON of run_trace_digest_run() on the
/// pre-refactor event loop (commit 51e067b).
inline constexpr std::uint64_t kPreRefactorTraceDigest = 0x625ba9238ba4a87cULL;

/// FNV-1a 64 of a seeded three-job chain's trace, captured on the
/// dedicated chain runner immediately before it was rehosted onto
/// tenancy::StreamRunner (chains now run on cluster::run_job). Same
/// contract as above: the sequencing code may be restructured, but a
/// chained run's event order and timing must not move by a byte.
inline constexpr std::uint64_t kPreStreamChainDigest = 0x12b0952ebf45d35cULL;

std::string traced_run_json() {
  trace::TraceSession session;
  cluster::ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  cfg.seed = 7;
  const auto jc = workloads::make_job(workloads::wordcount(), 32 * mapred::kMiB);
  const auto rr = cluster::run_job(cfg, jc);
  EXPECT_FALSE(rr.failed) << rr.failure;
  return session.tracer().to_json();
}

TEST(TraceDigest, SeededRunMatchesPreRefactorDigest) {
  const std::string json = traced_run_json();
  const std::uint64_t digest = exp::fnv1a64(json);
  EXPECT_EQ(digest, kPreRefactorTraceDigest)
      << "trace digest changed: 0x" << std::hex << digest << std::dec
      << " (json bytes: " << json.size() << ")";
}

TEST(TraceDigest, SameSeedIsByteIdenticalWithinProcess) {
  EXPECT_EQ(traced_run_json(), traced_run_json());
}

TEST(TraceDigest, ChainedRunMatchesPreStreamDigest) {
  trace::TraceSession session;
  cluster::ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  cfg.seed = 7;
  const std::vector<mapred::JobConf> confs = {
      workloads::make_job(workloads::wordcount(), 16 * mapred::kMiB),
      workloads::make_job(workloads::stream_sort(), 16 * mapred::kMiB),
      workloads::make_job(workloads::wordcount_no_combiner(), 16 * mapred::kMiB),
  };
  const auto r = cluster::run_job(cfg, confs);
  EXPECT_EQ(r.jobs.size(), confs.size());
  const std::string json = session.tracer().to_json();
  const std::uint64_t digest = exp::fnv1a64(json);
  EXPECT_EQ(digest, kPreStreamChainDigest)
      << "chain trace digest changed: 0x" << std::hex << digest << std::dec
      << " (json bytes: " << json.size() << ")";
}

}  // namespace
}  // namespace iosim
