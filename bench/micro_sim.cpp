// micro_sim — events/sec microbenchmarks for the discrete-event hot path.
//
// Eight probes, lowest layer first:
//   schedule-fire   — self-rescheduling event chains through the heap
//   schedule-cancel — schedule + cancel churn (anticipatory-timeout pattern)
//   bio-roundtrip   — submit -> elevator -> disk -> completion round trips
//   blk-roundtrip   — the same spread round-robin over 1 and over 64 block
//                     layers: the l64/l1 ratio is the cost of a working set
//                     that spans many layers, as a cluster run's does
//   domu-roundtrip  — the same through the whole split-driver path
//                     (guest elevator -> blkfront ring -> Dom0 elevator ->
//                     disk), once with attribution off and once with an
//                     AttributionSession installed: the off/on delta is the
//                     full cost of the obs stamping hooks, and the off
//                     number guards the disabled path staying a
//                     branch-hinted pointer check
//   net-shuffle     — a 32-host all-to-all shuffle through the max-min
//                     flow network: every start and finish re-levels the
//                     rates of the flows in flight
//   arm-select      — online meta-scheduler decision cost: one UCB pull
//                     (candidate scoring over the exploration budget) plus
//                     one reward update, the work the bandit adds to every
//                     cluster-phase change and 5 s tick
//   fig2-point      — one seeded wordcount run of the Fig. 2 testbed
//
// Each probe runs `--reps` times (default 3) and reports the best rep: the
// minimum wall time is the least-noise estimate of the code's true cost,
// which is what a CI regression gate needs. Metrics land in the flat
// BENCH JSON via `--json FILE` (see BenchReport); tools/bench_compare
// gates them against bench/baselines/micro_sim.json in the perf-smoke CI
// job. Metric naming contract: `*_per_sec` is higher-is-better,
// `*_seconds` lower-is-better — bench_compare keys its direction off the
// suffix.
//
// Every probe checks that it completed the work it timed; a probe that did
// not makes micro_sim exit 1, so a broken hot path cannot pass as a fast one.
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "blk/block_layer.hpp"
#include "core/online_scheduler.hpp"
#include "blk/disk_device.hpp"
#include "cluster/runner.hpp"
#include "exp/artifact.hpp"
#include "exp/json.hpp"
#include "metrics/registry_table.hpp"
#include "net/flow_network.hpp"
#include "obs/attribution.hpp"
#include "sim/simulator.hpp"
#include "sim/text.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "virt/physical_host.hpp"
#include "workloads/benchmarks.hpp"

using namespace iosim;
using namespace iosim::sim::literals;

namespace {

// --- report and flags ------------------------------------------------------

/// The paper's testbed: 4 physical nodes, 4 VMs each, 512 MB per data node.
cluster::ClusterConfig paper_cluster() { return cluster::ClusterConfig{}; }

/// Flat (name, value) metrics, added in emission order via report().add()
/// and written by `--json FILE` as
/// {"bench_format":1,"kind":"bench","name":...,"metrics":{...}} — the same
/// format version as the sweep engine's BENCH_*.json. Without `--json` the
/// report is collected and discarded.
class BenchReport {
 public:
  void add(const std::string& name, double v) { metrics_.emplace_back(name, v); }

  std::string to_json(const std::string& bench_name) const {
    exp::JsonWriter w;
    w.obj_begin();
    w.kv("bench_format", 1);
    w.kv("kind", "bench");
    w.kv("name", bench_name);
    w.key("metrics").obj_begin();
    for (const auto& [k, v] : metrics_) w.kv(k, v);
    w.obj_end();
    w.obj_end();
    return w.str() + "\n";
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

BenchReport& report() {
  static BenchReport r;
  return r;
}

/// "foo-bar" from "/path/to/foo-bar" (the bench's own name for the JSON).
std::string basename_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Command-line flags and the flight recorder: `--trace FILE` records a
/// trace of every simulated run and writes it at exit (.csv extension
/// selects CSV, anything else Chrome trace-event JSON); `--metrics` prints
/// the named-metrics registry at exit; `--json FILE` writes report() at
/// exit. `valued` and `boolean` name the bench's own flags, read back with
/// value() and has(). Any other argument, or a valued flag without its
/// value, exits 2 with a diagnostic.
class Telemetry {
 public:
  Telemetry(int argc, char** argv, std::set<std::string> valued = {},
            std::set<std::string> boolean = {}) {
    if (argc > 0) bench_name_ = basename_of(argv[0]);
    valued.insert({"--trace", "--json"});
    boolean.insert("--metrics");
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      if (valued.count(s) != 0 && i + 1 < argc) {
        flags_[s] = argv[++i];
      } else if (boolean.count(s) != 0) {
        flags_[s] = "";
      } else {
        std::fprintf(stderr, "%s: %s '%s'\n", bench_name_.c_str(),
                     valued.count(s) != 0 ? "missing value for" : "unknown argument",
                     s.c_str());
        std::exit(2);
      }
    }
    trace_path_ = value("--trace").value_or("");
    json_path_ = value("--json").value_or("");
    if (has("--metrics")) metrics_.emplace();
    if (!trace_path_.empty()) trace_.emplace();
  }
  /// The value a valued flag was given, if it was.
  std::optional<std::string> value(const std::string& flag) const {
    const auto it = flags_.find(flag);
    if (it == flags_.end()) return std::nullopt;
    return it->second;
  }
  bool has(const std::string& flag) const { return flags_.count(flag) != 0; }
  ~Telemetry() {
    if (!json_path_.empty()) {
      std::string err;
      if (exp::write_file_atomic(json_path_, report().to_json(bench_name_), &err)) {
        std::fprintf(stderr, "json: bench report -> %s\n", json_path_.c_str());
      } else {
        std::fprintf(stderr, "json: failed to write %s (%s)\n", json_path_.c_str(),
                     err.c_str());
      }
    }
    if (trace_) {
      auto& tr = trace_->tracer();
      if (tr.write_file(trace_path_)) {
        std::fprintf(stderr, "trace: %zu events (%llu dropped) -> %s\n", tr.size(),
                     static_cast<unsigned long long>(tr.dropped()), trace_path_.c_str());
      } else {
        std::fprintf(stderr, "trace: failed to write %s\n", trace_path_.c_str());
      }
    }
    if (metrics_) {
      auto tab = metrics::registry_table(metrics_->registry());
      tab.print();
    }
  }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

 private:
  std::string bench_name_ = "bench";
  std::map<std::string, std::string> flags_;
  std::string trace_path_;
  std::string json_path_;
  std::optional<trace::TraceSession> trace_;
  std::optional<trace::MetricsSession> metrics_;
};

void print_header(const char* id, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("================================================================\n");
}

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// splitmix64 step — cheap deterministic jitter for event spacing.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Probes whose self-check failed; main() exits 1 when non-zero.
int g_failed_checks = 0;

/// Report a failed self-check and fail the run.
[[gnu::format(printf, 1, 2)]] void check_failed(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  ++g_failed_checks;
}

// --- schedule-fire ---------------------------------------------------------
//
// kChains independent event chains, each firing kFiresPerChain times; every
// callback schedules its successor a pseudorandom 1..64 us ahead. The heap
// holds ~kChains events at all times, which matches the simulator's steady
// state in a cluster run (one in-flight timer per disk, per task, per flow).
// Captures are deliberately three words wide — the typical at()/after()
// call-site shape (owner pointer + a payload or two).

struct FireState {
  sim::Simulator* s;
  std::uint64_t remaining;  // fires left across all chains
  std::uint64_t rng;
  std::uint64_t fired = 0;
};

void fire_step(FireState* st, std::uint64_t salt);

void schedule_chain(FireState* st, std::uint64_t salt) {
  const sim::Time dt = sim::Time::from_us(1 + static_cast<std::int64_t>(salt % 64));
  std::uint64_t pad = salt ^ 0x5bd1e995;  // widen the capture to 3 words
  st->s->after(dt, [st, salt, pad] {
    (void)pad;
    fire_step(st, salt);
  });
}

void fire_step(FireState* st, std::uint64_t salt) {
  ++st->fired;
  if (st->remaining == 0) return;
  --st->remaining;
  schedule_chain(st, mix(st->rng) ^ salt);
}

double bench_schedule_fire(std::uint64_t total_events, int chains) {
  sim::Simulator s;
  FireState st{&s, total_events - static_cast<std::uint64_t>(chains), 42, 0};
  const double t0 = now_sec();
  for (int c = 0; c < chains; ++c) schedule_chain(&st, mix(st.rng));
  s.run();
  const double wall = now_sec() - t0;
  if (st.fired != total_events) {
    check_failed("schedule-fire: fired %" PRIu64 " != %" PRIu64 "\n", st.fired,
                 total_events);
  }
  return wall;
}

// --- schedule-cancel -------------------------------------------------------
//
// Rounds of: schedule kBatch far-future timeouts, then cancel them in a
// shuffled order — the anticipatory-scheduler pattern (arm an idle timeout,
// almost always cancel it when the next request arrives). One live "clock"
// event per round advances simulated time so the far-future entries never
// fire. The old simulator paid an unordered_set insert per cancel plus a
// tombstone pop per entry; this probe is the regression guard for that.

double bench_schedule_cancel(std::uint64_t pairs, int batch) {
  sim::Simulator s;
  std::uint64_t rng = 7;
  std::vector<sim::EventId> ids(static_cast<std::size_t>(batch));
  std::uint64_t done = 0;
  std::uint64_t fired = 0;
  const double t0 = now_sec();
  while (done < pairs) {
    for (int i = 0; i < batch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          s.after(sim::Time::from_sec(3600) +
                      sim::Time::from_us(static_cast<std::int64_t>(mix(rng) % 4096)),
                  [&fired] { ++fired; });
    }
    // Fisher-Yates with the bench rng: cancellation order is adversarial
    // for any structure that likes FIFO cancels.
    for (int i = batch - 1; i > 0; --i) {
      const int j = static_cast<int>(mix(rng) % static_cast<std::uint64_t>(i + 1));
      std::swap(ids[static_cast<std::size_t>(i)], ids[static_cast<std::size_t>(j)]);
    }
    for (int i = 0; i < batch; ++i) s.cancel(ids[static_cast<std::size_t>(i)]);
    done += static_cast<std::uint64_t>(batch);
    s.after(1_us, [] {});  // advance the clock past the round
    s.run();
  }
  const double wall = now_sec() - t0;
  if (fired != 0) check_failed("schedule-cancel: %" PRIu64 " leaked fires\n", fired);
  return wall;
}

// --- bio-roundtrip ---------------------------------------------------------
//
// One noop elevator over one disk, kDepth bios outstanding; every completion
// submits the next bio (7/8 sequential, 1/8 a random jump — enough seeks to
// keep the disk model honest without drowning the block layer in them).

struct BioState {
  blk::BlockLayer* layer;
  std::uint64_t remaining;
  std::uint64_t completed = 0;
  std::uint64_t rng = 99;
  disk::Lba next_lba = 0;
};

void submit_next(BioState* st) {
  if (st->remaining == 0) return;
  --st->remaining;
  const std::uint64_t r = mix(st->rng);
  if ((r & 7u) == 0) st->next_lba = static_cast<disk::Lba>(r % 1'000'000'000);
  blk::Bio bio;
  bio.lba = st->next_lba;
  bio.sectors = 256;  // 128 KB, an HDFS-ish chunk
  st->next_lba += bio.sectors;
  bio.dir = (r & 8u) ? iosched::Dir::kWrite : iosched::Dir::kRead;
  bio.ctx = r & 3u;
  bio.on_complete = [st](sim::Time, iosched::IoStatus) {
    ++st->completed;
    submit_next(st);
  };
  st->layer->submit(std::move(bio));
}

double bench_bio_roundtrip(std::uint64_t total_bios, int depth) {
  sim::Simulator s;
  blk::DiskDevice dev(s, disk::DiskParams{}, /*seed=*/11);
  blk::BlockLayerConfig cfg;
  cfg.scheduler = iosched::SchedulerKind::kNoop;
  cfg.name = "micro/blk";
  blk::BlockLayer layer(s, dev, cfg);
  BioState st{&layer, total_bios};
  const double t0 = now_sec();
  for (int i = 0; i < depth && st.remaining > 0; ++i) submit_next(&st);
  s.run();
  const double wall = now_sec() - t0;
  if (st.completed != total_bios) {
    check_failed("bio-roundtrip: completed %" PRIu64 " != %" PRIu64 "\n", st.completed,
                 total_bios);
  }
  return wall;
}

// --- blk-roundtrip ---------------------------------------------------------
//
// bio-roundtrip over `n_layers` block layers, each over its own disk, with
// kRrDepth bios outstanding per layer on average. Every completion submits
// the next bio to the next layer in round-robin order, so consecutive
// submissions always touch different layers, as the interleaved events of
// a many-host cluster run do. Each layer keeps its own 7/8-sequential
// stream. Reported as host ns per bio; l1 and l64 do the same per-bio work,
// so their ratio isolates the cost of the larger working set.

constexpr int kRrDepth = 8;

struct RrLayer {
  std::unique_ptr<blk::DiskDevice> dev;
  std::unique_ptr<blk::BlockLayer> layer;
  std::uint64_t rng;
  disk::Lba next_lba = 0;
};

struct RrState {
  std::vector<RrLayer> layers;
  std::size_t turn = 0;
  std::uint64_t remaining;
  std::uint64_t completed = 0;
};

void submit_next_rr(RrState* st) {
  if (st->remaining == 0) return;
  --st->remaining;
  RrLayer& l = st->layers[st->turn];
  st->turn = (st->turn + 1) % st->layers.size();
  const std::uint64_t r = mix(l.rng);
  if ((r & 7u) == 0) l.next_lba = static_cast<disk::Lba>(r % 1'000'000'000);
  blk::Bio bio;
  bio.lba = l.next_lba;
  bio.sectors = 256;
  l.next_lba += bio.sectors;
  bio.dir = (r & 8u) ? iosched::Dir::kWrite : iosched::Dir::kRead;
  bio.ctx = r & 3u;
  bio.on_complete = [st](sim::Time, iosched::IoStatus) {
    ++st->completed;
    submit_next_rr(st);
  };
  l.layer->submit(std::move(bio));
}

double bench_blk_roundtrip(std::uint64_t total_bios, int n_layers) {
  sim::Simulator s;
  RrState st{{}, 0, total_bios};
  st.layers.resize(static_cast<std::size_t>(n_layers));
  for (int i = 0; i < n_layers; ++i) {
    RrLayer& l = st.layers[static_cast<std::size_t>(i)];
    l.dev = std::make_unique<blk::DiskDevice>(s, disk::DiskParams{},
                                              /*seed=*/11 + static_cast<std::uint64_t>(i));
    blk::BlockLayerConfig cfg;
    cfg.scheduler = iosched::SchedulerKind::kNoop;
    cfg.name = "micro/rr" + std::to_string(i);
    l.layer = std::make_unique<blk::BlockLayer>(s, *l.dev, cfg);
    l.rng = 99 + static_cast<std::uint64_t>(i);
  }
  const double t0 = now_sec();
  for (int i = 0; i < kRrDepth * n_layers && st.remaining > 0; ++i) submit_next_rr(&st);
  s.run();
  const double wall = now_sec() - t0;
  if (st.completed != total_bios) {
    check_failed("blk-roundtrip(l%d): completed %" PRIu64 " != %" PRIu64 "\n", n_layers,
                 st.completed, total_bios);
  }
  return wall;
}

// --- domu-roundtrip --------------------------------------------------------
//
// bio-roundtrip through the whole split-driver path: one host, one VM, noop
// elevators at both levels, kDepth guest I/Os outstanding, each completion
// submitting the next (same 7/8-sequential stream as bio-roundtrip). Run
// with `attr_on` false this is the baseline cost of the DomU->Dom0 path;
// with true, every request additionally pays the six attribution stamps and
// the completion-time sketch fold. The off/on pair is the perf contract of
// src/obs/: off must track the baseline (one hinted pointer check per
// site), on should cost a few percent, not a multiple.

struct DomuState {
  virt::DomU* vm;
  std::uint64_t remaining;
  std::uint64_t completed = 0;
  std::uint64_t rng = 99;
  disk::Lba next_lba = 0;
};

void submit_next_domu(DomuState* st) {
  if (st->remaining == 0) return;
  --st->remaining;
  const std::uint64_t r = mix(st->rng);
  const std::int64_t sectors = 256;
  if ((r & 7u) == 0) {
    st->next_lba = static_cast<disk::Lba>(r % static_cast<std::uint64_t>(
                                                  st->vm->image_sectors() - sectors));
  }
  if (st->next_lba + sectors > st->vm->image_sectors()) st->next_lba = 0;
  const disk::Lba lba = st->next_lba;
  st->next_lba += sectors;
  st->vm->submit_io(r & 3u, lba, sectors,
                    (r & 8u) ? iosched::Dir::kWrite : iosched::Dir::kRead,
                    /*sync=*/(r & 8u) == 0,
                    [st](sim::Time, iosched::IoStatus) {
                      ++st->completed;
                      submit_next_domu(st);
                    });
}

double bench_domu_roundtrip(std::uint64_t total_bios, int depth, bool attr_on) {
  sim::Simulator s;
  virt::HostConfig hc;
  hc.dom0_blk.scheduler = iosched::SchedulerKind::kNoop;
  hc.domu.guest_blk.scheduler = iosched::SchedulerKind::kNoop;
  virt::PhysicalHost host(s, hc, /*host_id=*/0, /*vm_ctx_base=*/0, /*seed=*/11);
  virt::DomU& vm = host.add_vm();
  std::optional<obs::AttributionSession> obs;
  if (attr_on) obs.emplace();
  DomuState st{&vm, total_bios};
  const double t0 = now_sec();
  for (int i = 0; i < depth && st.remaining > 0; ++i) submit_next_domu(&st);
  s.run();
  const double wall = now_sec() - t0;
  if (st.completed != total_bios) {
    check_failed("domu-roundtrip: completed %" PRIu64 " != %" PRIu64 "\n", st.completed,
                 total_bios);
  }
  // One record per guest request: the guest elevator merges sequential
  // bios, so there are fewer records than bios, and none may stay open.
  if (attr_on) {
    const obs::Attribution& at = obs->attribution();
    if (at.records_completed() == 0 || at.records_completed() > total_bios ||
        at.records_live() != 0) {
      check_failed("domu-roundtrip: %" PRIu64 " of %" PRIu64
                   " attribution records completed for %" PRIu64 " bios\n",
                   at.records_completed(), at.records_created(), total_bios);
    }
  }
  return wall;
}

// --- net-shuffle -----------------------------------------------------------
//
// The shuffle hop of a sort on kShuffleHosts hosts, in the network alone:
// every host fetches from every host (its own over loopback) `rounds`
// times, keeping kFetchesInFlight fetches open and starting the next one
// from each completion. Fetch sizes jitter +-50 % around 1 MB. With
// kShuffleHosts * kFetchesInFlight flows in flight, each start and finish
// re-levels a few hundred max-min rates.

constexpr int kShuffleHosts = 32;
constexpr int kFetchesInFlight = 8;

struct ShuffleState {
  net::FlowNetwork* net;
  std::uint64_t per_dst;  // fetches each destination makes
  std::vector<std::uint64_t> issued;  // per destination
  std::uint64_t completed = 0;
  std::int64_t bytes = 0;
  std::uint64_t rng = 17;
};

void start_fetch(ShuffleState* st, int dst) {
  auto& n = st->issued[static_cast<std::size_t>(dst)];
  if (n == st->per_dst) return;
  const int src = static_cast<int>(n++ % kShuffleHosts);
  const std::int64_t bytes =
      500'000 + static_cast<std::int64_t>(mix(st->rng) % 1'000'000);
  st->bytes += bytes;
  st->net->start_flow(src, dst, bytes, [st, dst](sim::Time) {
    ++st->completed;
    start_fetch(st, dst);
  });
}

double bench_net_shuffle(std::uint64_t rounds) {
  sim::Simulator s;
  net::FlowNetwork net(s, kShuffleHosts, net::NetParams{});
  ShuffleState st{&net, rounds * kShuffleHosts,
                  std::vector<std::uint64_t>(kShuffleHosts, 0)};
  const double t0 = now_sec();
  for (int d = 0; d < kShuffleHosts; ++d) {
    for (int k = 0; k < kFetchesInFlight; ++k) start_fetch(&st, d);
  }
  s.run();
  const double wall = now_sec() - t0;
  const std::uint64_t total = rounds * kShuffleHosts * kShuffleHosts;
  if (st.completed != total || net.bytes_delivered() != st.bytes || net.active_flows() != 0) {
    check_failed("net-shuffle: completed %" PRIu64 " of %" PRIu64 " flows, delivered %" PRId64
                 " of %" PRId64 " bytes, %zu still active\n",
                 st.completed, total, net.bytes_delivered(), st.bytes, net.active_flows());
  }
  return wall;
}

// --- arm-select ------------------------------------------------------------
//
// The bandit's per-decision cost in isolation: select() over the default
// exploration budget followed by a reward() update, cycling the phase kinds
// and feeding back the chosen arm (so the estimate tables stay warm and the
// scored candidate set is realistic, not degenerate). No simulator — this
// measures exactly what OnlineScheduler::pull + close_window add to a run.

double bench_arm_select(std::uint64_t n) {
  core::OnlineConfig cfg;
  cfg.kind = tenancy::MetaPolicy::kUcb;
  cfg.seed = 42;
  const auto policy = core::make_online_policy(cfg);
  std::array<double, iosched::kNumSchedulerPairs> penalty{};
  for (std::size_t a = 0; a < penalty.size(); ++a) {
    penalty[a] = 0.1 * static_cast<double>(a);
  }
  int arm = 0;
  std::uint64_t rng = 7;
  const double t0 = now_sec();
  for (std::uint64_t i = 0; i < n; ++i) {
    const int phase = static_cast<int>(i % core::kPhaseKinds);
    arm = policy->select(phase, arm, penalty);
    policy->reward(phase, arm, 40.0 + static_cast<double>(mix(rng) % 32));
  }
  const double wall = now_sec() - t0;
  // Keep the final table state observable so the loop cannot be discarded.
  if (policy->stats(0, arm).pulls < 0.0) check_failed("arm-select: negative pull count\n");
  return wall;
}

// --- fig2-point ------------------------------------------------------------
//
// One seeded (cfq, cfq) wordcount run on the paper testbed — the end-to-end
// cost of one Fig. 2 matrix cell at the paper's full 512 MB per VM, i.e.
// what iosim-sweep pays per scenario point.

double bench_fig2_point() {
  cluster::ClusterConfig cfg = paper_cluster();
  cfg.seed = 1;
  const auto jc = workloads::make_job(workloads::wordcount());
  const double t0 = now_sec();
  const auto rr = cluster::run_job(cfg, jc);
  const double wall = now_sec() - t0;
  if (rr.failed) check_failed("fig2-point: run failed: %s\n", rr.failure.c_str());
  return wall;
}

double best_of(int reps, double (*fn)()) {
  double best = fn();
  for (int i = 1; i < reps; ++i) best = std::min(best, fn());
  return best;
}

template <class Fn>
double best_of_fn(int reps, Fn fn) {
  double best = fn();
  for (int i = 1; i < reps; ++i) best = std::min(best, fn());
  return best;
}

void row(const char* name, double per_sec, double wall) {
  std::printf("  %-18s %14.0f /sec   best wall %8.3f s\n", name, per_sec, wall);
}

}  // namespace

int main(int argc, char** argv) {
  const Telemetry telemetry(argc, argv, {"--reps"}, {"--quick"});
  int reps = 3;
  if (const auto v = telemetry.value("--reps"); v && (!lex::parse_int(*v, &reps) || reps < 1)) {
    std::fprintf(stderr, "micro_sim: --reps expects a positive integer, got '%s'\n", v->c_str());
    return 2;
  }
  // Divide workloads by this (for test smoke runs).
  const std::uint64_t scale = telemetry.has("--quick") ? 16 : 1;

  print_header("micro_sim", "event-loop hot-path microbenchmarks");
  std::printf("reps: %d (reporting the best), scale divisor: %" PRIu64 "\n\n", reps,
              scale);

  const std::uint64_t n_fire = 2'000'000 / scale;
  const double fire_wall =
      best_of_fn(reps, [&] { return bench_schedule_fire(n_fire, 4096); });
  const double fire_rate = static_cast<double>(n_fire) / fire_wall;
  row("schedule-fire", fire_rate, fire_wall);
  report().add("schedule_fire.events_per_sec", fire_rate);
  report().add("schedule_fire.wall_seconds", fire_wall);

  const std::uint64_t n_cancel = 1'000'000 / scale;
  const double cancel_wall =
      best_of_fn(reps, [&] { return bench_schedule_cancel(n_cancel, 4096); });
  const double cancel_rate = static_cast<double>(n_cancel) / cancel_wall;
  row("schedule-cancel", cancel_rate, cancel_wall);
  report().add("schedule_cancel.pairs_per_sec", cancel_rate);
  report().add("schedule_cancel.wall_seconds", cancel_wall);

  const std::uint64_t n_bio = 400'000 / scale;
  const double bio_wall =
      best_of_fn(reps, [&] { return bench_bio_roundtrip(n_bio, 64); });
  const double bio_rate = static_cast<double>(n_bio) / bio_wall;
  row("bio-roundtrip", bio_rate, bio_wall);
  report().add("bio_roundtrip.bios_per_sec", bio_rate);
  report().add("bio_roundtrip.wall_seconds", bio_wall);

  for (const int n_layers : {1, 64}) {
    const double rr_wall =
        best_of_fn(reps, [&] { return bench_blk_roundtrip(n_bio, n_layers); });
    const double ns_per_bio = 1e9 * rr_wall / static_cast<double>(n_bio);
    std::printf("  %-18s %14.1f ns/bio best wall %8.3f s\n",
                n_layers == 1 ? "blk-rt (l1)" : "blk-rt (l64)", ns_per_bio, rr_wall);
    report().add(n_layers == 1 ? "blk_roundtrip_l1.ns_per_bio"
                                      : "blk_roundtrip_l64.ns_per_bio",
                        ns_per_bio);
  }

  const std::uint64_t n_domu = 200'000 / scale;
  const double domu_off_wall =
      best_of_fn(reps, [&] { return bench_domu_roundtrip(n_domu, 32, false); });
  const double domu_off_rate = static_cast<double>(n_domu) / domu_off_wall;
  row("domu-rt (attr off)", domu_off_rate, domu_off_wall);
  report().add("domu_roundtrip_attr_off.bios_per_sec", domu_off_rate);
  report().add("domu_roundtrip_attr_off.wall_seconds", domu_off_wall);

  const double domu_on_wall =
      best_of_fn(reps, [&] { return bench_domu_roundtrip(n_domu, 32, true); });
  const double domu_on_rate = static_cast<double>(n_domu) / domu_on_wall;
  row("domu-rt (attr on)", domu_on_rate, domu_on_wall);
  report().add("domu_roundtrip_attr_on.bios_per_sec", domu_on_rate);
  report().add("domu_roundtrip_attr_on.wall_seconds", domu_on_wall);
  std::printf("  attribution overhead: %+.1f%% wall\n",
              100.0 * (domu_on_wall - domu_off_wall) / domu_off_wall);

  const std::uint64_t n_rounds = std::max<std::uint64_t>(1, 16 / scale);
  const std::uint64_t n_flows = n_rounds * kShuffleHosts * kShuffleHosts;
  const double shuffle_wall = best_of_fn(reps, [&] { return bench_net_shuffle(n_rounds); });
  const double shuffle_rate = static_cast<double>(n_flows) / shuffle_wall;
  row("net-shuffle (h32)", shuffle_rate, shuffle_wall);
  report().add("net_shuffle_h32.flows_per_sec", shuffle_rate);
  report().add("net_shuffle_h32.wall_seconds", shuffle_wall);

  const std::uint64_t n_arm = 1'000'000 / scale;
  const double arm_wall = best_of_fn(reps, [&] { return bench_arm_select(n_arm); });
  const double arm_rate = static_cast<double>(n_arm) / arm_wall;
  row("arm-select", arm_rate, arm_wall);
  report().add("arm_select.decisions_per_sec", arm_rate);
  report().add("arm_select.wall_seconds", arm_wall);

  const double fig2_wall = best_of(reps, bench_fig2_point);
  std::printf("  %-18s %14s        best wall %8.3f s\n", "fig2-point", "-", fig2_wall);
  report().add("fig2_point.wall_seconds", fig2_wall);

  std::printf("\n");
  if (g_failed_checks != 0) {
    std::fprintf(stderr, "micro_sim: %d self-check(s) failed\n", g_failed_checks);
    return 1;
  }
  return 0;
}
