// Differential rig for the blkfront ring: the production ring, which crosses
// the ring with one simulator event per guest request going in and one per
// return batch coming back, against a test-only copy of the per-segment ring
// it replaced (legacy_blkfront_ring.hpp). Each side builds the same stack —
// 1 to 4 guest block layers, each behind its own ring, sharing one Dom0
// layer over one DiskDevice — on its own simulator and replays the same
// seeded stream of guest bios (1 to 512 sectors, mixed direction and sync,
// bursts at one instant), or a hand-built one. Every observable must agree:
//   * every guest bio's completion, in completion order: (bio, ns, status);
//   * BlockLayerCounters of every layer, busy_ns included;
//   * each ring's outstanding count, and the request's LBA, size and bio
//     count, at every dispatch and completion of every layer, which pins
//     the ring's accounting and the Dom0 merges event by event;
//   * the auditor's report (ring bounds and conservation are audited) and
//     the attribution sketches (segments carry the guest handle);
//   * with `observe` set (the default), the tracer's whole export too: every
//     per-bio hook (bio submit and merge instants, request spans, the
//     held-bio count at a drained switch) fires as on the per-segment ring.
// Only Simulator::executed() may differ, and must be lower with the
// production ring. The production ring hands each guest request to Dom0 in
// one BlockLayer::submit_segments call; the legacy ring submits one bio per
// segment, so the rig also checks that the batched Dom0 entry is exact.
//
// Two drives: `kSeek`, the default seek/rotate/transfer model, and
// `kInstant`, a drive with zero service time. A Dom0 request carries the
// segments of one VM only (merges keep to one ctx), so with a real drive
// every return at one instant comes from one completion, back to back. The
// instant drive completes many Dom0 requests of different VMs at one
// instant, each in its own event, so one ring's returns at that instant are
// split by other rings' batches — the case that decides whether a return
// may still join its ring's pending batch.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blk/block_layer.hpp"
#include "blk/disk_device.hpp"
#include "check/check.hpp"
#include "fault/fault_injector.hpp"
#include "iosched/pair.hpp"
#include "legacy_blkfront_ring.hpp"
#include "obs/attribution.hpp"
#include "trace/trace.hpp"
#include "virt/blkfront_ring.hpp"

namespace iosim::virt::test {

enum class Drive : std::uint8_t { kSeek, kInstant };

struct GuestBio {
  sim::Time at;
  int vm = 0;
  std::uint64_t ctx = 0;
  disk::Lba lba = 0;
  std::int64_t sectors = 0;
  iosched::Dir dir = iosched::Dir::kRead;
  bool sync = true;
};

struct OracleCase {
  iosched::SchedulerPair pair;
  int vms = 1;
  Drive drive = Drive::kSeek;
  std::uint64_t seed = 1;
  /// Transient I/O-error probability at the disk (0 = no fault plan).
  double error_p = 0.0;
  /// Install the auditor, the attribution and a tracer.
  bool observe = true;
  /// The Dom0 layer's merge limit (BlockLayerConfig::max_request_sectors).
  std::int64_t dom0_max_sectors = 512;
  /// Times of Dom0 elevator switches; the i-th targets the kind i + 1
  /// places after the VMM elevator in enum order.
  std::vector<sim::Time> switches = {};
  /// The guest bios to replay; empty means make_stream(*this).
  std::vector<GuestBio> stream = {};
};

struct Completion {
  int bio = 0;
  std::int64_t ns = 0;
  iosched::IoStatus status = iosched::IoStatus::kOk;
  bool operator==(const Completion&) const = default;
};

/// One layer event seen by an observer, with every ring's occupancy.
struct RingSample {
  int layer = 0;  // 0 = Dom0, 1 + v = guest v
  bool dispatch = false;
  std::uint64_t rq_id = 0;
  std::int64_t ns = 0;
  disk::Lba lba = 0;
  std::int64_t sectors = 0;
  std::uint32_t n_bios = 0;
  std::vector<int> outstanding;
  bool operator==(const RingSample&) const = default;
};

struct Outcome {
  std::vector<Completion> completions;
  std::vector<blk::BlockLayerCounters> counters;  // Dom0, then guests
  std::vector<RingSample> ring_samples;
  std::string audit;
  std::uint64_t violations = 0;
  std::vector<std::string> attr_keys;
  std::vector<std::int64_t> attr_lanes;  // count, sum, min, max per lane
  std::string trace;         // Chrome JSON export; empty unless observed
  std::int64_t held_bios = 0;  // bios held behind Dom0 switches (traced)
  std::uint64_t executed = 0;
  std::int64_t end_ns = 0;
};

inline std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}


inline constexpr disk::Lba kImageSectors = disk::Lba{1} << 22;
inline constexpr int kBiosPerVm = 120;

/// The seeded guest bio stream of one case: per guest task a sequential
/// cursor, mixed with random placements; arrivals in bursts that often
/// share an instant.
inline std::vector<GuestBio> make_stream(const OracleCase& c) {
  std::uint64_t rng = c.seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(c.vms);
  std::vector<GuestBio> out;
  std::vector<disk::Lba> cursor(static_cast<std::size_t>(c.vms) * 3, 0);
  sim::Time t = sim::Time::zero();
  const int total = kBiosPerVm * c.vms;
  while (static_cast<int>(out.size()) < total) {
    t += sim::Time::from_us(static_cast<std::int64_t>(mix(rng) % 4) * 1000);
    const int burst = 1 + static_cast<int>(mix(rng) % 6);
    for (int b = 0; b < burst && static_cast<int>(out.size()) < total; ++b) {
      GuestBio g;
      g.at = t;
      g.vm = static_cast<int>(mix(rng) % static_cast<std::uint64_t>(c.vms));
      const int task = static_cast<int>(mix(rng) % 3);
      g.ctx = 1 + static_cast<std::uint64_t>(task);
      disk::Lba& cur = cursor[static_cast<std::size_t>(g.vm * 3 + task)];
      const std::uint64_t shape = mix(rng) % 3;
      g.sectors = shape == 0 ? 512
                  : shape == 1 ? 1 + static_cast<std::int64_t>(mix(rng) % 512)
                               : 88 * (1 + static_cast<std::int64_t>(mix(rng) % 5));
      const bool sequential = mix(rng) % 5 < 3;
      if (sequential) {
        g.lba = cur;
        cur += g.sectors;
      } else {
        g.lba = static_cast<disk::Lba>(mix(rng) % (1 << 20)) / 8 * 8;
      }
      g.dir = mix(rng) % 2 == 0 ? iosched::Dir::kRead : iosched::Dir::kWrite;
      g.sync = g.dir == iosched::Dir::kRead || mix(rng) % 4 == 0;
      out.push_back(g);
    }
  }
  // Keep every access inside its image.
  for (GuestBio& g : out) g.lba %= kImageSectors - 512;
  return out;
}

/// The drive of `d`: the default model, or one whose every service time
/// rounds to 0 ns.
inline disk::DiskParams drive_params(Drive d) {
  disk::DiskParams p;
  if (d == Drive::kInstant) {
    p.command_overhead = sim::Time::zero();
    p.seek_min = p.seek_max = p.near_settle = sim::Time::zero();
    p.rpm = 1e12;
    p.outer_mb_s = p.inner_mb_s = 1e9;
  }
  return p;
}

inline void fold_attribution(obs::Attribution& a, Outcome& o) {
  for (std::size_t i = 0; i < a.n_keys(); ++i) {
    o.attr_keys.push_back(obs::Attribution::key_name(a.key_at(i)));
    for (int l = 0; l < obs::kNumLanes; ++l) {
      const obs::QuantileSketch& s = a.lane(i, static_cast<obs::Lane>(l));
      o.attr_lanes.push_back(static_cast<std::int64_t>(s.count()));
      o.attr_lanes.push_back(s.sum());
      o.attr_lanes.push_back(s.min());
      o.attr_lanes.push_back(s.max());
    }
  }
  o.attr_lanes.push_back(static_cast<std::int64_t>(a.records_created()));
  o.attr_lanes.push_back(static_cast<std::int64_t>(a.records_completed()));
}

/// Build the stack around `Ring` and replay the case's bio stream.
template <class Ring>
Outcome run_case(const OracleCase& c) {
  std::optional<check::AuditorSession> audit;
  std::optional<obs::AttributionSession> attr;
  std::optional<trace::TraceSession> tracing;
  if (c.observe) {
    audit.emplace(check::Auditor::Mode::kRecord);
    attr.emplace();
    tracing.emplace();
  }
  sim::Simulator simr;
  std::optional<fault::FaultInjector> faults;
  if (c.error_p > 0.0) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kTransientError;
    spec.host = 0;
    spec.probability = c.error_p;
    faults.emplace(simr, fault::FaultPlan{{spec}}, c.seed);
  }
  blk::DiskDevice disk(simr, drive_params(c.drive), c.seed, faults ? &*faults : nullptr, 0);
  blk::BlockLayerConfig dcfg;
  dcfg.scheduler = c.pair.vmm;
  dcfg.name = "dom0";
  dcfg.obs_role = obs::LayerRole::kDom0;
  dcfg.max_request_sectors = c.dom0_max_sectors;
  // Short enough that several switches fit in one stream.
  dcfg.switch_freeze = sim::Time::from_ms(20);
  blk::BlockLayer dom0(simr, disk, dcfg);

  std::vector<std::unique_ptr<Ring>> rings;
  std::vector<std::unique_ptr<blk::BlockLayer>> guests;
  for (int v = 0; v < c.vms; ++v) {
    rings.push_back(
        std::make_unique<Ring>(simr, dom0, 100 + v, v * kImageSectors, RingParams{}));
    blk::BlockLayerConfig gcfg;
    gcfg.scheduler = c.pair.guest;
    gcfg.name = "vm" + std::to_string(v);
    gcfg.obs_role = obs::LayerRole::kGuest;
    gcfg.obs_vm = v;
    guests.push_back(std::make_unique<blk::BlockLayer>(simr, *rings.back(), gcfg));
  }

  Outcome o;
  std::vector<blk::ObserverHandle> handles;
  const auto watch = [&](blk::BlockLayer& layer, int idx) {
    for (const bool dispatch : {false, true}) {
      auto fn = [&o, &rings, idx, dispatch](const blk::BlockLayer&,
                                             const iosched::Request& rq, sim::Time now) {
        RingSample s{idx, dispatch, rq.id, now.ns(), rq.lba, rq.sectors, rq.n_bios, {}};
        for (const auto& r : rings) s.outstanding.push_back(r->outstanding());
        o.ring_samples.push_back(std::move(s));
      };
      handles.push_back(dispatch ? layer.add_dispatch_observer(fn)
                                 : layer.add_completion_observer(fn));
    }
  };
  watch(dom0, 0);
  for (int v = 0; v < c.vms; ++v) watch(*guests[static_cast<std::size_t>(v)], 1 + v);

  for (std::size_t i = 0; i < c.switches.size(); ++i) {
    const auto kind = static_cast<iosched::SchedulerKind>(
        (static_cast<std::size_t>(c.pair.vmm) + 1 + i) % iosched::kNumSchedulerKinds);
    simr.at(c.switches[i], [&dom0, kind] { dom0.switch_scheduler(kind); });
  }
  const std::vector<GuestBio> stream = c.stream.empty() ? make_stream(c) : c.stream;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    simr.at(stream[i].at, [&, i] {
      const GuestBio& g = stream[i];
      blk::Bio bio;
      bio.lba = g.lba;
      bio.sectors = g.sectors;
      bio.dir = g.dir;
      bio.sync = g.sync;
      bio.ctx = g.ctx;
      bio.on_complete = [&o, i](sim::Time t, iosched::IoStatus st) {
        o.completions.push_back({static_cast<int>(i), t.ns(), st});
      };
      guests[static_cast<std::size_t>(g.vm)]->submit(std::move(bio));
    });
  }
  simr.run();

  if (c.observe) {
    audit->auditor().verify_end_of_run(simr.now().ns());
    o.audit = audit->auditor().report().to_string();
    o.violations = audit->auditor().violations_total();
    fold_attribution(attr->attribution(), o);
    const trace::Tracer& tr = tracing->tracer();
    o.trace = tr.to_json();
    tr.for_each([&o, &tr](const trace::Event& e) {
      if (e.name == tr.ids.drain_done) o.held_bios += e.arg[0];
    });
  }
  o.counters.push_back(dom0.counters());
  for (const auto& g : guests) o.counters.push_back(g->counters());
  o.executed = simr.executed();
  o.end_ns = simr.now().ns();
  return o;
}

inline void expect_same_counters(const blk::BlockLayerCounters& a,
                                 const blk::BlockLayerCounters& b, std::size_t layer) {
  EXPECT_EQ(a.bios_submitted, b.bios_submitted) << "layer " << layer;
  EXPECT_EQ(a.back_merges, b.back_merges) << "layer " << layer;
  EXPECT_EQ(a.requests_dispatched, b.requests_dispatched) << "layer " << layer;
  EXPECT_EQ(a.requests_completed, b.requests_completed) << "layer " << layer;
  EXPECT_EQ(a.requests_failed, b.requests_failed) << "layer " << layer;
  EXPECT_EQ(a.bytes_completed[0], b.bytes_completed[0]) << "layer " << layer;
  EXPECT_EQ(a.bytes_completed[1], b.bytes_completed[1]) << "layer " << layer;
  EXPECT_EQ(a.scheduler_switches, b.scheduler_switches) << "layer " << layer;
  EXPECT_EQ(a.busy_ns, b.busy_ns) << "layer " << layer;
}

/// Guest bios of `o` that completed with an error.
inline std::uint64_t failed_bios(const Outcome& o) {
  std::uint64_t failed = 0;
  for (const Completion& done : o.completions) {
    failed += done.status != iosched::IoStatus::kOk ? 1 : 0;
  }
  return failed;
}

/// (lba, sectors, n_bios) of every request the Dom0 layer dispatched, in
/// dispatch order.
inline std::vector<std::array<std::int64_t, 3>> dom0_dispatches(const Outcome& o) {
  std::vector<std::array<std::int64_t, 3>> out;
  for (const RingSample& s : o.ring_samples) {
    if (s.layer == 0 && s.dispatch) out.push_back({s.lba, s.sectors, s.n_bios});
  }
  return out;
}

/// Run one case on both rings and require identical observables. Returns
/// the production ring's outcome, so callers can check the case exercised
/// what it was built for.
inline Outcome expect_rings_agree(const OracleCase& c) {
  const Outcome fresh = run_case<BlkfrontRing>(c);
  const Outcome legacy = run_case<LegacyBlkfrontRing>(c);
  EXPECT_EQ(fresh.completions.size(), c.stream.empty()
                                          ? static_cast<std::size_t>(kBiosPerVm * c.vms)
                                          : c.stream.size());
  EXPECT_TRUE(fresh.completions == legacy.completions) << "per-bio completions differ";
  EXPECT_TRUE(fresh.ring_samples == legacy.ring_samples) << "ring occupancy differs";
  EXPECT_EQ(fresh.counters.size(), legacy.counters.size());
  for (std::size_t i = 0; i < fresh.counters.size() && i < legacy.counters.size(); ++i) {
    expect_same_counters(fresh.counters[i], legacy.counters[i], i);
  }
  EXPECT_EQ(fresh.violations, 0u) << fresh.audit;
  EXPECT_EQ(fresh.audit, legacy.audit);
  EXPECT_EQ(fresh.attr_keys, legacy.attr_keys);
  EXPECT_EQ(fresh.attr_lanes, legacy.attr_lanes);
  EXPECT_TRUE(fresh.trace == legacy.trace) << "trace exports differ";
  EXPECT_EQ(fresh.held_bios, legacy.held_bios);
  EXPECT_EQ(fresh.end_ns, legacy.end_ns);
  EXPECT_LT(fresh.executed, legacy.executed);
  return fresh;
}

}  // namespace iosim::virt::test
