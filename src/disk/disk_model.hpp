// iosim: mechanical hard-disk service-time model.
//
// Models a circa-2011 7200 rpm SATA drive (the paper's testbed used one
// dedicated 1 TB SATA disk per node): seek time as a concave function of
// seek distance, rotational latency drawn uniformly over one revolution on
// any non-contiguous access, and a zoned transfer rate that falls linearly
// from the outer to the inner diameter. The drive services one request at a
// time (no NCQ) — as with the paper's kernel-2.6.22-era stack, reordering is
// the I/O scheduler's job, which is exactly the effect under study.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace iosim::disk {

using sim::Time;

/// Logical block address in 512-byte sectors.
using Lba = std::int64_t;

inline constexpr std::int64_t kSectorBytes = 512;

/// Geometry / timing parameters. Defaults approximate a 1 TB 7200 rpm SATA
/// drive of the paper's era (e.g. WD1002FBYS / ST31000528AS class).
struct DiskParams {
  /// Total capacity in sectors (default 1 TB).
  Lba capacity_sectors = 2'000'000'000;

  /// Shortest possible seek (head settle onto an adjacent track).
  Time seek_min = Time::from_us(1000);
  /// Full-stroke seek.
  Time seek_max = Time::from_ms(16);
  /// Average seek ~ seek_min + (seek_max-seek_min) * avg_factor with the
  /// concave sqrt curve below; with these defaults ≈ 8.5 ms.

  /// Spindle speed; 7200 rpm => 8.33 ms per revolution.
  double rpm = 7200.0;

  /// Media transfer rate at the outer diameter (LBA 0) and inner diameter.
  /// Deliberately below the raw platter rate of a 2011 SATA drive: this is
  /// the *effective* streaming rate through the whole virtualized stack
  /// (blkfront copies, HDFS checksum files, filesystem metadata), which on
  /// the paper's class of testbed lands well under the ~130 MB/s raw rate.
  double outer_mb_s = 85.0;
  double inner_mb_s = 45.0;

  /// Fixed per-request controller/command overhead.
  Time command_overhead = Time::from_us(150);

  /// Accesses within this many sectors of the current head position are
  /// treated as "near": they pay a short settle instead of the seek curve
  /// (track-to-track / same-cylinder behaviour). 2048 sectors = 1 MB.
  Lba near_window_sectors = 2048;
  Time near_settle = Time::from_us(800);

  /// Native command queueing depth. 1 (default) models the paper's
  /// 2.6.22-era serial dispatch, where reordering is entirely the
  /// elevator's job; >1 lets the drive hold that many commands and service
  /// the one nearest the head — the `ncq_depth` tunable
  /// (bench/specs/ablation_ncq.spec: "would NCQ have erased the scheduler
  /// differences?").
  int ncq_depth = 1;

  Time rotation_period() const { return Time::from_sec_f(60.0 / rpm); }
};

/// One request as seen by the drive.
struct DiskAccess {
  Lba lba = 0;
  std::int64_t sectors = 0;
  bool is_write = false;
};

/// Pure service-time model. Owns the head position and a private RNG for
/// rotational phase; deterministic given seed and access sequence.
class DiskModel {
 public:
  explicit DiskModel(DiskParams params, std::uint64_t seed)
      : p_(params), rng_(seed) {}

  const DiskParams& params() const { return p_; }

  /// Sector the head sits after the last access (end of last transfer).
  Lba head() const { return head_; }

  /// Compute the service time for `a`, advancing the head. The caller (the
  /// block device) is responsible for serializing calls — the model assumes
  /// at most one outstanding access.
  Time service(const DiskAccess& a);

  /// Transfer time alone for `sectors` starting at `lba` (no positioning).
  Time transfer_time(Lba lba, std::int64_t sectors) const;

  /// Seek time alone for a head movement of `distance` sectors (>= 0),
  /// excluding rotational latency. Exposed for tests and calibration.
  Time seek_time(Lba distance) const;

  /// Sequential throughput at a given LBA, bytes/second. Exposed so tests
  /// can check zoning.
  double rate_at(Lba lba) const;

  /// Cumulative counters.
  std::int64_t total_accesses() const { return n_access_; }
  std::int64_t sequential_accesses() const { return n_sequential_; }
  Time busy_time() const { return busy_; }

 private:
  DiskParams p_;
  sim::Rng rng_;
  Lba head_ = 0;
  bool head_valid_ = false;
  std::int64_t n_access_ = 0;
  std::int64_t n_sequential_ = 0;
  Time busy_;
};

}  // namespace iosim::disk
