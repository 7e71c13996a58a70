// iosim: tunables for the four disciplines.
//
// Defaults mirror the Linux 2.6.22 kernel defaults (the paper's guest and
// Dom0 kernel). Exposed as a struct so the tunables table (exp/tune.hpp) can
// set them; bench/specs/ablation_*.spec sweep the ones it names.
#pragma once

#include "sim/time.hpp"

namespace iosim::iosched {

using sim::Time;

struct DeadlineTunables {
  /// FIFO expiry per direction (kernel: read_expire=HZ/2, write_expire=5*HZ).
  Time read_expire = Time::from_ms(500);
  Time write_expire = Time::from_sec(5);
  /// Requests dispatched per batch before deadlines are re-examined.
  int fifo_batch = 16;
  /// Number of read batches allowed before a pending write batch must run.
  int writes_starved = 2;
};

struct AnticipatoryTunables {
  /// FIFO expiries (kernel: read_expire=HZ/8, write_expire=HZ/4).
  Time read_expire = Time::from_ms(125);
  Time write_expire = Time::from_ms(250);
  /// Batch time quanta (kernel: read_batch_expire=HZ/2, write=HZ/8).
  Time read_batch_expire = Time::from_ms(500);
  Time write_batch_expire = Time::from_ms(125);
  /// Maximum anticipation wait after a sync read completes.
  Time antic_expire = Time::from_ms(6);
  /// A candidate closer than this to the head is serviced instead of
  /// anticipating (sectors; 1024 = 512 KB).
  std::int64_t close_window_sectors = 1024;
  /// Anticipate while think_mean <= think_factor * antic_expire.
  double think_factor = 1.5;
  /// Think-time EWMA weights. Distrust builds quickly (a long gap or an
  /// anticipation timeout pushes the mean up fast) and decays slowly, like
  /// the kernel's asymmetric as_update_thinktime behaviour — otherwise a
  /// CPU-bound task's short intra-burst gaps would keep re-arming doomed
  /// anticipation at every compute boundary.
  double ewma_alpha_up = 0.5;
  double ewma_alpha_down = 0.125;
};

struct CfqTunables {
  /// Time slice for a sync (per-process) queue and for the shared async
  /// queue (kernel: slice_sync=100ms, slice_async=40ms at HZ=1000).
  Time slice_sync = Time::from_ms(100);
  Time slice_async = Time::from_ms(40);
  /// Idle window kept open for an empty-but-active sync queue.
  Time slice_idle = Time::from_ms(8);
  /// Idle only for queues whose mean think time stays within this bound
  /// (kernel: cfq_arm_slice_timer skips idling when ttime_mean exceeds
  /// slice_idle); expressed as a multiple of slice_idle.
  double idle_think_factor = 1.0;
  /// Think-time EWMA weights (asymmetric, as for AS).
  double ewma_alpha_up = 0.5;
  double ewma_alpha_down = 0.125;
  /// Max requests dispatched from the async queue per activation round
  /// (bounds write starvation of reads).
  int async_quantum = 16;
};

/// Aggregate handed to the factory; each discipline reads its own slice.
struct SchedTunables {
  DeadlineTunables deadline;
  AnticipatoryTunables as;
  CfqTunables cfq;
};

}  // namespace iosim::iosched
