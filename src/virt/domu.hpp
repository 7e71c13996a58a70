// iosim: a guest VM (DomU) — its virtual disk, guest block layer, and a
// simple extent allocator for placing files on the virtual disk.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "blk/block_layer.hpp"
#include "sim/chunk_pool.hpp"
#include "virt/blkfront_ring.hpp"

namespace iosim::virt {

using disk::Lba;
using iosched::Dir;
using iosched::SchedulerKind;

/// Zones of a VM's virtual disk. Files of the same role are allocated near
/// each other — HDFS data near the front of the image, map/reduce scratch in
/// the middle, job output behind it — so intra-VM seeks have realistic
/// structure instead of a single bump pointer.
enum class DiskZone : std::uint8_t { kData = 0, kScratch = 1, kOutput = 2 };
inline constexpr int kNumDiskZones = 3;

class IoStream;

struct DomUConfig {
  blk::BlockLayerConfig guest_blk;
  RingParams ring;
  /// Zone split of the image: fractions of the image size (must sum <= 1).
  double data_frac = 0.40;
  double scratch_frac = 0.40;
};

class DomU {
 public:
  /// `vm_ctx` is the identity the Dom0 elevator sees for all of this VM's
  /// I/O; `image_base`/`image_sectors` is the VM disk image's physical
  /// extent on the host disk.
  DomU(sim::Simulator& simr, std::uint64_t vm_ctx, blk::BlockLayer& dom0,
       Lba image_base, Lba image_sectors, const DomUConfig& cfg);
  ~DomU();

  std::uint64_t vm_ctx() const { return vm_ctx_; }
  Lba image_sectors() const { return image_sectors_; }

  /// Submit one guest-level I/O. `ctx` identifies the issuing task inside
  /// the guest (the guest elevator's "process"). The callback receives the
  /// completion time and the outcome (kError when the physical command
  /// failed — propagated up through the split-driver ring).
  void submit_io(std::uint64_t ctx, Lba vlba, std::int64_t sectors, Dir dir,
                 bool sync, iosched::BioCompletionFn on_complete);

  /// Allocate `sectors` in the given zone of the virtual disk. Returns the
  /// starting virtual LBA. Wraps around within the zone when exhausted
  /// (scratch space is reused, like a filesystem reusing freed extents).
  Lba alloc(DiskZone zone, Lba sectors);

  void set_scheduler(SchedulerKind k) { guest_layer_->switch_scheduler(k); }
  SchedulerKind scheduler() const { return guest_layer_->scheduler_kind(); }

  blk::BlockLayer& layer() { return *guest_layer_; }
  const blk::BlockLayer& layer() const { return *guest_layer_; }

  /// The I/O streams issued on this VM (virt/io_stream.hpp).
  sim::ChunkPool<IoStream>& streams() { return streams_; }

 private:
  std::uint64_t vm_ctx_;
  Lba image_sectors_;
  std::unique_ptr<BlkfrontRing> ring_;
  std::unique_ptr<blk::BlockLayer> guest_layer_;

  struct Zone {
    Lba base;
    Lba size;
    Lba next;
  };
  Zone zones_[kNumDiskZones];

  sim::ChunkPool<IoStream> streams_;
};

}  // namespace iosim::virt
