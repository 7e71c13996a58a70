#include "virt/domu.hpp"

#include <cassert>

#include "virt/io_stream.hpp"

namespace iosim::virt {

DomU::DomU(sim::Simulator& simr, std::uint64_t vm_ctx, blk::BlockLayer& dom0,
           Lba image_base, Lba image_sectors, const DomUConfig& cfg)
    : vm_ctx_(vm_ctx), image_sectors_(image_sectors) {
  ring_ = std::make_unique<BlkfrontRing>(simr, dom0, vm_ctx, image_base, cfg.ring);
  guest_layer_ = std::make_unique<blk::BlockLayer>(simr, *ring_, cfg.guest_blk);

  const Lba data_sz = static_cast<Lba>(static_cast<double>(image_sectors) * cfg.data_frac);
  const Lba scratch_sz = static_cast<Lba>(static_cast<double>(image_sectors) * cfg.scratch_frac);
  const Lba output_sz = image_sectors - data_sz - scratch_sz;
  zones_[0] = Zone{0, data_sz, 0};
  zones_[1] = Zone{data_sz, scratch_sz, data_sz};
  zones_[2] = Zone{data_sz + scratch_sz, output_sz, data_sz + scratch_sz};
}

DomU::~DomU() = default;

void DomU::submit_io(std::uint64_t ctx, Lba vlba, std::int64_t sectors, Dir dir,
                     bool sync,
                     iosched::BioCompletionFn on_complete) {
  assert(vlba >= 0 && vlba + sectors <= image_sectors_);
  blk::Bio bio;
  bio.lba = vlba;
  bio.sectors = sectors;
  bio.dir = dir;
  bio.sync = sync;
  bio.ctx = ctx;
  bio.on_complete = std::move(on_complete);
  guest_layer_->submit(std::move(bio));
}

Lba DomU::alloc(DiskZone zone, Lba sectors) {
  Zone& z = zones_[static_cast<int>(zone)];
  assert(sectors <= z.size);
  if (z.next + sectors > z.base + z.size) z.next = z.base;  // wrap: reuse
  const Lba at = z.next;
  z.next += sectors;
  return at;
}

}  // namespace iosim::virt
