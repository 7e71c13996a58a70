#include "cluster/cluster.hpp"

namespace iosim::cluster {

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  sim::Rng seeder(cfg.seed);

  ClusterConfig c = cfg_;
  // Install the initial pair without a runtime switch.
  c.host.dom0_blk.scheduler = cfg.pair.vmm;
  c.host.domu.guest_blk.scheduler = cfg.pair.guest;

  // A fault-free cluster constructs no injector at all: every consumer keeps
  // its nullptr fast path and the event stream is bit-identical to builds
  // that predate fault injection. The injector draws its seed from the same
  // seeder position whether or not the plan is empty would NOT hold here —
  // so the draw only happens when a plan exists; fault-free runs see the
  // exact pre-fault seed sequence.
  if (!cfg.faults.empty()) {
    faults_ = std::make_unique<fault::FaultInjector>(
        simr_, cfg.faults, seeder.next_u64(), cfg.n_hosts * cfg.vms_per_host,
        cfg.vms_per_host);
  }

  for (int h = 0; h < cfg.n_hosts; ++h) {
    hosts_.push_back(std::make_unique<virt::PhysicalHost>(
        simr_, c.host, h,
        /*vm_ctx_base=*/static_cast<std::uint64_t>(h) * 100,
        /*seed=*/seeder.next_u64(), faults_.get()));
    for (int v = 0; v < cfg.vms_per_host; ++v) hosts_.back()->add_vm();
  }

  net_ = std::make_unique<net::FlowNetwork>(simr_, cfg.n_hosts, cfg.net);
  dfs_ = std::make_unique<hdfs::Hdfs>(n_vms(), cfg.vms_per_host, seeder.next_u64());

  env_.simr = &simr_;
  env_.net = net_.get();
  env_.dfs = dfs_.get();
  env_.faults = faults_.get();
  for (int h = 0; h < cfg.n_hosts; ++h) {
    for (int v = 0; v < cfg.vms_per_host; ++v) {
      cpus_.push_back(std::make_unique<mapred::VCpu>(simr_));
      mapred::VmHandle vh;
      vh.simr = &simr_;
      vh.vm = &hosts_[static_cast<std::size_t>(h)]->vm(static_cast<std::size_t>(v));
      vh.cpu = cpus_.back().get();
      vh.host = h;
      vh.global_id = h * cfg.vms_per_host + v;
      env_.vms.push_back(vh);
    }
  }

  // Membership rides the fault injector's vm_down/vm_up edges, so it exists
  // exactly when the injector does. Fault-free clusters build neither and
  // keep every consumer's nullptr fast path (and the pinned digests).
  if (faults_ != nullptr) {
    members_ = std::make_unique<membership::MembershipService>(env_);
    env_.members = members_.get();
  }
}

bool Cluster::try_switch_pair(SchedulerPair p) {
  if (faults_ == nullptr) {
    switch_pair(p);
    return true;
  }
  const auto verdict = faults_->switch_command();
  if (!verdict.ok) return false;
  if (verdict.delay > sim::Time::zero()) {
    // The command was accepted but the actuation path (e.g. sysfs write
    // fanned out over a slow management network) lags; the pair lands later.
    simr_.after(verdict.delay, [this, p] { switch_pair(p); });
    return true;
  }
  switch_pair(p);
  return true;
}

}  // namespace iosim::cluster
