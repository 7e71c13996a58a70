// iosim: cluster assembly — one call builds the paper's testbed (hosts,
// VMs, vCPUs, network, HDFS) around a fresh simulator.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault_injector.hpp"
#include "iosched/pair.hpp"
#include "mapred/cluster_env.hpp"
#include "membership/membership.hpp"
#include "sim/simulator.hpp"
#include "net/flow_network.hpp"
#include "virt/physical_host.hpp"

namespace iosim::cluster {

using iosched::SchedulerPair;

struct ClusterConfig {
  int n_hosts = 4;
  int vms_per_host = 4;
  virt::HostConfig host;
  net::NetParams net;
  /// Initial (VMM, guest) elevator pair, installed at construction (no
  /// switch cost — the machine boots with it).
  SchedulerPair pair = iosched::kDefaultPair;
  /// Faults to inject during the run; empty = fault-free (no injector is
  /// even constructed, so behavior is bit-identical to pre-fault builds).
  fault::FaultPlan faults;
  /// Event-loop progress sentinel installed on the cluster's simulator
  /// (run_job turns a tripped budget into a failed RunResult instead of
  /// spinning forever on a livelocked simulation). Default: unlimited.
  sim::SimBudget budget;
  std::uint64_t seed = 1;
};

/// Owns every component of one simulated testbed. Build, wire a workload,
/// then drive `simr().run()`.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& simr() { return simr_; }
  mapred::ClusterEnv& env() { return env_; }
  const ClusterConfig& config() const { return cfg_; }

  int n_vms() const { return cfg_.n_hosts * cfg_.vms_per_host; }
  std::size_t n_hosts() const { return hosts_.size(); }
  virt::PhysicalHost& host(std::size_t i) { return *hosts_[i]; }

  /// Switch the pair on every host and guest (pays the quiesce freeze on
  /// every block layer — this is the meta-scheduler's runtime action).
  /// Unconditional: bypasses fault injection. Controllers should prefer
  /// try_switch_pair.
  void switch_pair(SchedulerPair p) {
    for (auto& h : hosts_) h->set_pair(p);
  }

  /// Issue the switch command through the fault layer. Returns false when
  /// the command fails (the old pair stays installed on every host — the
  /// caller owns retry policy). A delayed command returns true and lands
  /// after the injected latency. Without an injector this is switch_pair.
  bool try_switch_pair(SchedulerPair p);

  SchedulerPair pair() const { return hosts_.front()->pair(); }

  /// The fault injector, or null for a fault-free cluster.
  fault::FaultInjector* faults() { return faults_.get(); }

  /// The membership service (failure detector / blacklist / re-replication),
  /// or null for a fault-free cluster — it exists exactly when faults() does.
  membership::MembershipService* membership() { return members_.get(); }

 private:
  ClusterConfig cfg_;
  sim::Simulator simr_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<membership::MembershipService> members_;
  std::vector<std::unique_ptr<virt::PhysicalHost>> hosts_;
  std::vector<std::unique_ptr<mapred::VCpu>> cpus_;
  std::unique_ptr<net::FlowNetwork> net_;
  std::unique_ptr<hdfs::Hdfs> dfs_;
  mapred::ClusterEnv env_;
};

}  // namespace iosim::cluster
