// iosim: cluster-wide phase inference across co-running jobs.
//
// The paper's meta-scheduler keys its (Dom0, DomU) elevator choice on the
// job's MapReduce phase. With one job per cluster the phase is the job's
// phase; with an open-arrival stream the disks serve a *mixture* — job A
// may be spilling map output while job B shuffles. PhaseAggregator folds
// the live jobs' phases into one per-cluster phase: the modal phase over
// running jobs, ties resolved toward the earlier phase (map < shuffle <
// reduce — the conservative choice, since map-phase I/O dominates a mixed
// disk's access pattern). The stream engine feeds the result to
// obs::Attribution::set_phase and, optionally, to an adaptive per-phase
// pair switch.
#pragma once

#include <functional>
#include <vector>

namespace iosim::tenancy {

class PhaseAggregator {
 public:
  /// Fires when the aggregate phase changes (0 = map, 1 = shuffle,
  /// 2 = reduce). Never fires twice for the same value.
  std::function<void(int)> on_cluster_phase;

  void job_admitted(int job_id) { jobs_.push_back({job_id, 0}); recompute(); }
  void job_phase(int job_id, int phase) {
    for (auto& [id, ph] : jobs_) {
      if (id == job_id) ph = phase;
    }
    recompute();
  }
  void job_retired(int job_id) {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].first == job_id) {
        jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    recompute();
  }

  int live_jobs() const { return static_cast<int>(jobs_.size()); }

 private:
  void recompute() {
    if (jobs_.empty()) return;  // hold the last phase through idle gaps
    int counts[3] = {0, 0, 0};
    for (const auto& [id, ph] : jobs_) {
      if (ph >= 0 && ph <= 2) ++counts[ph];
    }
    int best = 0;
    for (int p = 1; p < 3; ++p) {
      if (counts[p] > counts[best]) best = p;  // strict: ties keep earlier
    }
    if (best != current_) {
      current_ = best;
      if (on_cluster_phase) on_cluster_phase(current_);
    }
  }

  std::vector<std::pair<int, int>> jobs_;  // (job_id, phase), admission order
  int current_ = 0;
};

}  // namespace iosim::tenancy
