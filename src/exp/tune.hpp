// iosim: the model tunables an experiment may set, in one table.
//
// Each tunable (tune.cpp) is a dotted name with a unit, a range and a
// one-line doc, and a setter on the ClusterConfig, JobConf or PhasePlan a
// scenario point is materialized into (exp/runner.hpp). A spec's `tune=`
// axis and iosimctl's `--tune` take `;`-joined `name=value` lists of them;
// no other code sets these fields for an experiment.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/phase_plan.hpp"
#include "mapred/job_conf.hpp"

namespace iosim::exp {

struct Tunable {
  const char* name;
  const char* unit;
  double min, max;
  bool integer;  // the value must be a whole number
  const char* doc;
  // Exactly one setter is set: the object the value lands on.
  void (*cluster)(cluster::ClusterConfig&, double) = nullptr;
  void (*job)(mapred::JobConf&, double) = nullptr;
  void (*plan)(core::PhasePlan&, double) = nullptr;
};

/// The table: dom0.as.antic_expire_ms, dom0.cfq.slice_sync_ms,
/// dom0.cfq.slice_idle_ms, ring_slots, switch_freeze_ms, ncq_depth,
/// meta.phases, mapred.speculate.
std::span<const Tunable> tunables();

/// One `tune=` alternative: settings with distinct names, in the order given.
struct TuneList {
  std::vector<std::pair<const Tunable*, double>> settings;

  /// Parse `name=value[;name=value...]`. nullopt + a one-line diagnostic on
  /// an unknown name, a value outside the range (or not whole where the
  /// tunable counts), or a name given twice.
  static std::optional<TuneList> parse(std::string_view text, std::string* error = nullptr);

  /// Canonical text: `name=value` joined by `;`, "" when empty.
  std::string to_string() const;

  bool empty() const { return settings.empty(); }

  /// Apply the settings whose setter is `setter` (&Tunable::cluster, ::job
  /// or ::plan) to `target`.
  template <class T>
  void apply(T& target, void (*Tunable::*setter)(T&, double)) const {
    for (const auto& [t, v] : settings) {
      if (t->*setter) (t->*setter)(target, v);
    }
  }
};

}  // namespace iosim::exp
