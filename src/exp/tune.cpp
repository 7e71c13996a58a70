#include "exp/tune.hpp"

#include <algorithm>
#include <cmath>

#include "sim/text.hpp"

namespace iosim::exp {

namespace {

sim::Time ms(double v) { return sim::Time::from_sec_f(v / 1e3); }

using Cfg = cluster::ClusterConfig;

constexpr Tunable kTunables[] = {
    {"dom0.as.antic_expire_ms", "ms", 0, 1000, false,
     "Dom0 anticipatory: longest wait for a sync reader's next request",
     [](Cfg& c, double v) { c.host.dom0_blk.tunables.as.antic_expire = ms(v); }},
    {"dom0.cfq.slice_sync_ms", "ms", 1, 1000, false,
     "Dom0 CFQ: time slice of a sync (per-process) queue",
     [](Cfg& c, double v) { c.host.dom0_blk.tunables.cfq.slice_sync = ms(v); }},
    {"dom0.cfq.slice_idle_ms", "ms", 0, 1000, false,
     "Dom0 CFQ: idle window kept open for an empty sync queue",
     [](Cfg& c, double v) { c.host.dom0_blk.tunables.cfq.slice_idle = ms(v); }},
    {"ring_slots", "slots", 1, 1024, true, "blkfront ring depth of every VM",
     [](Cfg& c, double v) { c.host.domu.ring.slots = static_cast<int>(v); }},
    {"switch_freeze_ms", "ms", 0, 60000, false,
     "elevator-switch quiesce on the Dom0 and every guest block layer",
     [](Cfg& c, double v) {
       c.host.dom0_blk.switch_freeze = ms(v);
       c.host.domu.guest_blk.switch_freeze = ms(v);
     }},
    {"ncq_depth", "commands", 1, 32, true, "drive command queue depth (1 = serial dispatch)",
     [](Cfg& c, double v) { c.host.disk.ncq_depth = static_cast<int>(v); }},
    {"meta.phases", "phases", 2, 3, true,
     "Algorithm 1's phases per job: 2 merges Ph2 into Ph3 (mode=adapt only)", nullptr, nullptr,
     [](core::PhasePlan& p, double v) { p.merge_shuffle_tail = (v == 2); }},
    {"mapred.speculate", "flag", 0, 1, true, "speculative map execution (not on stream points)",
     nullptr, [](mapred::JobConf& jc, double v) { jc.speculative_execution = (v == 1); }},
};

}  // namespace

std::span<const Tunable> tunables() { return kTunables; }

std::optional<TuneList> TuneList::parse(std::string_view text, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return std::nullopt;
  };
  TuneList out;
  for (const std::string_view field : lex::split(text, ';')) {
    const auto kv = lex::split_key_value(field);
    if (!kv) return fail("expected name=value, got '" + std::string(lex::trim(field)) + "'");
    const std::string name(lex::trim(kv->key));
    const std::string value(lex::trim(kv->value));
    const auto* t = std::find_if(std::begin(kTunables), std::end(kTunables),
                                 [&](const Tunable& x) { return name == x.name; });
    if (t == std::end(kTunables)) {
      std::string names;
      for (const Tunable& x : kTunables) {
        if (!names.empty()) names += '|';
        names += x.name;
      }
      return fail("unknown tunable '" + name + "' (" + names + ")");
    }
    for (const auto& [seen, v] : out.settings) {
      if (seen == t) return fail("tunable '" + name + "' given twice");
    }
    double v;
    if (!lex::parse_double(value, &v) || v < t->min || v > t->max ||
        (t->integer && v != std::floor(v))) {
      return fail("bad " + name + " '" + value + "' (" + (t->integer ? "a whole number " : "") +
                  lex::format_double(t->min) + ".." + lex::format_double(t->max) + " " + t->unit +
                  ")");
    }
    out.settings.emplace_back(t, v + 0.0);  // + 0.0: -0 renders as 0
  }
  return out;
}

std::string TuneList::to_string() const {
  std::string s;
  for (const auto& [t, v] : settings) {
    if (!s.empty()) s += ';';
    s += t->name;
    s += '=';
    s += lex::format_double(v);
  }
  return s;
}

}  // namespace iosim::exp
