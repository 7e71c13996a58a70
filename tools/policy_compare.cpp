// policy_compare — CI acceptance gate over a policy-comparison sweep.
//
//   policy_compare BENCH.json [--tol-offline 1.10] [--beat-static 1.0]
//
// Reads one sweep report in the standard BENCH format (the iosim-sweep
// engine) whose points carry a `meta=` axis, groups the points into
// families (identical label up to the meta= suffix — in fig7_online.spec a
// family is one stream workload mix), and asserts, per family:
//
//   offline gate   mean(seconds | ucb) <= tol_offline * best offline mean
//                  — the online bandit must land within the committed
//                  tolerance of Algorithm 1's profiled schedule, without
//                  any profiling pass of its own.
//   static gate    mean(seconds | ucb) < beat_static * worst static mean
//                  — on a family the profiler never saw (the spec's
//                  wc-nocombiner stream), learning live must beat pinning
//                  the wrong pair. Applied to every family that has a
//                  static point; the unseen family is where it bites.
//
// The sweep must use seed_mode=repeat (paired seeds): each family's points
// then replay identical arrival processes, so the ratios measure the
// policy, not the draw — and because every run is seed-deterministic, a
// gate can only start failing when the code under it changes.
//
// egreedy points are reported for context but never gate: the committed
// acceptance bar tracks one canonical online policy.
//
// Exit codes: 0 every gate passed; 1 a gate failed; 2 usage / unreadable /
// no gateable family found (a sweep with the axis missing must not turn
// the job green).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/json_parse.hpp"
#include "sim/text.hpp"

namespace {

struct FamilyStats {
  std::optional<double> ucb;
  std::optional<double> egreedy;
  std::optional<double> none;
  std::vector<std::pair<std::string, double>> offline;  // meta text, mean
  std::vector<std::pair<std::string, double>> statics;  // meta text, mean
};

int usage() {
  std::fprintf(stderr,
               "usage: policy_compare BENCH.json "
               "[--tol-offline RATIO] [--beat-static RATIO]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  double tol_offline = 1.10;
  double beat_static = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tol-offline") == 0 && i + 1 < argc) {
      if (!iosim::lex::parse_double(argv[++i], &tol_offline) || tol_offline <= 0.0) {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--beat-static") == 0 && i + 1 < argc) {
      if (!iosim::lex::parse_double(argv[++i], &beat_static) || beat_static <= 0.0) {
        return usage();
      }
    } else if (!path) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (!path) return usage();

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "policy_compare: cannot open %s\n", path);
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  const auto doc = iosim::exp::json_parse(ss.str(), &err);
  if (!doc) {
    std::fprintf(stderr, "policy_compare: %s: %s\n", path, err.c_str());
    return 2;
  }
  const auto* points = doc->find("points");
  if (!points || points->kind != iosim::exp::JsonValue::Kind::kArray) {
    std::fprintf(stderr, "policy_compare: %s: no \"points\" array\n", path);
    return 2;
  }

  std::map<std::string, FamilyStats> families;
  for (const auto& p : points->arr) {
    if (p.kind != iosim::exp::JsonValue::Kind::kObject) continue;
    const auto* label = p.find("label");
    const auto* metrics = p.find("metrics");
    if (!label || label->kind != iosim::exp::JsonValue::Kind::kString) continue;
    if (!metrics || metrics->kind != iosim::exp::JsonValue::Kind::kObject) continue;
    const auto* seconds = metrics->find("seconds");
    if (!seconds || seconds->kind != iosim::exp::JsonValue::Kind::kObject) continue;
    const auto* mean = seconds->find("mean");
    if (!mean || mean->kind != iosim::exp::JsonValue::Kind::kNumber) continue;

    // Family key = label minus the trailing " meta=..."; meta text = the
    // suffix ("none" when absent — the boot-pair baseline point).
    std::string family = label->str;
    std::string meta = "none";
    if (const auto pos = family.rfind(" meta="); pos != std::string::npos) {
      meta = family.substr(pos + 6);
      family.resize(pos);
    }
    FamilyStats& fs = families[family];
    if (meta == "none") {
      fs.none = mean->num;
    } else if (meta.rfind("policy=ucb", 0) == 0) {
      fs.ucb = mean->num;
    } else if (meta.rfind("policy=egreedy", 0) == 0) {
      fs.egreedy = mean->num;
    } else if (meta.rfind("policy=offline", 0) == 0) {
      fs.offline.emplace_back(meta, mean->num);
    } else if (meta.rfind("policy=static", 0) == 0) {
      fs.statics.emplace_back(meta, mean->num);
    }
  }

  std::printf("policy_compare: %s  (tol-offline %.2f, beat-static %.2f)\n",
              path, tol_offline, beat_static);
  int failures = 0;
  int gates = 0;
  for (const auto& [family, fs] : families) {
    std::printf("family: %s\n", family.c_str());
    if (fs.none) std::printf("  %-34s %8.1fs\n", "none (boot pair)", *fs.none);
    for (const auto& [m, v] : fs.statics) std::printf("  %-34s %8.1fs\n", m.c_str(), v);
    for (const auto& [m, v] : fs.offline) std::printf("  %-34s %8.1fs\n", m.c_str(), v);
    if (fs.ucb) std::printf("  %-34s %8.1fs\n", "policy=ucb", *fs.ucb);
    if (fs.egreedy)
      std::printf("  %-34s %8.1fs  (info, not gated)\n", "policy=egreedy", *fs.egreedy);
    if (!fs.ucb) {
      std::printf("  -> no ucb point; nothing to gate\n");
      continue;
    }
    if (!fs.offline.empty()) {
      double best = fs.offline.front().second;
      for (const auto& [m, v] : fs.offline) best = std::min(best, v);
      const double bound = tol_offline * best;
      const bool ok = *fs.ucb <= bound;
      ++gates;
      if (!ok) ++failures;
      std::printf("  -> offline gate: ucb %.1fs %s %.1fs (= %.2f x best offline %.1fs)  %s\n",
                  *fs.ucb, ok ? "<=" : ">", bound, tol_offline, best,
                  ok ? "ok" : "FAIL");
    }
    if (!fs.statics.empty()) {
      double worst = fs.statics.front().second;
      for (const auto& [m, v] : fs.statics) worst = std::max(worst, v);
      const double bound = beat_static * worst;
      const bool ok = *fs.ucb < bound;
      ++gates;
      if (!ok) ++failures;
      std::printf("  -> static gate:  ucb %.1fs %s %.1fs (= %.2f x worst static %.1fs)  %s\n",
                  *fs.ucb, ok ? "<" : ">=", bound, beat_static, worst,
                  ok ? "ok" : "FAIL");
    }
  }

  if (gates == 0) {
    std::fprintf(stderr,
                 "policy_compare: no family had both a ucb point and a "
                 "baseline to gate against\n");
    return 2;
  }
  if (failures > 0) {
    std::printf("policy_compare: FAIL — %d of %d gates failed\n", failures, gates);
    return 1;
  }
  std::printf("policy_compare: PASS — %d gates\n", gates);
  return 0;
}
