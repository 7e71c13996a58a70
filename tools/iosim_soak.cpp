// iosim-soak: deterministic chaos soak for the simulator's invariants.
//
// Expands one master seed into N randomized configurations — scenario
// (workload, hosts, VMs, data size, Dom0/DomU scheduler pair) crossed with
// a generated fault plan — and runs every configuration TWICE with the
// invariant auditor armed (check::AuditorSession, record mode):
//
//   * any invariant violation in either run fails the configuration;
//   * the two runs' trace digests (FNV-1a over Tracer::to_json) must be
//     bit-identical — a mismatch means hidden nondeterminism;
//   * infra failures (budget stop, harness exception) fail it too. A job
//     that merely *fails* because of injected faults is a legitimate
//     simulated outcome and does not.
//
// On failure the configuration is greedily minimized (drop fault specs,
// shrink the cluster and data size) while the failure still reproduces,
// and the minimized configuration is written as a self-contained scenario
// spec file under --out-dir. Reproduce later with:
//
//   iosim-soak --repro soak-repro/repro-<seed>-<index>.txt
//
// Everything derives from --seed via sim::derive_run_seed, so a soak run
// is replayable byte-for-byte on any machine.
//
// Exit codes: 0 = all configurations clean, 1 = failures found (repro
// files written), 2 = usage error.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "exp/artifact.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/attribution.hpp"
#include "sim/random.hpp"
#include "sim/text.hpp"
#include "trace/trace.hpp"

namespace {

using iosim::exp::ScenarioSpec;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--runs N] [--out-dir DIR] [--quiet]\n"
               "       %s --repro FILE\n"
               "\n"
               "  --seed N      master seed; every configuration derives from it (default 1)\n"
               "  --runs N      number of randomized configurations (default 200)\n"
               "  --out-dir DIR where minimized repro spec files are written (default soak-repro)\n"
               "  --repro FILE  re-run one previously emitted repro spec file\n"
               "  --quiet       only print failures and the final summary\n",
               argv0, argv0);
  return 2;
}

// ---- configuration generation ---------------------------------------------

/// Generator parameters for one soak configuration. Kept structured (rather
/// than as text) so the minimizer can shrink fields and regenerate the spec.
struct SoakConfig {
  std::uint64_t base_seed = 1;
  int hosts = 1;
  int vms = 1;
  long long mb = 8;
  std::string pair = "cc";
  std::string workload = "sort";
  std::vector<std::string> fault_specs;  // joined with ';' into the fault axis
  std::string stream;         // multi-job stream axis; empty = single-job run
  std::string stream_policy;  // fifo/fair/capacity when stream is set
};

std::string fault_text(const SoakConfig& c) {
  std::string out;
  for (const auto& s : c.fault_specs) {
    if (!out.empty()) out += ';';
    out += s;
  }
  return out.empty() ? "none" : out;
}

std::string spec_text(const SoakConfig& c, const std::string& name) {
  std::ostringstream ss;
  ss << "name=" << name << "\n"
     << "mode=run\n"
     << "base_seed=" << c.base_seed << "\n"
     << "repeats=1\n"
     << "pair=" << c.pair << "\n"
     << "workload=" << c.workload << "\n"
     << "hosts=" << c.hosts << "\n"
     << "vms=" << c.vms << "\n"
     << "mb=" << c.mb << "\n"
     // Livelock backstop: generous enough that no legitimate configuration
     // in the ranges below comes near it, so tripping it is a failure.
     << "max_events=200000000\n"
     << "fault=" << fault_text(c) << "\n";
  if (!c.stream.empty()) {
    ss << "stream=" << c.stream << "\n"
       << "stream_policy=" << c.stream_policy << "\n";
  }
  return ss.str();
}

SoakConfig generate(std::uint64_t master, std::uint64_t index) {
  iosim::sim::Rng rng(iosim::sim::derive_run_seed(master, index));
  SoakConfig c;
  c.base_seed = rng.next_u64();
  c.hosts = static_cast<int>(rng.range(1, 2));
  c.vms = static_cast<int>(rng.range(1, 3));
  c.mb = rng.range(8, 32);
  static const char kSched[] = {'n', 'd', 'a', 'c'};
  c.pair = {kSched[rng.below(4)], kSched[rng.below(4)]};
  static const char* kWorkloads[] = {"sort", "wordcount", "wc-nocombiner"};
  c.workload = kWorkloads[rng.below(3)];

  char buf[160];
  if (rng.chance(0.5)) {  // low-rate transient errors (retries, not death)
    std::snprintf(buf, sizeof buf, "transient:host=%d,p=%.4f",
                  static_cast<int>(rng.range(-1, c.hosts - 1)),
                  0.001 + 0.019 * rng.uniform());
    c.fault_specs.push_back(buf);
  }
  if (rng.chance(0.4)) {  // disjoint latent-sector ranges (parser requires it)
    std::uint64_t lba = rng.below(1024);
    const int n = static_cast<int>(rng.range(1, 3));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t len = 16 + rng.below(512);
      std::snprintf(buf, sizeof buf, "lse:host=%d,lba=%llu-%llu",
                    static_cast<int>(rng.range(-1, c.hosts - 1)),
                    static_cast<unsigned long long>(lba),
                    static_cast<unsigned long long>(lba + len));
      c.fault_specs.push_back(buf);
      lba += len + 1 + rng.below(64);
    }
  }
  if (rng.chance(0.3)) {  // windowed slowdown
    const double from = rng.uniform(0.0, 4.0);
    std::snprintf(buf, sizeof buf, "failslow:host=%d,factor=%.2f,from=%.3f,until=%.3f",
                  static_cast<int>(rng.range(-1, c.hosts - 1)),
                  rng.uniform(1.5, 8.0), from, from + rng.uniform(0.5, 4.0));
    c.fault_specs.push_back(buf);
  }
  // Permanent crashes and bounded outages are mutually exclusive so the
  // generator can never emit a vmdown whose restart targets a VM an earlier
  // crash already took (the parser rejects such plans). A crash must also
  // leave at least one VM standing, or every job deadlocks waiting for a
  // schedulable slot — a real failure mode, but not one worth soaking.
  const bool with_crash = rng.chance(0.25);
  if (with_crash) {
    const int total_vms = c.hosts * c.vms;
    if (c.hosts >= 2 && rng.chance(0.4)) {  // declared-dead + re-replication
      std::snprintf(buf, sizeof buf, "hostcrash:host=%d,from=%.3f",
                    static_cast<int>(rng.below(static_cast<std::uint64_t>(c.hosts))),
                    rng.uniform(0.5, 6.0));
      c.fault_specs.push_back(buf);
    } else if (total_vms >= 2) {
      std::snprintf(buf, sizeof buf, "vmcrash:vm=%d,from=%.3f",
                    static_cast<int>(rng.below(static_cast<std::uint64_t>(total_vms))),
                    rng.uniform(0.5, 6.0));
      c.fault_specs.push_back(buf);
    }
  } else if (rng.chance(0.25)) {  // bounded VM outage (may legitimately fail the job)
    const double from = rng.uniform(0.0, 4.0);
    std::snprintf(buf, sizeof buf, "vmdown:vm=%d,from=%.3f,until=%.3f",
                  static_cast<int>(rng.below(
                      static_cast<std::uint64_t>(c.hosts * c.vms))),
                  from, from + rng.uniform(0.1, 2.0));
    c.fault_specs.push_back(buf);
  }
  if (rng.chance(0.35)) {  // multi-job open-arrival stream (tenancy path)
    std::ostringstream st;
    const int jobs = static_cast<int>(rng.range(2, 5));
    st << "arrive,poisson,rate=" << 0.02 + 0.18 * rng.uniform()
       << ",jobs=" << jobs;
    const int n_classes = static_cast<int>(rng.range(1, 2));
    const double share0 = rng.uniform(0.2, 0.8);
    for (int i = 0; i < n_classes; ++i) {
      const int lo = static_cast<int>(rng.range(8, 12));
      st << ";class,name=c" << i << ",wl=" << kWorkloads[rng.below(3)]
         << ",mb=" << lo << "-" << lo + static_cast<int>(rng.below(9));
      if (rng.chance(0.5)) st << ",prio=" << rng.range(0, 5);
      if (rng.chance(0.5)) st << ",weight=" << rng.range(1, 4);
      if (n_classes == 2) st << ",share=" << (i == 0 ? share0 : 1.0 - share0);
      if (rng.chance(0.3)) st << ",deadline=" << rng.range(10, 500);
      if (rng.chance(0.5)) st << ",mix=" << rng.range(1, 3);
    }
    if (rng.chance(0.4)) {  // overload protection (admission gate + shed)
      st << ";admit,active=" << rng.range(1, 3) << ",queue=" << rng.range(0, 3);
      // Host-death retries only make sense when a crash is in the plan.
      if (with_crash && rng.chance(0.5)) {
        st << ",retries=1,backoff=" << rng.range(1, 10);
      }
    }
    c.stream = st.str();
    static const char* kPolicies[] = {"fifo", "fair", "capacity"};
    c.stream_policy = kPolicies[rng.below(3)];
  }
  return c;
}

// ---- armed execution -------------------------------------------------------

struct RunObservation {
  std::uint64_t digest = 0;    // FNV-1a over the full trace JSON
  std::string violations;      // auditor report when not clean
  bool infra = false;
  bool budget = false;         // event/time budget tripped (livelock suspect)
  std::string error;           // RunOutput.error when the run failed
};

RunObservation observe(const iosim::exp::ScenarioPoint& pt, std::uint64_t seed) {
  iosim::trace::TraceSession ts;
  iosim::obs::AttributionSession as;  // drives the stamp-monotonicity hooks
  iosim::check::AuditorSession cs(iosim::check::Auditor::Mode::kRecord);
  const iosim::exp::RunOutput out = iosim::exp::execute_point(pt, seed);
  RunObservation r;
  r.digest = iosim::exp::fnv1a64(ts.tracer().to_json());
  if (!cs.auditor().ok()) r.violations = cs.auditor().report().to_string();
  r.infra = out.infra_failure;
  r.budget = out.budget_stop;
  if (!out.ok) r.error = out.error;
  return r;
}

/// Run every task of the (single-point) spec twice; empty string when the
/// configuration is clean, otherwise a one-paragraph failure description.
std::string check_spec(const ScenarioSpec& spec) {
  const auto points = spec.expand();
  for (const auto& task : iosim::exp::build_run_matrix(spec)) {
    const auto& pt = points[task.point_index];
    const RunObservation a = observe(pt, task.seed);
    if (!a.violations.empty()) return "invariant violations:\n" + a.violations;
    if (a.infra) return "infra failure: " + a.error;
    if (a.budget) return "budget stop (livelock suspect): " + a.error;
    const RunObservation b = observe(pt, task.seed);
    if (!b.violations.empty()) {
      return "invariant violations (repeat run):\n" + b.violations;
    }
    if (b.infra) return "infra failure (repeat run): " + b.error;
    if (b.budget) return "budget stop (repeat run): " + b.error;
    if (a.digest != b.digest) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "same-seed digest mismatch: 0x%016llx vs 0x%016llx",
                    static_cast<unsigned long long>(a.digest),
                    static_cast<unsigned long long>(b.digest));
      return buf;
    }
  }
  return "";
}

std::string check_config(const SoakConfig& c, const std::string& name) {
  std::string err;
  const auto spec = ScenarioSpec::parse(spec_text(c, name), &err);
  if (!spec.has_value()) {
    return "soak generator produced an unparseable spec (harness bug): " + err;
  }
  return check_spec(*spec);
}

// ---- minimization ----------------------------------------------------------

/// Greedy shrink to fixpoint: drop fault specs one at a time, then shrink
/// the cluster and data size, keeping each step only if the failure still
/// reproduces. Worst case a handful of extra runs per step — cheap next to
/// debugging an unminimized config.
SoakConfig minimize(SoakConfig c, const std::string& name) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < c.fault_specs.size(); ++i) {
      SoakConfig cand = c;
      cand.fault_specs.erase(cand.fault_specs.begin() + static_cast<long>(i));
      if (!check_config(cand, name).empty()) {
        c = cand;
        changed = true;
        break;
      }
    }
    if (changed) continue;
    const auto try_field = [&](SoakConfig cand) {
      if (!check_config(cand, name).empty()) {
        c = cand;
        changed = true;
      }
    };
    if (!c.stream.empty() && !changed) {  // single-job repros debug faster
      SoakConfig cand = c;
      cand.stream.clear();
      cand.stream_policy.clear();
      try_field(cand);
    }
    if (c.vms > 1 && !changed) {
      SoakConfig cand = c;
      cand.vms = 1;
      try_field(cand);
    }
    if (c.hosts > 1 && !changed) {
      SoakConfig cand = c;
      cand.hosts = 1;
      try_field(cand);
    }
    if (c.mb > 8 && !changed) {
      SoakConfig cand = c;
      cand.mb = 8;
      try_field(cand);
    }
    if (c.workload != "sort" && !changed) {
      SoakConfig cand = c;
      cand.workload = "sort";
      try_field(cand);
    }
  }
  return c;
}

// ---- modes -----------------------------------------------------------------

int run_repro(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "iosim-soak: cannot read '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  const auto spec = ScenarioSpec::parse(ss.str(), &err);
  if (!spec.has_value()) {
    std::fprintf(stderr, "iosim-soak: '%s' is not a valid spec: %s\n", path.c_str(),
                 err.c_str());
    return 2;
  }
  const std::string why = check_spec(*spec);
  if (why.empty()) {
    std::printf("iosim-soak: %s no longer reproduces a failure\n", path.c_str());
    return 0;
  }
  std::printf("iosim-soak: %s still fails:\n%s\n", path.c_str(), why.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t master = 1;
  std::uint64_t runs = 200;
  std::string out_dir = "soak-repro";
  std::string repro;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const char* v = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (a == "--seed" && v != nullptr) {
      if (!iosim::lex::parse_u64(v, &master)) {
        std::fprintf(stderr, "iosim-soak: --seed must be an unsigned integer, got '%s'\n", v);
        return usage(argv[0]);
      }
      ++i;
    } else if (a == "--runs" && v != nullptr) {
      if (!iosim::lex::parse_u64(v, &runs) || runs == 0) {
        std::fprintf(stderr, "iosim-soak: --runs must be a positive integer, got '%s'\n", v);
        return usage(argv[0]);
      }
      ++i;
    } else if (a == "--out-dir" && v != nullptr) {
      out_dir = v;
      ++i;
    } else if (a == "--repro" && v != nullptr) {
      repro = v;
      ++i;
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "iosim-soak: unknown or incomplete flag '%s'\n", argv[i]);
      return usage(argv[0]);
    }
  }

  if (!repro.empty()) return run_repro(repro);

  std::uint64_t failures = 0;
  for (std::uint64_t i = 0; i < runs; ++i) {
    char name[48];
    std::snprintf(name, sizeof name, "soak-%llu-%llu",
                  static_cast<unsigned long long>(master),
                  static_cast<unsigned long long>(i));
    const SoakConfig cfg = generate(master, i);
    const std::string why = check_config(cfg, name);
    if (why.empty()) {
      if (!quiet && (i + 1) % 25 == 0) {
        std::printf("iosim-soak: %llu/%llu configurations clean\n",
                    static_cast<unsigned long long>(i + 1),
                    static_cast<unsigned long long>(runs));
        std::fflush(stdout);
      }
      continue;
    }
    ++failures;
    std::fprintf(stderr, "iosim-soak: configuration %s FAILED: %s\n", name,
                 why.c_str());
    const SoakConfig min = minimize(cfg, name);
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/repro-" + std::to_string(master) + "-" +
                             std::to_string(i) + ".txt";
    std::string werr;
    if (!iosim::exp::write_file_atomic(path, spec_text(min, std::string(name) + "-min"),
                                       &werr)) {
      std::fprintf(stderr, "iosim-soak: cannot write repro file: %s\n", werr.c_str());
    } else {
      std::fprintf(stderr, "iosim-soak: minimized repro written to %s\n", path.c_str());
    }
  }

  std::printf("iosim-soak: %llu/%llu configurations clean (master seed %llu)\n",
              static_cast<unsigned long long>(runs - failures),
              static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(master));
  return failures == 0 ? 0 : 1;
}
