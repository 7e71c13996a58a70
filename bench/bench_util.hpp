// Shared helpers for the reproduction benches. Every bench regenerates one
// table or figure of the paper and prints the measured data next to the
// paper's expectation for that shape.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/runner.hpp"
#include "exp/artifact.hpp"
#include "exp/json.hpp"
#include "iosched/pair.hpp"
#include "metrics/registry_table.hpp"
#include "metrics/table.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::bench {

using cluster::ClusterConfig;
using iosched::SchedulerKind;
using iosched::SchedulerPair;

/// The paper's testbed: 4 physical nodes, 4 VMs each, 512 MB per data node.
inline ClusterConfig paper_cluster() { return ClusterConfig{}; }

/// Machine-readable bench results. Every bench accumulates flat
/// (name, value) metrics here via report().add(), and
/// `--json FILE` (parsed by Telemetry) dumps them as versioned JSON in
/// emission order next to the human tables. Without `--json` the report is
/// collected and discarded: zero cost, no behavior change.
class BenchReport {
 public:
  void add(const std::string& name, double v) { metrics_.emplace_back(name, v); }

  bool empty() const { return metrics_.empty(); }

  /// {"bench_format":1,"kind":"bench","name":...,"metrics":{...}} — the
  /// same format version as the sweep engine's BENCH_*.json.
  std::string to_json(const std::string& bench_name) const {
    exp::JsonWriter w;
    w.obj_begin();
    w.kv("bench_format", 1);
    w.kv("kind", "bench");
    w.kv("name", bench_name);
    w.key("metrics").obj_begin();
    for (const auto& [k, v] : metrics_) w.kv(k, v);
    w.obj_end();
    w.obj_end();
    return w.str() + "\n";
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

/// The process-wide report the helpers append to (bench mains are
/// single-threaded; the sweep engine has its own JSON path).
inline BenchReport& report() {
  static BenchReport r;
  return r;
}

/// "foo-bar" from "/path/to/foo-bar" (the bench's own name for the JSON).
inline std::string basename_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Optional flight-recorder hookup for the benches: construct one at the
/// top of main with argc/argv and every simulated run in the bench is
/// traced / metered through the process globals.
///
///   ./bench/fig4_subphase_scores --trace fig4.json --metrics --json fig4_out.json
///
/// `--trace FILE` records a trace and writes it at exit (.csv extension
/// selects CSV, anything else Chrome trace-event JSON); `--metrics` prints
/// the named-metrics registry at exit; `--json FILE` writes the bench's
/// accumulated BenchReport (see report()) at exit. `valued` and `boolean`
/// name the bench's own flags, read back with value() and has(). Any other
/// argument, or a valued flag without its value, exits 2 with a diagnostic.
class Telemetry {
 public:
  Telemetry(int argc, char** argv, std::set<std::string> valued = {},
            std::set<std::string> boolean = {}) {
    if (argc > 0) bench_name_ = basename_of(argv[0]);
    valued.insert({"--trace", "--json"});
    boolean.insert("--metrics");
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      if (valued.count(s) != 0 && i + 1 < argc) {
        flags_[s] = argv[++i];
      } else if (boolean.count(s) != 0) {
        flags_[s] = "";
      } else {
        std::fprintf(stderr, "%s: %s '%s'\n", bench_name_.c_str(),
                     valued.count(s) != 0 ? "missing value for" : "unknown argument",
                     s.c_str());
        std::exit(2);
      }
    }
    trace_path_ = value("--trace").value_or("");
    json_path_ = value("--json").value_or("");
    if (has("--metrics")) metrics_.emplace();
    if (!trace_path_.empty()) trace_.emplace();
  }
  /// The value a valued flag was given, if it was.
  std::optional<std::string> value(const std::string& flag) const {
    const auto it = flags_.find(flag);
    if (it == flags_.end()) return std::nullopt;
    return it->second;
  }
  bool has(const std::string& flag) const { return flags_.count(flag) != 0; }
  ~Telemetry() {
    if (!json_path_.empty()) {
      std::string err;
      if (exp::write_file_atomic(json_path_, report().to_json(bench_name_), &err)) {
        std::fprintf(stderr, "json: bench report -> %s\n", json_path_.c_str());
      } else {
        std::fprintf(stderr, "json: failed to write %s (%s)\n", json_path_.c_str(),
                     err.c_str());
      }
    }
    if (trace_) {
      auto& tr = trace_->tracer();
      if (tr.write_file(trace_path_)) {
        std::fprintf(stderr, "trace: %zu events (%llu dropped) -> %s\n", tr.size(),
                     static_cast<unsigned long long>(tr.dropped()), trace_path_.c_str());
      } else {
        std::fprintf(stderr, "trace: failed to write %s\n", trace_path_.c_str());
      }
    }
    if (metrics_) {
      auto tab = metrics::registry_table(metrics_->registry());
      tab.print();
    }
  }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

 private:
  std::string bench_name_ = "bench";
  std::map<std::string, std::string> flags_;
  std::string trace_path_;
  std::string json_path_;
  std::optional<trace::TraceSession> trace_;
  std::optional<trace::MetricsSession> metrics_;
};

inline void print_header(const char* id, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("================================================================\n");
}

inline void print_expectation(const char* text) {
  std::printf("\npaper expectation: %s\n", text);
}

}  // namespace iosim::bench
