// iosim-sweep — run a declarative scenario sweep across all cores,
// crash-safely.
//
//   iosim-sweep --spec bench/specs/fig7a.spec --workers $(nproc)
//   iosim-sweep --spec bench/specs/smoke.spec --out BENCH_smoke.json
//   iosim-sweep --spec bench/specs/fig2.spec --set mb=64 --set repeats=1 --list
//   iosim-sweep --spec bench/specs/fig7a.spec --resume          # after a crash
//   iosim-sweep --spec bench/specs/fig7a.spec --dry-run         # CI pre-flight
//
// Reads a scenario spec (see src/exp/scenario.hpp for the grammar), expands
// the axis cross product into a deterministic run matrix, fans the runs out
// over a worker pool (each worker owns its private simulator), aggregates
// per scenario point (mean / min / max / p50 / p95 / 95% CI), writes the
// versioned BENCH JSON, and prints a human table. The JSON is byte-identical
// for any --workers value: per-run seeds depend only on (base_seed,
// run_index) and aggregation walks runs in matrix order. The spec's `expect`
// checks resolve before any run and are judged after: a verdict line each.
//
// Robustness:
//  * Every finished run is appended (fsynced) to `<out>.journal` — a JSONL
//    run journal. After a SIGKILL / OOM / power cut, `--resume` replays the
//    journal, re-executes only the missing runs, and writes a BENCH JSON
//    byte-identical to an uninterrupted sweep. The journal is deleted once
//    the BENCH file is safely on disk.
//  * `--timeout S` (or `timeout=` in the spec) arms a per-run wall-clock
//    watchdog; a stuck run fails with a diagnostic instead of wedging the
//    pool. Infra failures (timeouts, worker exceptions) are retried with
//    exponential backoff up to --retries; deterministic simulation
//    failures never are.
//  * SIGINT/SIGTERM cancel gracefully: dispatch stops, in-flight runs
//    drain, the journal is already flushed, and a `"partial": true` BENCH
//    artifact is written. A second signal force-quits.
//  * All artifacts are written atomically (tmp + fsync + rename) and every
//    write failure (disk-full, unwritable path) is a hard error.
//
// Exit codes: 0 success, 1 a run or a check failed or an artifact could not
// be written, 2 bad usage / malformed spec / unusable journal, 130 cancelled by signal.
#include <csignal>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/artifact.hpp"
#include "exp/executor.hpp"
#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/text.hpp"

using namespace iosim;

namespace {

/// Signal-flagged cancellation. The first SIGINT/SIGTERM asks the executor
/// to stop dispatching and drain; a second one force-quits with the same
/// exit code (so a wedged non-cooperative run can never trap the user).
std::atomic<bool> g_cancel{false};

extern "C" void handle_cancel_signal(int) {
  if (g_cancel.exchange(true)) _exit(130);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: iosim-sweep --spec FILE [--workers N] [--out PATH] [--set key=value]...\n"
      "                   [--repeats N] [--base-seed N] [--timeout S] [--retries N]\n"
      "                   [--resume] [--dry-run] [--list] [--csv] [--quiet]\n"
      "  --spec FILE      scenario spec (axes: pair, workload, hosts, vms, mb, fault)\n"
      "  --workers N      worker threads (default: all cores; 1 = serial)\n"
      "  --out PATH       BENCH JSON output (default: BENCH_<name>.json)\n"
      "  --set key=value  override a spec line (repeatable, e.g. --set mb=64)\n"
      "  --repeats N      shorthand for --set repeats=N\n"
      "  --base-seed N    shorthand for --set base_seed=N\n"
      "  --timeout S      shorthand for --set timeout=S (per-run watchdog, 0 = off)\n"
      "  --retries N      infra-failure retries per run (default 2; sim failures\n"
      "                   are deterministic and never retried)\n"
      "  --resume         replay <out>.journal, re-execute only missing runs\n"
      "  --dry-run        validate spec, fault plans and checks, print them, exit\n"
      "  --list           print the expanded run matrix and exit\n"
      "  --csv            print the aggregate table as CSV\n"
      "  --quiet          suppress per-run progress lines\n"
      "exit codes: 0 ok, 1 run/check/write failure, 2 usage/spec/journal error,\n"
      "            130 cancelled by SIGINT/SIGTERM (partial BENCH written)\n");
  return 2;
}

struct Options {
  std::string spec_path;
  std::string out_path;
  std::vector<std::pair<std::string, std::string>> sets;
  int workers = 0;  // 0 = default_workers()
  int retries = 2;
  bool resume = false;
  bool dry_run = false;
  bool list = false;
  bool csv = false;
  bool quiet = false;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "iosim-sweep: %s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (s == "--spec") {
      const char* v = need_value("--spec");
      if (!v) return std::nullopt;
      o.spec_path = v;
    } else if (s == "--workers") {
      const char* v = need_value("--workers");
      if (!v) return std::nullopt;
      if (!lex::parse_int(v, &o.workers) || o.workers < 1) {
        std::fprintf(stderr, "iosim-sweep: --workers must be an integer >= 1, got '%s'\n", v);
        return std::nullopt;
      }
    } else if (s == "--out") {
      const char* v = need_value("--out");
      if (!v) return std::nullopt;
      o.out_path = v;
    } else if (s == "--set") {
      const char* v = need_value("--set");
      if (!v) return std::nullopt;
      const auto kv = lex::split_key_value(v);
      if (!kv || kv->key.empty()) {
        std::fprintf(stderr, "iosim-sweep: --set expects key=value, got '%s'\n", v);
        return std::nullopt;
      }
      o.sets.emplace_back(kv->key, kv->value);
    } else if (s == "--repeats") {
      const char* v = need_value("--repeats");
      if (!v) return std::nullopt;
      o.sets.emplace_back("repeats", v);
    } else if (s == "--base-seed") {
      const char* v = need_value("--base-seed");
      if (!v) return std::nullopt;
      o.sets.emplace_back("base_seed", v);
    } else if (s == "--timeout") {
      const char* v = need_value("--timeout");
      if (!v) return std::nullopt;
      o.sets.emplace_back("timeout", v);
    } else if (s == "--retries") {
      const char* v = need_value("--retries");
      if (!v) return std::nullopt;
      if (!lex::parse_int(v, &o.retries) || o.retries < 0) {
        std::fprintf(stderr, "iosim-sweep: --retries must be an integer >= 0, got '%s'\n", v);
        return std::nullopt;
      }
    } else if (s == "--resume") {
      o.resume = true;
    } else if (s == "--dry-run") {
      o.dry_run = true;
    } else if (s == "--list") {
      o.list = true;
    } else if (s == "--csv") {
      o.csv = true;
    } else if (s == "--quiet") {
      o.quiet = true;
    } else {
      std::fprintf(stderr, "iosim-sweep: unknown argument '%s'\n", s.c_str());
      return std::nullopt;
    }
  }
  if (o.spec_path.empty()) {
    std::fprintf(stderr, "iosim-sweep: --spec is required\n");
    return std::nullopt;
  }
  return o;
}

double wall_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse_args(argc, argv);
  if (!opt) return usage();

  std::ifstream in(opt->spec_path);
  if (!in) {
    std::fprintf(stderr, "iosim-sweep: cannot read spec '%s'\n", opt->spec_path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  std::string err;
  auto spec = exp::ScenarioSpec::parse(ss.str(), &err);
  if (!spec) {
    std::fprintf(stderr, "iosim-sweep: %s: %s\n", opt->spec_path.c_str(), err.c_str());
    return 2;
  }
  for (const auto& [k, v] : opt->sets) {
    if (!spec->apply(k, v, &err)) {
      std::fprintf(stderr, "iosim-sweep: --set %s=%s: %s\n", k.c_str(), v.c_str(),
                   err.c_str());
      return 2;
    }
  }
  // --set can grow axes past what the parsed spec validated — check again.
  if (!spec->validate(&err)) {
    std::fprintf(stderr, "iosim-sweep: %s\n", err.c_str());
    return 2;
  }

  const auto points = spec->expand();
  const auto tasks = exp::build_run_matrix(*spec);
  const auto checks = *exp::resolve_checks(*spec, points);  // validate() resolved them
  const int workers = opt->workers > 0 ? opt->workers : exp::default_workers();
  const std::string out_path =
      !opt->out_path.empty() ? opt->out_path : "BENCH_" + spec->name + ".json";
  const std::string journal_path = out_path + ".journal";

  if (opt->list) {
    std::printf("sweep '%s' (mode=%s): %zu points x %d repeats = %zu runs\n",
                spec->name.c_str(), exp::to_string(spec->mode), points.size(),
                spec->repeats, tasks.size());
    for (const auto& t : tasks) {
      std::printf("  run %4zu  repeat %d  seed %020llu  %s\n", t.run_index, t.repeat,
                  static_cast<unsigned long long>(t.seed),
                  points[t.point_index].label().c_str());
    }
    return 0;
  }

  if (opt->dry_run) {
    // Pre-flight: by this point the spec parsed, every fault-plan
    // alternative parsed, and every workload resolved. Print what a real
    // invocation would execute and where it would write, without running.
    std::printf("dry-run: spec '%s' OK\n", opt->spec_path.c_str());
    std::printf("  sweep '%s' (mode=%s): %zu points x %d repeats = %zu runs, "
                "%d worker%s\n",
                spec->name.c_str(), exp::to_string(spec->mode), points.size(),
                spec->repeats, tasks.size(), workers, workers == 1 ? "" : "s");
    std::printf("  base_seed=%llu fingerprint=%016llx\n",
                static_cast<unsigned long long>(spec->base_seed),
                static_cast<unsigned long long>(spec->fingerprint()));
    if (spec->timeout_seconds > 0) {
      std::printf("  watchdog: %.3gs per run, %d retr%s on infra failure\n",
                  spec->timeout_seconds, opt->retries,
                  opt->retries == 1 ? "y" : "ies");
    }
    if (spec->max_events > 0 || spec->max_sim_seconds > 0) {
      std::printf("  sim budget: max_events=%llu max_sim_seconds=%.6g\n",
                  static_cast<unsigned long long>(spec->max_events),
                  spec->max_sim_seconds);
    }
    for (std::size_t p = 0; p < points.size(); ++p) {
      std::printf("  point %3zu  %s\n", p, points[p].label().c_str());
    }
    for (const auto& c : checks) {
      std::printf("  check [%s] %s\n", c.group.c_str(),
                  spec->expects[c.expect].to_string().c_str());
    }
    std::printf("  artifacts: %s (+ %s during the run)\n", out_path.c_str(),
                journal_path.c_str());
    if (opt->resume && file_exists(journal_path)) {
      std::printf("  --resume would replay %s\n", journal_path.c_str());
    }
    return 0;
  }

  // --- Journal: replay (resume) or start fresh -----------------------------
  const exp::JournalHeader header = exp::journal_header_for(*spec);
  std::vector<std::optional<exp::RunOutput>> replayed(tasks.size());
  std::size_t resumed = 0;
  if (opt->resume) {
    if (file_exists(journal_path)) {
      const auto replay = exp::read_journal(journal_path, header, tasks, &err);
      if (!replay) {
        std::fprintf(stderr, "iosim-sweep: --resume: %s\n", err.c_str());
        return 2;
      }
      replayed = replay->outputs;
      resumed = replay->n_ok;
      if (replay->truncated_tail) {
        std::fprintf(stderr,
                     "iosim-sweep: journal %s has a torn tail record "
                     "(writer was killed mid-line); that run re-executes\n",
                     journal_path.c_str());
      }
      if (replay->n_failed > 0) {
        std::fprintf(stderr,
                     "iosim-sweep: journal holds %zu failed run%s — re-executing\n",
                     replay->n_failed, replay->n_failed == 1 ? "" : "s");
      }
    } else {
      std::fprintf(stderr,
                   "iosim-sweep: --resume: no journal at %s — starting fresh\n",
                   journal_path.c_str());
    }
  } else if (file_exists(journal_path)) {
    // A fresh sweep owns its journal path; a stale one (from a crashed run
    // the user chose not to resume) must not leak into this run's records.
    ::unlink(journal_path.c_str());
  }

  auto journal = exp::RunJournal::open(journal_path, header, &err);
  if (!journal) {
    std::fprintf(stderr, "iosim-sweep: %s\n", err.c_str());
    return 1;
  }

  std::vector<exp::RunTask> pending;
  pending.reserve(tasks.size());
  for (const auto& t : tasks) {
    if (!replayed[t.run_index].has_value()) pending.push_back(t);
  }

  std::fprintf(stderr,
               "sweep '%s': %zu points x %d repeats = %zu runs (%zu resumed, "
               "%zu to run), %d worker%s\n",
               spec->name.c_str(), points.size(), spec->repeats, tasks.size(), resumed,
               pending.size(), workers, workers == 1 ? "" : "s");

  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);

  exp::ExecutorOptions eopts;
  eopts.workers = workers;
  eopts.run_timeout_seconds = spec->timeout_seconds;
  eopts.max_retries = opt->retries;
  eopts.cancel = &g_cancel;
  bool journal_broken = false;
  eopts.on_progress = [&](const exp::ProgressEvent& ev) {
    // Serialized by the executor: journal appends never interleave.
    if (!journal_broken && !journal->append(*ev.task, *ev.output, ev.wall_seconds, &err)) {
      journal_broken = true;
      std::fprintf(stderr,
                   "iosim-sweep: %s — journal disabled, this sweep cannot be "
                   "resumed\n",
                   err.c_str());
    }
    if (!opt->quiet) {
      std::fprintf(stderr, "[%zu/%zu] %s %.1fs  %s (repeat %d)%s\n", ev.done, ev.total,
                   ev.ok ? "ok  " : "FAIL", ev.wall_seconds,
                   points[ev.task->point_index].label().c_str(), ev.task->repeat,
                   ev.output->attempts > 1 ? " [retried]" : "");
    }
  };

  const double t0 = wall_now();
  const auto exec = exp::execute_all(pending, exp::make_run_fn(points), eopts);
  const double wall = wall_now() - t0;

  // --- Merge journal replay + this execution into one matrix view ----------
  exp::ExecResult merged;
  merged.outputs.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i < exec.outputs.size() && exec.outputs[i].has_value()) {
      merged.outputs[i] = exec.outputs[i];
    } else if (replayed[i].has_value()) {
      merged.outputs[i] = replayed[i];
    }
    if (!merged.outputs[i].has_value()) continue;
    if (merged.outputs[i]->ok) {
      ++merged.completed;
    } else {
      ++merged.failed;
      if (i < merged.first_error_run) {
        merged.first_error_run = i;
        merged.first_error = merged.outputs[i]->error;
      }
    }
  }
  merged.skipped = tasks.size() - merged.completed - merged.failed;
  merged.cancelled = exec.cancelled;
  merged.interrupted = exec.interrupted;

  if (merged.failed > 0) {
    std::fprintf(stderr,
                 "iosim-sweep: run %zu failed (%s); %zu completed, %zu skipped — "
                 "no BENCH JSON written (journal kept at %s; fix the cause and "
                 "rerun with --resume)\n",
                 merged.first_error_run, merged.first_error.c_str(), merged.completed,
                 merged.skipped, journal_path.c_str());
    return 1;
  }

  if (merged.interrupted) {
    // Graceful cancellation: dispatch stopped, in-flight runs drained and
    // are already journaled. Write an honest partial artifact and exit 130.
    const auto agg = exp::aggregate(*spec, points, tasks, merged);
    const std::string json =
        exp::to_json(*spec, agg, /*partial=*/true, exp::evaluate_checks(*spec, checks, agg));
    if (!exp::write_file_atomic(out_path, json, &err)) {
      std::fprintf(stderr, "iosim-sweep: %s\n", err.c_str());
    } else {
      std::fprintf(stderr,
                   "iosim-sweep: cancelled by signal — %zu/%zu runs journaled, "
                   "partial BENCH -> %s (finish with --resume)\n",
                   merged.completed, tasks.size(), out_path.c_str());
    }
    return 130;
  }

  const auto agg = exp::aggregate(*spec, points, tasks, merged);
  const auto results = exp::evaluate_checks(*spec, checks, agg);
  const std::string json = exp::to_json(*spec, agg, /*partial=*/false, results);
  if (!exp::write_file_atomic(out_path, json, &err)) {
    std::fprintf(stderr, "iosim-sweep: %s\n", err.c_str());
    return 1;
  }
  journal->close();
  ::unlink(journal_path.c_str());  // the BENCH file is durable; journal done

  auto tab = exp::to_table(*spec, agg);
  if (opt->csv) {
    std::fputs(tab.to_csv().c_str(), stdout);
  } else {
    tab.print();
  }
  std::size_t failed_checks = 0;
  for (const auto& c : results) {
    std::fprintf(opt->csv ? stderr : stdout, "%s\n", exp::verdict_line(c).c_str());
    failed_checks += c.verdict == exp::Verdict::kFails;
  }
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "iosim-sweep: writing the table to stdout failed\n");
    return 1;
  }
  std::fprintf(stderr, "%zu runs in %.1fs wall (%.2f runs/s, %d workers) -> %s\n",
               pending.size(), wall,
               wall > 0 ? static_cast<double>(pending.size()) / wall : 0.0, workers,
               out_path.c_str());
  if (failed_checks > 0) {
    std::fprintf(stderr, "iosim-sweep: %zu of %zu checks fail\n", failed_checks, results.size());
  }
  return failed_checks > 0 ? 1 : 0;
}
