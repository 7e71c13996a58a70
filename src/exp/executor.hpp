// iosim: parallel experiment executor.
//
// Fans the run matrix of a scenario sweep out across worker threads. Every
// run is an independent simulation — each worker builds its own private
// Simulator/Cluster inside the RunFn, and the telemetry globals
// (trace::tracer(), trace::registry()) are thread_local — so there is no
// shared mutable state between runs and the outputs are identical for any
// worker count. Results land in a slot-per-run vector indexed by
// run_index, which restores the deterministic order no matter how the
// scheduler interleaved the workers.
//
// Failure policy: cancel-on-first-failure. The first run whose output
// reports ok=false (or whose RunFn throws) flips a cancel flag; workers
// finish the run they are on, then stop claiming new ones. Already-claimed
// runs still record their outputs; never-claimed runs stay nullopt
// ("skipped").
//
// Robustness layer (all opt-in, defaults preserve the plain executor):
//
//  * Watchdog — run_timeout_seconds arms a monitor thread that flips a
//    per-worker abort flag when a run's wall clock expires. The flag is
//    published to the running thread via current_run_abort(); cooperative
//    RunFns (exp::execute_point wires it into the simulator's SimBudget)
//    stop within ~kAbortCheckPeriod events and fail with a timeout
//    diagnostic instead of wedging the pool.
//  * Retry budget — a run whose failure is an infra failure (RunFn
//    exception, watchdog timeout) is retried up to max_retries times with
//    exponential backoff. Deterministic simulation failures (the RunFn
//    returned ok=false without infra_failure) are never retried: the same
//    seed would fail the same way.
//  * External cancel — a SIGINT/SIGTERM handler stores to *cancel; workers
//    stop claiming new runs, drain the runs they are on, and execute_all
//    returns with interrupted=true so the caller can flush journals and
//    write a partial artifact.
//  * Sparse matrices — the task list may be any subset of a run matrix
//    (resume re-executes only the runs missing from the journal); output
//    slots are indexed by run_index with size max(run_index)+1.
//
// One worker loop serves every worker count. At one worker it runs inline
// on the calling thread, in task order, so thread_local sessions the caller
// installed (trace::TraceSession, ...) stay visible to the RunFn.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"

namespace iosim::exp {

/// What one run produced. `metrics` is an ordered list (name, value) —
/// every run of the same mode emits the same names in the same order, which
/// is what lets the aggregator group by metric without a schema.
struct RunOutput {
  bool ok = true;
  std::string error;  // diagnostic when !ok (job abort, exception, ...)
  /// A failure of the harness rather than of the simulated system: RunFn
  /// exception or watchdog timeout. Infra failures are retryable;
  /// deterministic sim failures are not.
  bool infra_failure = false;
  /// The simulation hit its event/time budget instead of draining. Neither
  /// retryable nor a legitimate simulated outcome — callers that certify
  /// correctness (iosim-soak) treat it as a failure in its own right.
  bool budget_stop = false;
  /// Executions this output took (1 = first attempt; >1 = infra retries).
  int attempts = 1;
  std::vector<std::pair<std::string, double>> metrics;
};

using RunFn = std::function<RunOutput(const RunTask&)>;

/// Completion event, delivered serialized (under the executor's mutex) in
/// completion order — which is wall-clock order, not run_index order.
struct ProgressEvent {
  std::size_t done = 0;   // completions so far, including this one
  std::size_t total = 0;  // size of the run matrix
  const RunTask* task = nullptr;
  /// The recorded output (valid for the duration of the callback) — lets
  /// the caller journal each completion without re-deriving it.
  const RunOutput* output = nullptr;
  bool ok = true;
  double wall_seconds = 0.0;  // this run's wall-clock cost (across attempts)
};

struct ExecutorOptions {
  /// Worker threads, clamped to the task count. <= 1 runs the worker loop
  /// inline on the calling thread.
  int workers = 1;
  /// Per-run wall-clock watchdog; 0 disables. The monitor is its own thread,
  /// so it also stops runs executing inline at one worker.
  double run_timeout_seconds = 0.0;
  /// Infra-failure retries per run (0 = fail on first attempt). The n-th
  /// retry waits 0.5 s * 2^(n-1), capped at 10 s.
  int max_retries = 0;
  /// External cancellation (signal handler flag). When it becomes true,
  /// workers stop claiming runs and drain in-flight ones; a flag set after
  /// the last run was claimed interrupts nothing.
  const std::atomic<bool>* cancel = nullptr;
  std::function<void(const ProgressEvent&)> on_progress;
};

struct ExecResult {
  /// Slot per run, indexed by run_index (sized to the largest run_index in
  /// the task list + 1 — resume passes a sparse subset of the matrix);
  /// nullopt = never executed (cancelled before being claimed, or not in
  /// the task list).
  std::vector<std::optional<RunOutput>> outputs;
  std::size_t completed = 0;  // ran and succeeded
  std::size_t failed = 0;     // ran and reported !ok (or threw)
  std::size_t skipped = 0;    // never claimed; completed+failed+skipped = total
  bool cancelled = false;     // a failed run stopped new claims
  bool interrupted = false;   // opts.cancel kept a run from starting
  /// Failure diagnostic of the failed run with the smallest run_index (the
  /// deterministic representative even if several fail concurrently).
  std::string first_error;
  std::size_t first_error_run = static_cast<std::size_t>(-1);

  bool all_ok() const { return failed == 0 && skipped == 0; }
};

/// Run `fn` over every task. Blocks until all workers drain (or cancel).
ExecResult execute_all(const std::vector<RunTask>& tasks, const RunFn& fn,
                       const ExecutorOptions& opts = {});

/// The watchdog's cooperative-cancellation flag for the run currently
/// executing on the calling thread, or null outside execute_all / when no
/// watchdog is armed. RunFns hand it to sim::SimBudget::abort so a wedged
/// simulation can be stopped from outside.
const std::atomic<bool>* current_run_abort();

/// The number of workers `--workers 0` / defaults resolve to: hardware
/// concurrency, at least 1.
int default_workers();

}  // namespace iosim::exp
