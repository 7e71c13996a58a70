#include "exp/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace iosim::exp {

namespace {

/// The abort flag of the run executing on this thread (set while a watchdog
/// is armed, null otherwise).
thread_local const std::atomic<bool>* t_run_abort = nullptr;

RunOutput run_one(const RunFn& fn, const RunTask& task) {
  try {
    return fn(task);
  } catch (const std::exception& e) {
    RunOutput out;
    out.ok = false;
    out.infra_failure = true;  // the harness broke, not the simulation
    out.error = std::string("exception: ") + e.what();
    return out;
  } catch (...) {
    RunOutput out;
    out.ok = false;
    out.infra_failure = true;
    out.error = "unknown exception";
    return out;
  }
}

double wall_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

void note_failure(ExecResult& res, const RunTask& task, const RunOutput& out) {
  ++res.failed;
  if (task.run_index < res.first_error_run) {
    res.first_error_run = task.run_index;
    res.first_error = out.error;
  }
}

bool cancel_requested(const ExecutorOptions& opts) {
  return opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed);
}

std::size_t slot_count(const std::vector<RunTask>& tasks) {
  std::size_t n = 0;
  for (const RunTask& t : tasks) n = std::max(n, t.run_index + 1);
  return n;
}

/// Wall-clock watchdog: one monitor thread, one (deadline, abort) pair per
/// worker. Workers arm their slot before a run and disarm after; the
/// monitor flips the abort flag once the deadline passes, and cooperative
/// RunFns observe it through current_run_abort().
class Watchdog {
 public:
  Watchdog(std::size_t workers, double timeout_seconds)
      : timeout_(timeout_seconds), slots_(workers) {
    monitor_ = std::thread([this] { monitor_loop(); });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    monitor_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Reset the slot's abort flag, start its countdown, and publish the flag
  /// to the calling thread.
  void arm(std::size_t slot) {
    slots_[slot].abort.store(false, std::memory_order_relaxed);
    slots_[slot].deadline.store(wall_now() + timeout_, std::memory_order_relaxed);
    t_run_abort = &slots_[slot].abort;
  }

  /// Stop the countdown; returns whether the watchdog fired during the run.
  bool disarm(std::size_t slot) {
    slots_[slot].deadline.store(kIdle, std::memory_order_relaxed);
    t_run_abort = nullptr;
    return slots_[slot].abort.load(std::memory_order_relaxed);
  }

 private:
  static constexpr double kIdle = 1e300;

  struct Slot {
    std::atomic<double> deadline{kIdle};
    std::atomic<bool> abort{false};
  };

  void monitor_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(20));
      const double now = wall_now();
      for (Slot& s : slots_) {
        if (now >= s.deadline.load(std::memory_order_relaxed)) {
          s.abort.store(true, std::memory_order_relaxed);
        }
      }
    }
  }

  double timeout_;
  std::vector<Slot> slots_;
  std::thread monitor_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// One run including its infra-failure retry budget. `watchdog`/`slot` are
/// the caller's watchdog arm (null when no timeout is configured).
RunOutput run_with_retries(const RunFn& fn, const RunTask& task,
                           const ExecutorOptions& opts, Watchdog* watchdog,
                           std::size_t slot, double* wall_seconds) {
  int attempt = 0;
  while (true) {
    if (watchdog) watchdog->arm(slot);
    const double t0 = wall_now();
    RunOutput out = run_one(fn, task);
    *wall_seconds += wall_now() - t0;
    const bool timed_out = watchdog && watchdog->disarm(slot);
    if (timed_out && !out.ok) {
      // A watchdog stop is an infra failure (the machine may simply have
      // been starved) even when the RunFn already produced a diagnostic.
      out.infra_failure = true;
    }
    out.attempts = attempt + 1;
    if (out.ok || !out.infra_failure || attempt >= opts.max_retries ||
        cancel_requested(opts)) {
      return out;
    }
    ++attempt;
    // The wait doubles with each retry, up to this cap.
    constexpr double kRetryBackoffSeconds = 0.5;
    constexpr double kRetryBackoffCapSeconds = 10.0;
    const double backoff =
        std::min(kRetryBackoffSeconds * std::ldexp(1.0, attempt - 1), kRetryBackoffCapSeconds);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

}  // namespace

const std::atomic<bool>* current_run_abort() { return t_run_abort; }

int default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ExecResult execute_all(const std::vector<RunTask>& tasks, const RunFn& fn,
                       const ExecutorOptions& opts) {
  ExecResult res;
  res.outputs.resize(slot_count(tasks));

  const int workers =
      std::max(1, std::min(opts.workers, static_cast<int>(tasks.size())));
  std::optional<Watchdog> watchdog;
  if (opts.run_timeout_seconds > 0 && !tasks.empty()) {
    watchdog.emplace(static_cast<std::size_t>(workers), opts.run_timeout_seconds);
  }
  Watchdog* wd = watchdog ? &*watchdog : nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> interrupted{false};
  std::mutex mu;  // guards res counters + progress callback
  std::size_t done = 0;

  const auto worker = [&](std::size_t slot) {
    while (!cancelled.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) break;
      // Only a run the flag kept from starting makes the sweep interrupted.
      if (cancel_requested(opts)) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      const RunTask& task = tasks[i];
      double dt = 0.0;
      RunOutput out = run_with_retries(fn, task, opts, wd, slot, &dt);
      if (!out.ok) {
        cancelled.store(true, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (out.ok) {
        ++res.completed;
      } else {
        note_failure(res, task, out);
      }
      // The slot write itself needs no lock (distinct indices), but doing
      // it here keeps every write ordered before the final join anyway.
      res.outputs[task.run_index] = std::move(out);
      if (opts.on_progress) {
        ProgressEvent ev;
        ev.done = ++done;
        ev.total = tasks.size();
        ev.task = &task;
        ev.output = &*res.outputs[task.run_index];
        ev.ok = ev.output->ok;
        ev.wall_seconds = dt;
        opts.on_progress(ev);
      }
    }
  };

  if (workers == 1) {
    worker(0);  // inline: the caller's thread_local sessions stay visible
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(worker, static_cast<std::size_t>(w));
    }
    for (auto& t : pool) t.join();
  }

  res.cancelled = cancelled.load();
  res.interrupted = interrupted.load();
  res.skipped = tasks.size() - res.completed - res.failed;
  return res;
}

}  // namespace iosim::exp
