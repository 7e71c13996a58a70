#include "exp/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "trace/trace.hpp"

namespace iosim::exp {
namespace {

std::vector<RunTask> synthetic_tasks(std::size_t n) {
  ScenarioSpec s;
  s.repeats = static_cast<int>(n);
  return build_run_matrix(s);
}

TEST(Executor, SerialRunsEverythingInOrder) {
  const auto tasks = synthetic_tasks(8);
  std::vector<std::size_t> order;
  const auto res = execute_all(tasks, [&](const RunTask& t) {
    order.push_back(t.run_index);
    RunOutput o;
    o.metrics.emplace_back("value", static_cast<double>(t.run_index));
    return o;
  });
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(res.completed, 8u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_EQ(res.skipped, 0u);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(res.outputs[i].has_value());
    EXPECT_DOUBLE_EQ(res.outputs[i]->metrics[0].second, static_cast<double>(i));
  }
}

TEST(Executor, ResultsIdenticalAcrossWorkerCounts) {
  const auto tasks = synthetic_tasks(16);
  const auto fn = [](const RunTask& t) {
    RunOutput o;
    o.metrics.emplace_back("seed_lo", static_cast<double>(t.seed % 1000));
    return o;
  };
  ExecutorOptions serial;
  serial.workers = 1;
  ExecutorOptions wide;
  wide.workers = 8;
  const auto a = execute_all(tasks, fn, serial);
  const auto b = execute_all(tasks, fn, wide);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    ASSERT_TRUE(a.outputs[i].has_value());
    ASSERT_TRUE(b.outputs[i].has_value());
    EXPECT_EQ(a.outputs[i]->metrics, b.outputs[i]->metrics) << "slot " << i;
  }
}

TEST(Executor, SerialCancelsOnFirstFailure) {
  const auto tasks = synthetic_tasks(10);
  std::size_t calls = 0;
  const auto res = execute_all(tasks, [&](const RunTask& t) {
    ++calls;
    RunOutput o;
    if (t.run_index == 3) {
      o.ok = false;
      o.error = "boom";
    }
    return o;
  });
  EXPECT_FALSE(res.all_ok());
  EXPECT_TRUE(res.cancelled);
  EXPECT_EQ(calls, 4u);  // 0,1,2 ok; 3 fails; 4.. never claimed
  EXPECT_EQ(res.completed, 3u);
  EXPECT_EQ(res.failed, 1u);
  EXPECT_EQ(res.skipped, 6u);
  EXPECT_EQ(res.first_error, "boom");
  EXPECT_EQ(res.first_error_run, 3u);
  EXPECT_FALSE(res.outputs[5].has_value());
}

TEST(Executor, ParallelCancelKeepsDeterministicFirstError) {
  // Several runs fail; the reported representative must be the smallest
  // failing run_index regardless of completion interleaving. Runs are
  // claimed in index order and a claimed run always completes, so run 5 is
  // recorded even when a later failure cancels the sweep first.
  const auto tasks = synthetic_tasks(32);
  ExecutorOptions opts;
  opts.workers = 8;
  const auto res = execute_all(
      tasks,
      [](const RunTask& t) {
        RunOutput o;
        if (t.run_index % 7 == 5) {  // fails at 5, 12, 19, 26
          o.ok = false;
          o.error = "fail@" + std::to_string(t.run_index);
        }
        return o;
      },
      opts);
  EXPECT_TRUE(res.cancelled);
  EXPECT_GE(res.failed, 1u);
  EXPECT_EQ(res.first_error_run, 5u);
  EXPECT_EQ(res.first_error, "fail@5");
}

TEST(Executor, ExceptionInRunFnBecomesFailure) {
  const auto tasks = synthetic_tasks(3);
  const auto res = execute_all(tasks, [](const RunTask& t) -> RunOutput {
    if (t.run_index == 1) throw std::runtime_error("kaput");
    return {};
  });
  EXPECT_FALSE(res.all_ok());
  EXPECT_EQ(res.failed, 1u);
  ASSERT_TRUE(res.outputs[1].has_value());
  EXPECT_FALSE(res.outputs[1]->ok);
  EXPECT_NE(res.outputs[1]->error.find("kaput"), std::string::npos);
}

TEST(Executor, ProgressEventsCountEveryCompletion) {
  const auto tasks = synthetic_tasks(12);
  ExecutorOptions opts;
  opts.workers = 4;
  std::atomic<std::size_t> events{0};
  std::size_t last_done = 0;
  opts.on_progress = [&](const ProgressEvent& ev) {
    ++events;
    EXPECT_EQ(ev.total, 12u);
    EXPECT_GT(ev.done, last_done);  // delivered under the lock, monotonically
    last_done = ev.done;
    EXPECT_NE(ev.task, nullptr);
  };
  const auto res = execute_all(tasks, [](const RunTask&) { return RunOutput{}; }, opts);
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(events.load(), 12u);
  EXPECT_EQ(last_done, 12u);
}

TEST(Executor, DefaultWorkersIsAtLeastOne) { EXPECT_GE(default_workers(), 1); }

// --- Robustness layer -----------------------------------------------------

TEST(ExecutorRobustness, InfraFailureRetriedUntilSuccess) {
  const auto tasks = synthetic_tasks(4);
  ExecutorOptions opts;
  opts.max_retries = 3;
  std::atomic<int> attempts_of_2{0};
  const auto res = execute_all(
      tasks,
      [&](const RunTask& t) {
        RunOutput o;
        if (t.run_index == 2 && attempts_of_2.fetch_add(1) < 2) {
          o.ok = false;
          o.infra_failure = true;  // e.g. a watchdog timeout
          o.error = "flaky";
        }
        return o;
      },
      opts);
  EXPECT_TRUE(res.all_ok()) << res.first_error;
  EXPECT_EQ(attempts_of_2.load(), 3);  // two infra failures, then success
  ASSERT_TRUE(res.outputs[2].has_value());
  EXPECT_EQ(res.outputs[2]->attempts, 3);
  EXPECT_EQ(res.outputs[1]->attempts, 1);
}

TEST(ExecutorRobustness, DeterministicFailureNeverRetried) {
  // A sim failure (ok=false without infra_failure) would fail identically on
  // the same seed — the retry budget must not touch it.
  const auto tasks = synthetic_tasks(3);
  ExecutorOptions opts;
  opts.max_retries = 5;
  std::atomic<int> calls{0};
  const auto res = execute_all(
      tasks,
      [&](const RunTask& t) {
        ++calls;
        RunOutput o;
        if (t.run_index == 1) {
          o.ok = false;
          o.error = "job aborted";
        }
        return o;
      },
      opts);
  EXPECT_FALSE(res.all_ok());
  EXPECT_EQ(calls.load(), 2);  // run 0 ok, run 1 fails once, run 2 skipped
  ASSERT_TRUE(res.outputs[1].has_value());
  EXPECT_EQ(res.outputs[1]->attempts, 1);
  EXPECT_FALSE(res.outputs[1]->infra_failure);
}

TEST(ExecutorRobustness, ExceptionIsInfraAndRetried) {
  const auto tasks = synthetic_tasks(1);
  ExecutorOptions opts;
  opts.max_retries = 1;
  std::atomic<int> calls{0};
  const auto res = execute_all(
      tasks,
      [&](const RunTask&) -> RunOutput {
        if (calls.fetch_add(1) == 0) throw std::runtime_error("transient");
        return {};
      },
      opts);
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(res.outputs[0]->attempts, 2);
}

TEST(ExecutorRobustness, RetryBudgetExhaustionKeepsInfraFlag) {
  const auto tasks = synthetic_tasks(1);
  ExecutorOptions opts;
  opts.max_retries = 2;
  const auto res = execute_all(
      tasks,
      [](const RunTask&) -> RunOutput { throw std::runtime_error("always"); },
      opts);
  EXPECT_FALSE(res.all_ok());
  ASSERT_TRUE(res.outputs[0].has_value());
  EXPECT_EQ(res.outputs[0]->attempts, 3);  // initial try + 2 retries
  EXPECT_TRUE(res.outputs[0]->infra_failure);
}

TEST(ExecutorRobustness, ExternalCancelBeforeStartSkipsEverything) {
  const auto tasks = synthetic_tasks(5);
  std::atomic<bool> cancel{true};
  ExecutorOptions opts;
  opts.cancel = &cancel;
  std::size_t calls = 0;
  const auto res = execute_all(tasks, [&](const RunTask&) {
    ++calls;
    return RunOutput{};
  }, opts);
  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(res.skipped, 5u);
}

TEST(ExecutorRobustness, ExternalCancelMidSweepDrainsInFlight) {
  const auto tasks = synthetic_tasks(10);
  std::atomic<bool> cancel{false};
  ExecutorOptions opts;
  opts.cancel = &cancel;
  const auto res = execute_all(tasks, [&](const RunTask& t) {
    if (t.run_index == 2) cancel.store(true);  // "signal" arrives mid-run
    return RunOutput{};
  }, opts);
  EXPECT_TRUE(res.interrupted);
  // The in-flight run (index 2) completed and was recorded; later runs were
  // never claimed.
  EXPECT_EQ(res.completed, 3u);
  EXPECT_EQ(res.skipped, 7u);
  ASSERT_TRUE(res.outputs[2].has_value());
  EXPECT_FALSE(res.outputs[3].has_value());
}

TEST(ExecutorRobustness, SparseTaskListSizesSlotsToMaxRunIndex) {
  // Resume passes only the runs missing from the journal; slots must still
  // be addressable by the original run_index.
  const auto dense = synthetic_tasks(6);
  std::vector<RunTask> sparse{dense[1], dense[4]};
  const auto res = execute_all(sparse, [](const RunTask& t) {
    RunOutput o;
    o.metrics.emplace_back("idx", static_cast<double>(t.run_index));
    return o;
  });
  EXPECT_TRUE(res.all_ok());
  ASSERT_EQ(res.outputs.size(), 5u);  // max run_index 4, +1
  EXPECT_FALSE(res.outputs[0].has_value());
  ASSERT_TRUE(res.outputs[1].has_value());
  EXPECT_FALSE(res.outputs[2].has_value());
  ASSERT_TRUE(res.outputs[4].has_value());
  EXPECT_DOUBLE_EQ(res.outputs[4]->metrics[0].second, 4.0);
}

TEST(ExecutorRobustness, EmptyTaskListIsANoOp) {
  const auto res = execute_all({}, [](const RunTask&) { return RunOutput{}; });
  EXPECT_TRUE(res.all_ok());
  EXPECT_TRUE(res.outputs.empty());
}

TEST(ExecutorRobustness, WatchdogTimesOutCooperativeRun) {
  // A "livelocked" RunFn that spins on the published abort flag, like the
  // simulator's event loop does through SimBudget::abort. The watchdog must
  // fire within its budget, classify the failure as infra, and exhaust the
  // retry budget instead of wedging the pool.
  const auto tasks = synthetic_tasks(1);
  ExecutorOptions opts;
  opts.run_timeout_seconds = 0.05;
  opts.max_retries = 1;
  std::atomic<int> calls{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = execute_all(
      tasks,
      [&](const RunTask&) {
        ++calls;
        const std::atomic<bool>* abort = current_run_abort();
        EXPECT_NE(abort, nullptr);  // watchdog armed for this run
        while (abort != nullptr && !abort->load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        RunOutput o;
        o.ok = false;
        o.error = "simulation stopped early (aborted)";
        return o;
      },
      opts);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_FALSE(res.all_ok());
  EXPECT_EQ(calls.load(), 2);  // timeout is infra: one retry happened
  ASSERT_TRUE(res.outputs[0].has_value());
  EXPECT_TRUE(res.outputs[0]->infra_failure);
  EXPECT_LT(wall, 10.0);  // far below "forever": the pool did not wedge
}

TEST(ExecutorRobustness, NoWatchdogMeansNoAbortFlag) {
  const auto tasks = synthetic_tasks(1);
  const auto res = execute_all(tasks, [](const RunTask&) {
    EXPECT_EQ(current_run_abort(), nullptr);
    return RunOutput{};
  });
  EXPECT_TRUE(res.all_ok());
}

TEST(ExecutorRobustness, CancelDuringLastRunInterruptsNothing) {
  // The flag arrives while the last run is in flight: every run was already
  // claimed, so no worker count may report the sweep interrupted.
  const auto tasks = synthetic_tasks(4);
  for (const int workers : {1, 4}) {
    std::atomic<bool> cancel{false};
    std::atomic<int> started{0};
    ExecutorOptions opts;
    opts.workers = workers;
    opts.cancel = &cancel;
    const auto res = execute_all(tasks, [&](const RunTask&) {
      // The fourth run to start is the last one any worker can claim.
      if (started.fetch_add(1) + 1 == 4) cancel.store(true);
      return RunOutput{};
    }, opts);
    EXPECT_EQ(res.completed, 4u) << "workers=" << workers;
    EXPECT_EQ(res.skipped, 0u) << "workers=" << workers;
    EXPECT_FALSE(res.interrupted) << "workers=" << workers;
  }
}

TEST(Executor, OneWorkerRunsInlineOnTheCallingThread) {
  // thread_local sessions the caller installed reach the RunFn.
  trace::TraceSession session;
  const auto tasks = synthetic_tasks(3);
  std::size_t seen = 0;
  const auto res = execute_all(tasks, [&](const RunTask&) {
    if (trace::tracer() == &session.tracer()) ++seen;
    return RunOutput{};
  });
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(seen, 3u);
}

// --- Real-simulation integration -----------------------------------------

const char* kTinySpec =
    "name=exec_it\n"
    "mode=run\n"
    "base_seed=11\n"
    "repeats=2\n"
    "pair=cc,ad\n"
    "workload=sort\n"
    "hosts=2\nvms=2\nmb=32\n"
    "expect = seconds[pair=ad] < seconds[pair=cc]\n"
    "expect = per pair: ph1_seconds < 0.5 * seconds\n";

TEST(ExecutorIntegration, ByteIdenticalJsonAcrossWorkerCounts) {
  // The determinism-under-parallelism contract: same spec + base seed at
  // --workers 1, 4 and 8 must yield byte-identical BENCH JSON, checks
  // included.
  const auto spec = ScenarioSpec::parse(kTinySpec);
  ASSERT_TRUE(spec.has_value());
  const auto points = spec->expand();
  const auto tasks = build_run_matrix(*spec);
  const auto checks = resolve_checks(*spec, points);
  ASSERT_TRUE(checks.has_value());
  const auto fn = make_run_fn(points);

  std::vector<std::string> jsons;
  for (const int workers : {1, 8, 4}) {
    ExecutorOptions opts;
    opts.workers = workers;
    const auto res = execute_all(tasks, fn, opts);
    ASSERT_TRUE(res.all_ok()) << res.first_error;
    const auto agg = aggregate(*spec, points, tasks, res);
    jsons.push_back(to_json(*spec, agg, false, evaluate_checks(*spec, *checks, agg)));
  }
  const std::string& ja = jsons[0];
  EXPECT_EQ(ja, jsons[1]);
  EXPECT_EQ(ja, jsons[2]);
  EXPECT_NE(ja.find("\"bench_format\""), std::string::npos);
  EXPECT_NE(ja.find("\"seconds\""), std::string::npos);
  EXPECT_NE(ja.find("\"group\":\"pair=ad\""), std::string::npos);
}

TEST(ExecutorIntegration, ByteIdenticalJsonWithMultiJobStreamPoints) {
  // Same contract as above, but the sweep mixes single-job points with
  // open-arrival multi-job stream points under two JobTracker policies.
  // Stream runs spawn their own per-job RNG streams and per-class sketches;
  // none of that may leak across worker threads.
  const auto spec = ScenarioSpec::parse(
      "name=exec_stream_it\n"
      "mode=run\n"
      "base_seed=11\n"
      "repeats=2\n"
      "workload=sort\n"
      "hosts=2\nvms=2\nmb=16\n"
      "stream=none|arrive,poisson,rate=0.1,jobs=4;"
      "class,name=batch,wl=sort,mb=8-16,share=0.7,mix=3;"
      "class,name=ui,wl=wc,mb=8-8,prio=5,share=0.3,deadline=200,mix=1\n"
      "stream_policy=fifo,fair\n");
  ASSERT_TRUE(spec.has_value());
  const auto points = spec->expand();
  ASSERT_EQ(points.size(), 4u);  // {none, stream} x {fifo, fair}
  const auto tasks = build_run_matrix(*spec);
  const auto fn = make_run_fn(points);

  ExecutorOptions serial;
  serial.workers = 1;
  ExecutorOptions wide;
  wide.workers = 8;
  const auto a = execute_all(tasks, fn, serial);
  const auto b = execute_all(tasks, fn, wide);
  ASSERT_TRUE(a.all_ok()) << a.first_error;
  ASSERT_TRUE(b.all_ok()) << b.first_error;

  const std::string ja = to_json(*spec, aggregate(*spec, points, tasks, a));
  const std::string jb = to_json(*spec, aggregate(*spec, points, tasks, b));
  EXPECT_EQ(ja, jb);
  // Per-class sketch metrics and SLA accounting made it into the artifact.
  EXPECT_NE(ja.find("\"jobs_completed\""), std::string::npos);
  EXPECT_NE(ja.find("\"sla_violations\""), std::string::npos);
  EXPECT_NE(ja.find("\"batch_p95_s\""), std::string::npos);
  EXPECT_NE(ja.find("\"ui_sla_viol\""), std::string::npos);
}

TEST(ExecutorIntegration, AbortingFaultCancelsSweep) {
  // transient:host=-1,p=0.9 makes every disk I/O on every host fail with
  // 90% probability — the job aborts after retries, and the sweep must
  // cancel instead of writing a BENCH file full of holes.
  const auto spec = ScenarioSpec::parse(
      "name=doomed\nrepeats=2\nworkload=sort\nhosts=2\nvms=2\nmb=32\n"
      "fault=transient:host=-1,p=0.9\n");
  ASSERT_TRUE(spec.has_value());
  const auto points = spec->expand();
  const auto tasks = build_run_matrix(*spec);
  const auto res = execute_all(tasks, make_run_fn(points));
  EXPECT_FALSE(res.all_ok());
  EXPECT_GE(res.failed, 1u);
  EXPECT_FALSE(res.first_error.empty());
}

TEST(ExecutorIntegration, ParallelSpeedupOverSerial) {
  // The tentpole's raison d'être: N workers must beat serial wall-clock on
  // a multi-core machine while producing the same outputs (checked above).
  // Sleep-based synthetic tasks make the measurement robust to machine
  // speed; the threads genuinely run concurrently either way.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs >= 2 cores, have " << hw;

  constexpr auto kPerTask = std::chrono::milliseconds(60);
  const auto tasks = synthetic_tasks(8);
  const auto fn = [&](const RunTask&) {
    std::this_thread::sleep_for(kPerTask);
    return RunOutput{};
  };
  const auto timed = [&](int workers) {
    ExecutorOptions opts;
    opts.workers = workers;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = execute_all(tasks, fn, opts);
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_TRUE(res.all_ok());
    return std::chrono::duration<double>(t1 - t0).count();
  };

  const double serial = timed(1);
  const double parallel = timed(static_cast<int>(std::min(hw, 8u)));
  EXPECT_LT(parallel, 0.85 * serial)
      << "serial " << serial << "s vs parallel " << parallel << "s";
}

}  // namespace
}  // namespace iosim::exp
