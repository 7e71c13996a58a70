#include "exp/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/artifact.hpp"
#include "exp/executor.hpp"
#include "exp/json_parse.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"

namespace iosim::exp {
namespace {

std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + "iosim_journal_test_" + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- Atomic artifact writes -----------------------------------------------

TEST(Artifact, AtomicWriteRoundTrips) {
  const std::string path = temp_path("atomic.json");
  std::string err;
  ASSERT_TRUE(write_file_atomic(path, "{\"a\":1}\n", &err)) << err;
  EXPECT_EQ(slurp(path), "{\"a\":1}\n");
  // Overwrite is atomic too: the old content is fully replaced.
  ASSERT_TRUE(write_file_atomic(path, "second\n", &err)) << err;
  EXPECT_EQ(slurp(path), "second\n");
  std::remove(path.c_str());
}

TEST(Artifact, AtomicWriteFailsCleanlyOnBadPath) {
  std::string err;
  EXPECT_FALSE(write_file_atomic("/nonexistent-dir-xyz/out.json", "x", &err));
  EXPECT_FALSE(err.empty());
}

TEST(Artifact, Fnv1a64KnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// --- JSON reader ----------------------------------------------------------

TEST(JsonParse, ReadsWriterSubset) {
  const auto v = json_parse(
      "{\"s\":\"a\\\"b\\\\c\",\"n\":1.5,\"t\":true,\"f\":false,\"z\":null,"
      "\"arr\":[1,2],\"o\":{\"k\":2}}");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(v->find("s")->str, "a\"b\\c");
  EXPECT_DOUBLE_EQ(v->find("n")->num, 1.5);
  EXPECT_TRUE(v->find("t")->b);
  EXPECT_FALSE(v->find("f")->b);
  EXPECT_EQ(v->find("z")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(v->find("arr")->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(v->find("o")->find("k")->num, 2.0);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParse, KeysKeepFileOrder) {
  const auto v = json_parse("{\"z\":1,\"a\":2,\"m\":3}");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->obj.size(), 3u);
  EXPECT_EQ(v->obj[0].first, "z");
  EXPECT_EQ(v->obj[1].first, "a");
  EXPECT_EQ(v->obj[2].first, "m");
}

TEST(JsonParse, U64RoundTripsLosslessly) {
  // 2^64 - 1 does not fit a double; the raw token must survive.
  const auto v = json_parse("{\"seed\":18446744073709551615}");
  ASSERT_TRUE(v.has_value());
  const auto u = v->find("seed")->as_u64();
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, 18446744073709551615ull);
  // Signed / fractional / overflowing tokens refuse u64 interpretation.
  EXPECT_FALSE(json_parse("-1")->as_u64().has_value());
  EXPECT_FALSE(json_parse("1.5")->as_u64().has_value());
  EXPECT_FALSE(json_parse("18446744073709551616")->as_u64().has_value());
}

TEST(JsonParse, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(json_parse("{\"a\":", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", &err).has_value());
  EXPECT_FALSE(json_parse("", &err).has_value());
  EXPECT_FALSE(json_parse("{'a':1}", &err).has_value());
}

TEST(JsonParse, RejectsPathologicalNesting) {
  // Each nesting level recurses one native stack frame; without the depth
  // guard a few hundred KB of "[[[[..." would overflow the stack (the
  // original fuzzer-found crash). Moderate nesting must still parse.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_TRUE(json_parse(deep).has_value());

  std::string err;
  std::string too_deep(100'000, '[');
  EXPECT_FALSE(json_parse(too_deep, &err).has_value());
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;

  std::string objs;
  for (int i = 0; i < 1000; ++i) objs += "{\"k\":";
  EXPECT_FALSE(json_parse(objs, &err).has_value());
}

// --- Run journal ----------------------------------------------------------

const char* kSpecText =
    "name=jtest\n"
    "mode=run\n"
    "base_seed=7\n"
    "repeats=2\n"
    "workload=sort\n"
    "hosts=2\nvms=2\nmb=32\n";

ScenarioSpec parsed_spec() {
  const auto spec = ScenarioSpec::parse(kSpecText);
  EXPECT_TRUE(spec.has_value());
  return *spec;
}

RunOutput ok_output(double v) {
  RunOutput o;
  o.metrics = {{"seconds", v}, {"ph1_seconds", v / 2.0}};
  return o;
}

TEST(Journal, WriteThenReplayRestoresOutputs) {
  const std::string path = temp_path("roundtrip.journal");
  std::remove(path.c_str());
  const auto spec = parsed_spec();
  const auto tasks = build_run_matrix(spec);
  const auto header = journal_header_for(spec);

  {
    std::string err;
    auto j = RunJournal::open(path, header, &err);
    ASSERT_TRUE(j.has_value()) << err;
    ASSERT_TRUE(j->append(tasks[0], ok_output(12.5), 0.1, &err)) << err;
    RunOutput failed;
    failed.ok = false;
    failed.error = "job aborted";
    ASSERT_TRUE(j->append(tasks[1], failed, 0.2, &err)) << err;
  }

  std::string err;
  const auto replay = read_journal(path, header, tasks, &err);
  ASSERT_TRUE(replay.has_value()) << err;
  EXPECT_EQ(replay->header, header);
  EXPECT_EQ(replay->n_ok, 1u);
  EXPECT_EQ(replay->n_failed, 1u);
  EXPECT_FALSE(replay->truncated_tail);
  ASSERT_EQ(replay->outputs.size(), tasks.size());
  ASSERT_TRUE(replay->outputs[0].has_value());
  EXPECT_TRUE(replay->outputs[0]->ok);
  ASSERT_EQ(replay->outputs[0]->metrics.size(), 2u);
  EXPECT_EQ(replay->outputs[0]->metrics[0].first, "seconds");
  EXPECT_DOUBLE_EQ(replay->outputs[0]->metrics[0].second, 12.5);
  // The failed record leaves its slot empty so a resume re-executes it.
  EXPECT_FALSE(replay->outputs[1].has_value());
  std::remove(path.c_str());
}

TEST(Journal, TruncatedTailIsToleratedAndRerun) {
  const std::string path = temp_path("torn.journal");
  std::remove(path.c_str());
  const auto spec = parsed_spec();
  const auto tasks = build_run_matrix(spec);
  const auto header = journal_header_for(spec);
  {
    std::string err;
    auto j = RunJournal::open(path, header, &err);
    ASSERT_TRUE(j.has_value()) << err;
    ASSERT_TRUE(j->append(tasks[0], ok_output(1.0), 0.1, &err)) << err;
    ASSERT_TRUE(j->append(tasks[1], ok_output(2.0), 0.1, &err)) << err;
  }
  // Tear the last record mid-line, as a SIGKILL mid-write would.
  std::string content = slurp(path);
  content.resize(content.size() - 25);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  std::string err;
  const auto replay = read_journal(path, header, tasks, &err);
  ASSERT_TRUE(replay.has_value()) << err;
  EXPECT_TRUE(replay->truncated_tail);
  EXPECT_EQ(replay->n_ok, 1u);
  ASSERT_TRUE(replay->outputs[0].has_value());
  EXPECT_FALSE(replay->outputs[1].has_value());  // torn record re-executes
  std::remove(path.c_str());
}

TEST(Journal, HeaderMismatchRejectsReplay) {
  const std::string path = temp_path("mismatch.journal");
  std::remove(path.c_str());
  const auto spec = parsed_spec();
  const auto tasks = build_run_matrix(spec);
  {
    std::string err;
    auto j = RunJournal::open(path, journal_header_for(spec), &err);
    ASSERT_TRUE(j.has_value()) << err;
  }
  // A different base seed is a different sweep: the journal must be refused.
  auto other = parsed_spec();
  other.base_seed = 999;
  std::string err;
  EXPECT_FALSE(
      read_journal(path, journal_header_for(other), build_run_matrix(other), &err)
          .has_value());
  EXPECT_NE(err.find("different sweep"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Journal, MissingFileIsAnError) {
  const auto spec = parsed_spec();
  std::string err;
  EXPECT_FALSE(read_journal(temp_path("never-written.journal"),
                            journal_header_for(spec), build_run_matrix(spec), &err)
                   .has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Journal, FingerprintIgnoresTimeoutOnly) {
  // timeout= is wall-clock-only policy: the same journal must be resumable
  // with a different timeout. Budgets change results, so they re-fingerprint.
  auto a = parsed_spec();
  auto b = parsed_spec();
  b.timeout_seconds = 300.0;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  auto c = parsed_spec();
  c.max_events = 12345;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(Journal, ResumeMergeReproducesUninterruptedJson) {
  // The acceptance criterion, end to end in-process: run half the matrix
  // into a journal, replay it, execute only the missing runs, merge, and the
  // aggregated BENCH JSON, checks included, must be byte-identical to a
  // one-shot sweep.
  const std::string path = temp_path("resume.journal");
  std::remove(path.c_str());
  auto spec = parsed_spec();
  ASSERT_TRUE(spec.apply("expect", "ph1_seconds < seconds"));
  ASSERT_TRUE(spec.apply("expect", "ph23_seconds <= 0.5 * seconds"));
  const auto points = spec.expand();
  const auto tasks = build_run_matrix(spec);
  const auto checks = resolve_checks(spec, points);
  ASSERT_TRUE(checks.has_value());
  const auto fn = make_run_fn(points);
  const auto header = journal_header_for(spec);
  EXPECT_EQ(header, journal_header_for(parsed_spec()));

  // Reference: uninterrupted sweep.
  const auto full = execute_all(tasks, fn);
  ASSERT_TRUE(full.all_ok()) << full.first_error;
  const auto full_agg = aggregate(spec, points, tasks, full);
  const std::string want =
      to_json(spec, full_agg, false, evaluate_checks(spec, *checks, full_agg));
  EXPECT_NE(want.find("\"checks\""), std::string::npos);

  // "Crashed" sweep: only the even runs made it into the journal.
  {
    std::string err;
    auto j = RunJournal::open(path, header, &err);
    ASSERT_TRUE(j.has_value()) << err;
    for (std::size_t i = 0; i < tasks.size(); i += 2) {
      ASSERT_TRUE(j->append(tasks[i], *full.outputs[i], 0.1, &err)) << err;
    }
  }

  // Resume: replay, run the missing half, merge by run_index.
  std::string err;
  const auto replay = read_journal(path, header, tasks, &err);
  ASSERT_TRUE(replay.has_value()) << err;
  std::vector<RunTask> pending;
  for (const RunTask& t : tasks) {
    if (!replay->outputs[t.run_index].has_value()) pending.push_back(t);
  }
  ASSERT_EQ(pending.size(), tasks.size() / 2);
  const auto rest = execute_all(pending, fn);
  ASSERT_TRUE(rest.all_ok()) << rest.first_error;

  ExecResult merged;
  merged.outputs = replay->outputs;
  merged.completed = replay->n_ok;
  for (std::size_t i = 0; i < rest.outputs.size(); ++i) {
    if (rest.outputs[i].has_value()) {
      merged.outputs[i] = rest.outputs[i];
      ++merged.completed;
    }
  }
  const auto merged_agg = aggregate(spec, points, tasks, merged);
  const std::string got =
      to_json(spec, merged_agg, false, evaluate_checks(spec, *checks, merged_agg));
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace iosim::exp
