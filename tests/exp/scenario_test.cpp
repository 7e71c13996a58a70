#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/artifact.hpp"
#include "fault/fault_plan.hpp"
#include "sim/random.hpp"
#include "tenancy/stream_spec.hpp"

namespace iosim::exp {
namespace {

TEST(ScenarioSpec, Defaults) {
  const auto s = ScenarioSpec::parse("");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->name, "sweep");
  EXPECT_EQ(s->mode, RunMode::kRun);
  EXPECT_EQ(s->base_seed, 1u);
  EXPECT_EQ(s->repeats, 3);
  EXPECT_EQ(s->pairs.size(), 1u);
  EXPECT_EQ(s->workloads, std::vector<std::string>{"sort"});
  EXPECT_EQ(s->n_points(), 1u);
  EXPECT_EQ(s->n_runs(), 3u);
}

TEST(ScenarioSpec, FullParse) {
  const char* text =
      "# a comment\n"
      "name = fig7b\n"
      "mode = adapt\n"
      "base_seed = 99\n"
      "repeats = 5\n"
      "workload = sort, wc\n"
      "hosts = 4\n"
      "vms = 2, 4, 6\n"
      "mb = 512\n";
  std::string err;
  const auto s = ScenarioSpec::parse(text, &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->name, "fig7b");
  EXPECT_EQ(s->mode, RunMode::kAdapt);
  EXPECT_EQ(s->base_seed, 99u);
  EXPECT_EQ(s->repeats, 5);
  EXPECT_EQ(s->vms, (std::vector<int>{2, 4, 6}));
  EXPECT_EQ(s->n_points(), 2u * 3u);
  EXPECT_EQ(s->n_runs(), 6u * 5u);
}

TEST(ScenarioSpec, RoundTripsThroughToString) {
  const char* text =
      "name=rt\nmode=adapt\nbase_seed=7\nrepeats=2\n"
      "pair=cc,ad\nworkload=sort,wc\nhosts=2\nvms=2,4\nmb=64\n"
      "fault=none|failslow:host=0,factor=2\n";
  const auto a = ScenarioSpec::parse(text);
  ASSERT_TRUE(a.has_value());
  const auto b = ScenarioSpec::parse(a->to_string());
  ASSERT_TRUE(b.has_value()) << a->to_string();
  EXPECT_EQ(a->to_string(), b->to_string());
  EXPECT_EQ(a->n_points(), b->n_points());
}

TEST(ScenarioSpec, ErrorsCarryLineNumbers) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("name=x\nbogus_key=1\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;

  EXPECT_FALSE(ScenarioSpec::parse("\n\nrepeats=zero\n", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;

  EXPECT_FALSE(ScenarioSpec::parse("no_equals_sign\n", &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST(ScenarioSpec, RejectsDuplicateKey) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("hosts=2\nhosts=4\n", &err).has_value());
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(ScenarioSpec, RejectsBadValues) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("mode=banana\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("pair=zz\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("workload=grep\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("hosts=0\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("vms=1,,2\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("repeats=0\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("fault=transient:host=0\n", &err).has_value());
}

TEST(ScenarioSpec, RejectsSignedOrNonIntegralUnsignedValues) {
  // Unsigned keys take digits only: a sign used to wrap (base_seed=-1 became
  // 18446744073709551615) instead of failing.
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("base_seed=-1\n", &err).has_value());
  EXPECT_NE(err.find("bad base_seed"), std::string::npos) << err;
  EXPECT_FALSE(ScenarioSpec::parse("base_seed=+7\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("max_events=-5\n", &err).has_value());
  EXPECT_NE(err.find("bad max_events"), std::string::npos) << err;
  EXPECT_FALSE(ScenarioSpec::parse("max_events=1e6\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("base_seed=18446744073709551616\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("hosts=2.0\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("mb=-64\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("timeout=nan\n", &err).has_value());

  ScenarioSpec spec;
  EXPECT_FALSE(spec.apply("base_seed", "-1", &err));  // the --set path
  EXPECT_EQ(spec.base_seed, 1u);
  EXPECT_TRUE(spec.apply("base_seed", "18446744073709551615", &err)) << err;
  EXPECT_EQ(spec.base_seed, 18446744073709551615u);
}

TEST(ScenarioSpec, All16ExpandsEveryPair) {
  const auto s = ScenarioSpec::parse("pair=all16\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->pairs.size(), 16u);
  std::set<std::string> codes;
  for (const auto& p : s->pairs) codes.insert(p.letters());
  EXPECT_EQ(codes.size(), 16u);
}

TEST(ScenarioSpec, FaultAxisParsesAlternatives) {
  const auto s =
      ScenarioSpec::parse("fault=none|failslow:host=0,factor=2|transient:host=-1,p=0.1\n");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->faults.size(), 3u);
  EXPECT_TRUE(s->faults[0].second.empty());   // none -> fault-free
  EXPECT_TRUE(s->faults[0].first.empty());
  EXPECT_FALSE(s->faults[1].first.empty());
  EXPECT_EQ(s->faults[2].second, "transient:host=-1,p=0.1");
}

TEST(ScenarioSpec, ExpansionOrderIsDocumentedNestedLoop) {
  // workload outermost, then hosts, vms, mb, pair, fault innermost.
  const auto s = ScenarioSpec::parse(
      "workload=sort,wc\nhosts=2\nvms=2\nmb=64\npair=cc,ad\n");
  ASSERT_TRUE(s.has_value());
  const auto pts = s->expand();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].workload, "sort");
  EXPECT_EQ(pts[0].pair.letters(), "cc");
  EXPECT_EQ(pts[1].workload, "sort");
  EXPECT_EQ(pts[1].pair.letters(), "ad");
  EXPECT_EQ(pts[2].workload, "wordcount");
  EXPECT_EQ(pts[2].pair.letters(), "cc");
  EXPECT_EQ(pts[3].workload, "wordcount");
  EXPECT_EQ(pts[3].pair.letters(), "ad");
}

TEST(ScenarioSpec, LabelsAreUniqueAcrossExpansion) {
  const auto s = ScenarioSpec::parse(
      "workload=sort,wc\nhosts=2,3\nvms=2,4\nmb=64,128\npair=cc,ad\n"
      "fault=none|failslow:host=0,factor=2\n");
  ASSERT_TRUE(s.has_value());
  const auto pts = s->expand();
  std::set<std::string> labels;
  for (const auto& p : pts) labels.insert(p.label());
  EXPECT_EQ(labels.size(), pts.size());
}

TEST(RunMatrix, SeedsAreDerivedFromRunIndex) {
  const auto s = ScenarioSpec::parse("base_seed=5\nrepeats=2\nvms=2,4\n");
  ASSERT_TRUE(s.has_value());
  const auto tasks = build_run_matrix(*s);
  ASSERT_EQ(tasks.size(), 4u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].run_index, i);
    EXPECT_EQ(tasks[i].point_index, i / 2);
    EXPECT_EQ(tasks[i].repeat, static_cast<int>(i % 2));
    EXPECT_EQ(tasks[i].seed, sim::derive_run_seed(5, i));
    EXPECT_NE(tasks[i].seed, 5 + i);  // never the naive base+index
  }
}

TEST(RunMatrix, DistinctSeedsAcrossLargeMatrix) {
  const auto s = ScenarioSpec::parse("repeats=10\npair=all16\nvms=2,4,6\n");
  ASSERT_TRUE(s.has_value());
  const auto tasks = build_run_matrix(*s);
  ASSERT_EQ(tasks.size(), 480u);
  std::set<std::uint64_t> seeds;
  for (const auto& t : tasks) seeds.insert(t.seed);
  EXPECT_EQ(seeds.size(), tasks.size());
}

TEST(ScenarioSpec, ApplyOverridesForSetFlag) {
  auto s = ScenarioSpec::parse("name=x\nmb=512\n");
  ASSERT_TRUE(s.has_value());
  std::string err;
  ASSERT_TRUE(s->apply("mb", "64", &err)) << err;
  EXPECT_EQ(s->mb, std::vector<std::int64_t>{64});
  EXPECT_FALSE(s->apply("mb", "not_a_number", &err));
}

TEST(ScenarioSpec, ValidateRejectsOversizedMatrix) {
  // Six unbounded axis lengths multiply: a hostile spec can overflow
  // size_t in n_points() or OOM in expand()'s reserve. parse() must
  // reject the product, not just the individual values.
  std::string big = "name=huge\nrepeats=1\npair=all16\n";
  std::string vms = "vms=1";
  for (int i = 2; i <= 400; ++i) {
    vms += ',';
    vms += std::to_string(i);
  }
  std::string hosts = "hosts=1";
  for (int i = 2; i <= 400; ++i) {
    hosts += ',';
    hosts += std::to_string(i);
  }
  big += vms + "\n" + hosts + "\n";
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse(big, &err).has_value());
  EXPECT_NE(err.find("point"), std::string::npos) << err;

  // Run count (points * repeats) is capped separately.
  auto s = ScenarioSpec::parse("name=x\nrepeats=1000000\npair=all16\n");
  EXPECT_FALSE(s.has_value());
}

TEST(ScenarioSpec, ValidateIsReusableAfterSetOverrides) {
  auto s = ScenarioSpec::parse("name=x\n");
  ASSERT_TRUE(s.has_value());
  std::string err;
  EXPECT_TRUE(s->validate(&err)) << err;
  s->repeats = 100'000'000;  // what a bad --set repeats=... would do
  EXPECT_FALSE(s->validate(&err));
  EXPECT_FALSE(err.empty());
}

// --- Multi-job stream axes -------------------------------------------------

constexpr const char* kStreamText =
    "arrive,poisson,rate=0.05,jobs=4;class,name=a,wl=sort,mb=8-16";

TEST(ScenarioSpec, StreamAxisParsesAlternativesAndPolicies) {
  const auto s = ScenarioSpec::parse(
      "stream=none|" + std::string(kStreamText) +
      "\nstream_policy=fifo,fair,capacity\n");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->streams.size(), 2u);
  EXPECT_TRUE(s->streams[0].second.empty());  // none -> single-job point
  EXPECT_EQ(s->streams[1].second, kStreamText);
  EXPECT_EQ(s->streams[1].first.job_count(), 4);
  ASSERT_EQ(s->stream_policies.size(), 3u);
  // none x 3 policies + stream x 3 policies.
  EXPECT_EQ(s->n_points(), 6u);
}

TEST(ScenarioSpec, StreamAxisExpandsWithPolicyOverride) {
  const auto s = ScenarioSpec::parse(
      "stream=none|" + std::string(kStreamText) + "\nstream_policy=fair\n");
  ASSERT_TRUE(s.has_value());
  const auto pts = s->expand();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_TRUE(pts[0].stream_text.empty());
  EXPECT_TRUE(pts[0].stream_policy.empty());  // override is inert on `none`
  EXPECT_EQ(pts[1].stream_text, kStreamText);
  EXPECT_EQ(pts[1].stream_policy, "fair");
  EXPECT_EQ(pts[1].stream.policy, tenancy::Policy::kFair);
  // Labels must stay distinct (the journal keys on them indirectly).
  EXPECT_NE(pts[0].label(), pts[1].label());
}

TEST(ScenarioSpec, StreamAxesRoundTripThroughToString) {
  const auto s = ScenarioSpec::parse(
      "stream=none|" + std::string(kStreamText) + "\nstream_policy=fifo,fair\n");
  ASSERT_TRUE(s.has_value());
  const std::string text = s->to_string();
  EXPECT_NE(text.find("stream="), std::string::npos);
  EXPECT_NE(text.find("stream_policy=fifo,fair"), std::string::npos);
  std::string err;
  const auto again = ScenarioSpec::parse(text, &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->to_string(), text);
  EXPECT_EQ(again->fingerprint(), s->fingerprint());
}

TEST(ScenarioSpec, StreamlessSpecsKeepPreTenancyCanonicalText) {
  // No stream axes -> no stream lines, so pre-tenancy journals still match
  // their recorded fingerprints.
  const auto s = ScenarioSpec::parse("name=x\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->to_string().find("stream"), std::string::npos);
}

TEST(RunMatrix, PairedSeedModeSharesSeedsAcrossPoints) {
  const auto s =
      ScenarioSpec::parse("base_seed=5\nrepeats=2\nseed_mode=repeat\nvms=2,4\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->paired_seeds);
  const auto tasks = build_run_matrix(*s);
  ASSERT_EQ(tasks.size(), 4u);
  // Both points replay the same two seeds, derived from the repeat alone.
  EXPECT_EQ(tasks[0].seed, sim::derive_run_seed(5, 0));
  EXPECT_EQ(tasks[1].seed, sim::derive_run_seed(5, 1));
  EXPECT_EQ(tasks[2].seed, tasks[0].seed);
  EXPECT_EQ(tasks[3].seed, tasks[1].seed);
  // Run indices stay dense and unique — only the seed derivation pairs up.
  EXPECT_EQ(tasks[3].run_index, 3u);
  // The non-default mode is rendered (and round-trips); the default is not.
  EXPECT_NE(s->to_string().find("seed_mode=repeat"), std::string::npos);
  const auto rt = ScenarioSpec::parse(s->to_string());
  ASSERT_TRUE(rt.has_value());
  EXPECT_TRUE(rt->paired_seeds);
  const auto d = ScenarioSpec::parse("repeats=2\n");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->to_string().find("seed_mode"), std::string::npos);
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("seed_mode=dice\n", &err).has_value());
  EXPECT_NE(err.find("bad seed_mode"), std::string::npos) << err;
}

TEST(ScenarioSpec, MetaAxisCrossesStreamsAndFoldsIntoSpecs) {
  const auto s = ScenarioSpec::parse(
      "stream=" + std::string(kStreamText) +
      "\nmeta=none|policy=ucb,explore=0.7|policy=egreedy\n");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->metas.size(), 3u);
  EXPECT_EQ(s->metas[0], "");
  const auto pts = s->expand();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_FALSE(pts[0].stream.meta.enabled());
  EXPECT_EQ(pts[1].stream.meta.policy, tenancy::MetaPolicy::kUcb);
  EXPECT_DOUBLE_EQ(pts[1].stream.meta.explore, 0.7);
  EXPECT_EQ(pts[2].stream.meta.policy, tenancy::MetaPolicy::kEgreedy);
  // The axis shows up in labels (so BENCH points stay distinguishable) and
  // the spec round-trips through its canonical text.
  EXPECT_EQ(pts[0].label().find("meta="), std::string::npos);
  EXPECT_NE(pts[1].label().find("meta=policy=ucb"), std::string::npos);
  const auto rt = ScenarioSpec::parse(s->to_string());
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->to_string(), s->to_string());
}

TEST(ScenarioSpec, MetaAxisRejectsBadInput) {
  std::string err;
  // meta without a stream axis is meaningless.
  EXPECT_FALSE(ScenarioSpec::parse("meta=policy=ucb\n", &err).has_value());
  EXPECT_NE(err.find("meta"), std::string::npos) << err;
  // Every alternative must be a valid meta body for every stream.
  EXPECT_FALSE(ScenarioSpec::parse("stream=" + std::string(kStreamText) +
                                       "\nmeta=policy=warp\n",
                                   &err)
                   .has_value());
  // profile= must name a class that exists in each crossed stream.
  EXPECT_FALSE(ScenarioSpec::parse("stream=" + std::string(kStreamText) +
                                       "\nmeta=policy=offline,profile=nosuch\n",
                                   &err)
                   .has_value());
}

TEST(ScenarioSpec, StreamAxisRejectsBadInput) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("stream=arrive,poisson\n", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(
      ScenarioSpec::parse("mode=adapt\nstream=" + std::string(kStreamText) + "\n",
                          &err)
          .has_value());
  EXPECT_NE(err.find("mode=run"), std::string::npos) << err;
  EXPECT_FALSE(ScenarioSpec::parse("stream_policy=fair\n", &err).has_value());
  EXPECT_NE(err.find("without a stream"), std::string::npos) << err;
  EXPECT_FALSE(ScenarioSpec::parse("stream=" + std::string(kStreamText) +
                                       "\nstream_policy=lottery\n",
                                   &err)
                   .has_value());
}


TEST(ScenarioSpec, SingleHostModesParseAndRoundTrip) {
  for (const char* mode : {"sysbench", "switchcost"}) {
    SCOPED_TRACE(mode);
    std::string err;
    const auto s = ScenarioSpec::parse(std::string("mode=") + mode +
                                           "\npair=cc,ad\nhosts=1\nvms=1,3\nmb=1024\n",
                                       &err);
    ASSERT_TRUE(s.has_value()) << err;
    EXPECT_TRUE(is_single_host(s->mode));
    EXPECT_STREQ(to_string(s->mode), mode);
    const auto rt = ScenarioSpec::parse(s->to_string(), &err);
    ASSERT_TRUE(rt.has_value()) << err;
    EXPECT_EQ(rt->to_string(), s->to_string());
    EXPECT_EQ(rt->fingerprint(), s->fingerprint());
    // The label leaves out the ignored workload (and the one host).
    const auto pts = s->expand();
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[2].label(), std::string(mode) + " v3 1024MB (c,c)");
  }
}

TEST(ScenarioSpec, SingleHostModesRejectClusterAxes) {
  const std::string kStream(kStreamText);
  // Each rejection, with the phrase its one-line diagnostic must carry.
  const std::pair<std::string, const char*> kBad[] = {
      {"hosts=2\n", "requires hosts=1"},
      {"hosts=1,2\n", "requires hosts=1"},
      {"hosts=1\nworkload=sort,wc\n", "at most one"},
      {"hosts=1\nfault=none|failslow:host=0,factor=2\n", "no fault= axis"},
      {"hosts=1\nstream=" + kStream + "\n", "no stream= axis"},
      {"hosts=1\nstream_policy=fair\n", "no stream_policy= axis"},
      {"hosts=1\nmeta=policy=ucb\n", "no meta= axis"},
  };
  for (const char* mode : {"sysbench", "switchcost"}) {
    for (const auto& [body, phrase] : kBad) {
      SCOPED_TRACE(std::string(mode) + ": " + body);
      std::string err;
      EXPECT_FALSE(
          ScenarioSpec::parse(std::string("mode=") + mode + "\n" + body, &err).has_value());
      EXPECT_NE(err.find(std::string("mode=") + mode), std::string::npos) << err;
      EXPECT_NE(err.find(phrase), std::string::npos) << err;
      EXPECT_EQ(err.find('\n'), std::string::npos) << err;
    }
  }
  // fault=none is the fault-free point, not an axis to reject.
  EXPECT_TRUE(ScenarioSpec::parse("mode=sysbench\nhosts=1\nfault=none\n").has_value());
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("mode=fio\n", &err).has_value());
  EXPECT_NE(err.find("run|adapt|sysbench|switchcost"), std::string::npos) << err;
}


TEST(ScenarioSpec, FinegrainedModeAndJobChainsRoundTrip) {
  std::string err;
  const auto fg = ScenarioSpec::parse(
      "mode=finegrained\npair=cc\nhosts=2\nvms=2\nmb=64\n"
      "fault=none|failslow:host=1,factor=1.5\n",
      &err);
  ASSERT_TRUE(fg.has_value()) << err;
  EXPECT_EQ(fg->mode, RunMode::kFinegrained);
  EXPECT_STREQ(to_string(fg->mode), "finegrained");
  EXPECT_FALSE(is_single_host(fg->mode));
  const auto fg_pts = fg->expand();
  ASSERT_EQ(fg_pts.size(), 2u);
  EXPECT_EQ(fg_pts[0].label(), "sort h2 v2 64MB (c,c)");
  EXPECT_EQ(fg_pts[1].label(), "sort h2 v2 64MB (c,c) fault=failslow:host=1,factor=1.5");

  // A chain's parts are canonicalized like single workloads, in the axis,
  // the point label and an `expect` filter alike.
  const auto chain = ScenarioSpec::parse(
      "mode=adapt\nworkload=wc + sort + wcnc, sort\nhosts=2\nvms=2\nmb=32\nrepeats=1\n"
      "expect=adaptive_seconds[workload=wc+sort+wcnc] <= best_single_seconds[workload=sort]\n",
      &err);
  ASSERT_TRUE(chain.has_value()) << err;
  const std::string kChain = "wordcount+sort+wordcount-nocombiner";
  EXPECT_EQ(chain->workloads, (std::vector<std::string>{kChain, "sort"}));
  EXPECT_EQ(chain->expand()[0].label(), kChain + " h2 v2 32MB (c,c)");
  EXPECT_EQ(chain->expects[0].lhs.filter[0].second, std::vector<std::string>{kChain});

  for (const auto* s : {&*fg, &*chain}) {
    SCOPED_TRACE(s->to_string());
    const auto rt = ScenarioSpec::parse(s->to_string(), &err);
    ASSERT_TRUE(rt.has_value()) << err;
    EXPECT_EQ(rt->to_string(), s->to_string());
    EXPECT_EQ(rt->fingerprint(), s->fingerprint());
    EXPECT_EQ(rt->workloads, s->workloads);
  }
  for (const char* bad : {"wc+fio", "wc+", "+sort", "wc++sort"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(
        ScenarioSpec::parse(std::string("mode=adapt\nworkload=") + bad + "\n", &err));
    EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;
  }
}

TEST(ScenarioSpec, ChainsAndStreamAxesAreRejectedOutsideTheirModes) {
  // A chain runs only under mode=adapt; every other mode says so in one line.
  for (const char* mode : {"run", "finegrained", "sysbench", "switchcost"}) {
    SCOPED_TRACE(mode);
    std::string err;
    EXPECT_FALSE(ScenarioSpec::parse(std::string("mode=") + mode +
                                         "\nhosts=1\nworkload=sort+wc\n",
                                     &err));
    EXPECT_NE(err.find("job chain"), std::string::npos) << err;
    EXPECT_NE(err.find("only mode=adapt"), std::string::npos) << err;
    EXPECT_NE(err.find(std::string("mode=") + mode), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
  // mode=finegrained runs one job per run: no stream, slot policy or meta axis.
  const std::string kStream(kStreamText);
  const std::pair<std::string, const char*> kBad[] = {
      {"stream=" + kStream + "\n", "mode=finegrained takes no stream= axis"},
      {"stream_policy=fair\n", "mode=finegrained takes no stream_policy= axis"},
      {"meta=policy=ucb\n", "mode=finegrained takes no meta= axis"},
      {"stream=" + kStream + "\nmeta=policy=ucb\n", "mode=finegrained takes no stream= axis"},
  };
  for (const auto& [body, phrase] : kBad) {
    SCOPED_TRACE(body);
    std::string err;
    EXPECT_FALSE(ScenarioSpec::parse("mode=finegrained\n" + body, &err));
    EXPECT_NE(err.find(phrase), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
  // Faults are the fine-grained study's second axis, and stay legal.
  EXPECT_TRUE(ScenarioSpec::parse("mode=finegrained\nfault=none|failslow:host=1,factor=2\n"));
}

TEST(ScenarioSpec, TuneAxisRoundTripsAndRejects) {
  std::vector<std::string> names;
  for (const Tunable& t : tunables()) names.push_back(t.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "dom0.as.antic_expire_ms", "dom0.cfq.slice_sync_ms",
                       "dom0.cfq.slice_idle_ms", "ring_slots", "switch_freeze_ms", "ncq_depth",
                       "meta.phases", "mapred.speculate"}));

  std::string err;
  const auto s = ScenarioSpec::parse(
      "mode=adapt\nhosts=2\nvms=2\nmb=32\nrepeats=1\n"
      "tune = none | ring_slots = 8 ; switch_freeze_ms=0.50 | meta.phases=3;mapred.speculate=1\n"
      "expect=adaptive_seconds[tune=ring_slots] < adaptive_seconds[tune=none]\n",
      &err);
  ASSERT_TRUE(s.has_value()) << err;
  ASSERT_EQ(s->tunes.size(), 3u);
  EXPECT_EQ(s->n_points(), 3u);
  const auto pts = s->expand();
  EXPECT_EQ(pts[0].label(), "sort h2 v2 32MB (c,c)");
  EXPECT_EQ(pts[1].label(), "sort h2 v2 32MB (c,c) tune=ring_slots=8;switch_freeze_ms=0.5");
  EXPECT_EQ(pts[2].tune.to_string(), "meta.phases=3;mapred.speculate=1");
  EXPECT_NE(s->to_string().find("\ntune=none|ring_slots=8;switch_freeze_ms=0.5|"
                                "meta.phases=3;mapred.speculate=1\n"),
            std::string::npos)
      << s->to_string();
  const auto rt = ScenarioSpec::parse(s->to_string(), &err);
  ASSERT_TRUE(rt.has_value()) << err;
  EXPECT_EQ(rt->to_string(), s->to_string());
  EXPECT_EQ(rt->fingerprint(), s->fingerprint());
  // The filter matches a tune list by prefix, `none` the untuned point.
  const auto checks = resolve_checks(*s, pts, &err);
  ASSERT_TRUE(checks.has_value()) << err;
  EXPECT_EQ(checks->at(0).lhs, std::vector<std::size_t>{1});
  EXPECT_EQ(checks->at(0).rhs, std::vector<std::size_t>{0});
  // tune moves the fingerprint; tune=none is the untuned spec byte for byte.
  ScenarioSpec untuned = *s;
  untuned.tunes = {TuneList{}};
  EXPECT_NE(untuned.fingerprint(), s->fingerprint());
  EXPECT_EQ(untuned.to_string().find("\ntune="), std::string::npos);
  EXPECT_EQ(ScenarioSpec::parse("tune=none\n")->to_string(), ScenarioSpec::parse("")->to_string());

  const std::string kStream(kStreamText);
  // Each rejection, with the phrase its one-line diagnostic must carry.
  const std::pair<std::string, const char*> kBad[] = {
      {"tune=ring_slot=8\n", "unknown tunable 'ring_slot'"},
      {"tune=ring_slots=0\n", "bad ring_slots '0'"},
      {"tune=ring_slots=1025\n", "bad ring_slots '1025' (a whole number 1..1024 slots)"},
      {"tune=ring_slots=8.5\n", "a whole number"},
      {"tune=dom0.cfq.slice_idle_ms=-1\n", "bad dom0.cfq.slice_idle_ms '-1'"},
      {"tune=dom0.as.antic_expire_ms=nan\n", "bad dom0.as.antic_expire_ms 'nan'"},
      {"tune=mapred.speculate=2\n", "bad mapred.speculate '2'"},
      {"tune=ring_slots=8;ncq_depth=4;ring_slots=16\n", "'ring_slots' given twice"},
      {"tune=ring_slots\n", "expected name=value"},
      {"tune=ring_slots=8;\n", "expected name=value"},
      {"tune=none||ring_slots=8\n", "empty list element"},
      {"tune=none\ntune=none\n", "duplicate key 'tune'"},
      {"tune=meta.phases=3\n", "meta.phases needs mode=adapt, not mode=run"},
      {"mode=finegrained\ntune=none|meta.phases=2\n", "needs mode=adapt, not mode=finegrained"},
      {"stream=none|" + kStream + "\ntune=mapred.speculate=1\n", "stream= points"},
      {"mode=sysbench\nhosts=1\ntune=ncq_depth=8\n", "mode=sysbench takes no tune= axis"},
      {"mode=switchcost\nhosts=1\ntune=none|ring_slots=8\n", "mode=switchcost takes no tune="},
  };
  for (const auto& [body, phrase] : kBad) {
    SCOPED_TRACE(body);
    EXPECT_FALSE(ScenarioSpec::parse(body, &err).has_value());
    EXPECT_NE(err.find(phrase), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
  // What stays legal: tune=none on a single host, cluster tunables on a
  // stream point, speculation on a finegrained one.
  EXPECT_TRUE(ScenarioSpec::parse("mode=sysbench\nhosts=1\ntune=none\n").has_value());
  EXPECT_TRUE(ScenarioSpec::parse("stream=" + kStream + "\ntune=ring_slots=8\n").has_value());
  EXPECT_TRUE(ScenarioSpec::parse("mode=finegrained\ntune=mapred.speculate=1\n").has_value());
}

// The three text grammars, pinned as the committed inputs parse today:
// every bench spec's resume fingerprint and canonical text, and for every
// fuzz corpus document whether it is accepted and what canonical text it
// renders. A changed fingerprint breaks `--resume` of existing journals; a
// changed canonical hash means a grammar or formatter drifted. `fingerprint`
// is 0 for the stream and fault grammars (no such notion) and both hashes
// are 0 for rejected documents.
struct GrammarPin {
  const char* path;  // relative to the source tree
  bool accepted;
  std::uint64_t fingerprint;
  std::uint64_t canonical;  // fnv1a64(to_string())
};

constexpr GrammarPin kGrammarPins[] = {
    {"bench/specs/ablation_antic.spec", true, 0xd98d99ea727075b7ULL, 0xadad7d1c96ee641dULL},
    {"bench/specs/ablation_cfq.spec", true, 0x2e166e28d8d32533ULL, 0xc26e440ff3416521ULL},
    {"bench/specs/ablation_meta.spec", true, 0xca3119783e7d4025ULL, 0xe2ea8faede9ef2faULL},
    {"bench/specs/ablation_ncq.spec", true, 0xfdabb53b7510aaa4ULL, 0x3ea90850de4a9305ULL},
    {"bench/specs/ablation_ring.spec", true, 0x67966e618ec24f87ULL, 0x7d5cea1851036d94ULL},
    {"bench/specs/ablation_speculate.spec", true, 0xb1d138d078bfd2deULL, 0x6601593e8e8cc28bULL},
    {"bench/specs/ext_chain.spec", true, 0x27e8a706e4c59890ULL, 0xe2779f49264ce2a8ULL},
    {"bench/specs/ext_faults.spec", true, 0xef22afb54e9521bcULL, 0x3eabdbff08d076b3ULL},
    {"bench/specs/ext_finegrained.spec", true, 0x24b8564f8c94daadULL, 0x2a0a9390f38b2be0ULL},
    {"bench/specs/fig1.spec", true, 0x0f215e014079beabULL, 0x282564e24dbd42edULL},
    {"bench/specs/fig2.spec", true, 0xe4f6000ea0363e7bULL, 0xdd0bd41de76ecf71ULL},
    {"bench/specs/fig3_4.spec", true, 0xdf9f798eac6ef85cULL, 0x91f2700fcea4eecfULL},
    {"bench/specs/fig5.spec", true, 0x836698e6a2dfa4f1ULL, 0xd4d52f86a2fd5c29ULL},
    {"bench/specs/fig8.spec", true, 0xec61644734fcfe56ULL, 0xe78583bf15a69103ULL},
    {"bench/specs/fig7_degraded.spec", true, 0x13faa0acfe7dfb44ULL, 0x7416dd306043194eULL},
    {"bench/specs/fig7_online.spec", true, 0xf8f529f529acada5ULL, 0xdb9f297a344af465ULL},
    {"bench/specs/fig7_stream.spec", true, 0x5c4bfbc28b48f7f2ULL, 0x094d244e6db93e00ULL},
    {"bench/specs/fig7a.spec", true, 0x3d2138f98c4a4b3eULL, 0x997a7eb98e4ef188ULL},
    {"bench/specs/fig7b.spec", true, 0xade9e92de8859132ULL, 0x1396def3d61cf4beULL},
    {"bench/specs/fig7c.spec", true, 0xb1e277b1e207d255ULL, 0xcf1b4ba43231200eULL},
    {"bench/specs/fig7d.spec", true, 0x2fd3279e0750c640ULL, 0x98def4951308a67fULL},
    {"bench/specs/meta_smoke.spec", true, 0xa03bf075e1bc0c8aULL, 0xc4f2942c5cea14a1ULL},
    {"bench/specs/scale.spec", true, 0x6d2f7fda326c7bb4ULL, 0x0a33a352a08a47e8ULL},
    {"bench/specs/smoke.spec", true, 0xf18c221c05e02858ULL, 0xfb92908a45ace0c3ULL},
    {"tests/fuzz/corpus/scenario/adapt-all16.txt", true, 0xbd2e5a377987e067ULL, 0x6b6fee95999b212cULL},
    {"tests/fuzz/corpus/scenario/adapt-chain.txt", true, 0xf66da6747abe1a1eULL, 0xaf6d15efc7297ad0ULL},
    {"tests/fuzz/corpus/scenario/adversarial-dup-key.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/scenario/adversarial-expect-ambiguous.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/scenario/adversarial-expect-inf-factor.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/scenario/adversarial-unknown-key.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/scenario/basic-run.txt", true, 0x8d13ccf5e8016f79ULL, 0x3146e8af199a0bb1ULL},
    {"tests/fuzz/corpus/scenario/comments-blanks.txt", true, 0xe9bf20bfed80c74dULL, 0xe864b4b16b758c3dULL},
    {"tests/fuzz/corpus/scenario/expect-checks.txt", true, 0x55fa7054663d830eULL, 0x845a8a7bc1e02f32ULL},
    {"tests/fuzz/corpus/scenario/fault-axis.txt", true, 0xbb2229b8971d3d1aULL, 0x4069da638bb3a07eULL},
    {"tests/fuzz/corpus/scenario/finegrained-faults.txt", true, 0xd96a3311905b889cULL, 0xc28f0d51522a7a63ULL},
    {"tests/fuzz/corpus/scenario/meta-axis.txt", true, 0x98eb1302381510b9ULL, 0x2d3dc390ddf4c671ULL},
    {"tests/fuzz/corpus/scenario/regress-axis-product-overflow.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/scenario/regress-nonfinite-timeout.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/scenario/stream-axis.txt", true, 0x66d7de08a378852cULL, 0x38caf4d6346055b0ULL},
    {"tests/fuzz/corpus/scenario/switchcost-basic.txt", true, 0x43871deea7360c5fULL, 0x70f9789525763ae3ULL},
    {"tests/fuzz/corpus/scenario/sysbench-basic.txt", true, 0xfbfc2c869ad1df83ULL, 0xa352708f93f184eeULL},
    {"tests/fuzz/corpus/scenario/tune-axis.txt", true, 0x6638e90fe7b0d1f0ULL, 0x38a21ba1d076b4cbULL},
    {"tests/fuzz/corpus/stream/admit-gate.txt", true, 0x0000000000000000ULL, 0xd6b9a55c11d829f4ULL},
    {"tests/fuzz/corpus/stream/adversarial-admit.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/stream/adversarial-dup-class.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/stream/adversarial-extremes.txt", true, 0x0000000000000000ULL, 0x9300de2c695f76afULL},
    {"tests/fuzz/corpus/stream/adversarial-meta.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/stream/basic-poisson.txt", true, 0x0000000000000000ULL, 0xebd16f96fcd010f7ULL},
    {"tests/fuzz/corpus/stream/meta-offline.txt", true, 0x0000000000000000ULL, 0x3bc65a0ab8187197ULL},
    {"tests/fuzz/corpus/stream/meta-ucb.txt", true, 0x0000000000000000ULL, 0x20036dea105f1625ULL},
    {"tests/fuzz/corpus/stream/regress-nan-rate.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/stream/trace-arrivals.txt", true, 0x0000000000000000ULL, 0x82517ca01aa02a8eULL},
    {"tests/fuzz/corpus/stream/two-class-policy.txt", true, 0x0000000000000000ULL, 0xb0a592859951b903ULL},
    {"tests/fuzz/corpus/fault/adversarial-bad-kind.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/fault/adversarial-restart-after-crash.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/fault/all-kinds.txt", true, 0x0000000000000000ULL, 0x4f0c83665fb4ade4ULL},
    {"tests/fuzz/corpus/fault/crash-kinds.txt", true, 0x0000000000000000ULL, 0xe77bb7c1e8ecfa50ULL},
    {"tests/fuzz/corpus/fault/regress-duplicate-key.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/fault/regress-inf-delay.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/fault/regress-nan-probability.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/fault/regress-overlapping-lse.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/fault/regress-seconds-overflow.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {"tests/fuzz/corpus/fault/regress-wildcard-lse-overlap.txt", false, 0x0000000000000000ULL, 0x0000000000000000ULL},
    // until=9e9 renders as 9000000000 (full precision) rather than %g's 9e+09.
    {"tests/fuzz/corpus/fault/windows-and-comments.txt", true, 0x0000000000000000ULL, 0xfb110c7b872a9e33ULL},
};

std::string read_source_file(const std::string& rel) {
  std::ifstream in(std::string(IOSIM_SOURCE_DIR) + "/" + rel, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

GrammarPin parse_pinned(const std::string& rel) {
  const std::string text = read_source_file(rel);
  GrammarPin got{rel.c_str(), false, 0, 0};
  const auto starts = [&](const char* prefix) { return rel.rfind(prefix, 0) == 0; };
  if (starts("bench/specs/") || starts("tests/fuzz/corpus/scenario/")) {
    if (const auto s = ScenarioSpec::parse(text)) {
      got = {got.path, true, s->fingerprint(), fnv1a64(s->to_string())};
    }
  } else if (starts("tests/fuzz/corpus/stream/")) {
    if (const auto s = tenancy::StreamSpec::parse(text)) {
      got = {got.path, true, 0, fnv1a64(s->to_string())};
    }
  } else if (const auto s = fault::FaultPlan::parse(text)) {
    got = {got.path, true, 0, fnv1a64(s->to_string())};
  }
  return got;
}

TEST(GrammarPins, SpecsAndCorporaParseAsPinned) {
  std::set<std::string> pinned;
  for (const GrammarPin& pin : kGrammarPins) {
    pinned.insert(pin.path);
    const GrammarPin got = parse_pinned(pin.path);
    EXPECT_EQ(got.accepted, pin.accepted) << pin.path;
    EXPECT_EQ(got.fingerprint, pin.fingerprint) << pin.path;
    EXPECT_EQ(got.canonical, pin.canonical) << pin.path;
  }
  // Every committed spec and corpus document is pinned: a new one must be
  // added to the table, a deleted one taken out of it.
  for (const char* dir : {"bench/specs", "tests/fuzz/corpus/scenario",
                          "tests/fuzz/corpus/stream", "tests/fuzz/corpus/fault"}) {
    for (const auto& e :
         std::filesystem::directory_iterator(std::string(IOSIM_SOURCE_DIR) + "/" + dir)) {
      const std::string rel = std::string(dir) + "/" + e.path().filename().string();
      EXPECT_EQ(pinned.count(rel), 1u) << "unpinned grammar input " << rel;
    }
  }
}

}  // namespace
}  // namespace iosim::exp
