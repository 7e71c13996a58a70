// Grammar tests for the job-stream spec: all-or-nothing parsing with
// diagnostics, canonical round-tripping, and workload/policy name
// canonicalization (the same contracts ScenarioSpec and FaultPlan keep).
#include <gtest/gtest.h>

#include "tenancy/stream_spec.hpp"

namespace iosim::tenancy {
namespace {

TEST(StreamSpec, ParsesPoissonWithClassesAndPolicy) {
  std::string err;
  const auto s = StreamSpec::parse(
      "arrive,poisson,rate=0.02,jobs=8;"
      "class,name=batch,wl=sort,mb=16-64,alpha=1.2,weight=2,share=0.7,mix=3;"
      "class,name=ui,wl=wc,mb=8-8,prio=5,deadline=120,share=0.3;"
      "policy,fair",
      &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->arrival, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(s->rate_hz, 0.02);
  EXPECT_EQ(s->n_jobs, 8);
  EXPECT_EQ(s->job_count(), 8);
  EXPECT_EQ(s->policy, Policy::kFair);
  ASSERT_EQ(s->classes.size(), 2u);
  EXPECT_EQ(s->classes[0].name, "batch");
  EXPECT_EQ(s->classes[0].workload, "sort");
  EXPECT_EQ(s->classes[0].mb_min, 16);
  EXPECT_EQ(s->classes[0].mb_max, 64);
  EXPECT_DOUBLE_EQ(s->classes[0].alpha, 1.2);
  EXPECT_DOUBLE_EQ(s->classes[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(s->classes[0].share, 0.7);
  EXPECT_DOUBLE_EQ(s->classes[0].mix, 3.0);
  // "wc" canonicalizes to the model's own name.
  EXPECT_EQ(s->classes[1].workload, "wordcount");
  EXPECT_EQ(s->classes[1].priority, 5);
  EXPECT_DOUBLE_EQ(s->classes[1].deadline_s, 120.0);
}

TEST(StreamSpec, ParsesTraceArrivals) {
  std::string err;
  const auto s = StreamSpec::parse(
      "arrive,trace,t=0:5.5:30;class,name=a,wl=sort,mb=16-16", &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->arrival, ArrivalKind::kTrace);
  ASSERT_EQ(s->trace_times_s.size(), 3u);
  EXPECT_DOUBLE_EQ(s->trace_times_s[1], 5.5);
  EXPECT_EQ(s->job_count(), 3);
  EXPECT_EQ(s->policy, Policy::kFifo);  // default
}

TEST(StreamSpec, CanonicalFormRoundTrips) {
  const auto s = StreamSpec::parse(
      "arrive,poisson,rate=0.05,jobs=4;"
      "class,name=x,wl=wcnc,mb=8-32,prio=1;policy,capacity");
  ASSERT_TRUE(s.has_value());
  const std::string canon = s->to_string();
  std::string err;
  const auto again = StreamSpec::parse(canon, &err);
  ASSERT_TRUE(again.has_value()) << err << " in: " << canon;
  EXPECT_EQ(again->to_string(), canon);
}

TEST(StreamSpec, RejectsMalformedInput) {
  const char* bad[] = {
      "",                                              // no segments
      "arrive,poisson,rate=0.02,jobs=8",               // no class
      "class,name=a,wl=sort,mb=16-16",                 // missing arrive
      "arrive,warp,jobs=3;class,name=a,wl=sort,mb=16-16",   // bad kind
      "arrive,poisson,rate=0,jobs=3;class,name=a,wl=sort,mb=16-16",   // rate=0
      "arrive,poisson,rate=0.1;class,name=a,wl=sort,mb=16-16",        // no jobs
      "arrive,trace,t=5:1;class,name=a,wl=sort,mb=16-16",             // unsorted
      "arrive,poisson,rate=0.1,jobs=2;class,name=a,wl=pig,mb=16-16",  // bad wl
      "arrive,poisson,rate=0.1,jobs=2;class,name=a,wl=sort,mb=32-16", // inverted
      "arrive,poisson,rate=0.1,jobs=2;class,name=a,wl=sort,mb=16-16;"
      "class,name=a,wl=wc,mb=8-8",                                    // dup name
      "arrive,poisson,rate=0.1,jobs=2;class,name=a,wl=sort,mb=16-16;"
      "policy,lottery",                                               // bad policy
      "arrive,poisson,rate=0.1,jobs=2;class,name=a,wl=sort,mb=16-16;"
      "policy,fifo;policy,fair",                                      // dup policy
      "arrive,poisson,rate=0.1,jobs=2;class,name=a,wl=sort,mb=16-16,share=1.5",
      "arrive,poisson,rate=0.1,jobs=2;class,name=a,wl=sort,mb=16-16,weight=0",
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(StreamSpec::parse(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(StreamSpec, ParsesAdmitSegment) {
  std::string err;
  const auto s = StreamSpec::parse(
      "arrive,poisson,rate=0.02,jobs=8;"
      "class,name=a,wl=sort,mb=8-8;"
      "admit,active=4,queue=2,retries=1,backoff=7.5;"
      "policy,fifo",
      &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->max_active, 4);
  EXPECT_EQ(s->max_queue, 2);
  EXPECT_EQ(s->job_retries, 1);
  EXPECT_DOUBLE_EQ(s->retry_backoff_s, 7.5);

  // Defaults when the segment is absent: gate disabled entirely.
  const auto d = StreamSpec::parse("arrive,poisson,jobs=2;class,name=a,wl=sort,mb=8-8");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->max_active, 0);
  EXPECT_EQ(d->job_retries, 0);
}

TEST(StreamSpec, AdmitSegmentRoundTrips) {
  const auto s = StreamSpec::parse(
      "arrive,poisson,rate=0.02,jobs=8;class,name=a,wl=sort,mb=8-8;"
      "admit,active=4,queue=2,retries=1,backoff=7.5");
  ASSERT_TRUE(s.has_value());
  const auto t = StreamSpec::parse(s->to_string());
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(s->to_string(), t->to_string());
  // A spec without the segment never emits one (keeps historical canonical
  // text byte-stable).
  const auto d = StreamSpec::parse("arrive,poisson,jobs=2;class,name=a,wl=sort,mb=8-8");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->to_string().find("admit"), std::string::npos);
}

TEST(StreamSpec, RejectsMalformedAdmitSegment) {
  std::string err;
  auto reject = [&](const char* text, const char* needle) {
    EXPECT_FALSE(StreamSpec::parse(text, &err).has_value()) << text;
    EXPECT_NE(err.find(needle), std::string::npos) << err;
  };
  const std::string base = "arrive,poisson,jobs=2;class,name=a,wl=sort,mb=8-8;";
  reject((base + "admit,queue=2").c_str(), "admit needs active=");
  reject((base + "admit,active=0").c_str(), "active must be a positive integer");
  reject((base + "admit,active=2,queue=-1").c_str(), "queue must be >= 0");
  reject((base + "admit,active=2,retries=-1").c_str(), "retries must be >= 0");
  reject((base + "admit,active=2,backoff=-3").c_str(), "backoff must be >= 0");
  reject((base + "admit,active=2,bogus=1").c_str(), "unknown admit key");
  reject((base + "admit,active=2;admit,active=3").c_str(), "duplicate admit segment");
}

TEST(StreamSpec, ParsesMetaSegment) {
  const auto s = StreamSpec::parse(
      "arrive,poisson,rate=0.02,jobs=8;class,name=a,wl=sort,mb=8-8;"
      "meta,policy=ucb,explore=0.7,decay=0.8,budget=6");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->meta.enabled());
  EXPECT_EQ(s->meta.policy, MetaPolicy::kUcb);
  EXPECT_DOUBLE_EQ(s->meta.explore, 0.7);
  EXPECT_DOUBLE_EQ(s->meta.decay, 0.8);
  EXPECT_EQ(s->meta.budget, 6);
  // Canonical text round-trips, and defaults stay unrendered.
  const auto t = StreamSpec::parse(s->to_string());
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(s->to_string(), t->to_string());
  const auto d = StreamSpec::parse(
      "arrive,poisson,jobs=2;class,name=a,wl=sort,mb=8-8");
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->meta.enabled());
  EXPECT_EQ(d->to_string().find("meta"), std::string::npos);
}

TEST(StreamSpec, MetaStaticAndOfflineCarryTheirKeys) {
  const auto st = StreamSpec::parse(
      "arrive,poisson,jobs=2;class,name=a,wl=sort,mb=8-8;meta,policy=static,pair=ad");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->meta.policy, MetaPolicy::kStatic);
  EXPECT_EQ(st->meta.pair, "ad");
  const auto off = StreamSpec::parse(
      "arrive,poisson,jobs=2;class,name=a,wl=sort,mb=8-8;meta,policy=offline,profile=a");
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(off->meta.policy, MetaPolicy::kOffline);
  EXPECT_EQ(off->meta.profile, "a");
}

TEST(StreamSpec, RejectsMalformedMetaSegment) {
  std::string err;
  auto reject = [&](const char* text, const char* needle) {
    EXPECT_FALSE(StreamSpec::parse(text, &err).has_value()) << text;
    EXPECT_NE(err.find(needle), std::string::npos) << err;
  };
  const std::string base = "arrive,poisson,jobs=2;class,name=a,wl=sort,mb=8-8;";
  reject((base + "meta,explore=1").c_str(), "meta needs policy=");
  reject((base + "meta,policy=magic").c_str(), "unknown meta policy");
  reject((base + "meta,policy=ucb,bogus=1").c_str(), "unknown meta key");
  reject((base + "meta,policy=ucb,pair=ad").c_str(), "only valid with policy=static");
  reject((base + "meta,policy=static,profile=a").c_str(),
         "only valid with policy=offline");
  reject((base + "meta,policy=offline,profile=zz").c_str(), "unknown class");
  reject((base + "meta,policy=static,pair=xy").c_str(), "bad meta pair");
  reject((base + "meta,policy=ucb;meta,policy=ucb").c_str(), "duplicate meta segment");
}

TEST(StreamSpec, RejectsNonFiniteNonIntegralAndRepeatedValues) {
  // The contract shared with the fault grammar: numbers are finite, integers
  // are whole tokens in range, and a repeated key is an error rather than
  // a silent last-wins.
  std::string err;
  auto reject = [&](const std::string& text, const char* needle) {
    EXPECT_FALSE(StreamSpec::parse(text, &err).has_value()) << text;
    EXPECT_NE(err.find(needle), std::string::npos) << text << " -> " << err;
  };
  const std::string cls = ";class,name=a,wl=sort,mb=8-8";
  const std::string base = "arrive,poisson,jobs=2" + cls;
  reject("arrive,poisson,rate=nan,jobs=2" + cls, "rate must be a positive number");
  reject("arrive,poisson,rate=inf,jobs=2" + cls, "rate must be a positive number");
  reject("arrive,trace,t=0:nan" + cls, "bad arrival time");
  reject(base + ",deadline=nan", "deadline must be >= 0");
  reject(base + ",share=nan", "share must be in [0,1]");
  reject(base + ",alpha=inf", "alpha must be positive");
  reject(base + ";meta,policy=ucb,explore=nan", "explore must be in [0,100]");
  reject(base + ";meta,policy=ucb,decay=nan", "decay must be in (0,1]");
  reject(base + ";admit,active=2,backoff=nan", "backoff must be >= 0");
  reject("arrive,poisson,jobs=2.0" + cls, "jobs must be a positive integer");
  reject("arrive,poisson,jobs=1e1" + cls, "jobs must be a positive integer");
  reject("arrive,poisson,jobs=1e10" + cls, "jobs must be a positive integer");
  reject("arrive,poisson,jobs=2147483648" + cls, "jobs must be a positive integer");
  reject("arrive,poisson,jobs= 2" + cls, "jobs must be a positive integer");
  reject(base + ",mb=16-16", "duplicate key 'mb' in class segment");
  reject("arrive,poisson,rate=0.1,rate=0.2,jobs=2" + cls,
         "duplicate key 'rate' in arrive segment");
  reject("arrive,trace,t=0,t=5" + cls, "duplicate key 't' in arrive segment");
  reject(base + ";admit,active=2,active=3", "duplicate key 'active' in admit segment");
  reject(base + ";meta,policy=ucb,policy=egreedy",
         "duplicate key 'policy' in meta segment");
  reject("arrive,poisson,jobs=2;class,name=a,wl=sort,mb=8.5-9", "bad class size range");
  reject(base + ",prio=1.5", "bad priority");
}

TEST(StreamSpec, PolicyNames) {
  EXPECT_EQ(policy_by_name("fifo"), Policy::kFifo);
  EXPECT_EQ(policy_by_name("fair"), Policy::kFair);
  EXPECT_EQ(policy_by_name("capacity"), Policy::kCapacity);
  EXPECT_FALSE(policy_by_name("rr").has_value());
  EXPECT_STREQ(to_string(Policy::kCapacity), "capacity");
}

}  // namespace
}  // namespace iosim::tenancy
