// Tests of the --fault spec grammar and plan parser.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

namespace iosim::fault {
namespace {

TEST(FaultPlanParse, TransientSpec) {
  std::string err;
  const auto s = FaultPlan::parse_spec("transient:host=2,p=0.05,from=1,until=9", &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->kind, FaultKind::kTransientError);
  EXPECT_EQ(s->host, 2);
  EXPECT_DOUBLE_EQ(s->probability, 0.05);
  EXPECT_EQ(s->from, sim::Time::from_sec(1));
  EXPECT_EQ(s->until, sim::Time::from_sec(9));
}

TEST(FaultPlanParse, LseSpecRange) {
  const auto s = FaultPlan::parse_spec("lse:host=0,lba=1000-2000");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, FaultKind::kLatentSector);
  EXPECT_EQ(s->lba_begin, 1000);
  EXPECT_EQ(s->lba_end, 2000);
  EXPECT_EQ(s->until, sim::Time::max());  // defaults to forever
}

TEST(FaultPlanParse, FailSlowVmDownSwitchSpecs) {
  EXPECT_TRUE(FaultPlan::parse_spec("failslow:host=-1,factor=3.5").has_value());
  EXPECT_TRUE(FaultPlan::parse_spec("vmdown:vm=7,from=10,until=30").has_value());
  EXPECT_TRUE(FaultPlan::parse_spec("switchfail:p=1").has_value());
  const auto d = FaultPlan::parse_spec("switchdelay:delay=2.5");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->delay, sim::Time::from_ms(2500));
}

TEST(FaultPlanParse, WhitespaceTolerated) {
  const auto s = FaultPlan::parse_spec("  transient : host=1 , p=0.5  ");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->host, 1);
}

TEST(FaultPlanParse, UnknownKindRejected) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse_spec("cosmicray:p=1", &err).has_value());
  EXPECT_NE(err.find("cosmicray"), std::string::npos);
}

TEST(FaultPlanParse, InapplicableKeyRejected) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse_spec("vmdown:vm=1,lba=0-5", &err).has_value());
  EXPECT_NE(err.find("lba"), std::string::npos);
  EXPECT_FALSE(FaultPlan::parse_spec("switchfail:p=1,host=0", &err).has_value());
}

TEST(FaultPlanParse, MissingRequiredKeyRejected) {
  EXPECT_FALSE(FaultPlan::parse_spec("transient:host=0").has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("lse:host=0").has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("failslow:host=0").has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("vmdown:from=1,until=2").has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("switchdelay:from=1").has_value());
}

TEST(FaultPlanParse, BadValuesRejected) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse_spec("transient:host=0,p=1.5", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("transient:host=0,p=banana", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("failslow:host=0,factor=0.5", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("lse:host=0,lba=20-10", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("vmdown:vm=-3", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("transient:host=0,p=1,from=-2", &err).has_value());
}

TEST(FaultPlanParse, EmptyWindowRejected) {
  std::string err;
  EXPECT_FALSE(
      FaultPlan::parse_spec("transient:host=0,p=1,from=5,until=5", &err).has_value());
  EXPECT_NE(err.find("window"), std::string::npos);
}

TEST(FaultPlanParse, MissingEqualsRejected) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse_spec("transient:host", &err).has_value());
  EXPECT_NE(err.find("key=value"), std::string::npos);
}

TEST(FaultPlanParse, PlanListSemicolonsNewlinesComments) {
  std::string err;
  const auto p = FaultPlan::parse(
      "# a comment line\n"
      "transient:host=0,p=0.1; lse:host=1,lba=0-100\n"
      "\n"
      "vmdown:vm=2,from=1,until=2  # trailing comment\n",
      &err);
  ASSERT_TRUE(p.has_value()) << err;
  EXPECT_EQ(p->specs.size(), 3u);
  EXPECT_EQ(p->specs[2].kind, FaultKind::kVmOutage);
}

TEST(FaultPlanParse, PlanIsAllOrNothing) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("transient:host=0,p=0.1;bogus:x=1", &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(FaultPlanParse, EmptyTextIsEmptyPlan) {
  const auto p = FaultPlan::parse("  \n # only a comment \n;;");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(FaultPlanParse, DuplicateKeyRejected) {
  std::string err;
  EXPECT_FALSE(
      FaultPlan::parse_spec("transient:host=0,p=0.1,p=0.9", &err).has_value());
  EXPECT_NE(err.find("duplicate key 'p'"), std::string::npos) << err;
  EXPECT_FALSE(
      FaultPlan::parse_spec("vmdown:vm=1,from=1,from=2,until=3", &err).has_value());
  EXPECT_NE(err.find("duplicate key 'from'"), std::string::npos) << err;
}

TEST(FaultPlanParse, NonFiniteNumbersRejected) {
  // NaN slips through ordinary range checks (every comparison is false) and
  // inf seconds would overflow Time::from_sec_f — both must fail the parse.
  std::string err;
  EXPECT_FALSE(FaultPlan::parse_spec("transient:host=0,p=nan", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("switchdelay:delay=inf", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("switchfail:p=1,from=inf").has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("vmdown:vm=0,from=0,until=-inf").has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("failslow:host=0,factor=nan").has_value());
}

TEST(FaultPlanParse, SecondsBeyondTimeRangeRejected) {
  // int64 nanoseconds overflow past ~9.22e9 seconds.
  EXPECT_TRUE(FaultPlan::parse_spec("switchfail:p=1,from=9e9").has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("switchfail:p=1,from=1e10").has_value());
  EXPECT_FALSE(FaultPlan::parse_spec("vmdown:vm=0,until=9.3e9").has_value());
}

TEST(FaultPlanParse, OverlappingLseRangesRejected) {
  std::string err;
  // Same host, intersecting LBA windows: ambiguous latent-sector state.
  EXPECT_FALSE(
      FaultPlan::parse("lse:host=0,lba=100-200\nlse:host=0,lba=150-300", &err)
          .has_value());
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  // host=-1 wildcards collide with every host.
  EXPECT_FALSE(
      FaultPlan::parse("lse:host=-1,lba=0-10;lse:host=3,lba=5-8", &err).has_value());
  // Different hosts or disjoint ranges are fine.
  EXPECT_TRUE(
      FaultPlan::parse("lse:host=0,lba=100-200;lse:host=1,lba=150-300").has_value());
  EXPECT_TRUE(
      FaultPlan::parse("lse:host=0,lba=100-200;lse:host=0,lba=200-300").has_value());
}

TEST(FaultPlanParse, PlanErrorsCarryLineNumbers) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("transient:host=0,p=0.1\n\nbogus:x=1\n", &err)
                   .has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(FaultPlanParse, CrashSpecs) {
  std::string err;
  const auto v = FaultPlan::parse_spec("vmcrash:vm=3,from=5", &err);
  ASSERT_TRUE(v.has_value()) << err;
  EXPECT_EQ(v->kind, FaultKind::kVmCrash);
  EXPECT_EQ(v->vm, 3);
  EXPECT_EQ(v->from, sim::Time::from_sec(5));
  EXPECT_EQ(v->until, sim::Time::max());  // crashes are permanent

  const auto h = FaultPlan::parse_spec("hostcrash:host=1", &err);
  ASSERT_TRUE(h.has_value()) << err;
  EXPECT_EQ(h->kind, FaultKind::kHostCrash);
  EXPECT_EQ(h->host, 1);
  EXPECT_EQ(h->until, sim::Time::max());
}

TEST(FaultPlanParse, CrashUntilRejected) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse_spec("vmcrash:vm=0,until=9", &err).has_value());
  EXPECT_NE(err.find("crashes are permanent"), std::string::npos) << err;
  EXPECT_FALSE(FaultPlan::parse_spec("hostcrash:host=0,until=9", &err).has_value());
}

TEST(FaultPlanParse, CrashMissingTargetRejected) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse_spec("vmcrash:from=1", &err).has_value());
  EXPECT_NE(err.find("vmcrash requires vm="), std::string::npos) << err;
  EXPECT_FALSE(FaultPlan::parse_spec("hostcrash:from=1", &err).has_value());
  EXPECT_NE(err.find("hostcrash requires host="), std::string::npos) << err;
}

TEST(FaultPlanParse, RestartAfterCrashRejected) {
  // A vmdown's `until` orders a restart; a vmcrash at or before it makes
  // the order unfulfillable. Rejected with both lines named, either order.
  std::string err;
  EXPECT_FALSE(
      FaultPlan::parse("vmcrash:vm=3,from=2\nvmdown:vm=3,from=5,until=9\n", &err)
          .has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("killed vm3 for good"), std::string::npos) << err;
  EXPECT_FALSE(
      FaultPlan::parse("vmdown:vm=3,from=5,until=9;vmcrash:vm=3,from=2", &err)
          .has_value());
  // A crash strictly after the restart, or of a different VM, is fine.
  EXPECT_TRUE(
      FaultPlan::parse("vmdown:vm=3,from=5,until=9;vmcrash:vm=3,from=20")
          .has_value());
  EXPECT_TRUE(
      FaultPlan::parse("vmdown:vm=2,from=5,until=9;vmcrash:vm=3,from=2")
          .has_value());
  // An unbounded vmdown orders no restart, so a crash may coexist.
  EXPECT_TRUE(
      FaultPlan::parse("vmdown:vm=3,from=5;vmcrash:vm=3,from=2").has_value());
}

TEST(FaultPlanParse, CrashRoundTripsThroughToString) {
  const auto p = FaultPlan::parse("vmcrash:vm=2,from=3.5;hostcrash:host=1,from=10");
  ASSERT_TRUE(p.has_value());
  const auto q = FaultPlan::parse(p->to_string());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(p->to_string(), q->to_string());
  EXPECT_EQ(q->specs.size(), 2u);
}

TEST(FaultPlanParse, RoundTripsThroughToString) {
  const char* text =
      "transient:host=0,p=0.25,from=2;lse:host=1,lba=10-20;"
      "failslow:host=-1,factor=4;vmdown:vm=3,from=1,until=9;"
      "switchfail:p=1;switchdelay:delay=0.5";
  const auto p = FaultPlan::parse(text);
  ASSERT_TRUE(p.has_value());
  const auto q = FaultPlan::parse(p->to_string());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(p->to_string(), q->to_string());
  EXPECT_EQ(q->specs.size(), 6u);

  // Every field survives, at full precision: %g rendering once turned
  // p=0.1234567 into p=0.123457 and from=4367106.4655739255 into a time one
  // nanosecond off.
  const auto exact = FaultPlan::parse(
      "transient:host=0,p=0.1234567;switchdelay:delay=4367106.4655739255;"
      "switchfail:p=1,from=8884203.12455709,until=9e9");
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->specs[0].to_string(), "transient:host=0,p=0.1234567");
  const auto again = FaultPlan::parse(exact->to_string());
  ASSERT_TRUE(again.has_value()) << exact->to_string();
  EXPECT_EQ(again->specs, exact->specs) << exact->to_string();
  EXPECT_EQ(again->to_string(), exact->to_string());
}

}  // namespace
}  // namespace iosim::fault
