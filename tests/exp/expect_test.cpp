// `expect` checks: the grammar, resolution against the expanded points, and
// the verdicts evaluated on hand-built run outputs.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "exp/aggregate.hpp"
#include "exp/scenario.hpp"

namespace iosim::exp {
namespace {

ScenarioSpec parse_ok(const std::string& text) {
  std::string err;
  const auto spec = ScenarioSpec::parse(text, &err);
  EXPECT_TRUE(spec.has_value()) << err;
  return spec.value_or(ScenarioSpec{});
}

std::string parse_error(const std::string& text) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse(text, &err).has_value()) << text;
  return err;
}

/// Every run ok, with `seconds` = f(point, repeat).
ExecResult outputs_of(const ScenarioSpec& spec,
                      const std::function<double(const ScenarioPoint&, int)>& f) {
  ExecResult exec;
  for (const auto& pt : spec.expand()) {
    for (int r = 0; r < spec.repeats; ++r) {
      RunOutput o;
      o.metrics = {{"seconds", f(pt, r)}};
      exec.outputs.emplace_back(o);
    }
  }
  return exec;
}

std::vector<CheckResult> evaluate(const ScenarioSpec& spec, const ExecResult& exec) {
  const auto points = spec.expand();
  const auto checks = resolve_checks(spec, points);
  EXPECT_TRUE(checks.has_value());
  return evaluate_checks(spec, checks.value_or(std::vector<ResolvedCheck>{}),
                         aggregate(spec, points, build_run_matrix(spec), exec));
}

const std::string kTwoPairs = "name=t\nrepeats=3\npair=cc,ad\n";

TEST(Expect, ParsesAndRendersCanonically) {
  const ScenarioSpec s = parse_ok(
      "pair=cc,ad\nvms=2,4\nexpect = per pair , vms :2*max( seconds [ vmm = c | a , "
      "fault=none ] )<=mean(ph1_seconds)\n");
  ASSERT_EQ(s.expects.size(), 1u);
  const Expectation& e = s.expects[0];
  EXPECT_EQ(e.to_string(),
            "per pair,vms: 2 * max(seconds[vmm=c|a,fault=none]) <= mean(ph1_seconds)");
  EXPECT_TRUE(e.or_equal);
  EXPECT_EQ(e.lhs.reduce, ExpectTerm::Reduce::kMax);
  EXPECT_EQ(e.lhs.factor, 2.0);
  EXPECT_EQ(e.rhs.reduce, ExpectTerm::Reduce::kMean);
  EXPECT_EQ(parse_ok(s.to_string()).expects[0].to_string(), e.to_string());
}

TEST(Expect, RepeatsAndStaysOutOfTheFingerprint) {
  const ScenarioSpec plain = parse_ok(kTwoPairs);
  const ScenarioSpec checked = parse_ok(kTwoPairs +
                                        "expect = seconds[pair=ad] < seconds[pair=cc]\n"
                                        "expect = min(seconds) <= seconds[pair=cc]\n");
  ASSERT_EQ(checked.expects.size(), 2u);
  EXPECT_EQ(checked.fingerprint(), plain.fingerprint());
  EXPECT_NE(checked.to_string(), plain.to_string());
  // The canonical text renders the checks after timeout= and re-parses.
  const std::string canon = checked.to_string();
  EXPECT_LT(canon.find("timeout="), canon.find("expect="));
  const ScenarioSpec again = parse_ok(canon);
  EXPECT_EQ(again.to_string(), canon);
  // `expect` is the one key that may repeat.
  EXPECT_NE(parse_error(kTwoPairs + "pair=nn\n").find("duplicate key 'pair'"),
            std::string::npos);
}

TEST(Expect, WorkloadFilterUsesTheCanonicalName) {
  const ScenarioSpec s = parse_ok(
      "workload=sort,wc\nexpect = seconds[workload=wc] < seconds[workload=sort]\n");
  EXPECT_EQ(s.expects[0].to_string(),
            "seconds[workload=wordcount] < seconds[workload=sort]");
}

TEST(Expect, RejectsBadFactors) {
  for (const char* factor : {"inf", "nan", "0", "-1", "1e999", "two", ""}) {
    const std::string err = parse_error(kTwoPairs + "expect = seconds[pair=ad] < " +
                                        factor + " * seconds[pair=cc]\n");
    EXPECT_NE(err.find("bad factor"), std::string::npos) << factor << ": " << err;
  }
}

TEST(Expect, RejectsMalformedLines) {
  for (const char* line :
       {"seconds[pair=ad]", "seconds[pair=ad] < seconds[pair=cc] < seconds",
        "seconds[pair=ad] > seconds[pair=cc]", "[pair=ad] < seconds[pair=cc]",
        "seconds[pair=ad < seconds[pair=cc]", "sec-onds[pair=ad] < seconds[pair=cc]",
        "seconds[pair] < seconds[pair=cc]", "seconds[pair=ad,pair=cc] < seconds",
        "per pair seconds < seconds", "per pair,pair: seconds < seconds"}) {
    parse_error(kTwoPairs + "expect = " + line + "\n");
  }
}

TEST(Expect, RejectsUnknownAxesAndValues) {
  EXPECT_NE(parse_error(kTwoPairs + "expect = seconds[disk=ad] < seconds[pair=cc]\n")
                .find("unknown axis 'disk'"),
            std::string::npos);
  EXPECT_NE(parse_error(kTwoPairs + "expect = per disk: seconds < seconds\n")
                .find("bad per axis 'disk'"),
            std::string::npos);
  EXPECT_NE(parse_error(kTwoPairs + "expect = seconds[pair=nn] < seconds[pair=cc]\n")
                .find("no point has pair=nn"),
            std::string::npos);
  EXPECT_NE(parse_error(kTwoPairs + "expect = seconds[pair=ad|dd] < seconds[pair=cc]\n")
                .find("no point has pair=dd"),
            std::string::npos);
  EXPECT_NE(parse_error(kTwoPairs + "expect = seconds[fault=lse] < seconds[pair=cc]\n")
                .find("no point has fault=lse"),
            std::string::npos);
}

TEST(Expect, BareTermsSelectExactlyOnePoint) {
  // Two points match `seconds`: ambiguous.
  EXPECT_NE(parse_error(kTwoPairs + "expect = seconds < seconds[pair=cc]\n")
                .find("'seconds' selects 2 points (a bare term needs exactly 1)"),
            std::string::npos);
  // Per pair, the lhs matches nothing in the (a,d) group.
  EXPECT_NE(parse_error(kTwoPairs + "expect = per pair: seconds[pair=cc] < seconds\n")
                .find("selects 0 points in pair=ad"),
            std::string::npos);
  // Every value exists, but the conjunction selects no point.
  EXPECT_NE(parse_error("pair=cc,ad\nworkload=sort,wc\n"
                        "expect = per workload: seconds[workload=sort,pair=cc] < "
                        "seconds[pair=ad]\n")
                .find("in workload=wordcount"),
            std::string::npos);
}

TEST(Expect, ReducersSelectAtLeastOnePoint) {
  parse_ok(kTwoPairs + "expect = min(seconds) < max(seconds)\n");
  EXPECT_NE(parse_error(kTwoPairs + "expect = per pair: min(seconds[vmm=c]) < seconds\n")
                .find("selects 0 points in pair=ad"),
            std::string::npos);
}

TEST(Expect, TextAxesMatchByPrefixAndNone) {
  const ScenarioSpec s = parse_ok(
      "fault=none|failslow:host=0,factor=2|failslow:host=1,factor=2\n"
      "expect = seconds[fault=none] < min(seconds[fault=failslow])\n"
      "expect = seconds[fault=none] < seconds[fault=failslow:host=1]\n");
  const auto checks = resolve_checks(s, s.expand());
  ASSERT_TRUE(checks.has_value());
  EXPECT_EQ((*checks)[0].lhs, std::vector<std::size_t>{0});
  EXPECT_EQ((*checks)[0].rhs, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ((*checks)[1].rhs, std::vector<std::size_t>{2});
}

TEST(Expect, PerGroupsFollowTheExpansionOrder) {
  const ScenarioSpec s = parse_ok(
      "pair=cc,ad\nworkload=sort,wc\nvms=2,4\n"
      "expect = per vms,workload: seconds[pair=ad] < seconds[pair=cc]\n");
  const auto checks = resolve_checks(s, s.expand());
  ASSERT_TRUE(checks.has_value());
  ASSERT_EQ(checks->size(), 4u);
  EXPECT_EQ((*checks)[0].group, "vms=2 workload=sort");
  EXPECT_EQ((*checks)[1].group, "vms=4 workload=sort");
  EXPECT_EQ((*checks)[2].group, "vms=2 workload=wordcount");
  const auto points = s.expand();
  for (const auto& c : *checks) {
    EXPECT_EQ(points[c.lhs[0]].pair.letters(), "ad");
    EXPECT_EQ(points[c.rhs[0]].pair.letters(), "cc");
    EXPECT_EQ(points[c.lhs[0]].vms, points[c.rhs[0]].vms);
    EXPECT_EQ(points[c.lhs[0]].workload, points[c.rhs[0]].workload);
  }
}

TEST(Expect, PerVmmGroupsByTheLetter) {
  const ScenarioSpec s = parse_ok(
      "pair=cc,ca,aa\nexpect = per vmm: min(seconds) <= max(seconds)\n");
  const auto checks = resolve_checks(s, s.expand());
  ASSERT_TRUE(checks.has_value());
  ASSERT_EQ(checks->size(), 2u);
  EXPECT_EQ((*checks)[0].group, "vmm=c");
  EXPECT_EQ((*checks)[0].lhs, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ((*checks)[1].group, "vmm=a");
  EXPECT_EQ((*checks)[1].rhs, std::vector<std::size_t>{2});
}

TEST(Expect, VerdictsClassifyTheDifferenceCi) {
  // d_r = cc_r - ad_r.
  const ScenarioSpec s =
      parse_ok(kTwoPairs + "expect = seconds[pair=ad] < seconds[pair=cc]\n");
  const auto verdict = [&](const double (&ad)[3], const double (&cc)[3]) {
    const auto r = evaluate(s, outputs_of(s, [&](const ScenarioPoint& p, int rep) {
                              return p.pair.letters() == "ad" ? ad[rep] : cc[rep];
                            }));
    EXPECT_EQ(r.size(), 1u);
    return r.at(0);
  };
  const CheckResult holds = verdict({100, 101, 99}, {110, 112, 110});
  EXPECT_EQ(holds.verdict, Verdict::kHolds);
  EXPECT_DOUBLE_EQ(holds.lhs, 100.0);
  EXPECT_DOUBLE_EQ(holds.rhs, 110.0 + 2.0 / 3.0);
  EXPECT_EQ(holds.d.n, 3u);
  EXPECT_GT(holds.d.mean - holds.d.ci95, 0.0);
  EXPECT_EQ(verdict({100, 100, 100}, {130, 90, 90}).verdict, Verdict::kWithinNoise);
  EXPECT_EQ(verdict({100, 100, 100}, {99, 100, 100}).verdict, Verdict::kFails);
  EXPECT_EQ(verdict({100, 100, 100}, {100, 100, 100}).verdict, Verdict::kFails);

  const ScenarioSpec or_equal =
      parse_ok(kTwoPairs + "expect = seconds[pair=ad] <= seconds[pair=cc]\n");
  const auto tie = evaluate(or_equal, outputs_of(or_equal, [](const ScenarioPoint&, int) {
                              return 100.0;
                            }));
  EXPECT_EQ(tie.at(0).verdict, Verdict::kWithinNoise);
}

TEST(Expect, OneRepeatIsNeverMoreThanWithinNoise) {
  const ScenarioSpec s =
      parse_ok("repeats=1\npair=cc,ad\nexpect = seconds[pair=ad] < seconds[pair=cc]\n");
  const auto r = evaluate(s, outputs_of(s, [](const ScenarioPoint& p, int) {
                            return p.pair.letters() == "ad" ? 10.0 : 1000.0;
                          }));
  EXPECT_EQ(r.at(0).verdict, Verdict::kWithinNoise);
  const auto wrong = evaluate(s, outputs_of(s, [](const ScenarioPoint& p, int) {
                                return p.pair.letters() == "ad" ? 1000.0 : 10.0;
                              }));
  EXPECT_EQ(wrong.at(0).verdict, Verdict::kFails);
}

TEST(Expect, ReducersPickByMeanAndAveragePerRepeat) {
  const ScenarioSpec s = parse_ok(
      "repeats=2\npair=cc,ad,nn\n"
      "expect = min(seconds) < 0.5 * mean(seconds[pair=cc|nn])\n"
      "expect = max(seconds[pair=cc|ad]) < seconds[pair=nn]\n");
  // Per repeat: cc 10/30 (mean 20), ad 18/20 (mean 19), nn 100/200.
  const auto r = evaluate(s, outputs_of(s, [](const ScenarioPoint& p, int rep) {
                            const std::string l = p.pair.letters();
                            if (l == "cc") return rep ? 30.0 : 10.0;
                            if (l == "ad") return rep ? 20.0 : 18.0;
                            return rep ? 200.0 : 100.0;
                          }));
  ASSERT_EQ(r.size(), 2u);
  // min picks ad (mean 19), not the per-repeat minimum; rhs = 0.5 * (55, 115).
  EXPECT_DOUBLE_EQ(r[0].lhs, 19.0);
  EXPECT_DOUBLE_EQ(r[0].rhs, 42.5);
  EXPECT_DOUBLE_EQ(r[0].d.mean, 23.5);
  // max over {cc, ad} picks cc (mean 20).
  EXPECT_DOUBLE_EQ(r[1].lhs, 20.0);
  EXPECT_DOUBLE_EQ(r[1].rhs, 150.0);
}

TEST(Expect, MissingDataFails) {
  const ScenarioSpec s = parse_ok(kTwoPairs +
                                  "expect = seconds[pair=ad] < seconds[pair=cc]\n"
                                  "expect = ph1_seconds[pair=ad] < seconds[pair=cc]\n");
  ExecResult exec = outputs_of(s, [](const ScenarioPoint& p, int) {
    return p.pair.letters() == "ad" ? 1.0 : 2.0;
  });
  auto r = evaluate(s, exec);
  EXPECT_EQ(r[0].verdict, Verdict::kHolds);
  EXPECT_EQ(r[1].verdict, Verdict::kFails);
  EXPECT_EQ(r[1].note, "sort h4 v4 512MB (a,d): no ph1_seconds from some run");
  exec.outputs[4]->ok = false;
  r = evaluate(s, exec);
  EXPECT_EQ(r[0].verdict, Verdict::kFails);
  EXPECT_EQ(r[0].note, "sort h4 v4 512MB (a,d): no seconds from some run");
  exec.outputs[4].reset();
  r = evaluate(s, exec);
  EXPECT_EQ(r[0].note, "sort h4 v4 512MB (a,d): no seconds from some run");
  exec.outputs.resize(5);
  exec.outputs[4] = exec.outputs[3];
  r = evaluate(s, exec);
  EXPECT_EQ(r[0].note, "sort h4 v4 512MB (a,d): no seconds from some run");
}

// --- The fig7_online gate (once tools/policy_compare) ----------------------

const std::string kPolicySpec =
    "repeats=3\nseed_mode=repeat\npair=cc\nhosts=2\nvms=2\n"
    "stream=arrive,poisson,rate=0.05,jobs=4;class,name=a,wl=sort,mb=8-16|"
    "arrive,poisson,rate=0.05,jobs=4;class,name=a,wl=wc,mb=8-16\n"
    "meta=none|policy=static,pair=nn|policy=offline,profile=a|policy=offline|"
    "policy=ucb|policy=egreedy\n"
    "expect = per stream: seconds[meta=policy=ucb] <= 1.1 * "
    "min(seconds[meta=policy=offline])\n"
    "expect = per stream: seconds[meta=policy=ucb] < max(seconds[meta=policy=static])\n";

/// Seconds per meta alternative (ucb from `ucb(best offline)`), the same in
/// both stream families and every repeat but the first.
ExecResult policy_outputs(const ScenarioSpec& s, double statik,
                          const std::function<double(double)>& ucb) {
  return outputs_of(s, [&](const ScenarioPoint& p, int rep) {
    const double offline = 50.0 + rep;  // profile=a; the other variant is slower
    if (p.meta_text.rfind("policy=ucb", 0) == 0) return ucb(offline);
    if (p.meta_text == "policy=offline,profile=a") return offline;
    if (p.meta_text == "policy=offline") return offline + 20.0;
    if (p.meta_text.rfind("policy=static", 0) == 0) return statik;
    return 75.0;
  });
}

TEST(ExpectPolicyGate, ResolvesFourChecks) {
  const ScenarioSpec s = parse_ok(kPolicySpec);
  const auto checks = resolve_checks(s, s.expand());
  ASSERT_TRUE(checks.has_value());
  ASSERT_EQ(checks->size(), 4u);
  EXPECT_EQ((*checks)[0].rhs.size(), 2u);  // both offline variants
  EXPECT_EQ((*checks)[0].group, (*checks)[2].group);
  EXPECT_NE((*checks)[0].group, (*checks)[1].group);
}

TEST(ExpectPolicyGate, UcbAtExactlyTheOfflineToleranceDoesNotFail) {
  const ScenarioSpec s = parse_ok(kPolicySpec);
  const auto r = evaluate(s, policy_outputs(s, 90.0, [](double best) { return 1.1 * best; }));
  ASSERT_EQ(r.size(), 4u);
  EXPECT_NE(r[0].verdict, Verdict::kFails);
  EXPECT_EQ(r[0].d.mean, 0.0);
  EXPECT_EQ(r[2].verdict, Verdict::kHolds);  // 55 < 90
}

TEST(ExpectPolicyGate, UcbEqualToTheWorstStaticFails) {
  const ScenarioSpec s = parse_ok(kPolicySpec);
  const auto r = evaluate(s, policy_outputs(s, 52.0, [](double) { return 52.0; }));
  EXPECT_EQ(r[0].verdict, Verdict::kHolds);
  EXPECT_EQ(r[2].verdict, Verdict::kFails);
  EXPECT_EQ(r[3].verdict, Verdict::kFails);
}

TEST(ExpectPolicyGate, UcbAtTwiceTheOfflineMakespanFails) {
  // ucb 100 s against a 50 s offline schedule fails at any tolerance near 1.
  const ScenarioSpec s = parse_ok(kPolicySpec);
  const auto r = evaluate(s, policy_outputs(s, 200.0, [](double) { return 100.0; }));
  EXPECT_EQ(r[0].verdict, Verdict::kFails);
  EXPECT_EQ(r[1].verdict, Verdict::kFails);
  EXPECT_EQ(r[2].verdict, Verdict::kHolds);
}

TEST(ExpectJson, ChecksAppearOnlyWithExpectLines) {
  const ScenarioSpec plain = parse_ok(kTwoPairs);
  const ScenarioSpec checked =
      parse_ok(kTwoPairs + "expect = seconds[pair=ad] < seconds[pair=cc]\n");
  const auto f = [](const ScenarioPoint& p, int r) {
    return (p.pair.letters() == "ad" ? 1.0 : 2.0) + r;
  };
  const auto exec = outputs_of(plain, f);
  const auto agg = aggregate(plain, plain.expand(), build_run_matrix(plain), exec);
  const std::string a = to_json(plain, agg);
  const std::string b = to_json(checked, agg, false, evaluate(checked, exec));
  EXPECT_EQ(a.find("\"checks\""), std::string::npos);
  const auto at = b.find(",\"checks\":[");
  ASSERT_NE(at, std::string::npos);
  // Cutting the array out leaves the plain document.
  EXPECT_EQ(b.substr(0, at) + "}\n", a);
  EXPECT_NE(b.find("\"verdict\":\"holds\""), std::string::npos);
  EXPECT_EQ(verdict_line(evaluate(checked, exec).at(0)),
            "holds         seconds[pair=ad] < seconds[pair=cc]  (lhs 2.00, rhs 3.00, "
            "d = +1.00 ± 0.00, n=3)");
}

}  // namespace
}  // namespace iosim::exp
