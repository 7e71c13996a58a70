// Unit tests for the iosim-report HTML renderer over synthetic trace JSON
// and BENCH files: expected rows, banner states, byte-determinism, and
// malformed-input handling.
#include "exp/report.hpp"

#include <gtest/gtest.h>

#include <string>

namespace iosim::exp {
namespace {

// A hand-built trace export: one obs key with two lanes summarized, one
// overall summary, and one stall pair. ts/dur use the tracer's µs
// fixed-point formatting.
std::string synthetic_trace(const std::string& dropped) {
  return std::string(R"({"displayTimeUnit":"ms","otherData":{"dropped_events":")") +
         dropped + R"("},"traceEvents":[
{"ph":"M","name":"thread_name","pid":1,"tid":7,"args":{"name":"obs/host0/vm1/read/sync/ph0"}},
{"ph":"i","name":"obs summary","tid":3,"ts":250.000,"s":"g","args":{"count":2,"in_flight":0,"stalls":1}},
{"ph":"i","name":"obs elv_wait","tid":7,"ts":250.000,"s":"t","args":{"count":2,"sum_ns":80000,"max_ns":50000}},
{"ph":"i","name":"obs elv_wait","tid":7,"ts":250.000,"s":"t","args":{"p50_ns":30000,"p95_ns":50000,"p99_ns":50000}},
{"ph":"i","name":"obs total","tid":7,"ts":250.000,"s":"t","args":{"count":2,"sum_ns":500000,"max_ns":260000}},
{"ph":"i","name":"obs total","tid":7,"ts":250.000,"s":"t","args":{"p50_ns":240000,"p95_ns":260000,"p99_ns":260000}},
{"ph":"i","name":"obs total win","tid":7,"ts":250.000,"s":"t","args":{"count":2,"p95_ns":260000,"p99_ns":260000}},
{"ph":"X","name":"io stall","tid":7,"ts":100000.000,"dur":10000.000,"args":{"lba":4096,"writes_ahead":5,"reads_ahead":0}},
{"ph":"i","name":"io stall wait","tid":7,"ts":110000.000,"s":"t","args":{"elv_wait_ns":8940000,"service_ns":950000,"total_ns":10000000}}
]})";
}

TEST(Report, RendersWaterfallRowsFromTrace) {
  std::string err;
  const std::string html = render_report(synthetic_trace("0"), {}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;

  // Clean run: green banner, no overflow warning.
  EXPECT_NE(html.find("banner ok"), std::string::npos);
  EXPECT_NE(html.find("trace complete: <b>0</b> dropped"), std::string::npos);
  EXPECT_EQ(html.find("ring-buffer history is incomplete"), std::string::npos);

  // Summary line and key heading.
  EXPECT_NE(html.find("attribution: <b>2</b> request(s) completed"),
            std::string::npos);
  EXPECT_NE(html.find("<h3>host0 vm1 read sync ph0</h3>"), std::string::npos);

  // elv_wait row: share 80000/500000 = 16%, mean 40000 ns = 40.0 µs, and
  // the percentiles joined from the second instant.
  EXPECT_NE(html.find("16%"), std::string::npos);
  EXPECT_NE(html.find("40.0 µs"), std::string::npos);
  EXPECT_NE(html.find("30.0 µs"), std::string::npos);  // elv p50

  // The windowed row made it in.
  EXPECT_NE(html.find("total (window)"), std::string::npos);

  // No tenancy instants in this trace: single-job reports keep their
  // pre-stream shape, without a Job stream section.
  EXPECT_EQ(html.find("Job stream"), std::string::npos);
}

TEST(Report, RendersJobStreamTimelineFromTenancyInstants) {
  // Three jobs: one done (sojourn 42s), one failed, one still running when
  // the trace ended (admit only).
  const std::string trace = R"({"otherData":{"dropped_events":"0"},"traceEvents":[
{"ph":"M","name":"thread_name","pid":1,"tid":9,"args":{"name":"tenancy"}},
{"ph":"i","name":"job_admit","tid":9,"ts":1000000.000,"s":"t","args":{"job":0,"class":0,"arg":12}},
{"ph":"i","name":"job_admit","tid":9,"ts":2000000.000,"s":"t","args":{"job":1,"class":1,"arg":8}},
{"ph":"i","name":"job_admit","tid":9,"ts":3000000.000,"s":"t","args":{"job":2,"class":0,"arg":16}},
{"ph":"i","name":"job_done","tid":9,"ts":43000000.000,"s":"t","args":{"job":0,"class":0,"arg":42000}},
{"ph":"i","name":"job_fail","tid":9,"ts":50000000.000,"s":"t","args":{"job":1,"class":1,"arg":48000}}
]})";
  std::string err;
  const std::string html = render_report(trace, {}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;
  EXPECT_NE(html.find("<h2>Job stream</h2>"), std::string::npos);
  EXPECT_NE(html.find("<b>1</b> completed, <b>1</b> failed, <b>1</b> still running"),
            std::string::npos);
  // Job 0's row: class 0, 12 MB admit arg, 42 s sojourn, done.
  EXPECT_NE(html.find("<td>12</td>"), std::string::npos);
  EXPECT_NE(html.find("42.0 s"), std::string::npos);
  EXPECT_NE(html.find("<td>done</td>"), std::string::npos);
  EXPECT_NE(html.find("<td>failed</td>"), std::string::npos);
  // Job 2 never finished: dashes, state "running".
  EXPECT_NE(html.find("<td>running</td>"), std::string::npos);
}

TEST(Report, RendersStallLogWithQueueSnapshot) {
  std::string err;
  const std::string html = render_report(synthetic_trace("0"), {}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;
  EXPECT_NE(html.find("<h2>Stall log</h2>"), std::string::npos);
  // lba, paired lane breakdown (total 10ms, elv wait 8940µs), and the
  // "who was ahead" columns.
  EXPECT_NE(html.find("<td>4096</td>"), std::string::npos);
  EXPECT_NE(html.find("10.0 ms"), std::string::npos);
  EXPECT_NE(html.find("8940.0 µs"), std::string::npos);
  EXPECT_NE(html.find("<td>5</td>"), std::string::npos);  // writes ahead
  // Single-job trace: no job column — the table keeps its historical shape.
  EXPECT_EQ(html.find("<th>job</th>"), std::string::npos);
}

TEST(Report, StallAndWaterfallTablesCarryJobColumn) {
  // A multi-tenant trace: the same key shape but keyed to stream job 2 (the
  // attribution layer inserts "/job2" into the track), plus one legacy-key
  // stall. The stall table grows a job column; the legacy row shows "-".
  const std::string trace = R"({"otherData":{"dropped_events":"0"},"traceEvents":[
{"ph":"M","name":"thread_name","pid":1,"tid":7,"args":{"name":"obs/host0/vm1/job2/read/sync/ph0"}},
{"ph":"M","name":"thread_name","pid":1,"tid":8,"args":{"name":"obs/host0/vm1"}},
{"ph":"i","name":"obs summary","tid":3,"ts":250.000,"s":"g","args":{"count":2,"in_flight":0,"stalls":2}},
{"ph":"i","name":"obs total","tid":7,"ts":250.000,"s":"t","args":{"count":2,"sum_ns":500000,"max_ns":260000}},
{"ph":"i","name":"obs total","tid":7,"ts":250.000,"s":"t","args":{"p50_ns":240000,"p95_ns":260000,"p99_ns":260000}},
{"ph":"X","name":"io stall","tid":7,"ts":100000.000,"dur":10000.000,"args":{"lba":4096,"writes_ahead":5,"reads_ahead":0}},
{"ph":"i","name":"io stall wait","tid":7,"ts":110000.000,"s":"t","args":{"elv_wait_ns":8940000,"service_ns":950000,"total_ns":10000000}},
{"ph":"X","name":"io stall","tid":8,"ts":200000.000,"dur":5000.000,"args":{"lba":8192,"writes_ahead":1,"reads_ahead":1}}
]})";
  std::string err;
  const std::string html = render_report(trace, {}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;
  // The waterfall heading carries the job straight from the track path.
  EXPECT_NE(html.find("<h3>host0 vm1 job2 read sync ph0</h3>"), std::string::npos);
  // Stall table: job column present, job row labelled, legacy row dashed.
  EXPECT_NE(html.find("<th>job</th>"), std::string::npos);
  EXPECT_NE(html.find("<td>job2</td>"), std::string::npos);
  const auto job_col = html.find("<th>job</th>");
  const auto dash_cell = html.find("<td>-</td>", job_col);
  EXPECT_NE(dash_cell, std::string::npos);
}

TEST(Report, OverflowRaisesRedBanner) {
  std::string err;
  const std::string html = render_report(synthetic_trace("37"), {}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;
  EXPECT_NE(html.find("banner bad"), std::string::npos);
  EXPECT_NE(html.find("trace ring overflow: <b>37</b> dropped"), std::string::npos);
  EXPECT_NE(html.find("ring-buffer history is incomplete"), std::string::npos);
  EXPECT_EQ(html.find("banner ok"), std::string::npos);
}

TEST(Report, RendersFlatBenchMetrics) {
  const ReportBench b{
      "micro_sim",
      R"({"bench_format":1,"name":"micro_sim","metrics":{"bio_roundtrip.ops_per_sec":123456.5,"fig2_point.seconds":0.25}})"};
  std::string err;
  const std::string html = render_report("", {b}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;
  EXPECT_NE(html.find("<h2>Bench: micro_sim</h2>"), std::string::npos);
  EXPECT_NE(html.find("<td>bio_roundtrip.ops_per_sec</td>"), std::string::npos);
  // Values reproduce the raw JSON number token, not a reformatted double.
  EXPECT_NE(html.find("<td>123456.5</td>"), std::string::npos);
  EXPECT_NE(html.find("<td>0.25</td>"), std::string::npos);
  // Trace-less render: no waterfall or stall sections.
  EXPECT_EQ(html.find("Latency waterfalls"), std::string::npos);
  EXPECT_EQ(html.find("Stall log"), std::string::npos);
}

TEST(Report, RendersSweepBenchPoints) {
  const ReportBench b{"sweep", R"({"points":[
{"label":"nn","metrics":{"read_p99_ms":{"n":5,"mean":12.5,"min":11.0,"max":14.0,"p50":12.0,"p95":14.0}}},
{"label":"ca","metrics":{"read_p99_ms":{"n":5,"mean":6.25,"min":6.0,"max":7.0,"p50":6.0,"p95":7.0}}}
]})"};
  std::string err;
  const std::string html = render_report("", {b}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;
  EXPECT_NE(html.find("<td>nn</td>"), std::string::npos);
  EXPECT_NE(html.find("<td>ca</td>"), std::string::npos);
  EXPECT_NE(html.find("<td>read_p99_ms</td>"), std::string::npos);
  EXPECT_NE(html.find("<td>6.25</td>"), std::string::npos);
}

TEST(Report, RendersSweepChecksWithVerdictAndInterval) {
  const ReportBench b{"fig2", R"({"points":[],"checks":[
{"expect":"per workload: min(seconds) < seconds[pair=cc]","group":"workload=sort","verdict":"holds","lhs":374.5,"rhs":393.6,"d_mean":19.16,"d_ci95":6.45,"n":3},
{"expect":"per workload: min(seconds) < seconds[pair=cc]","group":"workload=wordcount","verdict":"within noise","lhs":167.5,"rhs":167.7,"d_mean":0.19,"d_ci95":1.03,"n":3},
{"expect":"a[x=1] < a[x=2]","group":"","verdict":"fails","lhs":0,"rhs":0,"d_mean":0,"d_ci95":0,"n":0,"note":"point x=1 has a failed run"}
]})"};
  std::string err;
  const std::string html = render_report("", {b}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;
  // One row per (check, group): text escaped, verdict, d mean ± CI from the
  // raw JSON tokens.
  EXPECT_NE(html.find("<tr><td>per workload: min(seconds) &lt; seconds[pair=cc]</td>"
                      "<td>workload=sort</td><td>holds</td><td>19.16 ± 6.45</td>"
                      "<td>3</td></tr>"),
            std::string::npos);
  EXPECT_NE(html.find("<td>workload=wordcount</td><td>within noise</td>"
                      "<td>0.19 ± 1.03</td>"),
            std::string::npos);
  EXPECT_NE(html.find("<td>a[x=1] &lt; a[x=2]</td><td></td>"
                      "<td>fails (point x=1 has a failed run)</td>"),
            std::string::npos);
}

TEST(Report, TitleIsEscapedAndUsed) {
  ReportOptions opt;
  opt.title = "fig2 <nn> & friends";
  std::string err;
  const std::string html = render_report(synthetic_trace("0"), {}, opt, &err);
  ASSERT_FALSE(html.empty()) << err;
  EXPECT_NE(html.find("<h1>fig2 &lt;nn&gt; &amp; friends</h1>"), std::string::npos);
  EXPECT_EQ(html.find("<h1>fig2 <nn>"), std::string::npos);
}

TEST(Report, ByteDeterministicAcrossRenders) {
  const ReportBench b{"micro_sim",
                      R"({"name":"m","metrics":{"a":1.5,"b":2}})"};
  const std::string a1 = render_report(synthetic_trace("0"), {b}, {}, nullptr);
  const std::string a2 = render_report(synthetic_trace("0"), {b}, {}, nullptr);
  ASSERT_FALSE(a1.empty());
  EXPECT_EQ(a1, a2);
}

TEST(Report, MalformedTraceReportsErrorAndReturnsEmpty) {
  std::string err;
  const std::string html = render_report("{nope", {}, {}, &err);
  EXPECT_TRUE(html.empty());
  EXPECT_FALSE(err.empty());
  EXPECT_NE(err.find("trace JSON"), std::string::npos);
}

TEST(Report, MalformedBenchReportsErrorWithLabel) {
  const ReportBench b{"broken_bench", "not json at all"};
  std::string err;
  const std::string html = render_report("", {b}, {}, &err);
  EXPECT_TRUE(html.empty());
  EXPECT_NE(err.find("broken_bench"), std::string::npos);
}

TEST(Report, UnrecognizedBenchShapeGetsInlineWarningNotError) {
  const ReportBench b{"odd", R"({"something":"else"})"};
  std::string err;
  const std::string html = render_report("", {b}, {}, &err);
  ASSERT_FALSE(html.empty()) << err;
  EXPECT_NE(html.find("unrecognized BENCH shape"), std::string::npos);
}

}  // namespace
}  // namespace iosim::exp
