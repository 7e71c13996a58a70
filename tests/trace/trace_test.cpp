// Tests for the flight-recorder tracer, the metrics registry, and the
// iostat sampler: registry histograms printed as quantile sketches, ring
// overflow semantics, exported JSON validity (checked with a real parser),
// and byte-identical determinism of same-seed cluster-run traces.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "blk/disk_device.hpp"
#include "cluster/runner.hpp"
#include "core/phase_detector.hpp"
#include "metrics/iostat_sampler.hpp"
#include "metrics/registry_table.hpp"
#include "trace/registry.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim {
namespace {

using trace::Event;
using trace::Ph;
using trace::Tracer;
using trace::TracerConfig;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableRefs) {
  trace::Registry reg;
  trace::Counter& a = reg.counter("a");
  a.inc(3);
  EXPECT_EQ(&reg.counter("a"), &a);
  EXPECT_EQ(reg.counter("a").value(), 3);
  reg.gauge("g").set(1.5);
  reg.histogram("h").record(9);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.items()[0].name, "a");
  EXPECT_EQ(reg.items()[1].name, "g");
  EXPECT_EQ(reg.items()[2].name, "h");
}

TEST(Registry, GlobalSessionInstallsAndRestores) {
  EXPECT_EQ(trace::registry(), nullptr);
  {
    trace::MetricsSession s;
    EXPECT_EQ(trace::registry(), &s.registry());
    trace::registry()->counter("x").inc();
    {
      trace::MetricsSession inner;
      EXPECT_EQ(trace::registry(), &inner.registry());
    }
    EXPECT_EQ(trace::registry(), &s.registry());
    EXPECT_EQ(s.registry().counter("x").value(), 1);
  }
  EXPECT_EQ(trace::registry(), nullptr);
}

TEST(Registry, TableRendersEveryItem) {
  trace::Registry reg;
  reg.counter("jobs").inc(2);
  reg.gauge("load").set(0.75);
  obs::QuantileSketch ref;
  for (int i = 1; i <= 100; ++i) {
    reg.histogram("lat_ns").record(i * 1000);
    ref.record(i * 1000);
  }
  auto tab = metrics::registry_table(reg);
  const std::string csv = tab.to_csv();
  EXPECT_NE(csv.find("jobs"), std::string::npos);
  EXPECT_NE(csv.find("load"), std::string::npos);
  // Histograms are QuantileSketches: the printed percentiles are the
  // sketch's own.
  const std::string row = "\nlat_ns,histogram,50500.0,100," + std::to_string(ref.quantile(0.5)) +
                          "," + std::to_string(ref.quantile(0.99)) + ",100000\n";
  EXPECT_NE(csv.find(row), std::string::npos) << csv;
}

// ---------------------------------------------------------------------------
// Tracer ring
// ---------------------------------------------------------------------------

TEST(Tracer, RingOverflowDropsOldestAndCounts) {
  TracerConfig cfg;
  cfg.capacity = 8;
  Tracer tr(cfg);
  const trace::Str bulk = tr.intern("bulk");  // not a pinned name
  const auto t = tr.track("t");
  for (int i = 0; i < 20; ++i) {
    tr.instant(t, bulk, tr.ids.cat_blk, sim::Time::from_ns(i));
  }
  // The first drop also pins one "trace overflow" marker (and counts it as
  // emitted), so the loss is visible in the export even if the counter is
  // overlooked: 8 ring events + 1 marker.
  EXPECT_EQ(tr.size(), 9u);
  EXPECT_EQ(tr.dropped(), 12u);
  EXPECT_EQ(tr.emitted(), 21u);
  EXPECT_EQ(tr.pinned_size(), 1u);
  std::vector<std::int64_t> ts;
  std::size_t markers = 0;
  tr.for_each([&](const Event& e) {
    if (e.name == tr.ids.trace_overflow) {
      ++markers;
      return;
    }
    ts.push_back(e.ts_ns);
  });
  EXPECT_EQ(markers, 1u);  // exactly one marker, no matter how many drops
  ASSERT_EQ(ts.size(), 8u);
  EXPECT_EQ(ts.front(), 12);  // oldest surviving = event 12
  EXPECT_EQ(ts.back(), 19);
  const std::string json = tr.to_json();
  EXPECT_NE(json.find("\"dropped_events\":\"12\""), std::string::npos);
  EXPECT_NE(json.find("trace overflow"), std::string::npos);
}

TEST(Tracer, PinnedEventsSurviveRingOverflow) {
  TracerConfig cfg;
  cfg.capacity = 4;
  Tracer tr(cfg);
  const auto t = tr.track("t");
  // An early milestone, then a flood of bulk events that wraps the ring
  // many times over.
  tr.instant(t, tr.ids.phase, tr.ids.cat_core, sim::Time::from_ns(1),
             tr.ids.index, 0);
  const trace::Str bulk = tr.intern("bulk");
  for (int i = 0; i < 100; ++i) {
    tr.instant(t, bulk, tr.ids.cat_blk, sim::Time::from_ns(10 + i));
  }
  // The milestone plus the first-drop overflow marker.
  EXPECT_EQ(tr.pinned_size(), 2u);
  bool phase_alive = false;
  bool marker_alive = false;
  tr.for_each([&](const Event& e) {
    phase_alive |= (e.name == tr.ids.phase);
    marker_alive |= (e.name == tr.ids.trace_overflow);
  });
  EXPECT_TRUE(phase_alive);
  EXPECT_TRUE(marker_alive);
}

TEST(Tracer, PinnedStoreOverflowFallsBackToRing) {
  TracerConfig cfg;
  cfg.capacity = 4;
  cfg.pinned_capacity = 2;
  Tracer tr(cfg);
  const auto t = tr.track("t");
  for (int i = 0; i < 5; ++i) {
    tr.instant(t, tr.ids.phase, tr.ids.cat_core, sim::Time::from_ns(i));
  }
  EXPECT_EQ(tr.pinned_size(), 2u);
  EXPECT_EQ(tr.size(), 2u + 3u);  // remainder landed in the ring
}

TEST(Tracer, InternIsIdempotentAndOrdered) {
  Tracer tr;
  const auto a = tr.intern("alpha");
  const auto b = tr.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tr.intern("alpha"), a);
  EXPECT_EQ(tr.str(a), "alpha");
  EXPECT_EQ(tr.track("tr1"), tr.track("tr1"));
  EXPECT_NE(tr.track("tr1"), tr.track("tr2"));
  EXPECT_EQ(tr.n_tracks(), 2u);
}

TEST(Tracer, CsvHasHeaderAndOneLinePerEvent) {
  Tracer tr;
  const auto t = tr.track("t");
  for (int i = 0; i < 5; ++i) {
    tr.counter(t, tr.ids.queued, sim::Time::from_ns(i), i);
  }
  const std::string csv = tr.to_csv();
  std::size_t lines = 0;
  for (char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, 1u + 5u);
  EXPECT_EQ(csv.substr(0, 2), "ph");
}

TEST(Tracer, WriteFilePicksCsvFromTheSuffix) {
  Tracer tr;
  tr.counter(tr.track("t"), tr.ids.queued, sim::Time::from_ns(1), 7);
  const auto written = [&tr](const std::string& leaf) {
    const std::string path = testing::TempDir() + "iosim_trace_test_" + leaf;
    EXPECT_TRUE(tr.write_file(path)) << path;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
  };
  EXPECT_EQ(written("out.csv"), tr.to_csv());
  EXPECT_EQ(written("out.json"), tr.to_json());
  EXPECT_EQ(written("out.csv.json"), tr.to_json());
}

// ---------------------------------------------------------------------------
// Minimal JSON parser — enough to validate the exporter's output for real.
// ---------------------------------------------------------------------------

struct MiniJson {
  // Parsed value: one of object/array/string/number/bool-null (as string).
  std::map<std::string, MiniJson> obj;
  std::vector<MiniJson> arr;
  std::string str;  // string value, or number/keyword literal text
  enum Kind { kObj, kArr, kStr, kLit } kind = kLit;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool parse(MiniJson& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool value(MiniJson& v) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(v);
    if (c == '[') return array(v);
    if (c == '"') {
      v.kind = MiniJson::kStr;
      return string(v.str);
    }
    return literal(v);
  }
  bool object(MiniJson& v) {
    v.kind = MiniJson::kObj;
    ++pos_;  // {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      MiniJson child;
      if (!value(child)) return false;
      v.obj.emplace(std::move(key), std::move(child));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array(MiniJson& v) {
    v.kind = MiniJson::kArr;
    ++pos_;  // [
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      MiniJson child;
      if (!value(child)) return false;
      v.arr.push_back(std::move(child));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;  // validated but not decoded; names here are ASCII
            out += '?';
            break;
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }
  bool literal(MiniJson& v) {
    v.kind = MiniJson::kLit;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    v.str = s_.substr(start, pos_ - start);
    return !v.str.empty();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// One small (2x2, 32 MB) sort run, traced end to end, with phase
/// observation attached — the shape the acceptance criteria exercise.
std::string traced_small_run_json() {
  trace::TraceSession session;
  cluster::ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  auto jc = workloads::make_job(workloads::stream_sort(), 32 * mapred::kMiB);
  const auto plan = core::PhasePlan::for_job(jc, cfg.n_hosts * cfg.vms_per_host);
  cluster::run_job(cfg, jc, [plan](cluster::Cluster&, mapred::Job& job) {
    core::PhaseDetector::attach(job, plan, [](int, sim::Time) {});
  });
  return session.tracer().to_json();
}

TEST(TraceExport, ClusterRunJsonParsesAndContainsExpectedEvents) {
  const std::string json = traced_small_run_json();
  MiniJson root;
  ASSERT_TRUE(JsonParser(json).parse(root)) << "exporter produced invalid JSON";
  ASSERT_EQ(root.kind, MiniJson::kObj);
  ASSERT_TRUE(root.obj.count("traceEvents"));
  ASSERT_TRUE(root.obj.count("otherData"));

  const auto& events = root.obj["traceEvents"];
  ASSERT_EQ(events.kind, MiniJson::kArr);
  ASSERT_GT(events.arr.size(), 100u);

  int meta_names = 0, bio_spans = 0, elv_switch = 0, phase_instants = 0,
      disk_spans = 0, job_marks = 0;
  for (const auto& e : events.arr) {
    ASSERT_EQ(e.kind, MiniJson::kObj);
    auto& eo = const_cast<MiniJson&>(e);
    ASSERT_TRUE(eo.obj.count("ph"));
    const std::string ph = eo.obj["ph"].str;
    const std::string name = eo.obj.count("name") ? eo.obj["name"].str : "";
    const std::string cat = eo.obj.count("cat") ? eo.obj["cat"].str : "";
    if (ph == "M") {
      ++meta_names;
      continue;
    }
    ASSERT_TRUE(eo.obj.count("ts")) << "event without timestamp";
    if (ph == "X") {
      ASSERT_TRUE(eo.obj.count("dur"));
    }
    if (ph == "X" && cat == "blk") ++bio_spans;
    if (ph == "X" && cat == "disk") ++disk_spans;
    if (name == "elv switch") ++elv_switch;
    if (name == "phase") ++phase_instants;
    if (name == "job start" || name == "job done") ++job_marks;
  }
  EXPECT_GT(meta_names, 0) << "thread_name metadata missing";
  EXPECT_GT(bio_spans, 0) << "no bio-level spans";
  EXPECT_GT(disk_spans, 0) << "no disk service spans";
  EXPECT_GT(elv_switch, 0) << "no elevator-switch spans";
  EXPECT_GE(phase_instants, 2) << "phase transitions missing";
  EXPECT_EQ(job_marks, 2) << "job lifecycle instants missing";
}

TEST(TraceExport, SameSeedRunsProduceByteIdenticalTraces) {
  const std::string a = traced_small_run_json();
  const std::string b = traced_small_run_json();
  EXPECT_EQ(a, b);
}

TEST(TraceExport, ElevatorSwitchEmitsBeginEndPair) {
  trace::TraceSession session;
  sim::Simulator simr;
  blk::DiskDevice disk(simr, disk::DiskParams{}, 1);
  blk::BlockLayerConfig cfg;
  cfg.scheduler = iosched::SchedulerKind::kNoop;
  blk::BlockLayer layer(simr, disk, cfg);
  blk::Bio bio;
  bio.lba = 0;
  bio.sectors = 64;
  bio.dir = iosched::Dir::kWrite;
  layer.submit(std::move(bio));
  layer.switch_scheduler(iosched::SchedulerKind::kCfq);
  simr.run();

  auto& tr = session.tracer();
  int begins = 0, ends = 0, drains = 0;
  tr.for_each([&](const Event& e) {
    if (e.name == tr.ids.elv_switch && e.ph == Ph::kBegin) ++begins;
    if (e.name == tr.ids.elv_switch && e.ph == Ph::kEnd) ++ends;
    if (e.name == tr.ids.drain_done) ++drains;
  });
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(drains, 1);
}

// ---------------------------------------------------------------------------
// Iostat sampler
// ---------------------------------------------------------------------------

TEST(IostatSampler, TicksStopAtPredicateAndRecordSeries) {
  sim::Simulator simr;
  blk::DiskDevice disk(simr, disk::DiskParams{}, 1);
  blk::BlockLayerConfig cfg;
  cfg.name = "lay0";
  blk::BlockLayer layer(simr, disk, cfg);

  bool done = false;
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    blk::Bio bio;
    bio.lba = i * 128;
    bio.sectors = 128;
    bio.dir = iosched::Dir::kWrite;
    bio.on_complete = [&](sim::Time, iosched::IoStatus) { done = (++completed == 64); };
    layer.submit(std::move(bio));
  }

  metrics::IostatSampler sampler(simr);
  sampler.watch(layer);
  sampler.stop_when([&done] { return done; });
  sampler.start();
  simr.run();  // must terminate: the sampler stops once the I/O is done

  EXPECT_TRUE(done);
  EXPECT_GT(sampler.ticks(), 0u);
  ASSERT_EQ(sampler.n_layers(), 1u);
  EXPECT_EQ(sampler.layer_name(0), "lay0");
  ASSERT_EQ(sampler.series(0).size(), sampler.ticks());
  double written = 0;
  for (const auto& s : sampler.series(0)) written += s.write_mb_s;
  EXPECT_GT(written, 0.0);
  const std::string csv = sampler.table().to_csv();
  EXPECT_NE(csv.find("lay0"), std::string::npos);
}

}  // namespace
}  // namespace iosim
