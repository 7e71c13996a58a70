#include "exp/report.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string_view>

#include "exp/json_parse.hpp"

namespace iosim::exp {

namespace {

// ---------------------------------------------------------------------------
// Formatting — integer arithmetic only, so output is bit-stable.
// ---------------------------------------------------------------------------

void append_escaped_html(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
}

std::string esc(std::string_view s) {
  std::string out;
  append_escaped_html(out, s);
  return out;
}

/// ns -> human unit with one fixed decimal, integer math throughout.
std::string fmt_ns(std::int64_t ns) {
  char buf[64];
  if (ns < 0) ns = 0;
  if (ns < 10'000) {
    std::snprintf(buf, sizeof buf, "%" PRId64 " ns", ns);
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof buf, "%" PRId64 ".%01" PRId64 " µs", ns / 1000,
                  (ns % 1000) / 100);
  } else if (ns < 10'000'000'000LL) {
    std::snprintf(buf, sizeof buf, "%" PRId64 ".%01" PRId64 " ms", ns / 1'000'000,
                  (ns % 1'000'000) / 100'000);
  } else {
    std::snprintf(buf, sizeof buf, "%" PRId64 ".%01" PRId64 " s",
                  static_cast<std::int64_t>(ns / 1'000'000'000LL),
                  static_cast<std::int64_t>((ns % 1'000'000'000LL) / 100'000'000LL));
  }
  return buf;
}

std::int64_t num_i64(const JsonValue* v) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return 0;
  // Raw token first: 64-bit ns values round-trip exactly.
  errno = 0;
  char* end = nullptr;
  const long long r = std::strtoll(v->str.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && errno == 0) return r;
  return static_cast<std::int64_t>(v->num);
}

std::string num_raw(const JsonValue* v) {
  if (v == nullptr) return "-";
  if (v->kind == JsonValue::Kind::kNumber) return v->str;  // raw token
  if (v->kind == JsonValue::Kind::kString) return v->str;
  return "-";
}

// ---------------------------------------------------------------------------
// Trace digest model
// ---------------------------------------------------------------------------

/// Joined per-lane summary (the two pinned instants of one lane name).
struct LaneSummary {
  bool seen = false;
  std::int64_t count = 0, sum_ns = 0, max_ns = 0;
  std::int64_t p50 = 0, p95 = 0, p99 = 0;
};

inline constexpr int kLanes = 6;  // guest_queue, ring_wait, elv_wait, service, ret, total
constexpr const char* kLaneLabel[kLanes] = {"guest queue", "ring wait", "elv wait",
                                            "service",     "return",    "total"};
constexpr const char* kLaneEvent[kLanes] = {"obs guest_queue", "obs ring_wait",
                                            "obs elv_wait",    "obs service",
                                            "obs ret",         "obs total"};

struct KeySummary {
  std::string track;  // "obs/host0/vm1/read/sync/ph0"
  LaneSummary lanes[kLanes];
  bool win_seen = false;
  std::int64_t win_count = 0, win_p95 = 0, win_p99 = 0;
};

struct Stall {
  std::string track;
  std::int64_t ts_ns = 0, dur_ns = 0;
  std::int64_t lba = 0, writes_ahead = 0, reads_ahead = 0;
  bool wait_seen = false;
  std::int64_t elv_wait_ns = 0, service_ns = 0, total_ns = 0;
};

/// One multi-tenant job, joined from its tenancy-track milestone instants
/// (job_admit carries the input size; job_done/job_fail carry the sojourn).
struct StreamJobRow {
  std::int64_t job = 0, cls = 0, size_mb = 0;
  std::int64_t admit_ns = 0, end_ns = 0, sojourn_ms = 0;
  bool admitted = false;
  int state = 0;  // 0 = running at end of trace, 1 = done, 2 = failed
};

/// One failure-detector / self-healing event from the membership track.
struct MembershipRow {
  std::string name;  // tt_suspect, tt_dead, tt_rejoin, tt_blacklist,
                     // tt_probe_ok, blk_repair
  std::int64_t ts_ns = 0, vm = 0, arg = 0;
};

struct TraceModel {
  bool present = false;
  std::string dropped_events = "0";
  bool have_summary = false;
  std::int64_t completed = 0, in_flight = 0, stalls_total = 0;
  std::vector<KeySummary> keys;  // file order
  std::vector<Stall> stalls;     // file order
  std::vector<std::pair<std::int64_t, std::int64_t>> phases;  // (ts, index)
  std::vector<StreamJobRow> stream_jobs;  // admission order
  std::vector<MembershipRow> membership;  // time order (file order)
};

StreamJobRow& stream_job_of(TraceModel& m, std::int64_t job) {
  for (auto& r : m.stream_jobs) {
    if (r.job == job) return r;
  }
  m.stream_jobs.push_back(StreamJobRow{});
  m.stream_jobs.back().job = job;
  return m.stream_jobs.back();
}

int lane_of(std::string_view name) {
  for (int l = 0; l < kLanes; ++l) {
    if (name == kLaneEvent[l]) return l;
  }
  return -1;
}

KeySummary& key_of(TraceModel& m, const std::string& track) {
  for (auto& k : m.keys) {
    if (k.track == track) return k;
  }
  m.keys.push_back(KeySummary{});
  m.keys.back().track = track;
  return m.keys.back();
}

bool build_trace_model(const std::string& text, TraceModel* m, std::string* error) {
  std::string perr;
  const auto doc = json_parse(text, &perr);
  if (!doc) {
    if (error) *error = "trace JSON: " + perr;
    return false;
  }
  m->present = true;
  if (const auto* other = doc->find("otherData")) {
    if (const auto* d = other->find("dropped_events")) m->dropped_events = d->str;
  }
  const auto* events = doc->find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    if (error) *error = "trace JSON: no traceEvents array";
    return false;
  }

  // Pass 1: thread_name metadata (tid -> track name), kept ahead of the
  // events in the export but resolved defensively in a separate pass.
  std::map<std::int64_t, std::string> tracks;
  for (const auto& e : events->arr) {
    const auto* ph = e.find("ph");
    const auto* name = e.find("name");
    if (ph && ph->str == "M" && name && name->str == "thread_name") {
      if (const auto* args = e.find("args")) {
        if (const auto* n = args->find("name")) {
          tracks[num_i64(e.find("tid"))] = n->str;
        }
      }
    }
  }

  for (const auto& e : events->arr) {
    const auto* name = e.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) continue;
    const auto* args = e.find("args");
    auto track_name = [&]() -> std::string {
      const auto it = tracks.find(num_i64(e.find("tid")));
      return it != tracks.end() ? it->second : std::string{};
    };
    auto arg = [&](const char* k) { return args ? args->find(k) : nullptr; };
    // "ts" is µs with 3 decimals; recover integer ns from the raw token.
    auto ts_ns = [&]() -> std::int64_t {
      const auto* ts = e.find("ts");
      if (ts == nullptr) return 0;
      const std::string& tok = ts->str;
      const auto dot = tok.find('.');
      if (dot == std::string::npos) return num_i64(ts) * 1000;
      const std::int64_t us = std::strtoll(tok.substr(0, dot).c_str(), nullptr, 10);
      const std::int64_t frac = std::strtoll(tok.substr(dot + 1).c_str(), nullptr, 10);
      return us * 1000 + (us < 0 ? -frac : frac);
    };

    if (name->str == "obs summary") {
      m->have_summary = true;
      m->completed = num_i64(arg("count"));
      m->in_flight = num_i64(arg("in_flight"));
      m->stalls_total = num_i64(arg("stalls"));
    } else if (const int l = lane_of(name->str); l >= 0) {
      KeySummary& k = key_of(*m, track_name());
      LaneSummary& ls = k.lanes[l];
      ls.seen = true;
      if (arg("count") != nullptr) {  // first instant: count/sum/max
        ls.count = num_i64(arg("count"));
        ls.sum_ns = num_i64(arg("sum_ns"));
        ls.max_ns = num_i64(arg("max_ns"));
      } else {  // second instant: percentiles
        ls.p50 = num_i64(arg("p50_ns"));
        ls.p95 = num_i64(arg("p95_ns"));
        ls.p99 = num_i64(arg("p99_ns"));
      }
    } else if (name->str == "obs total win") {
      KeySummary& k = key_of(*m, track_name());
      k.win_seen = true;
      k.win_count = num_i64(arg("count"));
      k.win_p95 = num_i64(arg("p95_ns"));
      k.win_p99 = num_i64(arg("p99_ns"));
    } else if (name->str == "io stall") {
      Stall s;
      s.track = track_name();
      s.ts_ns = ts_ns();
      const auto* dur = e.find("dur");
      if (dur != nullptr) {
        // Same µs fixed-point trick as ts.
        const std::string& tok = dur->str;
        const auto dot = tok.find('.');
        s.dur_ns = dot == std::string::npos
                       ? num_i64(dur) * 1000
                       : std::strtoll(tok.substr(0, dot).c_str(), nullptr, 10) * 1000 +
                             std::strtoll(tok.substr(dot + 1).c_str(), nullptr, 10);
      }
      s.lba = num_i64(arg("lba"));
      s.writes_ahead = num_i64(arg("writes_ahead"));
      s.reads_ahead = num_i64(arg("reads_ahead"));
      m->stalls.push_back(std::move(s));
    } else if (name->str == "io stall wait") {
      // Pairs with the most recent unpaired "io stall" on the same track
      // (emitted back to back by the detector).
      const std::string t = track_name();
      for (auto it = m->stalls.rbegin(); it != m->stalls.rend(); ++it) {
        if (it->track == t && !it->wait_seen) {
          it->wait_seen = true;
          it->elv_wait_ns = num_i64(arg("elv_wait_ns"));
          it->service_ns = num_i64(arg("service_ns"));
          it->total_ns = num_i64(arg("total_ns"));
          break;
        }
      }
    } else if (name->str == "phase") {
      m->phases.emplace_back(ts_ns(), num_i64(arg("index")));
    } else if (name->str == "job_admit") {
      StreamJobRow& r = stream_job_of(*m, num_i64(arg("job")));
      r.admitted = true;
      r.admit_ns = ts_ns();
      r.cls = num_i64(arg("class"));
      r.size_mb = num_i64(arg("arg"));
    } else if (name->str == "job_done" || name->str == "job_fail") {
      StreamJobRow& r = stream_job_of(*m, num_i64(arg("job")));
      r.end_ns = ts_ns();
      r.sojourn_ms = num_i64(arg("arg"));
      r.state = name->str == "job_done" ? 1 : 2;
    } else if (name->str == "job_shed") {
      StreamJobRow& r = stream_job_of(*m, num_i64(arg("job")));
      r.end_ns = ts_ns();
      r.cls = num_i64(arg("class"));
      r.size_mb = num_i64(arg("arg"));
      r.state = 3;
    } else if (name->str == "tt_suspect" || name->str == "tt_dead" ||
               name->str == "tt_rejoin" || name->str == "tt_blacklist" ||
               name->str == "tt_probe_ok" || name->str == "blk_repair") {
      MembershipRow r;
      r.name = name->str;
      r.ts_ns = ts_ns();
      r.vm = num_i64(arg("vm"));
      r.arg = num_i64(arg("arg"));
      m->membership.push_back(std::move(r));
    }
  }
  return true;
}

/// "obs/host0/vm1/read/sync/ph0" -> "host0 vm1 read sync ph0".
std::string key_label(const std::string& track) {
  std::string out;
  std::string_view s = track;
  if (s.rfind("obs/", 0) == 0) s.remove_prefix(4);
  for (char c : s) out += c == '/' ? ' ' : c;
  return out;
}

/// Trailing "/phN" of an obs track, or -1.
int key_phase(const std::string& track) {
  const auto pos = track.rfind("/ph");
  if (pos == std::string::npos) return -1;
  return std::atoi(track.c_str() + pos + 3);
}

/// "/jobN" component of an obs track (multi-tenant runs), or -1.
int key_job(const std::string& track) {
  const auto pos = track.rfind("/job");
  if (pos == std::string::npos) return -1;
  return std::atoi(track.c_str() + pos + 4);
}

// ---------------------------------------------------------------------------
// HTML sections
// ---------------------------------------------------------------------------

void section_header(std::string& out, const ReportOptions& opt, const TraceModel& m) {
  out += "<h1>";
  append_escaped_html(out, opt.title);
  out += "</h1>\n";
  if (m.present) {
    const bool lossy = m.dropped_events != "0";
    out += lossy ? "<p class=\"banner bad\">trace ring overflow: <b>"
                 : "<p class=\"banner ok\">trace complete: <b>";
    append_escaped_html(out, m.dropped_events);
    out += "</b> dropped event(s)";
    if (lossy) {
      out += " — ring-buffer history is incomplete; raise TracerConfig::capacity "
             "to capture everything (pinned milestones and obs summaries survive)";
    }
    out += "</p>\n";
    if (m.have_summary) {
      out += "<p>attribution: <b>" + std::to_string(m.completed) +
             "</b> request(s) completed, <b>" + std::to_string(m.in_flight) +
             "</b> still in flight, <b>" + std::to_string(m.stalls_total) +
             "</b> stall(s) flagged</p>\n";
    }
  }
}

void section_waterfalls(std::string& out, const TraceModel& m) {
  if (m.keys.empty()) return;
  out += "<h2>Latency waterfalls</h2>\n"
         "<p>Per (host, vm, direction, sync class, phase) key: where completed "
         "requests spent their time, DomU submit to completion. Bars show each "
         "stage's share of the summed total.</p>\n";
  for (const auto& k : m.keys) {
    const LaneSummary& total = k.lanes[kLanes - 1];
    out += "<h3>" + esc(key_label(k.track)) + "</h3>\n<table>\n"
           "<tr><th>stage</th><th>share</th><th>count</th><th>mean</th>"
           "<th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>\n";
    for (int l = 0; l < kLanes; ++l) {
      const LaneSummary& ls = k.lanes[l];
      if (!ls.seen) continue;
      const bool is_total = l == kLanes - 1;
      const std::int64_t share =
          (!is_total && total.sum_ns > 0) ? ls.sum_ns * 100 / total.sum_ns : 100;
      out += is_total ? "<tr class=\"total\"><td>" : "<tr><td>";
      out += kLaneLabel[l];
      out += "</td><td><div class=\"bar\" style=\"width:";
      out += std::to_string(share);
      out += "%\"></div> ";
      out += std::to_string(share);
      out += "%</td><td>";
      out += std::to_string(ls.count);
      out += "</td><td>";
      out += fmt_ns(ls.count > 0 ? ls.sum_ns / ls.count : 0);
      out += "</td><td>" + fmt_ns(ls.p50) + "</td><td>" + fmt_ns(ls.p95) +
             "</td><td>" + fmt_ns(ls.p99) + "</td><td>" + fmt_ns(ls.max_ns) +
             "</td></tr>\n";
    }
    if (k.win_seen) {
      out += "<tr class=\"win\"><td>total (window)</td><td></td><td>" +
             std::to_string(k.win_count) + "</td><td></td><td></td><td>" +
             fmt_ns(k.win_p95) + "</td><td>" + fmt_ns(k.win_p99) +
             "</td><td></td></tr>\n";
    }
    out += "</table>\n";
  }
}

void section_phases(std::string& out, const TraceModel& m) {
  if (m.keys.empty()) return;
  // Distinct phases in key order.
  std::vector<int> phases;
  for (const auto& k : m.keys) {
    const int p = key_phase(k.track);
    bool seen = false;
    for (int q : phases) seen |= (q == p);
    if (!seen) phases.push_back(p);
  }
  if (phases.size() < 2) return;  // single phase: the waterfalls already say it all
  out += "<h2>Per-phase totals</h2>\n"
         "<p>End-to-end request latency by MapReduce phase "
         "(0&nbsp;=&nbsp;map, 1&nbsp;=&nbsp;shuffle, 2&nbsp;=&nbsp;reduce).</p>\n"
         "<table>\n<tr><th>phase</th><th>key</th><th>count</th><th>mean</th>"
         "<th>p50</th><th>p95</th><th>p99</th></tr>\n";
  for (int p : phases) {
    for (const auto& k : m.keys) {
      if (key_phase(k.track) != p) continue;
      const LaneSummary& t = k.lanes[kLanes - 1];
      if (!t.seen) continue;
      out += "<tr><td>" + std::to_string(p) + "</td><td>" + esc(key_label(k.track)) +
             "</td><td>" + std::to_string(t.count) + "</td><td>" +
             fmt_ns(t.count > 0 ? t.sum_ns / t.count : 0) + "</td><td>" +
             fmt_ns(t.p50) + "</td><td>" + fmt_ns(t.p95) + "</td><td>" +
             fmt_ns(t.p99) + "</td></tr>\n";
    }
  }
  out += "</table>\n";
}

void section_stream(std::string& out, const TraceModel& m) {
  if (m.stream_jobs.empty()) return;  // single-job traces: no section at all
  std::int64_t done = 0, failed = 0, shed = 0, running = 0;
  for (const auto& r : m.stream_jobs) {
    (r.state == 1 ? done : r.state == 2 ? failed : r.state == 3 ? shed : running) += 1;
  }
  // The shed count only appears when the admission gate actually fired, so
  // gate-free traces keep their historical summary text byte-for-byte.
  out += "<h2>Job stream</h2>\n<p>Multi-tenant timeline from the tenancy "
         "milestone instants: <b>" + std::to_string(done) + "</b> completed, <b>" +
         std::to_string(failed) + "</b> failed, " +
         (shed > 0 ? "<b>" + std::to_string(shed) + "</b> shed, " : "") +
         "<b>" + std::to_string(running) +
         "</b> still running at end of trace.</p>\n"
         "<table>\n<tr><th>job</th><th>class</th><th>size MB</th>"
         "<th>admitted</th><th>finished</th><th>sojourn</th><th>state</th></tr>\n";
  for (const auto& r : m.stream_jobs) {
    out += "<tr><td>" + std::to_string(r.job) + "</td><td>" + std::to_string(r.cls) +
           "</td><td>" +
           (r.admitted || r.state == 3 ? std::to_string(r.size_mb)
                                       : std::string("-")) +
           "</td><td>" + (r.admitted ? fmt_ns(r.admit_ns) : std::string("-")) +
           "</td><td>" + (r.state != 0 ? fmt_ns(r.end_ns) : std::string("-")) +
           "</td><td>" +
           (r.state == 1 || r.state == 2 ? fmt_ns(r.sojourn_ms * 1'000'000)
                                         : std::string("-")) +
           "</td><td>" +
           (r.state == 1   ? "done"
            : r.state == 2 ? "failed"
            : r.state == 3 ? "shed"
                           : "running") +
           "</td></tr>\n";
  }
  out += "</table>\n";
}

void section_membership(std::string& out, const TraceModel& m) {
  if (m.membership.empty()) return;  // fault-free traces: no section at all
  std::int64_t deaths = 0, rejoins = 0, blacklists = 0, repairs = 0,
               repair_bytes = 0;
  for (const auto& r : m.membership) {
    if (r.name == "tt_dead") ++deaths;
    if (r.name == "tt_rejoin") ++rejoins;
    if (r.name == "tt_blacklist") ++blacklists;
    if (r.name == "blk_repair") {
      ++repairs;
      repair_bytes += r.arg;
    }
  }
  out += "<h2>Membership timeline</h2>\n<p>Failure-detector and self-healing "
         "events from the membership track: <b>" + std::to_string(deaths) +
         "</b> declared dead, <b>" + std::to_string(rejoins) +
         "</b> rejoined, <b>" + std::to_string(blacklists) +
         "</b> blacklisted, <b>" + std::to_string(repairs) +
         "</b> block(s) re-replicated (" +
         std::to_string(repair_bytes / (1024 * 1024)) + " MB).</p>\n"
         "<table>\n<tr><th>time</th><th>event</th><th>vm</th>"
         "<th>detail</th></tr>\n";
  for (const auto& r : m.membership) {
    std::string label, detail;
    if (r.name == "tt_suspect") {
      label = "suspect";
      detail = std::to_string(r.arg) + " heartbeat(s) missed";
    } else if (r.name == "tt_dead") {
      label = "declared dead";
      detail = "death #" + std::to_string(r.arg);
    } else if (r.name == "tt_rejoin") {
      label = "rejoined";
      detail = "rejoin #" + std::to_string(r.arg);
    } else if (r.name == "tt_blacklist") {
      label = "blacklisted";
      detail = std::to_string(r.arg) + " strike(s)";
    } else if (r.name == "tt_probe_ok") {
      label = "probe ok";
      detail = "unblacklisted";
    } else {
      label = "block repaired";
      detail = std::to_string(r.arg) + " bytes copied to vm" +
               std::to_string(r.vm);
    }
    out += "<tr><td>" + fmt_ns(r.ts_ns) + "</td><td>" + label + "</td><td>vm" +
           std::to_string(r.vm) + "</td><td>" + detail + "</td></tr>\n";
  }
  out += "</table>\n";
}

void section_stalls(std::string& out, const TraceModel& m) {
  if (!m.have_summary && m.stalls.empty()) return;
  out += "<h2>Stall log</h2>\n";
  if (m.stalls.empty()) {
    out += "<p>No stalls flagged.</p>\n";
    return;
  }
  // The job column appears only when at least one stall is attributed to a
  // stream job, so single-job reports keep their historical layout.
  bool any_job = false;
  for (const auto& s : m.stalls) any_job = any_job || key_job(s.track) >= 0;
  out += "<p>Requests whose end-to-end latency exceeded the per-key "
         "percentile threshold, with the Dom0 elevator queue they arrived "
         "behind (&ldquo;who was ahead&rdquo;).</p>\n"
         "<table>\n<tr><th>submit</th><th>key</th>";
  if (any_job) out += "<th>job</th>";
  out += "<th>lba</th><th>total</th>"
         "<th>elv wait</th><th>service</th><th>writes ahead</th>"
         "<th>reads ahead</th></tr>\n";
  for (const auto& s : m.stalls) {
    out += "<tr><td>" + fmt_ns(s.ts_ns) + "</td><td>" + esc(key_label(s.track)) +
           "</td>";
    if (any_job) {
      const int job = key_job(s.track);
      out += job >= 0 ? "<td>job" + std::to_string(job) + "</td>"
                      : "<td>-</td>";
    }
    out += "<td>" + std::to_string(s.lba) + "</td><td>" +
           fmt_ns(s.wait_seen ? s.total_ns : s.dur_ns) + "</td><td>" +
           (s.wait_seen ? fmt_ns(s.elv_wait_ns) : std::string("-")) + "</td><td>" +
           (s.wait_seen ? fmt_ns(s.service_ns) : std::string("-")) + "</td><td>" +
           std::to_string(s.writes_ahead) + "</td><td>" +
           std::to_string(s.reads_ahead) + "</td></tr>\n";
  }
  out += "</table>\n";
}

bool section_bench(std::string& out, const ReportBench& b, std::string* error) {
  std::string perr;
  const auto doc = json_parse(b.text, &perr);
  if (!doc) {
    if (error) *error = b.label + ": " + perr;
    return false;
  }
  out += "<h2>Bench: " + esc(b.label) + "</h2>\n";
  if (const auto* name = doc->find("name")) {
    out += "<p>name: <b>" + esc(name->str) + "</b></p>\n";
  }
  if (const auto* points = doc->find("points");
      points != nullptr && points->kind == JsonValue::Kind::kArray) {
    // Sweep-engine BENCH: one row per (point, metric) summary.
    out += "<table>\n<tr><th>scenario</th><th>metric</th><th>mean</th>"
           "<th>min</th><th>p50</th><th>p95</th><th>max</th><th>n</th></tr>\n";
    for (const auto& pt : points->arr) {
      const auto* label = pt.find("label");
      const auto* metrics = pt.find("metrics");
      if (metrics == nullptr) continue;
      for (const auto& [mname, mv] : metrics->obj) {
        out += "<tr><td>" + esc(label ? label->str : "") + "</td><td>" + esc(mname) +
               "</td><td>" + esc(num_raw(mv.find("mean"))) + "</td><td>" +
               esc(num_raw(mv.find("min"))) + "</td><td>" +
               esc(num_raw(mv.find("p50"))) + "</td><td>" +
               esc(num_raw(mv.find("p95"))) + "</td><td>" +
               esc(num_raw(mv.find("max"))) + "</td><td>" +
               esc(num_raw(mv.find("n"))) + "</td></tr>\n";
      }
    }
    out += "</table>\n";
  } else if (const auto* metrics = doc->find("metrics");
             metrics != nullptr && metrics->kind == JsonValue::Kind::kObject) {
    // Flat bench_util BENCH: metric -> value.
    out += "<table>\n<tr><th>metric</th><th>value</th></tr>\n";
    for (const auto& [mname, mv] : metrics->obj) {
      out += "<tr><td>" + esc(mname) + "</td><td>" + esc(num_raw(&mv)) +
             "</td></tr>\n";
    }
    out += "</table>\n";
  } else {
    out += "<p class=\"banner bad\">unrecognized BENCH shape (neither "
           "\"points\" nor \"metrics\")</p>\n";
  }
  if (const auto* checks = doc->find("checks");
      checks != nullptr && checks->kind == JsonValue::Kind::kArray) {
    // The sweep's `expect` verdicts: one row per check and `per` group, d =
    // rhs - lhs per repeat.
    out += "<table>\n<tr><th>check</th><th>group</th><th>verdict</th>"
           "<th>d mean ± ci95</th><th>n</th></tr>\n";
    for (const auto& c : checks->arr) {
      std::string verdict = num_raw(c.find("verdict"));
      if (const auto* note = c.find("note")) verdict += " (" + note->str + ")";
      out += "<tr><td>" + esc(num_raw(c.find("expect"))) + "</td><td>" +
             esc(num_raw(c.find("group"))) + "</td><td>" + esc(verdict) + "</td><td>" +
             esc(num_raw(c.find("d_mean"))) + " ± " + esc(num_raw(c.find("d_ci95"))) +
             "</td><td>" + esc(num_raw(c.find("n"))) + "</td></tr>\n";
    }
    out += "</table>\n";
  }
  return true;
}

}  // namespace

std::string render_report(const std::string& trace_json,
                          const std::vector<ReportBench>& benches,
                          const ReportOptions& opt, std::string* error) {
  TraceModel m;
  if (!trace_json.empty() && !build_trace_model(trace_json, &m, error)) return {};

  std::string out;
  out.reserve(16384);
  out += "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>";
  append_escaped_html(out, opt.title);
  out += "</title>\n<style>\n"
         "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:70em;"
         "padding:0 1em;color:#222}\n"
         "h1{border-bottom:2px solid #444}\n"
         "table{border-collapse:collapse;margin:0.5em 0 1.5em}\n"
         "th,td{border:1px solid #bbb;padding:0.25em 0.6em;text-align:right}\n"
         "th{background:#eee}\ntd:first-child,th:first-child{text-align:left}\n"
         "tr.total td{font-weight:bold;border-top:2px solid #666}\n"
         "tr.win td{color:#666;font-style:italic}\n"
         ".bar{display:inline-block;height:0.8em;background:#4a90d9;"
         "vertical-align:middle;min-width:1px;max-width:12em}\n"
         ".banner{padding:0.4em 0.8em;border-radius:4px}\n"
         ".banner.bad{background:#fdd;border:1px solid #c33}\n"
         ".banner.ok{background:#dfd;border:1px solid #3a3}\n"
         "</style>\n</head>\n<body>\n";

  section_header(out, opt, m);
  section_stream(out, m);
  section_membership(out, m);
  section_waterfalls(out, m);
  section_phases(out, m);
  section_stalls(out, m);
  for (const auto& b : benches) {
    if (!section_bench(out, b, error)) return {};
  }
  out += "</body>\n</html>\n";
  return out;
}

}  // namespace iosim::exp
