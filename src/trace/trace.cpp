#include "trace/trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "sim/text.hpp"

namespace iosim::trace {

namespace {
/// Nanoseconds rendered as microseconds with fixed 3-decimal precision —
/// integer arithmetic only, so the output is bit-stable across platforms.
void append_us(std::string& out, std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000 >= 0 ? ns % 1000 : -(ns % 1000));
  out += buf;
}
}  // namespace

Tracer::Tracer(TracerConfig cfg) {
  ring_.resize(cfg.capacity > 0 ? cfg.capacity : 1);
  pinned_capacity_ = cfg.pinned_capacity;
  pinned_.reserve(pinned_capacity_ < 1024 ? pinned_capacity_ : 1024);
  strings_.emplace_back();  // id 0 = ""

  ids.cat_blk = intern("blk");
  ids.cat_disk = intern("disk");
  ids.cat_virt = intern("virt");
  ids.cat_core = intern("core");
  ids.cat_mapred = intern("mapred");
  ids.cat_meta = intern("meta");
  ids.cat_fault = intern("fault");
  ids.rq_read = intern("rq read");
  ids.rq_write = intern("rq write");
  ids.rq_service = intern("rq service");
  ids.bio_submit = intern("bio submit");
  ids.bio_merge = intern("bio merge");
  ids.elv_switch = intern("elv switch");
  ids.elv_retarget = intern("elv retarget");
  ids.drain_done = intern("drain done");
  ids.disk_io = intern("disk io");
  ids.phase = intern("phase");
  ids.pair_switch = intern("pair switch");
  ids.fg_switch = intern("fg switch");
  ids.fg_sample = intern("fg sample");
  ids.probe = intern("probe");
  ids.profile = intern("profile");
  ids.vm_boot = intern("vm boot");
  ids.map_span = intern("map");
  ids.shuffle_span = intern("shuffle");
  ids.reduce_span = intern("reduce");
  ids.job_start = intern("job start");
  ids.first_map_done = intern("first map done");
  ids.maps_done = intern("maps done");
  ids.shuffle_done = intern("shuffle done");
  ids.job_done = intern("job done");
  ids.fault = intern("fault on");
  ids.io_error = intern("io error");
  ids.vm_down = intern("vm down");
  ids.vm_up = intern("vm up");
  ids.switch_fail = intern("switch fail");
  ids.task_fail = intern("task fail");
  ids.task_retry = intern("task retry");
  ids.task_speculate = intern("task speculate");
  ids.hdfs_failover = intern("hdfs failover");
  ids.fetch_retry = intern("fetch retry");
  ids.job_failed = intern("job failed");
  ids.lba = intern("lba");
  ids.sectors = intern("sectors");
  ids.value = intern("value");
  ids.index = intern("index");
  ids.pair = intern("pair");
  ids.host = intern("host");
  ids.task = intern("task");
  ids.bytes = intern("bytes");
  ids.target = intern("target");
  ids.share = intern("share");
  ids.queued = intern("queued");
  ids.in_flight = intern("in_flight");
  ids.read_mb_s = intern("read MB/s");
  ids.write_mb_s = intern("write MB/s");
  ids.attempt = intern("attempt");
  ids.cat_obs = intern("obs");
  ids.io_stall = intern("io stall");
  ids.io_stall_wait = intern("io stall wait");
  ids.obs_summary = intern("obs summary");
  ids.trace_overflow = intern("trace overflow");
  ids.obs_lane[0] = intern("obs guest_queue");
  ids.obs_lane[1] = intern("obs ring_wait");
  ids.obs_lane[2] = intern("obs elv_wait");
  ids.obs_lane[3] = intern("obs service");
  ids.obs_lane[4] = intern("obs ret");
  ids.obs_lane[5] = intern("obs total");
  ids.obs_total_win = intern("obs total win");
  ids.count = intern("count");
  ids.sum_ns = intern("sum_ns");
  ids.max_ns = intern("max_ns");
  ids.p50_ns = intern("p50_ns");
  ids.p95_ns = intern("p95_ns");
  ids.p99_ns = intern("p99_ns");
  ids.elv_wait_ns = intern("elv_wait_ns");
  ids.service_ns = intern("service_ns");
  ids.total_ns = intern("total_ns");
  ids.writes_ahead = intern("writes_ahead");
  ids.reads_ahead = intern("reads_ahead");
  ids.stalls = intern("stalls");

  // Rare structural events survive ring overflow: a multi-million-event bio
  // flood must not push the handful of switch / phase / lifecycle markers
  // out of the flight recorder. Fault-injection and task-retry/speculation
  // markers join them — a trace of a faulted run must still show what was
  // injected and how the runtime recovered after the bio flood wraps the
  // ring (a sustained error storm falls back to the ring once the pinned
  // store fills; see TracerConfig::pinned_capacity).
  for (Str s : {ids.elv_switch, ids.elv_retarget, ids.drain_done, ids.phase,
                ids.pair_switch, ids.fg_switch, ids.fg_sample, ids.probe,
                ids.profile, ids.vm_boot, ids.map_span, ids.shuffle_span,
                ids.reduce_span, ids.job_start, ids.first_map_done,
                ids.maps_done, ids.shuffle_done, ids.job_done, ids.fault,
                ids.io_error, ids.vm_down, ids.vm_up, ids.switch_fail,
                ids.task_fail, ids.task_retry, ids.task_speculate,
                ids.hdfs_failover, ids.fetch_retry, ids.job_failed,
                ids.io_stall, ids.io_stall_wait, ids.obs_summary,
                ids.trace_overflow, ids.obs_lane[0], ids.obs_lane[1],
                ids.obs_lane[2], ids.obs_lane[3], ids.obs_lane[4],
                ids.obs_lane[5], ids.obs_total_win}) {
    pin_name(s);
  }
}

Str Tracer::intern(std::string_view s) {
  auto it = string_ids_.find(std::string(s));
  if (it != string_ids_.end()) return it->second;
  const Str id = static_cast<Str>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(strings_.back(), id);
  return id;
}

std::uint32_t Tracer::track(std::string_view name) {
  auto it = track_ids_.find(std::string(name));
  if (it != track_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(track_names_.size());
  track_names_.push_back(intern(name));
  track_ids_.emplace(std::string(name), id);
  return id;
}

void Tracer::pin_name(Str name) {
  if (name >= pinned_names_.size()) pinned_names_.resize(name + 1, 0);
  pinned_names_[name] = 1;
}

void Tracer::emit(const Event& e) {
  ++emitted_;
  if (is_pinned(e.name) && pinned_.size() < pinned_capacity_) {
    pinned_.push_back(e);
    return;
  }
  if (count_ == ring_.size()) {
    // Full: overwrite the oldest event.
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
    if (++dropped_ == 1 && pinned_.size() < pinned_capacity_) {
      // First overflow: park a pinned marker (pushed directly — going back
      // through emit() would recurse) so the export shows *when* the flight
      // recorder started losing history, not just that it did. The final
      // drop count lives in the export header / CSV summary.
      Event marker;
      marker.ph = Ph::kInstant;
      marker.name = ids.trace_overflow;
      marker.cat = ids.cat_meta;
      marker.track = e.track;
      marker.ts_ns = e.ts_ns;
      pinned_.push_back(marker);
      ++emitted_;  // keep emitted() == size() + dropped()
    }
    return;
  }
  ring_[(head_ + count_) % ring_.size()] = e;
  ++count_;
}

void Tracer::instant(std::uint32_t track, Str name, Str cat, sim::Time ts, Str a0n,
                     std::int64_t a0, Str a1n, std::int64_t a1, Str a2n,
                     std::int64_t a2) {
  Event e;
  e.ph = Ph::kInstant;
  e.track = track;
  e.name = name;
  e.cat = cat;
  e.ts_ns = ts.ns();
  e.arg_name[0] = a0n; e.arg[0] = a0;
  e.arg_name[1] = a1n; e.arg[1] = a1;
  e.arg_name[2] = a2n; e.arg[2] = a2;
  emit(e);
}

void Tracer::complete(std::uint32_t track, Str name, Str cat, sim::Time begin,
                      sim::Time end, Str a0n, std::int64_t a0, Str a1n,
                      std::int64_t a1, Str a2n, std::int64_t a2) {
  Event e;
  e.ph = Ph::kComplete;
  e.track = track;
  e.name = name;
  e.cat = cat;
  e.ts_ns = begin.ns();
  e.dur_ns = (end - begin).ns();
  e.arg_name[0] = a0n; e.arg[0] = a0;
  e.arg_name[1] = a1n; e.arg[1] = a1;
  e.arg_name[2] = a2n; e.arg[2] = a2;
  emit(e);
}

void Tracer::begin(std::uint32_t track, Str name, Str cat, sim::Time ts, Str a0n,
                   std::int64_t a0) {
  Event e;
  e.ph = Ph::kBegin;
  e.track = track;
  e.name = name;
  e.cat = cat;
  e.ts_ns = ts.ns();
  e.arg_name[0] = a0n; e.arg[0] = a0;
  emit(e);
}

void Tracer::end(std::uint32_t track, Str name, sim::Time ts) {
  Event e;
  e.ph = Ph::kEnd;
  e.track = track;
  e.name = name;
  e.ts_ns = ts.ns();
  emit(e);
}

void Tracer::counter(std::uint32_t track, Str name, sim::Time ts, std::int64_t value) {
  Event e;
  e.ph = Ph::kCounter;
  e.track = track;
  e.name = name;
  e.ts_ns = ts.ns();
  e.arg_name[0] = ids.value; e.arg[0] = value;
  emit(e);
}

std::string Tracer::to_json() const {
  std::string out;
  out.reserve(count_ * 96 + 512);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":\"";
  out += std::to_string(dropped_);
  out += "\"},\"traceEvents\":[";

  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
    out += '\n';
  };

  // Thread-name metadata: kept in the track table, immune to ring overflow.
  for (std::size_t t = 0; t < track_names_.size(); ++t) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(t);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    lex::append_json_escaped(out, strings_[track_names_[t]]);
    out += "\"}}";
  }

  for_each([&](const Event& e) {
    sep();
    out += "{\"ph\":\"";
    out += static_cast<char>(e.ph);
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(e.track);
    if (e.name != kNoStr) {
      out += ",\"name\":\"";
      lex::append_json_escaped(out, strings_[e.name]);
      out += '"';
    }
    if (e.cat != kNoStr) {
      out += ",\"cat\":\"";
      lex::append_json_escaped(out, strings_[e.cat]);
      out += '"';
    }
    out += ",\"ts\":";
    append_us(out, e.ts_ns);
    if (e.ph == Ph::kComplete) {
      out += ",\"dur\":";
      append_us(out, e.dur_ns);
    }
    if (e.ph == Ph::kInstant) out += ",\"s\":\"t\"";
    if (e.arg_name[0] != kNoStr || e.arg_name[1] != kNoStr || e.arg_name[2] != kNoStr) {
      out += ",\"args\":{";
      bool afirst = true;
      for (int i = 0; i < 3; ++i) {
        if (e.arg_name[i] == kNoStr) continue;
        if (!afirst) out += ',';
        afirst = false;
        out += '"';
        lex::append_json_escaped(out, strings_[e.arg_name[i]]);
        out += "\":";
        out += std::to_string(e.arg[i]);
      }
      out += '}';
    }
    out += '}';
  });

  out += "\n]}\n";
  return out;
}

std::string Tracer::to_csv() const {
  std::string out = "ph,track,name,cat,ts_ns,dur_ns,a0_name,a0,a1_name,a1,a2_name,a2\n";
  for_each([&](const Event& e) {
    out += static_cast<char>(e.ph);
    out += ',';
    out += strings_[track_names_[e.track]];
    out += ',';
    out += strings_[e.name];
    out += ',';
    out += strings_[e.cat];
    out += ',';
    out += std::to_string(e.ts_ns);
    out += ',';
    out += std::to_string(e.dur_ns);
    for (int i = 0; i < 3; ++i) {
      out += ',';
      out += strings_[e.arg_name[i]];
      out += ',';
      out += e.arg_name[i] != kNoStr ? std::to_string(e.arg[i]) : std::string{};
    }
    out += '\n';
  });
  if (dropped_ > 0) {
    // Summary row (ph 'M' like the JSON metadata) so a CSV consumer sees
    // the loss too; zero-drop exports are byte-identical to before.
    out += "M,,dropped_events,,0,0,count," + std::to_string(dropped_) +
           ",,,,\n";
  }
  return out;
}

bool Tracer::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  if (dropped_ > 0) {
    // A silently truncated flight recording invalidates whatever analysis
    // reads it — say so where the invoking human will see it.
    std::fprintf(stderr,
                 "trace: WARNING: ring overflow dropped %llu events (capacity "
                 "%zu); raise TracerConfig::capacity for a complete trace\n",
                 static_cast<unsigned long long>(dropped_), ring_.size());
  }
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string data = csv ? to_csv() : to_json();
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace iosim::trace
