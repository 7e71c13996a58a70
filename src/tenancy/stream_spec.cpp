#include "tenancy/stream_spec.hpp"

#include <set>
#include <span>
#include <string_view>

#include "iosched/pair.hpp"
#include "sim/text.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::tenancy {

namespace {

using Fields = std::span<const std::string_view>;

bool fail(std::string* err, std::string msg) {
  if (err != nullptr) *err = std::move(msg);
  return false;
}

std::string quoted(std::string_view v) {
  std::string q(1, '\'');
  q += v;
  q += '\'';
  return q;
}

/// Walks the key=value fields of one segment: a field without '=' and a
/// repeated key are errors, and every pair goes to `apply`, which returns
/// false once it has set the diagnostic.
template <class Apply>
bool for_each_field(Fields fields, const char* segment, std::string* err,
                    Apply apply) {
  std::set<std::string_view> seen;
  for (const std::string_view field : fields) {
    const auto kv = lex::split_key_value(field);
    if (!kv) {
      return fail(err, std::string("stream: bad ") + segment + " field " + quoted(field));
    }
    if (!seen.insert(kv->key).second) {
      return fail(err, "stream: duplicate key " + quoted(kv->key) + " in " + segment +
                           " segment");
    }
    if (!apply(kv->key, kv->value)) return false;
  }
  return true;
}

bool parse_arrive(Fields fields, StreamSpec* spec, bool* seen, std::string* err) {
  if (*seen) return fail(err, "stream: duplicate arrive segment");
  *seen = true;
  if (fields.size() < 2) return fail(err, "stream: arrive needs a kind");
  const std::string_view kind = fields[1];
  const auto unknown = [&](std::string_view k) {
    return fail(err, "stream: unknown arrive key " + quoted(k));
  };
  if (kind == "poisson") {
    spec->arrival = ArrivalKind::kPoisson;
    return for_each_field(fields.subspan(2), "arrive", err,
                          [&](std::string_view k, std::string_view v) {
      if (k == "rate") {
        if (!lex::parse_double(v, &spec->rate_hz) || spec->rate_hz <= 0.0) {
          return fail(err, "stream: rate must be a positive number, got " + quoted(v));
        }
      } else if (k == "jobs") {
        if (!lex::parse_int(v, &spec->n_jobs) || spec->n_jobs < 1) {
          return fail(err, "stream: jobs must be a positive integer, got " + quoted(v));
        }
      } else {
        return unknown(k);
      }
      return true;
    });
  }
  if (kind == "trace") {
    spec->arrival = ArrivalKind::kTrace;
    const bool ok = for_each_field(fields.subspan(2), "arrive", err,
                                   [&](std::string_view k, std::string_view v) {
      if (k != "t") return unknown(k);
      double prev = -1.0;
      for (const std::string_view tok : lex::split(v, ':')) {
        double t = 0.0;
        if (!lex::parse_double(tok, &t) || t < 0.0) {
          return fail(err, "stream: bad arrival time " + quoted(tok));
        }
        if (t < prev) return fail(err, "stream: arrival times must be sorted");
        prev = t;
        spec->trace_times_s.push_back(t);
      }
      return true;
    });
    if (!ok) return false;
    if (spec->trace_times_s.empty()) {
      return fail(err, "stream: trace arrivals need t=<t0:t1:...>");
    }
    return true;
  }
  return fail(err, "stream: unknown arrival kind " + quoted(kind));
}

bool parse_class(Fields fields, StreamSpec* spec, std::string* err) {
  ClassSpec c;
  bool have_name = false, have_mb = false;
  const bool ok = for_each_field(fields.subspan(1), "class", err,
                                 [&](std::string_view k, std::string_view v) {
    if (k == "name") {
      if (v.empty()) return fail(err, "stream: empty class name");
      c.name = v;
      have_name = true;
    } else if (k == "wl") {
      const auto w = workloads::by_name(std::string(v));
      if (!w) return fail(err, "stream: unknown workload " + quoted(v));
      c.workload = w->name;  // canonical ("wc" -> "wordcount")
    } else if (k == "mb") {
      const auto dash = v.find('-');
      const std::string_view lo = v.substr(0, dash);
      const std::string_view hi = dash == std::string_view::npos ? v : v.substr(dash + 1);
      if (!lex::parse_int(lo, &c.mb_min) || !lex::parse_int(hi, &c.mb_max) ||
          c.mb_min < 1 || c.mb_max < c.mb_min) {
        return fail(err, "stream: bad class size range " + quoted(v));
      }
      have_mb = true;
    } else if (k == "alpha") {
      if (!lex::parse_double(v, &c.alpha) || c.alpha <= 0.0) {
        return fail(err, "stream: alpha must be positive, got " + quoted(v));
      }
    } else if (k == "weight") {
      if (!lex::parse_double(v, &c.weight) || c.weight <= 0.0) {
        return fail(err, "stream: weight must be positive, got " + quoted(v));
      }
    } else if (k == "prio") {
      if (!lex::parse_int(v, &c.priority)) {
        return fail(err, "stream: bad priority " + quoted(v));
      }
    } else if (k == "share") {
      if (!lex::parse_double(v, &c.share) || c.share < 0.0 || c.share > 1.0) {
        return fail(err, "stream: share must be in [0,1], got " + quoted(v));
      }
    } else if (k == "deadline") {
      if (!lex::parse_double(v, &c.deadline_s) || c.deadline_s < 0.0) {
        return fail(err, "stream: deadline must be >= 0, got " + quoted(v));
      }
    } else if (k == "mix") {
      if (!lex::parse_double(v, &c.mix) || c.mix <= 0.0) {
        return fail(err, "stream: mix must be positive, got " + quoted(v));
      }
    } else {
      return fail(err, "stream: unknown class key " + quoted(k));
    }
    return true;
  });
  if (!ok) return false;
  if (!have_name) return fail(err, "stream: class needs name=");
  if (!have_mb) return fail(err, "stream: class needs mb=");
  for (const ClassSpec& other : spec->classes) {
    if (other.name == c.name) {
      return fail(err, "stream: duplicate class name " + quoted(c.name));
    }
  }
  spec->classes.push_back(std::move(c));
  return true;
}

bool parse_admit(Fields fields, StreamSpec* spec, bool* seen, std::string* err) {
  if (*seen) return fail(err, "stream: duplicate admit segment");
  *seen = true;
  bool have_active = false;
  const bool ok = for_each_field(fields.subspan(1), "admit", err,
                                 [&](std::string_view k, std::string_view v) {
    if (k == "active") {
      if (!lex::parse_int(v, &spec->max_active) || spec->max_active < 1) {
        return fail(err, "stream: active must be a positive integer, got " + quoted(v));
      }
      have_active = true;
    } else if (k == "queue") {
      if (!lex::parse_int(v, &spec->max_queue) || spec->max_queue < 0) {
        return fail(err, "stream: queue must be >= 0, got " + quoted(v));
      }
    } else if (k == "retries") {
      if (!lex::parse_int(v, &spec->job_retries) || spec->job_retries < 0) {
        return fail(err, "stream: retries must be >= 0, got " + quoted(v));
      }
    } else if (k == "backoff") {
      if (!lex::parse_double(v, &spec->retry_backoff_s) || spec->retry_backoff_s < 0.0) {
        return fail(err, "stream: backoff must be >= 0, got " + quoted(v));
      }
    } else {
      return fail(err, "stream: unknown admit key " + quoted(k));
    }
    return true;
  });
  if (!ok) return false;
  if (!have_active) return fail(err, "stream: admit needs active=<n>");
  return true;
}

bool parse_meta(Fields fields, StreamSpec* spec, bool* seen, std::string* err) {
  if (*seen) return fail(err, "stream: duplicate meta segment");
  *seen = true;
  MetaSpec m;
  const bool ok = for_each_field(fields.subspan(1), "meta", err,
                                 [&](std::string_view k, std::string_view v) {
    if (k == "policy") {
      const auto p = meta_policy_by_name(std::string(v));
      if (!p || *p == MetaPolicy::kNone) {
        return fail(err, "stream: unknown meta policy " + quoted(v) +
                             " (static|offline|ucb|egreedy)");
      }
      m.policy = *p;
    } else if (k == "explore") {
      if (!lex::parse_double(v, &m.explore) || m.explore < 0.0 || m.explore > 100.0) {
        return fail(err, "stream: explore must be in [0,100], got " + quoted(v));
      }
    } else if (k == "decay") {
      if (!lex::parse_double(v, &m.decay) || m.decay <= 0.0 || m.decay > 1.0) {
        return fail(err, "stream: decay must be in (0,1], got " + quoted(v));
      }
    } else if (k == "budget") {
      if (!lex::parse_int(v, &m.budget) || m.budget < 1 ||
          m.budget > iosched::kNumSchedulerPairs) {
        return fail(err, "stream: budget must be in 1..16, got " + quoted(v));
      }
    } else if (k == "pair") {
      if (!iosched::SchedulerPair::from_letters(v)) {
        return fail(err, "stream: bad meta pair " + quoted(v) + " (two of n/d/a/c)");
      }
      m.pair = v;
    } else if (k == "profile") {
      if (v.empty()) return fail(err, "stream: empty meta profile class");
      m.profile = v;
    } else {
      return fail(err, "stream: unknown meta key " + quoted(k));
    }
    return true;
  });
  if (!ok) return false;
  if (m.policy == MetaPolicy::kNone) {
    return fail(err, "stream: meta needs policy=<static|offline|ucb|egreedy>");
  }
  if (!m.pair.empty() && m.policy != MetaPolicy::kStatic) {
    return fail(err, "stream: meta pair= is only valid with policy=static");
  }
  if (!m.profile.empty() && m.policy != MetaPolicy::kOffline) {
    return fail(err, "stream: meta profile= is only valid with policy=offline");
  }
  if ((m.explore >= 0.0 || m.decay >= 0.0 || m.budget > 0) &&
      (m.policy == MetaPolicy::kStatic || m.policy == MetaPolicy::kOffline)) {
    return fail(err,
                "stream: explore/decay/budget are only valid with ucb|egreedy");
  }
  spec->meta = std::move(m);
  return true;
}

bool parse_stream(std::string_view text, StreamSpec* spec, std::string* err) {
  spec->n_jobs = 0;  // defaults re-established by the arrive segment
  bool seen_arrive = false, seen_policy = false, seen_admit = false,
       seen_meta = false;
  for (const std::string_view seg : lex::split(text, ';')) {
    if (seg.empty()) return fail(err, "stream: empty segment");
    const std::vector<std::string_view> fields = lex::split(seg, ',');
    const std::string_view kind = fields[0];
    if (kind == "arrive") {
      if (!parse_arrive(fields, spec, &seen_arrive, err)) return false;
    } else if (kind == "class") {
      if (!parse_class(fields, spec, err)) return false;
    } else if (kind == "admit") {
      if (!parse_admit(fields, spec, &seen_admit, err)) return false;
    } else if (kind == "meta") {
      if (!parse_meta(fields, spec, &seen_meta, err)) return false;
    } else if (kind == "policy") {
      if (seen_policy) return fail(err, "stream: duplicate policy segment");
      seen_policy = true;
      if (fields.size() != 2) return fail(err, "stream: policy takes exactly one value");
      const auto p = policy_by_name(std::string(fields[1]));
      if (!p) return fail(err, "stream: unknown policy " + quoted(fields[1]));
      spec->policy = *p;
    } else {
      return fail(err, "stream: unknown segment kind " + quoted(kind));
    }
  }
  if (!seen_arrive) return fail(err, "stream: missing arrive segment");
  if (spec->arrival == ArrivalKind::kPoisson && spec->n_jobs < 1) {
    return fail(err, "stream: poisson arrivals need jobs=<n>");
  }
  if (spec->classes.empty()) {
    return fail(err, "stream: at least one class segment required");
  }
  if (!spec->meta.profile.empty()) {
    // Checked after the loop so a meta segment may precede the class list.
    bool found = false;
    for (const ClassSpec& c : spec->classes) found = found || c.name == spec->meta.profile;
    if (!found) {
      return fail(err, "stream: meta profile names unknown class " +
                           quoted(spec->meta.profile));
    }
  }
  return true;
}

}  // namespace

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kFifo: return "fifo";
    case Policy::kFair: return "fair";
    case Policy::kCapacity: return "capacity";
  }
  return "?";
}

std::optional<Policy> policy_by_name(const std::string& name) {
  if (name == "fifo") return Policy::kFifo;
  if (name == "fair") return Policy::kFair;
  if (name == "capacity") return Policy::kCapacity;
  return std::nullopt;
}

const char* to_string(MetaPolicy p) {
  switch (p) {
    case MetaPolicy::kNone: return "none";
    case MetaPolicy::kStatic: return "static";
    case MetaPolicy::kOffline: return "offline";
    case MetaPolicy::kUcb: return "ucb";
    case MetaPolicy::kEgreedy: return "egreedy";
  }
  return "?";
}

std::optional<MetaPolicy> meta_policy_by_name(const std::string& name) {
  if (name == "none") return MetaPolicy::kNone;
  if (name == "static") return MetaPolicy::kStatic;
  if (name == "offline") return MetaPolicy::kOffline;
  if (name == "ucb") return MetaPolicy::kUcb;
  if (name == "egreedy") return MetaPolicy::kEgreedy;
  return std::nullopt;
}

std::optional<StreamSpec> StreamSpec::parse(const std::string& text,
                                            std::string* err) {
  StreamSpec spec;
  if (!parse_stream(text, &spec, err)) return std::nullopt;
  return spec;
}

std::string StreamSpec::to_string() const {
  std::string s = "arrive,";
  if (arrival == ArrivalKind::kPoisson) {
    s += "poisson,rate=" + lex::format_double(rate_hz) + ",jobs=" +
         std::to_string(n_jobs);
  } else {
    s += "trace,t=";
    for (std::size_t i = 0; i < trace_times_s.size(); ++i) {
      if (i > 0) s += ':';
      s += lex::format_double(trace_times_s[i]);
    }
  }
  for (const ClassSpec& c : classes) {
    s += ";class,name=" + c.name + ",wl=" + c.workload + ",mb=" +
         std::to_string(c.mb_min) + "-" + std::to_string(c.mb_max) +
         ",alpha=" + lex::format_double(c.alpha) +
         ",weight=" + lex::format_double(c.weight) +
         ",prio=" + std::to_string(c.priority) +
         ",share=" + lex::format_double(c.share) +
         ",deadline=" + lex::format_double(c.deadline_s) +
         ",mix=" + lex::format_double(c.mix);
  }
  if (max_active > 0) {
    s += ";admit,active=" + std::to_string(max_active) +
         ",queue=" + std::to_string(max_queue);
    if (job_retries > 0) s += ",retries=" + std::to_string(job_retries);
    if (retry_backoff_s != 5.0) s += ",backoff=" + lex::format_double(retry_backoff_s);
  }
  // Rendered only when enabled, so meta-free streams keep their canonical
  // text — and therefore every scenario fingerprint and pinned digest —
  // unchanged. Optional fields render only when explicitly set (the parse
  // sentinels survive the round trip).
  if (meta.enabled()) {
    s += ";meta,policy=";
    s += tenancy::to_string(meta.policy);
    if (meta.explore >= 0.0) s += ",explore=" + lex::format_double(meta.explore);
    if (meta.decay >= 0.0) s += ",decay=" + lex::format_double(meta.decay);
    if (meta.budget > 0) s += ",budget=" + std::to_string(meta.budget);
    if (!meta.pair.empty()) s += ",pair=" + meta.pair;
    if (!meta.profile.empty()) s += ",profile=" + meta.profile;
  }
  s += ";policy,";
  s += tenancy::to_string(policy);
  return s;
}

}  // namespace iosim::tenancy
