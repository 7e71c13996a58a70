#include "exp/scenario.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "exp/artifact.hpp"
#include "sim/random.hpp"
#include "sim/text.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::exp {

namespace {

/// Split on `sep`, trimming each piece; empty pieces are errors (a stray
/// trailing comma silently shrinking an axis would corrupt the matrix).
bool split_list(std::string_view v, char sep, std::vector<std::string>* out,
                std::string* error) {
  out->clear();
  for (const std::string_view piece : lex::split(v, sep)) {
    const std::string_view item = lex::trim(piece);
    if (item.empty()) {
      if (error) *error = "empty list element";
      return false;
    }
    out->emplace_back(item);
  }
  return true;
}

bool parse_pos_int(std::string_view v, int* out) {
  int x;
  if (!lex::parse_int(v, &x) || x < 1 || x > 1'000'000) return false;
  *out = x;
  return true;
}

/// Non-negative decimal seconds (0 disables the knob it configures).
bool parse_seconds(std::string_view v, double* out) {
  double x;
  if (!lex::parse_double(v, &x) || x < 0.0 || x > 1e9) return false;
  *out = x;
  return true;
}

/// One axis: `value` split on `sep`, each item parsed by `parse`, which
/// returns nullopt after writing why to its second argument; the diagnostic
/// is "bad KEY 'ITEM': why". On the `|`-separated axes, whose items' own
/// grammars use `,` and `;`, `none` is the default item. All-or-nothing.
template <class T, class Parse>
bool parse_axis(std::string_view key, std::string_view value, char sep, Parse parse,
                std::vector<T>* out, std::string* error) {
  std::vector<std::string> items;
  std::string err;
  if (!split_list(value, sep, &items, &err)) {
    if (error) *error = err + " in " + std::string(key);
    return false;
  }
  std::vector<T> parsed;
  for (const auto& it : items) {
    auto x = sep == '|' && it == "none" ? std::optional<T>(T{}) : parse(it, &err);
    if (!x) {
      if (error) *error = "bad " + std::string(key) + " '" + it + "': " + err;
      return false;
    }
    parsed.push_back(std::move(*x));
  }
  *out = std::move(parsed);
  return true;
}

/// `xs` rendered by `render` and joined by `sep`.
template <class T, class Render>
std::string join(const std::vector<T>& xs, const char* sep, Render render) {
  std::string s;
  for (std::size_t i = 0; i < xs.size(); ++i) s += (i ? sep : "") + render(xs[i]);
  return s;
}

/// The axes an `expect` filter or `per` clause may name: expand()'s nested
/// loop order, then vmm and guest, the two letters of pair.
constexpr std::string_view kCheckAxes[] = {"workload", "hosts", "vms",    "mb",
                                           "pair",     "fault", "stream", "stream_policy",
                                           "meta",     "tune",  "vmm",    "guest"};
using Coordinates = std::array<std::string, std::size(kCheckAxes)>;
constexpr const char* kReducers[] = {"", "min(", "max(", "mean("};
constexpr std::string_view kMetricChars =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";

/// The canonical name of a workload or of a `+`-joined chain of them
/// ("wc+sort" -> "wordcount+sort"); nullopt when a part names no workload.
std::optional<std::string> canonical_workload(std::string_view v) {
  std::string out;
  for (const std::string_view part : lex::split(v, '+')) {
    const auto model = workloads::by_name(std::string(lex::trim(part)));
    if (!model) return std::nullopt;
    out += (out.empty() ? "" : "+") + model->name;
  }
  return out;
}

int axis_index(std::string_view axis) {
  const auto* it = std::find(std::begin(kCheckAxes), std::end(kCheckAxes), axis);
  return it == std::end(kCheckAxes) ? -1 : static_cast<int>(it - std::begin(kCheckAxes));
}

bool parse_term(std::string_view t, ExpectTerm* out, std::string* error) {
  std::string_view rest = lex::trim(t);
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg + " in term '" + std::string(lex::trim(t)) + "'";
    return false;
  };
  // Values reject the operator characters, so the first one is the operator.
  if (const auto star = rest.find('*'); star != std::string_view::npos) {
    const std::string_view num = lex::trim(rest.substr(0, star));
    if (!lex::parse_double(num, &out->factor) || out->factor <= 0.0) {
      return fail("bad factor '" + std::string(num) + "' (finite, > 0)");
    }
    rest = lex::trim(rest.substr(star + 1));
  }
  for (int r = 1; r <= 3; ++r) {
    const std::string_view open = kReducers[r];
    if (rest.rfind(open, 0) == 0 && rest.back() == ')') {
      out->reduce = static_cast<ExpectTerm::Reduce>(r);
      rest = lex::trim(rest.substr(open.size(), rest.size() - open.size() - 1));
      break;
    }
  }
  const std::size_t bracket = rest.find('[');
  out->metric = std::string(lex::trim(rest.substr(0, bracket)));
  if (out->metric.empty() || out->metric.find_first_not_of(kMetricChars) != std::string::npos) {
    return fail("bad metric '" + out->metric + "'");
  }
  if (bracket == std::string_view::npos) return true;
  const std::string_view filter = rest.substr(bracket + 1, rest.size() - bracket - 2);
  if (rest.back() != ']' || filter.find_first_of("[]()<*") != std::string_view::npos) {
    return fail("bad filter");
  }
  for (const std::string_view entry : lex::split(filter, ',')) {
    const auto kv = lex::split_key_value(entry);
    const std::string axis(kv ? lex::trim(kv->key) : "");
    if (axis_index(axis) < 0) return fail("unknown axis '" + axis + "'");
    auto& values = out->filter.emplace_back(axis, std::vector<std::string>{}).second;
    std::string lerr;
    if (!split_list(kv->value, '|', &values, &lerr)) return fail(lerr);
    for (auto& v : values) {
      const auto name = canonical_workload(v);
      if (name && axis == "workload") v = *name;
    }
  }
  return true;
}

std::string term_to_string(const ExpectTerm& t) {
  std::string s = t.factor == 1.0 ? "" : lex::format_double(t.factor) + " * ";
  s += kReducers[static_cast<int>(t.reduce)] + t.metric;
  for (std::size_t i = 0; i < t.filter.size(); ++i) {
    s += (i ? "," : "[") + t.filter[i].first + "=";
    for (std::size_t j = 0; j < t.filter[i].second.size(); ++j) {
      s += (j ? "|" : "") + t.filter[i].second[j];
    }
  }
  return s + (t.filter.empty() ? "" : "]") +
         (t.reduce == ExpectTerm::Reduce::kNone ? "" : ")");
}

/// A point's value on every check axis, in kCheckAxes order.
Coordinates coordinates(const ScenarioPoint& p) {
  const auto text = [](const std::string& x) { return x.empty() ? "none" : x; };
  const std::string l = p.pair.letters();
  return {p.workload, std::to_string(p.hosts), std::to_string(p.vms), std::to_string(p.mb), l,
          text(p.fault_text), text(p.stream_text), text(p.stream_policy), text(p.meta_text),
          text(p.tune.to_string()), l.substr(0, 1), l.substr(1)};
}

/// Whether filter value `w` selects coordinates `c` on `axis`: exactly, or
/// on the text axes (fault, stream, meta, tune) by prefix.
bool matches(const Coordinates& c, const std::string& axis, const std::string& w) {
  const int k = axis_index(axis);
  return c[k] == w ||
         ((k == 5 || k == 6 || k == 8 || k == 9) && c[k] != "none" && c[k].rfind(w, 0) == 0);
}

}  // namespace

std::string Expectation::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < per.size(); ++i) s += (i ? "," : "per ") + per[i];
  if (!per.empty()) s += ": ";
  return s + term_to_string(lhs) + (or_equal ? " <= " : " < ") + term_to_string(rhs);
}

const char* to_string(RunMode m) {
  constexpr const char* kNames[] = {"run", "adapt", "sysbench", "switchcost", "finegrained"};
  return kNames[static_cast<int>(m)];
}

std::string ScenarioPoint::label() const {
  std::string s =
      is_single_host(mode) ? exp::to_string(mode) : workload + " h" + std::to_string(hosts);
  s += " v" + std::to_string(vms);
  s += " " + std::to_string(mb) + "MB";
  s += " (" + std::string(1, iosched::to_letter(pair.vmm)) + "," +
       std::string(1, iosched::to_letter(pair.guest)) + ")";
  if (!fault_text.empty()) s += " fault=" + fault_text;
  if (!stream_text.empty()) s += " stream=" + stream_text;
  if (!stream_policy.empty()) s += " policy=" + stream_policy;
  if (!meta_text.empty()) s += " meta=" + meta_text;
  if (!tune.empty()) s += " tune=" + tune.to_string();
  return s;
}

bool ScenarioSpec::apply(std::string_view key, std::string_view value,
                         std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  key = lex::trim(key);
  value = lex::trim(value);
  if (value.empty()) return fail("empty value for '" + std::string(key) + "'");

  if (key == "name") {
    name = std::string(value);
    return true;
  }
  if (key == "mode") {
    for (const RunMode m : {RunMode::kRun, RunMode::kAdapt, RunMode::kSysbench,
                            RunMode::kSwitchcost, RunMode::kFinegrained}) {
      if (value == exp::to_string(m)) {
        mode = m;
        return true;
      }
    }
    return fail("bad mode '" + std::string(value) +
                "' (run|adapt|sysbench|switchcost|finegrained)");
  }
  if (key == "base_seed") {
    if (!lex::parse_u64(value, &base_seed)) {
      return fail("bad base_seed '" + std::string(value) + "'");
    }
    return true;
  }
  if (key == "seed_mode") {
    if (value == "run") {
      paired_seeds = false;
    } else if (value == "repeat") {
      paired_seeds = true;
    } else {
      return fail("bad seed_mode '" + std::string(value) + "' (run|repeat)");
    }
    return true;
  }
  if (key == "repeats") {
    int r;
    if (!parse_pos_int(value, &r) || r > 10'000) {
      return fail("bad repeats '" + std::string(value) + "' (1..10000)");
    }
    repeats = r;
    return true;
  }
  if (key == "pair" && (value == "all16" || value == "all")) {
    const auto all = iosched::all_scheduler_pairs();
    pairs.assign(all.begin(), all.end());
    return true;
  }
  if (key == "pair") {
    return parse_axis(key, value, ',', [](const std::string& it, std::string* e) {
      *e = "two of n/d/a/c, or all16";
      return iosched::SchedulerPair::from_letters(it);
    }, &pairs, error);
  }
  if (key == "workload") {
    // Canonical names: "wc" and "wordcount" collide.
    return parse_axis(key, value, ',', [](const std::string& it, std::string* e) {
      *e = "unknown workload";
      return canonical_workload(it);
    }, &workloads, error);
  }
  if (key == "hosts" || key == "vms") {
    return parse_axis(key, value, ',', [](const std::string& it, std::string* e) {
      int x = 0;
      *e = "1..1024";
      return parse_pos_int(it, &x) && x <= 1024 ? std::optional(x) : std::nullopt;
    }, key == "hosts" ? &hosts : &vms, error);
  }
  if (key == "mb") {
    return parse_axis(key, value, ',', [](const std::string& it, std::string* e) {
      std::int64_t x = 0;
      *e = "1..1073741824";
      return lex::parse_i64(it, &x) && x >= 1 && x <= (std::int64_t{1} << 30) ? std::optional(x)
                                                                               : std::nullopt;
    }, &mb, error);
  }
  if (key == "timeout") {
    double s;
    if (!parse_seconds(value, &s)) {
      return fail("bad timeout '" + std::string(value) + "' (seconds, >= 0)");
    }
    timeout_seconds = s;
    return true;
  }
  if (key == "max_events") {
    if (!lex::parse_u64(value, &max_events)) {
      return fail("bad max_events '" + std::string(value) + "'");
    }
    return true;
  }
  if (key == "max_sim_seconds") {
    double s;
    if (!parse_seconds(value, &s)) {
      return fail("bad max_sim_seconds '" + std::string(value) + "' (seconds, >= 0)");
    }
    max_sim_seconds = s;
    return true;
  }
  if (key == "expect") {
    Expectation e;
    std::string lerr;
    if (value.rfind("per ", 0) == 0) {
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos) return fail("expected ':' after the per axes");
      if (!split_list(value.substr(4, colon - 4), ',', &e.per, &lerr)) return fail(lerr);
      for (const auto& axis : e.per) {
        if (axis_index(axis) < 0 || std::count(e.per.begin(), e.per.end(), axis) > 1) {
          return fail("bad per axis '" + axis + "'");
        }
      }
      value = value.substr(colon + 1);
    }
    const std::size_t lt = value.find('<');
    if (lt == std::string_view::npos) return fail("expected TERM < TERM or TERM <= TERM");
    e.or_equal = lt + 1 < value.size() && value[lt + 1] == '=';
    const std::string_view rhs = value.substr(lt + (e.or_equal ? 2 : 1));
    if (rhs.find('<') != std::string_view::npos) return fail("more than one comparison");
    if (!parse_term(value.substr(0, lt), &e.lhs, error) || !parse_term(rhs, &e.rhs, error)) {
      return false;
    }
    expects.push_back(std::move(e));
    return true;
  }
  if (key == "fault") {
    return parse_axis(key, value, '|', [](const std::string& it, std::string* e) {
      const auto plan = fault::FaultPlan::parse(it, e);
      return plan ? std::optional(std::pair(*plan, it)) : std::nullopt;
    }, &faults, error);
  }
  if (key == "stream") {
    return parse_axis(key, value, '|', [](const std::string& it, std::string* e) {
      const auto st = tenancy::StreamSpec::parse(it, e);
      return st ? std::optional(std::pair(*st, it)) : std::nullopt;
    }, &streams, error);
  }
  if (key == "stream_policy") {
    return parse_axis(key, value, ',', [](const std::string& it, std::string* e) {
      *e = "fifo|fair|capacity";
      return tenancy::policy_by_name(it) ? std::optional(it) : std::nullopt;
    }, &stream_policies, error);
  }
  if (key == "meta") {
    // Meta-segment bodies; validate() checks each against the stream axis
    // it folds into.
    return parse_axis(key, value, '|', [](const std::string& it, std::string* e) {
      *e = "expected none or a meta segment body starting with policy=";
      return it.rfind("policy=", 0) == 0 ? std::optional(it) : std::nullopt;
    }, &metas, error);
  }
  if (key == "tune") return parse_axis(key, value, '|', &TuneList::parse, &tunes, error);
  return fail("unknown key '" + std::string(key) + "'");
}

std::optional<ScenarioSpec> ScenarioSpec::parse(std::string_view text,
                                                std::string* error) {
  ScenarioSpec spec;
  std::set<std::string_view> seen;
  lex::LineReader lines(text);
  while (lines.next()) {
    const auto line_error = [&](const std::string& msg) {
      if (error) *error = "line " + std::to_string(lines.number()) + ": " + msg;
      return std::nullopt;
    };
    const auto kv = lex::split_key_value(lines.line());
    if (!kv) {
      return line_error("expected key=value, got '" + std::string(lines.line()) + "'");
    }
    const std::string_view key = lex::trim(kv->key);
    if (key != "expect" && !seen.insert(key).second) {
      return line_error("duplicate key '" + std::string(key) + "'");
    }
    std::string err;
    if (!spec.apply(key, kv->value, &err)) return line_error(err);
  }
  {
    std::string err;
    if (!spec.validate(&err)) {
      if (error) *error = err;
      return std::nullopt;
    }
  }
  return spec;
}

bool ScenarioSpec::validate(std::string* error) const {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  // Overflow-safe product: bail as soon as the running product can no
  // longer stay under the cap (axis sizes are never 0 — split_list rejects
  // empty elements and the defaults are non-empty).
  const bool any_stream = [&] {
    for (const auto& st : streams) {
      if (!st.second.empty()) return true;
    }
    return false;
  }();
  const bool any_meta = [&] {
    for (const auto& m : metas) {
      if (!m.empty()) return true;
    }
    return false;
  }();
  const bool any_stream_policy = !(stream_policies.size() == 1 && stream_policies[0].empty());
  const std::string in_mode = "mode=" + std::string(exp::to_string(mode));
  if (mode != RunMode::kAdapt) {
    for (const auto& w : workloads) {
      if (w.find('+') != std::string::npos) {
        return fail("workload '" + w + "' is a job chain, which only mode=adapt runs, not " +
                    in_mode);
      }
    }
  }
  if (is_single_host(mode)) {
    // A microbenchmark on one PhysicalHost: no cluster, no job, no stream.
    const bool any_fault = std::any_of(faults.begin(), faults.end(),
                                       [](const auto& f) { return !f.second.empty(); });
    if (hosts != std::vector<int>{1}) {
      return fail(in_mode + " requires hosts=1 (one physical host)");
    }
    if (workloads.size() > 1) return fail(in_mode + " ignores workload; give at most one");
    if (any_fault) return fail(in_mode + " takes no fault= axis");
    if (tunes.size() > 1 || !tunes[0].empty()) return fail(in_mode + " takes no tune= axis");
  }
  for (const auto& tune : tunes) {
    for (const auto& [t, v] : tune.settings) {
      if (t->plan && mode != RunMode::kAdapt) {
        return fail("tune " + std::string(t->name) + " needs mode=adapt, not " + in_mode);
      }
      if (t->job && any_stream) {
        return fail("tune " + std::string(t->name) + " does not apply to stream= points");
      }
    }
  }
  if (mode != RunMode::kRun) {
    // Every other mode runs one job (or one chain) per run, or none.
    if (any_stream) return fail(in_mode + " takes no stream= axis (streams require mode=run)");
    if (any_stream_policy) return fail(in_mode + " takes no stream_policy= axis");
    if (any_meta) return fail(in_mode + " takes no meta= axis");
  }
  if (!any_stream && any_stream_policy) {
    return fail("stream_policy= without a stream= axis");
  }
  if (!any_stream && any_meta) {
    return fail("meta= without a stream= axis");
  }
  // Every (stream, meta) fold must parse: the body is appended to the
  // stream text as a `;meta,...` segment, so the stream parser validates it
  // in context (policy names, pair codes, profile class references).
  for (const auto& m : metas) {
    if (m.empty()) continue;
    for (const auto& st : streams) {
      if (st.second.empty()) continue;
      std::string serr;
      if (!tenancy::StreamSpec::parse(st.second + ";meta," + m, &serr)) {
        return fail("bad meta '" + m + "' for stream '" + st.second +
                    "': " + serr);
      }
    }
  }
  std::size_t points = 1;
  for (const std::size_t n : {workloads.size(), hosts.size(), vms.size(), mb.size(),
                              pairs.size(), faults.size(), streams.size(),
                              stream_policies.size(), metas.size(), tunes.size()}) {
    if (n == 0) return fail("empty axis");
    if (points > kMaxPoints / n) {
      return fail("scenario cross product exceeds " + std::to_string(kMaxPoints) +
                  " points");
    }
    points *= n;
  }
  if (points > kMaxRuns / static_cast<std::size_t>(repeats)) {
    return fail("scenario matrix exceeds " + std::to_string(kMaxRuns) +
                " runs (points x repeats)");
  }
  if (expects.empty()) return true;
  if (expects.size() > kMaxCheckedPoints / points) {
    return fail("scenario checks x points exceed " + std::to_string(kMaxCheckedPoints));
  }
  return resolve_checks(*this, expand(), error).has_value();
}

std::vector<ScenarioPoint> ScenarioSpec::expand() const {
  std::vector<ScenarioPoint> out;
  out.reserve(n_points());
  for (const auto& w : workloads) {
    for (int h : hosts) {
      for (int v : vms) {
        for (std::int64_t m : mb) {
          for (const auto& p : pairs) {
            for (const auto& f : faults) {
              for (const auto& st : streams) {
                for (const auto& pol : stream_policies) {
                  for (const auto& mt : metas) {
                    ScenarioPoint pt;
                    pt.mode = mode;
                    pt.pair = p;
                    // A single-host mode runs no MapReduce job.
                    pt.workload = is_single_host(mode) ? "" : w;
                    pt.hosts = h;
                    pt.vms = v;
                    pt.mb = m;
                    pt.faults = f.first;
                    pt.fault_text = f.second;
                    pt.stream = st.first;
                    pt.stream_text = st.second;
                    if (!st.second.empty() && !mt.empty()) {
                      // Re-parse the fold (validate() proved it parses) so
                      // the meta segment lands with full context checks.
                      pt.stream =
                          *tenancy::StreamSpec::parse(st.second + ";meta," + mt);
                      pt.meta_text = mt;
                    }
                    if (!st.second.empty() && !pol.empty()) {
                      pt.stream_policy = pol;
                      pt.stream.policy = *tenancy::policy_by_name(pol);
                    }
                    pt.max_events = max_events;
                    pt.max_sim_seconds = max_sim_seconds;
                    for (const auto& tn : tunes) {
                      pt.tune = tn;
                      out.push_back(pt);
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::string ScenarioSpec::to_string() const {
  std::string s;
  s += "name=" + name + "\n";
  s += "mode=" + std::string(exp::to_string(mode)) + "\n";
  s += "base_seed=" + std::to_string(base_seed) + "\n";
  s += "repeats=" + std::to_string(repeats) + "\n";
  // Rendered only when non-default: pre-existing specs keep their
  // fingerprint (and resumability) bit for bit.
  if (paired_seeds) s += "seed_mode=repeat\n";
  const auto text = [](const std::string& x) { return x.empty() ? std::string("none") : x; };
  const auto decimal = [](auto x) { return std::to_string(x); };
  s += "pair=" + join(pairs, ",", [](const auto& p) { return p.letters(); });
  s += "\nworkload=" + join(workloads, ",", text);
  s += "\nhosts=" + join(hosts, ",", decimal);
  s += "\nvms=" + join(vms, ",", decimal);
  s += "\nmb=" + join(mb, ",", decimal);
  s += "\nfault=" + join(faults, "|", [&](const auto& f) { return text(f.second); }) + "\n";
  // The later axes render only when set, so specs without them keep their
  // canonical text — and therefore their journal fingerprints — unchanged.
  if (!(streams.size() == 1 && streams[0].second.empty())) {
    s += "stream=" + join(streams, "|", [&](const auto& st) { return text(st.second); }) + "\n";
  }
  if (!(stream_policies.size() == 1 && stream_policies[0].empty())) {
    s += "stream_policy=" + join(stream_policies, ",", text) + "\n";
  }
  if (!(metas.size() == 1 && metas[0].empty())) s += "meta=" + join(metas, "|", text) + "\n";
  if (!(tunes.size() == 1 && tunes[0].empty())) {
    s += "tune=" + join(tunes, "|", [&](const TuneList& t) { return text(t.to_string()); }) + "\n";
  }
  s += "max_events=" + std::to_string(max_events) + "\n";
  s += "max_sim_seconds=" + lex::format_double(max_sim_seconds) + "\n";
  s += "timeout=" + lex::format_double(timeout_seconds) + "\n";
  for (const auto& e : expects) s += "expect=" + e.to_string() + "\n";
  return s;
}

std::uint64_t ScenarioSpec::fingerprint() const {
  // Canonical text minus the lines that never change a result. to_string()
  // deliberately renders `timeout=` and then the `expect=` lines last, so
  // the result-determining prefix is a clean cut.
  std::string s = to_string();
  s.resize(s.find("\ntimeout=") + 1);
  return fnv1a64(s);
}

std::vector<RunTask> build_run_matrix(const ScenarioSpec& spec) {
  std::vector<RunTask> tasks;
  tasks.reserve(spec.n_runs());
  const std::size_t points = spec.n_points();
  for (std::size_t p = 0; p < points; ++p) {
    for (int r = 0; r < spec.repeats; ++r) {
      RunTask t;
      t.point_index = p;
      t.repeat = r;
      t.run_index = p * static_cast<std::size_t>(spec.repeats) +
                    static_cast<std::size_t>(r);
      t.seed = sim::derive_run_seed(
          spec.base_seed,
          spec.paired_seeds ? static_cast<std::size_t>(r) : t.run_index);
      tasks.push_back(t);
    }
  }
  return tasks;
}

std::optional<std::vector<ResolvedCheck>> resolve_checks(
    const ScenarioSpec& spec, const std::vector<ScenarioPoint>& points, std::string* error) {
  std::vector<ResolvedCheck> out;
  if (spec.expects.empty()) return out;
  std::vector<Coordinates> at;
  for (const auto& p : points) at.push_back(coordinates(p));
  const auto selects = [](const ExpectTerm& term, const Coordinates& c) {
    return std::all_of(term.filter.begin(), term.filter.end(), [&](const auto& f) {
      return std::any_of(f.second.begin(), f.second.end(),
                         [&](const std::string& w) { return matches(c, f.first, w); });
    });
  };
  for (std::size_t ei = 0; ei < spec.expects.size(); ++ei) {
    const Expectation& e = spec.expects[ei];
    const auto fail = [&](const std::string& msg) {
      if (error) *error = "expect '" + e.to_string() + "': " + msg;
      return std::nullopt;
    };
    for (const ExpectTerm* term : {&e.lhs, &e.rhs}) {
      for (const auto& [axis, wanted] : term->filter) {
        for (const auto& w : wanted) {
          const auto has = [&](const auto& c) { return matches(c, axis, w); };
          if (std::none_of(at.begin(), at.end(), has)) {
            return fail("no point has " + axis + "=" + w);
          }
        }
      }
    }
    std::map<std::string, std::size_t> group_of;  // label -> index into out
    const std::size_t first = out.size();
    for (std::size_t p = 0; p < at.size(); ++p) {
      std::string label;
      for (const auto& axis : e.per) {
        label += (label.empty() ? "" : " ") + axis + "=" + at[p][axis_index(axis)];
      }
      const auto it = group_of.emplace(label, out.size()).first;
      if (it->second == out.size()) out.push_back({ei, label, {}, {}});
      if (selects(e.lhs, at[p])) out[it->second].lhs.push_back(p);
      if (selects(e.rhs, at[p])) out[it->second].rhs.push_back(p);
    }
    for (std::size_t c = first; c < out.size(); ++c) {
      for (const auto& [term, n] : {std::pair{&e.lhs, out[c].lhs.size()},
                                    std::pair{&e.rhs, out[c].rhs.size()}}) {
        const bool bare = term->reduce == ExpectTerm::Reduce::kNone;
        if (n == 0 || (bare && n != 1)) {
          return fail("'" + term_to_string(*term) + "' selects " + std::to_string(n) +
                      " points" + (out[c].group.empty() ? "" : " in " + out[c].group) +
                      (bare ? " (a bare term needs exactly 1)" : ""));
        }
      }
    }
  }
  return out;
}

}  // namespace iosim::exp
