#include "fault/fault_plan.hpp"

#include <cmath>
#include <set>

#include "sim/text.hpp"

namespace iosim::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kTransientError: return "transient";
    case FaultKind::kLatentSector: return "lse";
    case FaultKind::kFailSlow: return "failslow";
    case FaultKind::kVmOutage: return "vmdown";
    case FaultKind::kSwitchFail: return "switchfail";
    case FaultKind::kSwitchDelay: return "switchdelay";
    case FaultKind::kVmCrash: return "vmcrash";
    case FaultKind::kHostCrash: return "hostcrash";
  }
  return "?";
}

namespace {

void set_error(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
}

bool parse_seconds(std::string_view v, sim::Time* out) {
  double secs = 0.0;
  // Time stores int64 nanoseconds, which overflows past ~9.22e9 s; beyond
  // that from_sec_f would be UB. 9.2e9 s ≈ 291 years keeps room for large
  // "never fires" sentinels (tests use from=9e9) while staying in range.
  if (!lex::parse_double(v, &secs) || secs < 0.0 || secs > 9.2e9) return false;
  *out = sim::Time::from_sec_f(secs);
  return true;
}

/// Seconds text that parses back to exactly `t`. Past ~4e6 s the double
/// nearest t/1e9 can round to a neighbouring nanosecond in from_sec_f, so
/// step to the adjacent double that lands on `t` (one step always does).
std::string seconds_text(sim::Time t) {
  double s = t.sec();
  for (int i = 0; i < 4 && sim::Time::from_sec_f(s) != t; ++i) {
    s = std::nextafter(s, sim::Time::from_sec_f(s) < t ? HUGE_VAL : -HUGE_VAL);
  }
  return lex::format_double(s);
}

}  // namespace

std::optional<FaultSpec> FaultPlan::parse_spec(std::string_view text,
                                               std::string* error) {
  text = lex::trim(text);
  const auto colon = text.find(':');
  const std::string_view kind_name = lex::trim(text.substr(0, colon));

  FaultSpec s;
  if (kind_name == "transient") {
    s.kind = FaultKind::kTransientError;
  } else if (kind_name == "lse") {
    s.kind = FaultKind::kLatentSector;
  } else if (kind_name == "failslow") {
    s.kind = FaultKind::kFailSlow;
  } else if (kind_name == "vmdown") {
    s.kind = FaultKind::kVmOutage;
  } else if (kind_name == "vmcrash") {
    s.kind = FaultKind::kVmCrash;
  } else if (kind_name == "hostcrash") {
    s.kind = FaultKind::kHostCrash;
  } else if (kind_name == "switchfail") {
    s.kind = FaultKind::kSwitchFail;
  } else if (kind_name == "switchdelay") {
    s.kind = FaultKind::kSwitchDelay;
  } else {
    set_error(error, "unknown fault kind '" + std::string(kind_name) + "'");
    return std::nullopt;
  }

  bool saw_lba = false, saw_p = false, saw_factor = false, saw_delay = false;
  std::set<std::string_view> seen_keys;
  const std::string_view fields = colon == std::string_view::npos
                                      ? std::string_view{}
                                      : text.substr(colon + 1);
  for (const std::string_view field : lex::split(fields, ',')) {
    const std::string_view kv = lex::trim(field);
    if (kv.empty()) continue;
    const auto parts = lex::split_key_value(kv);
    if (!parts) {
      set_error(error, "expected key=value, got '" + std::string(kv) + "'");
      return std::nullopt;
    }
    const std::string_view key = parts->key;
    const std::string_view val = parts->value;

    // Silent last-wins on a repeated key hides typos in long plans; reject,
    // matching the ScenarioSpec grammar's all-or-nothing contract.
    if (!seen_keys.insert(key).second) {
      set_error(error, "duplicate key '" + std::string(key) + "' in '" +
                           std::string(text) + "'");
      return std::nullopt;
    }

    auto bad_value = [&] {
      set_error(error, "bad value for '" + std::string(key) + "': '" +
                           std::string(val) + "'");
      return std::nullopt;
    };
    const bool disk_fault = s.kind == FaultKind::kTransientError ||
                            s.kind == FaultKind::kLatentSector ||
                            s.kind == FaultKind::kFailSlow;

    if (key == "from") {
      if (!parse_seconds(val, &s.from)) return bad_value();
    } else if (key == "until") {
      if (s.kind == FaultKind::kVmCrash || s.kind == FaultKind::kHostCrash) {
        set_error(error, "key 'until' does not apply to '" +
                             std::string(kind_name) +
                             "' (crashes are permanent, nothing restarts)");
        return std::nullopt;
      }
      if (!parse_seconds(val, &s.until)) return bad_value();
    } else if (key == "host" && disk_fault) {
      std::int64_t h = 0;
      if (!lex::parse_i64(val, &h) || h < -1) return bad_value();
      s.host = static_cast<int>(h);
    } else if (key == "host" && s.kind == FaultKind::kHostCrash) {
      std::int64_t h = 0;
      if (!lex::parse_i64(val, &h) || h < 0) return bad_value();
      s.host = static_cast<int>(h);
    } else if (key == "vm" && (s.kind == FaultKind::kVmOutage ||
                               s.kind == FaultKind::kVmCrash)) {
      std::int64_t v = 0;
      if (!lex::parse_i64(val, &v) || v < 0) return bad_value();
      s.vm = static_cast<int>(v);
    } else if (key == "p" && (s.kind == FaultKind::kTransientError ||
                              s.kind == FaultKind::kSwitchFail)) {
      if (!lex::parse_double(val, &s.probability) || s.probability < 0.0 ||
          s.probability > 1.0) {
        return bad_value();
      }
      saw_p = true;
    } else if (key == "factor" && s.kind == FaultKind::kFailSlow) {
      if (!lex::parse_double(val, &s.factor) || s.factor < 1.0) return bad_value();
      saw_factor = true;
    } else if (key == "delay" && s.kind == FaultKind::kSwitchDelay) {
      if (!parse_seconds(val, &s.delay)) return bad_value();
      saw_delay = true;
    } else if (key == "lba" && s.kind == FaultKind::kLatentSector) {
      const auto dash = val.find('-');
      std::int64_t a = 0, b = 0;
      if (dash == std::string_view::npos || !lex::parse_i64(val.substr(0, dash), &a) ||
          !lex::parse_i64(val.substr(dash + 1), &b) || a < 0 || b <= a) {
        return bad_value();
      }
      s.lba_begin = a;
      s.lba_end = b;
      saw_lba = true;
    } else {
      set_error(error, "key '" + std::string(key) + "' does not apply to '" +
                           std::string(kind_name) + "'");
      return std::nullopt;
    }
  }

  if (s.until <= s.from) {
    set_error(error, "empty window: until <= from in '" + std::string(text) + "'");
    return std::nullopt;
  }
  if (s.kind == FaultKind::kLatentSector && !saw_lba) {
    set_error(error, "lse requires lba=A-B");
    return std::nullopt;
  }
  if (s.kind == FaultKind::kFailSlow && !saw_factor) {
    set_error(error, "failslow requires factor=F");
    return std::nullopt;
  }
  if (s.kind == FaultKind::kSwitchDelay && !saw_delay) {
    set_error(error, "switchdelay requires delay=S");
    return std::nullopt;
  }
  if (s.kind == FaultKind::kVmOutage && s.vm < 0) {
    set_error(error, "vmdown requires vm=V");
    return std::nullopt;
  }
  if (s.kind == FaultKind::kVmCrash && s.vm < 0) {
    set_error(error, "vmcrash requires vm=V");
    return std::nullopt;
  }
  if (s.kind == FaultKind::kHostCrash && s.host < 0) {
    set_error(error, "hostcrash requires host=H");
    return std::nullopt;
  }
  if (s.kind == FaultKind::kTransientError && !saw_p) {
    set_error(error, "transient requires p=P");
    return std::nullopt;
  }
  if (s.kind == FaultKind::kSwitchFail && !saw_p) {
    set_error(error, "switchfail requires p=P");
    return std::nullopt;
  }
  return s;
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view text,
                                          std::string* error) {
  FaultPlan plan;
  std::vector<int> spec_line;  // line each accepted spec came from
  lex::LineReader lines(text);
  while (lines.next()) {
    const int line_no = lines.number();
    for (const std::string_view piece : lex::split(lines.line(), ';')) {
      const std::string_view item = lex::trim(piece);
      if (item.empty()) continue;
      std::string err;
      auto spec = parse_spec(item, &err);
      if (!spec.has_value()) {
        set_error(error, "line " + std::to_string(line_no) + ": " + err);
        return std::nullopt;
      }
      // Overlapping latent-sector ranges on hosts that can collide (equal,
      // or either side targets every host) would make error attribution
      // ambiguous and almost always indicate a typo'd plan — reject even if
      // the time windows differ (windows can drift during tuning; the LBA
      // map should stay disjoint regardless).
      if (spec->kind == FaultKind::kLatentSector) {
        for (std::size_t i = 0; i < plan.specs.size(); ++i) {
          const FaultSpec& prev = plan.specs[i];
          if (prev.kind != FaultKind::kLatentSector) continue;
          const bool hosts_collide =
              prev.host == spec->host || prev.host == -1 || spec->host == -1;
          const bool lba_overlap =
              spec->lba_begin < prev.lba_end && prev.lba_begin < spec->lba_end;
          if (hosts_collide && lba_overlap) {
            set_error(error,
                      "line " + std::to_string(line_no) + ": lse lba=" +
                          std::to_string(spec->lba_begin) + "-" +
                          std::to_string(spec->lba_end) +
                          " overlaps the lse from line " +
                          std::to_string(spec_line[i]) + " (lba=" +
                          std::to_string(prev.lba_begin) + "-" +
                          std::to_string(prev.lba_end) + ")");
            return std::nullopt;
          }
        }
      }
      // A vmdown with a finite `until` is a restart order for that VM. A
      // vmcrash whose death instant is at or before the restart makes the
      // order unfulfillable — crashed hardware does not come back — and a
      // plan that says both is a typo. Checked in both directions, since
      // the two specs can appear in either order.
      for (std::size_t i = 0; i < plan.specs.size(); ++i) {
        const FaultSpec& prev = plan.specs[i];
        const FaultSpec* outage = nullptr;
        const FaultSpec* crash = nullptr;
        if (spec->kind == FaultKind::kVmOutage &&
            prev.kind == FaultKind::kVmCrash) {
          outage = &*spec;
          crash = &prev;
        } else if (spec->kind == FaultKind::kVmCrash &&
                   prev.kind == FaultKind::kVmOutage) {
          outage = &prev;
          crash = &*spec;
        } else {
          continue;
        }
        if (outage->vm != crash->vm) continue;
        if (outage->until == sim::Time::max()) continue;  // no restart ordered
        if (crash->from > outage->until) continue;        // crash comes later
        const int outage_line = (outage == &prev) ? spec_line[i] : line_no;
        const int crash_line = (crash == &prev) ? spec_line[i] : line_no;
        set_error(error, "line " + std::to_string(outage_line) +
                             ": vmdown:vm=" + std::to_string(outage->vm) +
                             " schedules a restart at until=" +
                             std::to_string(outage->until.sec()) +
                             "s, but the vmcrash from line " +
                             std::to_string(crash_line) +
                             " has already killed vm" +
                             std::to_string(crash->vm) + " for good");
        return std::nullopt;
      }
      plan.specs.push_back(*spec);
      spec_line.push_back(line_no);
    }
  }
  return plan;
}

std::string FaultSpec::to_string() const {
  std::string out = fault::to_string(kind);
  switch (kind) {
    case FaultKind::kTransientError:
      out += ":host=" + std::to_string(host) + ",p=" + lex::format_double(probability);
      break;
    case FaultKind::kLatentSector:
      out += ":host=" + std::to_string(host) + ",lba=" + std::to_string(lba_begin) +
             "-" + std::to_string(lba_end);
      break;
    case FaultKind::kFailSlow:
      out += ":host=" + std::to_string(host) + ",factor=" + lex::format_double(factor);
      break;
    case FaultKind::kVmOutage:
    case FaultKind::kVmCrash:
      out += ":vm=" + std::to_string(vm);
      break;
    case FaultKind::kHostCrash:
      out += ":host=" + std::to_string(host);
      break;
    case FaultKind::kSwitchFail:
      out += ":p=" + lex::format_double(probability);
      break;
    case FaultKind::kSwitchDelay:
      out += ":delay=" + seconds_text(delay);
      break;
  }
  if (from > sim::Time::zero()) out += ",from=" + seconds_text(from);
  if (until < sim::Time::max()) out += ",until=" + seconds_text(until);
  return out;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& s : specs) {
    if (!out.empty()) out += ';';
    out += s.to_string();
  }
  return out;
}

}  // namespace iosim::fault
