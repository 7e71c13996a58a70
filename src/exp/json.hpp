// iosim: minimal deterministic JSON writer.
//
// Used for every machine-readable result file (BENCH_*.json): the
// experiment engine's aggregates and the per-bench --json reports. The
// writer is append-only (no DOM), keys keep insertion order, and doubles
// are formatted with the shortest "%.g" precision that round-trips — the
// same value always prints the same bytes, so two runs that compute
// identical numbers produce byte-identical files (the property the
// determinism-under-parallelism tests compare with cmp).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/text.hpp"

namespace iosim::exp {

class JsonWriter {
 public:
  JsonWriter& obj_begin() {
    comma();
    out_ += '{';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& obj_end() {
    out_ += '}';
    stack_.pop_back();
    mark_value();
    return *this;
  }
  JsonWriter& arr_begin() {
    comma();
    out_ += '[';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& arr_end() {
    out_ += ']';
    stack_.pop_back();
    mark_value();
    return *this;
  }

  JsonWriter& key(std::string_view k) {
    comma();
    append_string(k);
    out_ += ':';
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    comma();
    append_string(s);
    mark_value();
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v) {
    comma();
    out_ += format_double(v);
    mark_value();
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    mark_value();
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    mark_value();
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    mark_value();
    return *this;
  }

  /// key + scalar in one call.
  template <class T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

  /// Shortest decimal that round-trips to exactly `v` (lex::format_double).
  /// Non-finite values have no JSON encoding; emit null (never produced by
  /// the deterministic simulator, but the writer must not emit invalid JSON
  /// either way).
  static std::string format_double(double v) {
    return std::isfinite(v) ? lex::format_double(v) : "null";
  }

 private:
  void comma() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!stack_.empty() && stack_.back()) out_ += ',';
  }
  void mark_value() {
    if (!stack_.empty()) stack_.back() = true;
  }
  void append_string(std::string_view s) {
    out_ += '"';
    lex::append_json_escaped(out_, s);
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> stack_;  // per open container: "has at least one element"
  bool pending_key_ = false;
};

}  // namespace iosim::exp
