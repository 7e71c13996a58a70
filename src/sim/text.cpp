#include "sim/text.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace iosim::lex {

namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// from_chars over the whole of `s`: no leading whitespace, no '+', no
/// trailing characters, no out-of-range value.
template <class T>
bool parse_whole(std::string_view s, T* out) {
  T v{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || s.empty()) return false;
  *out = v;
  return true;
}

}  // namespace

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto at = s.find(sep);
    out.push_back(s.substr(0, at));
    if (at == std::string_view::npos) return out;
    s.remove_prefix(at + 1);
  }
}

std::optional<KeyValue> split_key_value(std::string_view field) {
  const auto eq = field.find('=');
  if (eq == std::string_view::npos) return std::nullopt;
  return KeyValue{field.substr(0, eq), field.substr(eq + 1)};
}

bool LineReader::next() {
  while (!rest_.empty()) {
    const auto nl = rest_.find('\n');
    std::string_view line = rest_.substr(0, nl);
    rest_ = nl == std::string_view::npos ? std::string_view{} : rest_.substr(nl + 1);
    ++number_;
    line = trim(line.substr(0, line.find('#')));
    if (!line.empty()) {
      line_ = line;
      return true;
    }
  }
  return false;
}

bool parse_i64(std::string_view s, std::int64_t* out) { return parse_whole(s, out); }
bool parse_int(std::string_view s, int* out) { return parse_whole(s, out); }
bool parse_u64(std::string_view s, std::uint64_t* out) { return parse_whole(s, out); }

bool parse_double(std::string_view s, double* out) {
  double v = 0.0;
  if (!parse_whole(s, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::string format_double(double v) {
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace iosim::lex
