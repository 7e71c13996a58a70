// iosim: the one strict lexer under every text grammar and CLI.
//
// The scenario, fault-plan and job-stream grammars and every command-line
// tool tokenize and read numbers through these helpers. The rules they
// enforce (whitespace, finite numbers, strict integers, canonical double
// text) are stated once in DESIGN.md §7, "One strict lexer for every text
// surface". Range bounds, required keys, duplicate-key checks and error
// wording stay with each grammar. The one JSON string escaper, which every
// writer shares, lives here too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iosim::lex {

/// `s` without leading and trailing spaces, tabs and CRs.
std::string_view trim(std::string_view s);

/// The pieces of `s` between `sep`s, untrimmed; empty pieces are kept (an
/// empty `s` is one empty piece).
std::vector<std::string_view> split(std::string_view s, char sep);

struct KeyValue {
  std::string_view key;
  std::string_view value;
};

/// Splits `field` at its first '='; nullopt when it has none. No trimming.
std::optional<KeyValue> split_key_value(std::string_view field);

/// Walks the lines of a text with `#` comments. next() strips the comment
/// and surrounding whitespace and skips lines left blank.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  /// Advances to the next non-blank line; false at the end of the text.
  bool next();
  /// The current line: comment stripped, trimmed, never empty.
  std::string_view line() const { return line_; }
  /// 1-based number of the current line in the text.
  int number() const { return number_; }

 private:
  std::string_view rest_;
  std::string_view line_;
  int number_ = 0;
};

/// Strict whole-token integers: digits, with a leading '-' only on signed
/// types; no '+', no "2.0" or "1e1", out-of-range input fails. On failure
/// `*out` is untouched.
bool parse_i64(std::string_view s, std::int64_t* out);
bool parse_int(std::string_view s, int* out);
bool parse_u64(std::string_view s, std::uint64_t* out);

/// Strict whole-token double; "nan", "inf" and overflowing literals fail.
/// On failure `*out` is untouched.
bool parse_double(std::string_view s, double* out);

/// The shortest of 15, 16 or 17 significant digits ("%.*g") that parses
/// back to exactly `v` (finite), so canonical text round-trips.
std::string format_double(double v);

/// Appends `s` escaped as the body of a JSON string (no quotes): quote,
/// backslash, \n, \t and \r get short escapes, other control characters
/// \u00XX. The trace and BENCH writers both emit strings through it.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace iosim::lex
