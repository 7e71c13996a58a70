// iosim: shared scaffolding for the deterministic structure-aware fuzzers.
//
// Each fuzzer is a plain executable (registered under the `fuzz` ctest
// label) that hammers one untrusted text surface — the scenario grammar,
// the fault-plan grammar, or json_parse + report ingestion. The design is
// deliberately deterministic: a fixed --seed and --budget reproduce the
// exact same mutation stream, so a CI failure is replayable locally with
// the two numbers printed in the failure banner. There is no coverage
// feedback; "structure-aware" comes from seeding the corpus with valid and
// adversarial documents and mutating with a grammar dictionary, which
// reaches far deeper into the parsers than random bytes would.
//
// Contract checked by every fuzzer, regardless of surface:
//   1. The parser never crashes, hangs, or trips ASan/UBSan — rejection
//      with a diagnostic is always acceptable.
//   2. Anything *accepted* must round-trip: to_string() re-parses, is
//      idempotent, and preserves the semantic identity (fingerprint).
//
// Corpus layout: one document per file under tests/fuzz/corpus/<surface>/;
// files are loaded in sorted name order so the run is independent of
// directory enumeration order. Regression entries for fuzzer-found bugs are
// prefixed `regress-` and replayed UNMUTATED before the mutation budget
// starts, so a fixed bug stays fixed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"
#include "sim/text.hpp"

namespace iosim::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t budget = 1500;   // number of mutated inputs to try
  std::string corpus_dir;        // required
  std::size_t max_len = 1 << 16; // inputs are clamped to this many bytes
};

inline int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --corpus DIR [--seed N] [--budget N] [--max-len N]\n",
               argv0);
  return 2;
}

/// Strict flag parsing, same convention as the iosim CLIs: unknown or
/// malformed flags return false and the caller exits 2 with usage.
inline bool parse_args(int argc, char** argv, FuzzOptions* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const char* v = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (a == "--corpus" && v != nullptr) {
      out->corpus_dir = v;
      ++i;
    } else if (a == "--seed" && v != nullptr) {
      if (!lex::parse_u64(v, &out->seed)) return false;
      ++i;
    } else if (a == "--budget" && v != nullptr) {
      if (!lex::parse_u64(v, &out->budget)) return false;
      ++i;
    } else if (a == "--max-len" && v != nullptr) {
      std::uint64_t n = 0;
      if (!lex::parse_u64(v, &n) || n == 0) return false;
      out->max_len = static_cast<std::size_t>(n);
      ++i;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: '%s'\n", argv[i]);
      return false;
    }
  }
  if (out->corpus_dir.empty()) {
    std::fprintf(stderr, "--corpus is required\n");
    return false;
  }
  return true;
}

struct CorpusEntry {
  std::string name;
  std::string text;
  bool regression = false;  // `regress-` prefix: replayed unmutated first
};

/// Load every regular file in `dir`, sorted by file name so the fuzz run is
/// deterministic regardless of readdir order.
inline std::vector<CorpusEntry> load_corpus(const std::string& dir) {
  std::vector<CorpusEntry> out;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    if (!de.is_regular_file()) continue;
    std::ifstream in(de.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string name = de.path().filename().string();
    out.push_back({name, ss.str(), name.rfind("regress-", 0) == 0});
  }
  std::sort(out.begin(), out.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) { return a.name < b.name; });
  return out;
}

/// Printable form of a fuzz input for the failure banner (escapes control
/// bytes, truncates long inputs — the seed/iteration pair is the real repro).
inline std::string escape_for_log(std::string_view s, std::size_t cap = 600) {
  std::string out;
  for (std::size_t i = 0; i < s.size() && out.size() < cap; ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c < 0x20 || c >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  if (out.size() >= cap) out += "...(truncated)";
  return out;
}

/// Seeded structure-aware mutator. Applies 1-4 byte- and token-level edits
/// per call; the dictionary carries the surface's grammar atoms (keywords,
/// separators, boundary numerals) so mutants exercise deep parser paths
/// instead of dying at the first byte.
class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> dictionary)
      : rng_(seed), dict_(std::move(dictionary)) {}

  std::string mutate(const std::string& base, const std::vector<CorpusEntry>& corpus,
                     std::size_t max_len) {
    std::string s = base;
    const int n_ops = static_cast<int>(rng_.range(1, 4));
    for (int i = 0; i < n_ops; ++i) apply_one(&s, corpus);
    if (s.size() > max_len) s.resize(max_len);
    return s;
  }

 private:
  void apply_one(std::string* s, const std::vector<CorpusEntry>& corpus) {
    switch (rng_.below(7)) {
      case 0: {  // flip one byte
        if (s->empty()) break;
        (*s)[rng_.below(s->size())] ^= static_cast<char>(1 + rng_.below(255));
        break;
      }
      case 1: {  // insert a random byte
        const std::size_t at = rng_.below(s->size() + 1);
        s->insert(at, 1, static_cast<char>(rng_.below(256)));
        break;
      }
      case 2: {  // delete a span
        if (s->empty()) break;
        const std::size_t at = rng_.below(s->size());
        const std::size_t len = 1 + rng_.below(std::min<std::size_t>(s->size() - at, 16));
        s->erase(at, len);
        break;
      }
      case 3: {  // duplicate a span (repetition stresses list/axis parsing)
        if (s->empty()) break;
        const std::size_t at = rng_.below(s->size());
        const std::size_t len = 1 + rng_.below(std::min<std::size_t>(s->size() - at, 32));
        const std::string span = s->substr(at, len);
        s->insert(rng_.below(s->size() + 1), span);
        break;
      }
      case 4: {  // insert a dictionary token
        if (dict_.empty()) break;
        const std::string& tok = dict_[rng_.below(dict_.size())];
        s->insert(rng_.below(s->size() + 1), tok);
        break;
      }
      case 5: {  // splice: our prefix + another corpus entry's suffix
        if (corpus.empty()) break;
        const std::string& other = corpus[rng_.below(corpus.size())].text;
        if (other.empty()) break;
        const std::size_t cut_a = rng_.below(s->size() + 1);
        const std::size_t cut_b = rng_.below(other.size());
        s->resize(cut_a);
        s->append(other, cut_b, std::string::npos);
        break;
      }
      default: {  // truncate
        if (s->empty()) break;
        s->resize(rng_.below(s->size()));
        break;
      }
    }
  }

  sim::Rng rng_;
  std::vector<std::string> dict_;
};

/// One fuzz campaign: replay regression entries unmutated, then spend the
/// mutation budget. `check` returns an empty string when the input upheld
/// the contract (parse rejection included) and a diagnostic otherwise.
template <typename CheckFn>
int run_campaign(const char* surface, const FuzzOptions& opt, const CheckFn& check,
                 std::vector<std::string> dictionary) {
  const std::vector<CorpusEntry> corpus = load_corpus(opt.corpus_dir);
  if (corpus.empty()) {
    std::fprintf(stderr, "%s: corpus dir '%s' is empty or unreadable\n", surface,
                 opt.corpus_dir.c_str());
    return 2;
  }
  for (const CorpusEntry& e : corpus) {
    const std::string why = check(e.text);
    if (!why.empty()) {
      std::fprintf(stderr,
                   "%s: corpus entry '%s' violates the contract: %s\n"
                   "input: %s\n",
                   surface, e.name.c_str(), why.c_str(),
                   escape_for_log(e.text).c_str());
      return 1;
    }
  }
  Mutator mut(opt.seed, std::move(dictionary));
  sim::Rng pick(sim::derive_run_seed(opt.seed, 0x5eed));
  for (std::uint64_t i = 0; i < opt.budget; ++i) {
    const std::string& base = corpus[pick.below(corpus.size())].text;
    const std::string input = mut.mutate(base, corpus, opt.max_len);
    const std::string why = check(input);
    if (!why.empty()) {
      std::fprintf(stderr,
                   "%s: contract violated at --seed %llu iteration %llu: %s\n"
                   "input: %s\n"
                   "replay: --seed %llu --budget %llu\n",
                   surface, static_cast<unsigned long long>(opt.seed),
                   static_cast<unsigned long long>(i), why.c_str(),
                   escape_for_log(input).c_str(),
                   static_cast<unsigned long long>(opt.seed),
                   static_cast<unsigned long long>(i + 1));
      return 1;
    }
  }
  std::printf("%s: %llu corpus entries + %llu mutants, contract held\n", surface,
              static_cast<unsigned long long>(corpus.size()),
              static_cast<unsigned long long>(opt.budget));
  return 0;
}

}  // namespace iosim::fuzz
