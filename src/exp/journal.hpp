// iosim: crash-safe run journal for sweep resume.
//
// An append-only JSONL file next to the BENCH output: one fsynced header
// line identifying the sweep (name, canonical-spec fingerprint, base seed,
// repeats, matrix size, schema version) followed by one fsynced record per
// finished run (run_index, seed, ok/error, attempts, wall time, metrics).
// Because every record is flushed through the kernel before the executor
// moves on, a SIGKILL / power cut / OOM at any instant loses at most the
// line being written — and the reader tolerates exactly that: a truncated
// *last* line is ignored, while corruption anywhere else (or a header that
// does not match the spec being resumed) rejects the journal outright.
//
// `iosim-sweep --resume` replays the journal's ok records into their
// run_index slots, re-executes only the missing runs, and re-aggregates —
// metrics round-trip losslessly (format_double -> json_parse), so the final
// BENCH JSON is byte-identical to an uninterrupted sweep.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/executor.hpp"
#include "exp/scenario.hpp"

namespace iosim::exp {

/// Journal schema version (bumped on any incompatible record change).
inline constexpr int kJournalFormat = 1;

/// Identity of the sweep a journal belongs to. A resume only replays a
/// journal whose header matches the spec being run — the fingerprint hashes
/// the canonical result-determining spec text (axes, seeds, budgets; not
/// wall-clock-only knobs like timeout), so changing anything that could
/// change results invalidates old journals.
struct JournalHeader {
  std::string name;
  std::uint64_t spec_fingerprint = 0;
  std::uint64_t base_seed = 0;
  int repeats = 0;
  std::uint64_t n_runs = 0;

  bool operator==(const JournalHeader&) const = default;
};

/// The header describing `spec`'s full run matrix.
JournalHeader journal_header_for(const ScenarioSpec& spec);

/// Append-side of the journal. Opened once per sweep; append() is called
/// from the executor's serialized progress callback, so no internal
/// locking is needed.
class RunJournal {
 public:
  RunJournal() = default;
  RunJournal(RunJournal&& o) noexcept : path_(std::move(o.path_)), fd_(o.fd_) {
    o.fd_ = -1;
  }
  RunJournal& operator=(RunJournal&& o) noexcept {
    if (this != &o) {
      close();
      path_ = std::move(o.path_);
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;
  ~RunJournal() { close(); }

  /// Open `path` for appending; an empty or fresh file gets the fsynced
  /// header line first. (Resuming callers read_journal() first and pass the
  /// same path — records then append after the existing tail.)
  static std::optional<RunJournal> open(const std::string& path,
                                        const JournalHeader& header,
                                        std::string* error = nullptr);

  /// Append one finished run as a JSONL record and fsync it. False + errno
  /// diagnostic on any write failure (disk-full surfaces here, not at the
  /// end of the sweep).
  bool append(const RunTask& task, const RunOutput& out, double wall_seconds,
              std::string* error = nullptr);

  const std::string& path() const { return path_; }

  void close();

 private:
  bool write_line(const std::string& line, std::string* error);

  std::string path_;
  int fd_ = -1;
};

/// What a journal replay recovered.
struct JournalReplay {
  JournalHeader header;
  /// Successful runs only, indexed by run_index, sized header.n_runs.
  /// Failed journal records leave their slot empty — a resume re-executes
  /// them (an infra failure may succeed on the retry; a deterministic one
  /// fails the sweep again, which is the honest outcome).
  std::vector<std::optional<RunOutput>> outputs;
  std::size_t n_ok = 0;
  std::size_t n_failed = 0;
  /// The file ended mid-record (the writer was killed inside a line). The
  /// partial line is ignored; that run re-executes.
  bool truncated_tail = false;
};

/// Replay `path` for a resume of the matrix described by `expect`/`tasks`.
/// Rejects (nullopt + diagnostic): unreadable file, corrupt non-final line,
/// header mismatch, out-of-range run_index, or a record whose seed differs
/// from the matrix seed (a different base_seed produced it).
std::optional<JournalReplay> read_journal(const std::string& path,
                                          const JournalHeader& expect,
                                          const std::vector<RunTask>& tasks,
                                          std::string* error = nullptr);

}  // namespace iosim::exp
