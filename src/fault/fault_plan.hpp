// iosim: declarative fault plans.
//
// A FaultPlan is a list of timed / probabilistic fault specifications that a
// FaultInjector replays against the simulator clock. Plans are plain data:
// they can be built in code, parsed from the `--fault` command-line syntax,
// or loaded from a file, and the same plan + the same seed always reproduces
// the same faults (the injector draws from its own deterministic RNG).
//
// Spec grammar (one spec = `kind:key=value,key=value,...`; a plan is a list
// of specs separated by `;` or newlines, `#` starts a comment):
//
//   transient:host=H,p=P[,from=S,until=S]   probabilistic bio errors on
//                                           host H's disk (H=-1: all hosts)
//   lse:host=H,lba=A-B[,from=S,until=S]     latent sector errors: any I/O
//                                           touching [A,B) fails
//   failslow:host=H,factor=F[,from=S,until=S]
//                                           service times multiplied by F
//   vmdown:vm=V,from=S,until=S              whole-DomU outage (global VM id)
//   vmcrash:vm=V[,from=S]                   permanent VM death — no restart,
//                                           so `until` does not apply
//   hostcrash:host=H[,from=S]               permanent death of every VM on
//                                           physical host H (no restart)
//   switchfail:p=P[,from=S,until=S]         elevator-switch commands fail
//   switchdelay:delay=S[,from=S,until=S]    switch commands land S s late
//
// Numbers follow the lexer rules of sim/text.hpp (finite, strict integers;
// whitespace around specs and fields is trimmed). Times are (fractional)
// seconds of simulated time; windows are [from, until). `until` defaults to forever, `from` to 0. Crash kinds are
// permanent by construction; a plan that schedules a vmdown restart (a
// finite `until`) for a VM that a vmcrash has already killed by that time
// is rejected at parse with both line numbers — restarts cannot resurrect
// crashed hardware.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "disk/disk_model.hpp"
#include "sim/time.hpp"

namespace iosim::fault {

enum class FaultKind : std::uint8_t {
  kTransientError = 0,  // probabilistic bio failure at the disk
  kLatentSector = 1,    // persistent error on an LBA range
  kFailSlow = 2,        // service-time inflation (fail-slow disk)
  kVmOutage = 3,        // DomU down for a window, then restarted
  kSwitchFail = 4,      // elevator-switch command fails outright
  kSwitchDelay = 5,     // elevator-switch command lands late
  kVmCrash = 6,         // permanent DomU death (never restarts)
  kHostCrash = 7,       // permanent death of every VM on one host
};

const char* to_string(FaultKind k);

/// One fault specification. Fields without meaning for a kind keep their
/// defaults (the parser rejects keys that do not apply).
struct FaultSpec {
  FaultKind kind = FaultKind::kTransientError;
  int host = -1;  // disk faults / kHostCrash: target host; -1 = every host
  int vm = -1;    // kVmOutage / kVmCrash: global VM id
  sim::Time from = sim::Time::zero();    // window start (inclusive)
  sim::Time until = sim::Time::max();    // window end (exclusive)
  double probability = 1.0;              // kTransientError / kSwitchFail
  double factor = 1.0;                   // kFailSlow multiplier (> 1)
  disk::Lba lba_begin = 0;               // kLatentSector range [begin, end)
  disk::Lba lba_end = 0;
  sim::Time delay = sim::Time::zero();   // kSwitchDelay latency

  bool active_at(sim::Time t) const { return t >= from && t < until; }
  bool operator==(const FaultSpec&) const = default;
  /// Canonical text: parse_spec(to_string()) reproduces every field.
  std::string to_string() const;
};

struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }

  /// Parse one spec. On failure returns nullopt and, when `error` is
  /// non-null, stores a one-line diagnostic naming the offending token.
  static std::optional<FaultSpec> parse_spec(std::string_view text,
                                             std::string* error = nullptr);

  /// Parse a `;`/newline-separated spec list (empty entries and `#` comment
  /// lines are skipped). All-or-nothing: any malformed spec fails the whole
  /// parse.
  static std::optional<FaultPlan> parse(std::string_view text,
                                        std::string* error = nullptr);

  std::string to_string() const;
};

}  // namespace iosim::fault
