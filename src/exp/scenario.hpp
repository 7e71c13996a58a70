// iosim: declarative scenario sweeps for the experiment engine.
//
// A ScenarioSpec declares the axes of an experiment — scheduler pair,
// workload, cluster shape, data size, fault plan, model tunables — plus a
// base seed and a repeat count. Its cross product expands into a
// deterministic run matrix: point index = nested-loop order over the axes
// (workload outermost, tune innermost), run index = point index * repeats
// + repeat, and every run's seed is sim::derive_run_seed(base_seed,
// run_index), so streams are pairwise independent and results are
// byte-stable regardless of execution order or worker count.
// (seed_mode=repeat switches the derivation to the repeat index alone —
// shared seeds across points, for paired A/B axes.)
//
// Spec grammar (same style as fault_plan: flat text, all-or-nothing parse,
// one-line diagnostics, the lexer rules of sim/text.hpp: finite numbers,
// unsigned values without a sign). One `key=value` per line; `#` starts a
// comment; blank lines are skipped; a duplicate key other than `expect` is
// an error:
//
//   name=fig7a            identifier used for BENCH_<name>.json
//   mode=run|adapt|sysbench|switchcost|finegrained
//                         run: one job per point with the fixed pair
//                         adapt: full meta-scheduler pipeline per point;
//                         the only mode that takes a job chain
//                         finegrained: per run, the job booted at pair
//                         with the per-host fine-grained controller
//                         attached, then the same job left at pair
//                         sysbench: one sysbench seqwr run per point (Fig.
//                         1): vms writers on one host, mb MB each
//                         switchcost: per point the dd switch-cost row of
//                         its pair (Fig. 5): T(pair) alone, then switched
//                         to each of the 16 pairs at half of the mb MB
//                         per VM. Both are single-host microbenchmarks:
//                         they require hosts=1, reject a non-empty fault=,
//                         tune=, stream=, stream_policy= or meta= axis, ignore
//                         workload (at most one value; the point label
//                         leaves it out) and seed the host with each run's
//                         seed directly
//   base_seed=N           root of the per-run seed derivation (default 1)
//   repeats=N             seeds per scenario point (default 3)
//   seed_mode=run|repeat  run (default): every run in the matrix gets its
//                         own seed (pairwise-independent samples). repeat:
//                         the seed derives from the repeat index only, so
//                         every point sees the *same* repeats seeds —
//                         paired comparisons across an axis (e.g. the
//                         meta= policies) measure the policy, not the
//                         arrival-process draw
//   pair=cc,ad,...        two-letter pair codes (VMM then guest), or all16
//   workload=sort,...     sort | wordcount|wc | wc-nocombiner|wcnc, or a
//                         `+`-joined chain of them (wc+sort+wcnc: the jobs
//                         run back to back on one cluster, mode=adapt only)
//   hosts=3,4             physical hosts
//   vms=2,4,6             VMs per host
//   mb=256,512            input MB per data node
//   fault=none|SPEC       fault-plan alternatives separated by `|` (the
//                         plan grammar itself uses `,` and `;`); `none` is
//                         the fault-free cluster
//   stream=none|SPEC      multi-job stream alternatives separated by `|`
//                         (the stream grammar uses `,` and `;`); `none` is
//                         the classic one-job-per-run point. A stream point
//                         ignores the workload/mb axes (its classes carry
//                         their own) and requires mode=run, as do
//                         stream_policy= and meta=
//   stream_policy=fifo,.. slot-policy alternatives (fifo|fair|capacity)
//                         applied on top of each stream's own policy; omit
//                         to keep what the stream spec says
//   meta=none|BODY        meta-scheduling policy alternatives separated by
//                         `|`; each BODY is a stream-grammar meta segment
//                         without the leading "meta," (e.g.
//                         `policy=ucb,explore=2`), appended to every stream
//                         alternative. `none` keeps the stream's own meta
//                         segment (if any). Requires a stream= axis
//   tune=none|LIST        model-tunable alternatives separated by `|`; each
//                         LIST is `;`-joined name=value settings from the
//                         table in exp/tune.hpp, each name at most once
//                         (e.g. `ring_slots=8;ncq_depth=32`); `none` is the
//                         model's defaults. meta.phases needs mode=adapt;
//                         mapred.speculate takes no stream= axis
//   timeout=SECONDS       per-run wall-clock watchdog (0 = off, default).
//                         Wall-clock only: it never changes simulated
//                         results, so it is excluded from the resume
//                         fingerprint and may differ between the original
//                         sweep and its --resume.
//   max_events=N          event-loop budget per simulation (0 = off); a
//                         livelocked run fails deterministically once it
//                         executes N events
//   max_sim_seconds=S     simulated-time budget per simulation (0 = off)
//   expect=[per AXIS[,AXIS]:] TERM (<|<=) TERM     a paper claim, judged
//     after the runs (repeatable; like timeout, not in the fingerprint).
//     TERM = [NUMBER *] METRIC[FILTER] or [NUMBER *] min|max|mean(METRIC[FILTER]),
//     FILTER = [AXIS=VALUE[|VALUE...],...]; AXIS is a spec axis or vmm/guest
//     (a letter of pair); VALUE matches exactly, on fault/stream/meta/tune as a
//     prefix (`none` = empty). Each `per` group is checked alone. A bare term
//     selects one point; min/max the point with the extreme mean; mean
//     averages the points per repeat. With d_r = rhs_r - lhs_r, a check
//     fails when mean(d) is on the wrong side of 0, holds when d's Student-t
//     95% CI is above 0, and is within noise otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/tune.hpp"
#include "fault/fault_plan.hpp"
#include "iosched/pair.hpp"
#include "tenancy/stream_spec.hpp"

namespace iosim::exp {

enum class RunMode : std::uint8_t {
  kRun = 0,         // one plain job execution per run
  kAdapt = 1,       // full meta-scheduler pipeline (profile + search + final run)
  kSysbench = 2,    // one sysbench seqwr run on a single host (Fig. 1)
  kSwitchcost = 3,  // one switch-cost row on a single host (Fig. 5)
  kFinegrained = 4, // fine-grained controller vs the same boot pair left alone
};

/// The single-host microbenchmark modes, which ignore the cluster axes.
inline bool is_single_host(RunMode m) {
  return m == RunMode::kSysbench || m == RunMode::kSwitchcost;
}

const char* to_string(RunMode m);

/// One cell of the expanded cross product.
struct ScenarioPoint {
  RunMode mode = RunMode::kRun;
  iosched::SchedulerPair pair;  // kRun: the fixed pair; kAdapt: the boot/default pair;
                                // kFinegrained: the pair both runs boot with
  std::string workload = "sort";  // canonical names, `+`-joined for a chain;
                                  // empty for a single-host mode (no job)
  int hosts = 4;
  int vms = 4;
  std::int64_t mb = 512;
  fault::FaultPlan faults;
  std::string fault_text;  // original spec text ("" = fault-free)
  /// Multi-job stream for this point; meaningful only when stream_text is
  /// non-empty (stream_policy, when set, is already folded into it).
  tenancy::StreamSpec stream;
  std::string stream_text;    // original spec text ("" = single-job point)
  std::string stream_policy;  // policy override ("" = stream's own)
  /// Meta-axis segment body folded into `stream.meta` ("" = the stream's
  /// own meta segment, possibly none).
  std::string meta_text;
  /// Model tunables the materializer applies (empty = the model's defaults).
  TuneList tune;
  /// Event-loop budgets copied from the spec (0 = unlimited); the runner
  /// installs them as the simulation's SimBudget.
  std::uint64_t max_events = 0;
  double max_sim_seconds = 0.0;

  /// Stable human id of the point: "sort h4 v4 512MB (c,c)" plus the fault
  /// and tune text when present; "sysbench v3 1024MB (c,c)" for a
  /// single-host mode.
  /// Unique within one spec's expansion.
  std::string label() const;
};

/// One side of an `expect` line: factor * [reducer](metric[filter]).
struct ExpectTerm {
  enum class Reduce : std::uint8_t { kNone, kMin, kMax, kMean };
  Reduce reduce = Reduce::kNone;
  double factor = 1.0;
  std::string metric;
  std::vector<std::pair<std::string, std::vector<std::string>>> filter;  // axis, values
};

/// One `expect` line: lhs < rhs (or <=) within each group of the `per` axes.
struct Expectation {
  std::vector<std::string> per;
  ExpectTerm lhs, rhs;
  bool or_equal = false;  // `<=`

  std::string to_string() const;
};

struct ScenarioSpec {
  std::string name = "sweep";
  RunMode mode = RunMode::kRun;
  std::uint64_t base_seed = 1;
  int repeats = 3;
  /// seed_mode=repeat: derive each run's seed from the repeat index alone,
  /// so all points share one seed set and cross-point comparisons are
  /// paired (fig7_online's `expect` checks rely on this).
  bool paired_seeds = false;
  std::vector<iosched::SchedulerPair> pairs{iosched::kDefaultPair};
  std::vector<std::string> workloads{"sort"};
  std::vector<int> hosts{4};
  std::vector<int> vms{4};
  std::vector<std::int64_t> mb{512};
  /// Parsed fault alternatives, paired with their original text. One entry
  /// with an empty plan = the fault-free default.
  std::vector<std::pair<fault::FaultPlan, std::string>> faults{{{}, ""}};
  /// Stream alternatives, same shape as faults: one empty-text entry = the
  /// classic single-job sweep.
  std::vector<std::pair<tenancy::StreamSpec, std::string>> streams{{{}, ""}};
  /// Slot-policy overrides crossed against the stream axis ("" = keep the
  /// stream spec's policy). Only meaningful for stream points.
  std::vector<std::string> stream_policies{""};
  /// Meta-scheduling policy alternatives crossed against the stream axis:
  /// meta-segment bodies ("" = keep the stream spec's meta segment).
  std::vector<std::string> metas{""};
  /// Model-tunable alternatives; one empty list = the model's defaults.
  std::vector<TuneList> tunes{TuneList{}};
  /// Per-run wall-clock watchdog in seconds (0 = disabled). Wall-clock
  /// only — never affects simulated results.
  double timeout_seconds = 0.0;
  /// Per-simulation progress sentinel (0 = unlimited); these DO affect
  /// results (a tripped budget fails the run deterministically), so they
  /// participate in the resume fingerprint.
  std::uint64_t max_events = 0;
  double max_sim_seconds = 0.0;
  /// Paper claims judged after the runs; not part of the fingerprint.
  std::vector<Expectation> expects;

  /// Parse a whole spec file. All-or-nothing: any malformed line fails the
  /// parse and `error` (when non-null) gets a one-line diagnostic with the
  /// 1-based line number.
  static std::optional<ScenarioSpec> parse(std::string_view text,
                                           std::string* error = nullptr);

  /// Apply one `key=value` assignment (the parser's line handler; also used
  /// for `--set` command-line overrides, where last-wins replaces the
  /// duplicate-key check). False + diagnostic on an unknown key / bad value.
  bool apply(std::string_view key, std::string_view value, std::string* error = nullptr);

  /// The cross product, in deterministic nested-loop order: workload,
  /// hosts, vms, mb, pair, fault, stream, stream_policy, meta, tune.
  std::vector<ScenarioPoint> expand() const;

  std::size_t n_points() const {
    return workloads.size() * hosts.size() * vms.size() * mb.size() * pairs.size() *
           faults.size() * streams.size() * stream_policies.size() * metas.size() *
           tunes.size();
  }
  std::size_t n_runs() const { return n_points() * static_cast<std::size_t>(repeats); }

  /// Matrix-size sanity check: the point cross product must stay within
  /// kMaxPoints, the run count with repeats within kMaxRuns, checks x points
  /// within kMaxCheckedPoints, and every `expect` must resolve. Each axis value is
  /// individually bounded, but six unbounded list *lengths* multiply —
  /// without this check a hostile or typo'd spec can overflow size_t in
  /// n_points() or OOM-abort in expand()'s reserve. Called by parse();
  /// callers that mutate axes afterwards (--set) must re-validate.
  bool validate(std::string* error = nullptr) const;

  static constexpr std::size_t kMaxPoints = 1'000'000;
  static constexpr std::size_t kMaxRuns = 10'000'000;
  static constexpr std::size_t kMaxCheckedPoints = 100'000;

  /// Canonical spec text (round-trips through parse).
  std::string to_string() const;

  /// FNV-1a hash of the canonical *result-determining* spec text — the
  /// identity a run journal records. Everything that could change simulated
  /// outputs participates (name, mode, seeds, repeats, axes, fault plans,
  /// event/sim-time budgets); wall-clock-only knobs (timeout) do not, so a
  /// resume may raise the watchdog without invalidating the journal.
  std::uint64_t fingerprint() const;
};

/// One scheduled simulation of the run matrix.
struct RunTask {
  std::size_t run_index = 0;    // global, dense: point_index * repeats + repeat
  std::size_t point_index = 0;  // into the expand() vector
  int repeat = 0;
  std::uint64_t seed = 0;  // derive_run_seed(base_seed, run_index)
};

/// The full run matrix for a spec's expansion, in run_index order.
std::vector<RunTask> build_run_matrix(const ScenarioSpec& spec);

/// One `expect` line on one `per` group: the expand() indices each term selects.
struct ResolvedCheck {
  std::size_t expect = 0;  // index into spec.expects
  std::string group;       // "workload=sort" ("" without `per`)
  std::vector<std::size_t> lhs, rhs;
};

/// Every check over the spec's expand() points, by expect then group (first
/// appearance). nullopt + diagnostic when a filter value matches no point or
/// a term selects no point (a bare term: not exactly one) in a group.
std::optional<std::vector<ResolvedCheck>> resolve_checks(
    const ScenarioSpec& spec, const std::vector<ScenarioPoint>& points,
    std::string* error = nullptr);

}  // namespace iosim::exp
