// iosim: self-contained HTML report over a trace export + BENCH files.
//
// render_report() consumes the machine-readable surfaces the rest of the
// harness already writes — the Chrome-trace JSON (Tracer::to_json, with the
// attribution summary instants Attribution::export_to_trace pins onto
// "obs/..." tracks) and any number of BENCH JSON files (flat bench_util
// reports or sweep-engine point files) — and renders one dependency-free
// HTML document: header accounting (dropped trace events, attribution
// record counts, stall totals), a per-key latency waterfall (lane shares as
// pure-CSS bars), per-phase percentile breakdowns, the stall log with its
// "who was ahead" queue snapshots, and one table per BENCH file (plus a
// verdict table when a sweep BENCH carries `expect` checks).
//
// Determinism: the renderer walks the parsed documents in file order, all
// latency arithmetic is integer (ns in, fixed-point strings out), and BENCH
// numbers are reproduced from their raw JSON tokens — same input bytes,
// same output bytes, so reports can be digest-pinned like the trace itself.
#pragma once

#include <string>
#include <vector>

namespace iosim::exp {

struct ReportBench {
  /// Label shown above the table (typically the file name).
  std::string label;
  /// Raw BENCH JSON text.
  std::string text;
};

struct ReportOptions {
  std::string title = "iosim report";
};

/// Render the HTML report. `trace_json` may be empty (BENCH-only report).
/// Returns the document, or an empty string with a one-line diagnostic in
/// `error` when an input fails to parse.
std::string render_report(const std::string& trace_json,
                          const std::vector<ReportBench>& benches,
                          const ReportOptions& opt, std::string* error = nullptr);

}  // namespace iosim::exp
