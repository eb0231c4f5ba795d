// Machine-readable batch reports: one JSON document and one CSV table per
// batch (cycles, GFLOP/s, state percentages, trace bytes, overhead,
// wall-clock, cache counters). Canonical mode omits the fields that
// legitimately vary between runs (wall-clock) or between worker counts
// (per-job cache-hit attribution), so two runs of the same batch produce
// byte-identical canonical reports — the determinism tests rely on it.
#pragma once

#include <string>

#include "common/json.hpp"
#include "runner/batch.hpp"

namespace hlsprof::runner {

/// The one per-job record: the object a report's "jobs" array holds, and
/// the "job" member of every progress event (progress.hpp). Written into
/// `w` as one JSON object; `canonical` omits cache_hit and wall_ms.
void write_job_json(JsonWriter& w, const JobResult& j, bool canonical = true);

/// Read a canonical record back: the exact inverse of write_job_json
/// (uint64 seed, hex design key, %.17g doubles); cache_hit and wall_ms,
/// if present, are ignored. Throws hlsprof::Error on a missing or
/// ill-typed member or an unknown status.
JobResult parse_job_json(const JsonValue& v);

struct ReportOptions {
  /// true: omit wall_ms, workers, and per-job cache_hit — every remaining
  /// byte is deterministic for a given batch + seed.
  bool canonical = false;
  /// Optional batch label recorded in the report header.
  std::string label;
};

std::string report_json(const BatchResult& result,
                        const ReportOptions& options = ReportOptions{});

/// One header line + one row per job; same field policy as the JSON.
std::string report_csv(const BatchResult& result,
                       const ReportOptions& options = ReportOptions{});

/// Write `<prefix>.json` and `<prefix>.csv`. Throws hlsprof::Error if a
/// file cannot be written. Returns the JSON path.
std::string write_report(const BatchResult& result, const std::string& prefix,
                         const ReportOptions& options = ReportOptions{});

/// Human-oriented fixed-width summary table (for CLI/bench stdout).
std::string summary_table(const BatchResult& result);

}  // namespace hlsprof::runner
