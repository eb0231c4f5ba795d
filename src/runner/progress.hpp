// The per-job progress event: one single-line JSON object per finished
// job, the only progress format in the tree. `hlsprof-run --progress`
// prints it on stdout (the shard coordinator's feed from its children:
// it merges each job from the event alone), and `hlsprof-serve` streams
// it to watch clients with the request "id" added. Schema (docs/LIVE.md):
//
//   {"event":"progress","done":2,"jobs":3,"job":{<job record>},
//    "cycles":231072,"state_cycles":[1024,1700000,0,147552],"bytes":98304}
//
// "job" is the canonical job record (report.hpp write_job_json), the
// same object a canonical report's "jobs" array holds. After it come
// three trace totals that report rows do not carry: `cycles` is the job's
// timeline duration, `state_cycles` the cycles all threads spent idle /
// running / critical / spinning, and `bytes` the DRAM bytes read +
// written per the trace — exact integers, so totals folded from events
// (live::LiveTotals) lose nothing. All three are 0 when profiling was
// off.
#pragma once

#include <string>
#include <string_view>

#include "common/json.hpp"
#include "runner/job.hpp"

namespace hlsprof::runner {

struct ProgressEvent {
  int done = 0;  // jobs finished so far, this one included
  int jobs = 0;  // jobs in the run
  JobResult job;
};

/// Write the event's members into an already open JSON object, so a
/// wrapper (the serve protocol) can add its own members around them.
void write_progress_event(JsonWriter& w, const JobResult& job, int done,
                          int jobs);

/// The event as one JSON line (no trailing newline).
std::string format_progress_event(const JobResult& job, int done, int jobs);

/// Read an event back. Throws hlsprof::Error on malformed JSON (the
/// message carries json_parse's byte offset), on a missing or ill-typed
/// member, or when "event" is not "progress".
ProgressEvent parse_progress_event(const JsonValue& v);
ProgressEvent parse_progress_event(std::string_view line);

}  // namespace hlsprof::runner
