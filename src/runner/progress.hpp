// The per-job progress event: one single-line JSON object per finished
// job, the only progress format in the tree. `hlsprof-run --progress`
// prints it on stdout (the shard coordinator's feed from its children),
// and `hlsprof-serve` streams it to watch clients with the request "id"
// added. Schema (docs/LIVE.md):
//
//   {"event":"progress","done":2,"jobs":3,"index":1,"status":"ok",
//    "name":"pi.steps=4000","cycles":231072,"threads":8,
//    "state_cycles":[1024,1700000,0,147552],"bytes":98304}
//
// `cycles` is the job's timeline duration, `state_cycles` the cycles all
// threads spent idle / running / critical / spinning, and `bytes` the
// DRAM bytes read + written per the trace — exact integers, so totals
// folded from events (live::LiveTotals) lose nothing. All three are 0
// when profiling was off.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "runner/job.hpp"

namespace hlsprof::runner {

struct ProgressEvent {
  int done = 0;  // jobs finished so far, this one included
  int jobs = 0;  // jobs in the run
  int index = -1;
  std::string status;
  std::string name;
  std::uint64_t cycles = 0;
  int threads = 0;
  std::array<std::uint64_t, 4> state_cycles{};
  std::uint64_t bytes = 0;

  static ProgressEvent of(const JobResult& job, int done, int jobs);
};

/// Write the event's members into an already open JSON object, so a
/// wrapper (the serve protocol) can add its own members around them.
void write_progress_event(JsonWriter& w, const ProgressEvent& e);

/// The event as one JSON line (no trailing newline).
std::string format_progress_event(const JobResult& job, int done, int jobs);

/// Read an event back. Throws hlsprof::Error on malformed JSON (the
/// message carries json_parse's byte offset), on a missing or ill-typed
/// member, or when "event" is not "progress".
ProgressEvent parse_progress_event(const JsonValue& v);
ProgressEvent parse_progress_event(std::string_view line);

}  // namespace hlsprof::runner
