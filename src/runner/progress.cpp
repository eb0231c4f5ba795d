#include "runner/progress.hpp"

#include "common/error.hpp"
#include "runner/report.hpp"

namespace hlsprof::runner {

namespace {

const JsonValue& member(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) {
    fail(std::string("progress event: missing member \"") + key + "\"");
  }
  return *m;
}

}  // namespace

void write_progress_event(JsonWriter& w, const JobResult& job, int done,
                          int jobs) {
  w.field("event", "progress");
  w.field("done", done);
  w.field("jobs", jobs);
  w.key("job");
  write_job_json(w, job);
  w.field("cycles", job.timeline_cycles);
  w.key("state_cycles").begin_array();
  for (const cycle_t c : job.state_cycles) w.value(c);
  w.end_array();
  w.field("bytes", job.trace_mem_bytes);
}

std::string format_progress_event(const JobResult& job, int done, int jobs) {
  JsonWriter w;
  w.begin_object();
  write_progress_event(w, job, done, jobs);
  w.end_object();
  return w.str();
}

ProgressEvent parse_progress_event(const JsonValue& v) {
  if (!v.is_object()) fail("progress event: not a JSON object");
  if (member(v, "event").as_string() != "progress") {
    fail("progress event: \"event\" is not \"progress\"");
  }
  ProgressEvent e;
  e.done = int(member(v, "done").as_int64());
  e.jobs = int(member(v, "jobs").as_int64());
  e.job = parse_job_json(member(v, "job"));
  e.job.timeline_cycles = member(v, "cycles").as_uint64();
  const auto& states = member(v, "state_cycles").items();
  if (states.size() != e.job.state_cycles.size()) {
    fail("progress event: \"state_cycles\" must have 4 entries");
  }
  for (std::size_t s = 0; s < states.size(); ++s) {
    e.job.state_cycles[s] = states[s].as_uint64();
  }
  e.job.trace_mem_bytes = member(v, "bytes").as_uint64();
  return e;
}

ProgressEvent parse_progress_event(std::string_view line) {
  return parse_progress_event(json_parse(line));
}

}  // namespace hlsprof::runner
