#include "runner/progress.hpp"

#include "common/error.hpp"

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

ProgressEvent ProgressEvent::of(const JobResult& job, int done, int jobs) {
  ProgressEvent e;
  e.done = done;
  e.jobs = jobs;
  e.index = job.index;
  e.status = job_status_name(job.status);
  e.name = job.name;
  e.cycles = job.timeline_cycles;
  e.threads = job.num_threads;
  e.state_cycles = job.state_cycles;
  e.bytes = job.trace_mem_bytes;
  return e;
}

void write_progress_event(JsonWriter& w, const ProgressEvent& e) {
  w.field("event", "progress");
  w.field("done", e.done);
  w.field("jobs", e.jobs);
  w.field("index", e.index);
  w.field("status", e.status);
  w.field("name", e.name);
  w.field("cycles", e.cycles);
  w.field("threads", e.threads);
  w.key("state_cycles").begin_array();
  for (const std::uint64_t c : e.state_cycles) w.value(c);
  w.end_array();
  w.field("bytes", e.bytes);
}

std::string format_progress_event(const JobResult& job, int done, int jobs) {
  JsonWriter w;
  w.begin_object();
  write_progress_event(w, ProgressEvent::of(job, done, jobs));
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
  e.index = int(member(v, "index").as_int64());
  e.status = member(v, "status").as_string();
  e.name = member(v, "name").as_string();
  e.cycles = member(v, "cycles").as_uint64();
  e.threads = int(member(v, "threads").as_int64());
  const auto& states = member(v, "state_cycles").items();
  if (states.size() != e.state_cycles.size()) {
    fail("progress event: \"state_cycles\" must have 4 entries");
  }
  for (std::size_t s = 0; s < states.size(); ++s) {
    e.state_cycles[s] = states[s].as_uint64();
  }
  e.bytes = member(v, "bytes").as_uint64();
  return e;
}

ProgressEvent parse_progress_event(std::string_view line) {
  return parse_progress_event(json_parse(line));
}

}  // namespace hlsprof::runner
