#include "runner/report.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"

namespace hlsprof::runner {

void write_job_json(JsonWriter& w, const JobResult& j, bool canonical) {
  w.begin_object();
  w.field("index", j.index);
  w.field("name", j.name);
  w.field("status", job_status_name(j.status));
  if (!j.error.empty()) w.field("error", j.error);
  w.field("seed", j.seed);
  w.field("design_key", hex_digest(j.design_key));
  if (!canonical) {
    w.field("cache_hit", j.cache_hit);
    w.field("wall_ms", j.wall_ms);
  }
  w.key("design").begin_object();
  w.field("fmax_mhz", j.fmax_mhz);
  w.field("alm", j.alm);
  w.field("bram_bits", j.bram_bits);
  w.field("num_threads", j.num_threads);
  w.end_object();
  w.key("run").begin_object();
  w.field("total_cycles", j.total_cycles);
  w.field("kernel_cycles", j.kernel_cycles);
  w.field("stall_cycles", j.stall_cycles);
  w.field("fp_ops", j.fp_ops);
  w.field("gflops", j.gflops);
  w.field("row_hit_rate", j.row_hit_rate);
  w.end_object();
  w.key("trace").begin_object();
  w.field("has_trace", j.has_trace);
  w.field("state_idle", j.state_idle);
  w.field("state_running", j.state_running);
  w.field("state_critical", j.state_critical);
  w.field("state_spinning", j.state_spinning);
  w.field("state_records", j.state_records);
  w.field("event_records", j.event_records);
  w.field("flush_bursts", j.flush_bursts);
  w.field("trace_bytes", j.trace_bytes);
  w.field("peak_trace_buffer_bytes", j.peak_trace_buffer_bytes);
  w.field("overhead_alm_pct", j.overhead_alm_pct);
  w.field("overhead_register_pct", j.overhead_register_pct);
  w.end_object();
  w.end_object();
}

namespace {

const JsonValue& need(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(strf("job record: missing member \"%s\"", key));
  return *v;
}

JobStatus status_from_name(const std::string& name) {
  for (JobStatus s :
       {JobStatus::ok, JobStatus::failed, JobStatus::timed_out}) {
    if (name == job_status_name(s)) return s;
  }
  fail("job record: unknown status \"" + name + "\"");
}

std::uint64_t key_from_hex(const std::string& hex) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(hex, &used, 16);
    if (used == hex.size() && !hex.empty()) return v;
  } catch (const std::exception&) {
  }
  fail("job record: malformed design_key \"" + hex + "\"");
}

}  // namespace

JobResult parse_job_json(const JsonValue& v) {
  if (!v.is_object()) fail("job record: not a JSON object");
  JobResult j;
  j.index = int(need(v, "index").as_int64());
  j.name = need(v, "name").as_string();
  j.status = status_from_name(need(v, "status").as_string());
  if (const JsonValue* e = v.find("error")) j.error = e->as_string();
  j.seed = need(v, "seed").as_uint64();
  j.design_key = key_from_hex(need(v, "design_key").as_string());
  const JsonValue& design = need(v, "design");
  j.fmax_mhz = need(design, "fmax_mhz").as_double();
  j.alm = need(design, "alm").as_double();
  j.bram_bits = need(design, "bram_bits").as_double();
  j.num_threads = int(need(design, "num_threads").as_int64());
  const JsonValue& run = need(v, "run");
  j.total_cycles = cycle_t(need(run, "total_cycles").as_uint64());
  j.kernel_cycles = cycle_t(need(run, "kernel_cycles").as_uint64());
  j.stall_cycles = cycle_t(need(run, "stall_cycles").as_uint64());
  j.fp_ops = need(run, "fp_ops").as_int64();
  j.gflops = need(run, "gflops").as_double();
  j.row_hit_rate = need(run, "row_hit_rate").as_double();
  const JsonValue& trace = need(v, "trace");
  j.has_trace = need(trace, "has_trace").as_bool();
  j.state_idle = need(trace, "state_idle").as_double();
  j.state_running = need(trace, "state_running").as_double();
  j.state_critical = need(trace, "state_critical").as_double();
  j.state_spinning = need(trace, "state_spinning").as_double();
  j.state_records = need(trace, "state_records").as_int64();
  j.event_records = need(trace, "event_records").as_int64();
  j.flush_bursts = need(trace, "flush_bursts").as_int64();
  j.trace_bytes = need(trace, "trace_bytes").as_uint64();
  j.peak_trace_buffer_bytes =
      need(trace, "peak_trace_buffer_bytes").as_uint64();
  j.overhead_alm_pct = need(trace, "overhead_alm_pct").as_double();
  j.overhead_register_pct = need(trace, "overhead_register_pct").as_double();
  return j;
}

std::string report_json(const BatchResult& result,
                        const ReportOptions& options) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "hlsprof-batch-report");
  w.field("schema_version", 1);
  if (!options.label.empty()) w.field("label", options.label);
  w.field("num_jobs", std::int64_t(result.jobs.size()));
  w.field("ok", result.count(JobStatus::ok));
  w.field("failed", result.count(JobStatus::failed));
  w.field("timed_out", result.count(JobStatus::timed_out));
  w.key("cache").begin_object();
  w.field("hits", result.cache_hits);
  w.field("misses", result.cache_misses);
  w.end_object();
  if (!options.canonical) {
    w.field("workers", result.workers);
    w.field("wall_ms", result.wall_ms);
  }
  w.key("jobs").begin_array();
  for (const JobResult& j : result.jobs) {
    write_job_json(w, j, options.canonical);
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string report_csv(const BatchResult& result,
                       const ReportOptions& options) {
  std::string out =
      "index,name,status,seed,design_key,fmax_mhz,num_threads,total_cycles,"
      "kernel_cycles,stall_cycles,fp_ops,gflops,row_hit_rate,state_idle,"
      "state_running,state_critical,state_spinning,state_records,"
      "event_records,flush_bursts,trace_bytes,peak_trace_buffer_bytes,"
      "overhead_alm_pct,overhead_register_pct";
  if (!options.canonical) out += ",cache_hit,wall_ms";
  out += "\n";
  for (const JobResult& j : result.jobs) {
    // Job names come from user manifests; quote so commas cannot break
    // the column structure.
    std::string name = j.name;
    if (name.find_first_of(",\"") != std::string::npos) {
      std::string quoted = "\"";
      for (char c : name) {
        if (c == '"') quoted += '"';
        quoted += c;
      }
      quoted += '"';
      name = quoted;
    }
    out += strf("%d,%s,%s,%llu,%s,%.17g,%d,%llu,%llu,%llu,%lld,%.17g,%.17g,"
                "%.17g,%.17g,%.17g,%.17g,%lld,%lld,%lld,%llu,%llu,%.17g,"
                "%.17g",
                j.index, name.c_str(), job_status_name(j.status),
                (unsigned long long)j.seed, hex_digest(j.design_key).c_str(),
                j.fmax_mhz, j.num_threads,
                (unsigned long long)j.total_cycles,
                (unsigned long long)j.kernel_cycles,
                (unsigned long long)j.stall_cycles, j.fp_ops, j.gflops,
                j.row_hit_rate, j.state_idle, j.state_running,
                j.state_critical, j.state_spinning, j.state_records,
                j.event_records, j.flush_bursts,
                (unsigned long long)j.trace_bytes,
                (unsigned long long)j.peak_trace_buffer_bytes,
                j.overhead_alm_pct, j.overhead_register_pct);
    if (!options.canonical) {
      out += strf(",%d,%.17g", j.cache_hit ? 1 : 0, j.wall_ms);
    }
    out += "\n";
  }
  return out;
}

std::string write_report(const BatchResult& result, const std::string& prefix,
                         const ReportOptions& options) {
  const std::string json_path = prefix + ".json";
  const std::string csv_path = prefix + ".csv";
  {
    std::ofstream f(json_path, std::ios::trunc);
    if (!f.good()) fail("cannot write " + json_path);
    f << report_json(result, options) << "\n";
  }
  {
    std::ofstream f(csv_path, std::ios::trunc);
    if (!f.good()) fail("cannot write " + csv_path);
    f << report_csv(result, options);
  }
  return json_path;
}

std::string summary_table(const BatchResult& result) {
  std::string out = strf("%-36s %-9s %16s %10s %8s %10s\n", "job", "status",
                         "kernel cycles", "GFLOP/s", "run%", "trace B");
  for (const JobResult& j : result.jobs) {
    out += strf("%-36s %-9s %16s %10.3f %7.1f%% %10llu\n", j.name.c_str(),
                job_status_name(j.status),
                with_commas(j.kernel_cycles).c_str(), j.gflops,
                100 * j.state_running, (unsigned long long)j.trace_bytes);
  }
  out += strf("%zu jobs: %d ok, %d failed, %d timed out | cache %lld hits / "
              "%lld misses | %d workers, %.0f ms\n",
              result.jobs.size(), result.count(JobStatus::ok),
              result.count(JobStatus::failed),
              result.count(JobStatus::timed_out), result.cache_hits,
              result.cache_misses, result.workers, result.wall_ms);
  return out;
}

}  // namespace hlsprof::runner
