// Tests for the live observability layer (src/live): totals folded from
// per-job progress events must equal the post-hoc paraver/analysis
// numbers of every job's timeline, the live timeline must compact to
// fit, fleet lanes must merge exactly, and attaching any of it must
// leave canonical report and Paraver bytes untouched.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/hlsprof.hpp"
#include "live/reporter.hpp"
#include "live/timeline.hpp"
#include "paraver/analysis.hpp"
#include "paraver/writer.hpp"
#include "runner/runner.hpp"
#include "telemetry/export.hpp"
#include "trace/timed_trace.hpp"
#include "workloads/gemm.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

// ---- live sinks ------------------------------------------------------------

TEST(LiveMetrics, AttachingLiveSinkKeepsTraceBytesIdentical) {
  const auto run_once = [](trace::RecordSink* sink) {
    hls::Design d = core::compile(workloads::vecadd(1024, 4));
    core::RunOptions opts;
    opts.live_sink = sink;
    core::Session s(std::move(d), opts);
    runner::HostBuffers bufs;
    s.sim().bind_f32("x", bufs.f32(workloads::random_vector(1024, 7)));
    s.sim().bind_f32("y", bufs.f32(workloads::random_vector(1024, 8)));
    s.sim().bind_f32("z", bufs.f32(1024));
    const core::RunResult r = s.run();
    return paraver::to_paraver(r.timeline, "vecadd");
  };
  live::LiveTimelineView view(4);
  const auto off = run_once(nullptr);
  const auto on = run_once(&view);
  EXPECT_EQ(off.prv, on.prv);
  EXPECT_EQ(off.pcf, on.pcf);
  EXPECT_EQ(off.row, on.row);
  EXPECT_GT(view.last_clock(), 0u);
}

// ---- timeline view ---------------------------------------------------------

TEST(LiveTimeline, RendersStatesWithSharedLegend) {
  live::TimelineOptions topts;
  topts.width = 8;
  topts.initial_span = 16;
  live::LiveTimelineView view(2, topts);
  trace::StateRecord s;
  s.states = {1, 3};  // running, spinning
  view.on_state(s, 0);
  s.states = {1, 3};
  view.on_state(s, 64);
  s.states = {0, 0};
  view.on_state(s, 100);
  const std::string frame = view.render_frame();
  EXPECT_NE(frame.find("T0 "), std::string::npos);
  EXPECT_NE(frame.find("T1 "), std::string::npos);
  EXPECT_NE(frame.find('#'), std::string::npos);  // running lane
  EXPECT_NE(frame.find('S'), std::string::npos);  // spinning lane
  EXPECT_NE(frame.find("legend:"), std::string::npos);
}

TEST(LiveTimeline, CompactsSpanToFitWidth) {
  live::TimelineOptions topts;
  topts.width = 8;
  topts.initial_span = 4;  // fits 32 cycles before compaction
  live::LiveTimelineView view(1, topts);
  trace::StateRecord s;
  s.states = {1};
  view.on_state(s, 0);
  view.on_state(s, 1000);  // forces repeated pair-merging
  EXPECT_GE(view.span() * cycle_t(topts.width), 1000u);
  EXPECT_EQ(view.span() % 4, 0u);  // doubled from the initial span
  // The run still renders one row of width <= 8 columns.
  const std::string frame = view.render_frame();
  EXPECT_NE(frame.find("T0 "), std::string::npos);
}

// ---- integer totals --------------------------------------------------------

runner::JobResult job(runner::JobStatus status, std::uint64_t cycles,
                      int threads, std::array<std::uint64_t, 4> state_cycles,
                      std::uint64_t bytes) {
  runner::JobResult j;
  j.status = status;
  j.timeline_cycles = cycles;
  j.num_threads = threads;
  j.state_cycles = state_cycles;
  j.trace_mem_bytes = bytes;
  return j;
}

TEST(LiveTotals, AddFoldsOkJobsAndMergesExactly) {
  live::LiveTotals a;
  a.add(job(runner::JobStatus::ok, 100, 4, {0, 400, 0, 0}, 200));
  // Counted, not folded.
  a.add(job(runner::JobStatus::failed, 999, 4, {999, 0, 0, 0}, 999));
  EXPECT_EQ(a.jobs_done, 2u);
  EXPECT_EQ(a.cycles, 100u);
  EXPECT_EQ(a.thread_cycles, 400u);
  EXPECT_EQ(a.bytes, 200u);

  live::LiveTotals b;
  b.add(job(runner::JobStatus::ok, 300, 4, {1200, 0, 0, 0}, 0));
  live::LiveTotals m = a;
  m += b;
  EXPECT_EQ(m.jobs_done, 3u);
  EXPECT_EQ(m.cycles, 400u);
  EXPECT_EQ(m.thread_cycles, 1600u);
  EXPECT_DOUBLE_EQ(m.share(1), 0.25);  // 400/1600
  EXPECT_DOUBLE_EQ(m.share(0), 0.75);
  EXPECT_DOUBLE_EQ(m.bandwidth(), 0.5);  // 200 bytes / 400 cycles
  EXPECT_EQ(live::LiveTotals{}.share(0), 0.0);
  EXPECT_EQ(live::LiveTotals{}.bandwidth(), 0.0);
}

// ---- batch reporter --------------------------------------------------------

runner::JobSpec live_vecadd_job(std::int64_t n) {
  runner::JobSpec spec;
  spec.name = "vecadd.n" + std::to_string(n);
  spec.kernel = [n](SplitMix64&) { return workloads::vecadd(n, 4); };
  spec.bind = [n](core::Session& s, runner::HostBuffers& bufs,
                  SplitMix64& rng) {
    s.sim().bind_f32("x", bufs.f32(workloads::random_vector(n, rng.next())));
    s.sim().bind_f32("y", bufs.f32(workloads::random_vector(n, rng.next())));
    s.sim().bind_f32("z", bufs.f32(std::size_t(n)));
  };
  return spec;
}

std::string canonical_report(const runner::BatchResult& r) {
  runner::ReportOptions opts;
  opts.canonical = true;
  opts.label = "live-test";
  return runner::report_json(r, opts);
}

TEST(LiveReporter, ObserverKeepsReportBytesIdenticalAndFoldsTotals) {
  runner::Batch batch;
  batch.add(live_vecadd_job(256));
  batch.add(live_vecadd_job(512));
  batch.add(live_vecadd_job(1024));

  runner::BatchOptions base;
  base.workers = 2;
  base.seed = 42;
  const runner::BatchResult plain = batch.run(base);

  // State mode with a display: the job holding the slot gets a live
  // timeline teed off its record stream.
  std::FILE* display = std::tmpfile();
  ASSERT_NE(display, nullptr);
  live::ReporterOptions ropts;
  ropts.mode = live::LiveMode::state;
  ropts.display = display;
  ropts.jobs_total = batch.size();
  live::BatchLiveReporter reporter(ropts);
  runner::BatchOptions observed = base;
  observed.observer = &reporter;
  observed.on_job_done = [&reporter](const runner::JobResult& j) {
    reporter.on_job_done(j);
  };
  const runner::BatchResult live_run = batch.run(observed);
  reporter.finish();

  EXPECT_EQ(canonical_report(plain), canonical_report(live_run));

  const live::LiveTotals totals = reporter.totals();
  EXPECT_EQ(totals.jobs_done, 3u);
  EXPECT_EQ(totals.jobs_total, 3u);
  EXPECT_GT(totals.cycles, 0u);
  // Every job runs 4 hardware threads, so the fold's thread-cycle
  // denominator is exactly 4x the summed timeline durations.
  EXPECT_EQ(totals.thread_cycles, totals.cycles * 4);

  // At least one timeline frame reached the display.
  EXPECT_GT(std::ftell(display), 0L);
  std::fclose(display);
}

/// Post-hoc analysis of one job's canonical timeline, captured from the
/// job's check callback.
struct JobAnalysis {
  paraver::StateSummary states;
  double mean_bandwidth = 0.0;
  cycle_t duration = 0;
  int threads = 0;
  std::array<cycle_t, 4> state_cycles{};
  std::uint64_t bytes = 0;
};

TEST(LiveReporter, TotalsEqualPerJobAnalysisSums) {
  std::mutex mu;
  std::map<std::string, JobAnalysis> analysis;
  const auto capture = [&mu, &analysis](const std::string& name) {
    return [&mu, &analysis, name](const core::RunResult& r,
                                  runner::HostBuffers&) {
      const trace::TimedTrace& t = r.timeline;
      JobAnalysis a;
      a.states = paraver::summarize_states(t);
      a.mean_bandwidth = paraver::mean_bandwidth(t);
      a.duration = t.duration;
      a.threads = t.num_threads;
      for (int s = 0; s < 4; ++s) {
        a.state_cycles[std::size_t(s)] =
            t.state_cycles(sim::ThreadState(s));
      }
      a.bytes = t.event_total(trace::EventKind::bytes_read) +
                t.event_total(trace::EventKind::bytes_written);
      std::lock_guard<std::mutex> lock(mu);
      analysis[name] = a;
    };
  };

  runner::Batch batch;
  for (std::int64_t n : {256, 2048}) {
    runner::JobSpec spec = live_vecadd_job(n);
    spec.check = capture(spec.name);
    batch.add(std::move(spec));
  }
  {
    // Naive GEMM: critical sections, so all four states occur.
    runner::JobSpec spec;
    spec.name = "gemm.naive";
    workloads::GemmConfig cfg;
    cfg.dim = 16;
    spec.kernel = [cfg](SplitMix64&) { return workloads::gemm_naive(cfg); };
    spec.bind = [](core::Session& s, runner::HostBuffers& bufs,
                   SplitMix64& rng) {
      s.sim().bind_f32("A",
                       bufs.f32(workloads::random_matrix(16, rng.next())));
      s.sim().bind_f32("B",
                       bufs.f32(workloads::random_matrix(16, rng.next())));
      s.sim().bind_f32("C", bufs.f32(16 * 16));
    };
    spec.check = capture(spec.name);
    batch.add(std::move(spec));
  }

  live::ReporterOptions ropts;
  ropts.jobs_total = batch.size();
  live::BatchLiveReporter reporter(ropts);
  runner::BatchOptions opts;
  opts.workers = 2;
  opts.on_job_done = [&reporter](const runner::JobResult& j) {
    reporter.on_job_done(j);
  };
  const runner::BatchResult result = batch.run(opts);
  ASSERT_TRUE(result.all_ok());
  ASSERT_EQ(analysis.size(), batch.size());

  // Exact integers against the timelines, then the derived shares and
  // bandwidth against the analysis functions, weighted the way a run
  // aggregates them (by thread-cycles and by cycles).
  std::uint64_t cycles = 0, thread_cycles = 0, bytes = 0;
  std::array<std::uint64_t, 4> state_cycles{};
  double weighted[4] = {0, 0, 0, 0};
  double weighted_bw = 0.0;
  for (const auto& [name, a] : analysis) {
    SCOPED_TRACE(name);
    EXPECT_GT(a.duration, 0u);
    cycles += a.duration;
    const double tc = double(a.duration) * double(a.threads);
    thread_cycles += a.duration * std::uint64_t(a.threads);
    bytes += a.bytes;
    for (std::size_t s = 0; s < 4; ++s) state_cycles[s] += a.state_cycles[s];
    weighted[0] += a.states.idle * tc;
    weighted[1] += a.states.running * tc;
    weighted[2] += a.states.critical * tc;
    weighted[3] += a.states.spinning * tc;
    weighted_bw += a.mean_bandwidth * double(a.duration);
  }
  const live::LiveTotals totals = reporter.totals();
  EXPECT_EQ(totals.jobs_done, batch.size());
  EXPECT_EQ(totals.cycles, cycles);
  EXPECT_EQ(totals.thread_cycles, thread_cycles);
  EXPECT_EQ(totals.state_cycles, state_cycles);
  EXPECT_EQ(totals.bytes, bytes);
  EXPECT_GT(totals.state_cycles[2], 0u);  // critical occurred
  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(totals.share(s), weighted[s] / double(thread_cycles), 1e-12)
        << "state " << s;
  }
  EXPECT_NEAR(totals.bandwidth(), weighted_bw / double(cycles), 1e-12);

  // The report's per-job shares are summarize_states' doubles exactly.
  for (const runner::JobResult& j : result.jobs) {
    const JobAnalysis& a = analysis.at(j.name);
    EXPECT_EQ(j.state_idle, a.states.idle);
    EXPECT_EQ(j.state_running, a.states.running);
    EXPECT_EQ(j.state_critical, a.states.critical);
    EXPECT_EQ(j.state_spinning, a.states.spinning);
  }
}

// ---- fleet view ------------------------------------------------------------

TEST(LiveFleet, AggregatesShardLanes) {
  live::FleetView fleet(2, live::FleetOptions{});
  runner::ProgressEvent e;
  e.done = 1;
  e.jobs = 3;
  e.job = job(runner::JobStatus::ok, 100, 8, {400, 400, 0, 0}, 50);
  fleet.update(0, e);
  fleet.update(1, e);
  const live::LiveTotals m = fleet.merged();
  EXPECT_EQ(m.jobs_done, 2u);
  EXPECT_EQ(m.jobs_total, 6u);  // each lane's total is its events' "jobs"
  EXPECT_EQ(m.cycles, 200u);
  EXPECT_DOUBLE_EQ(m.share(1), 0.5);
  EXPECT_DOUBLE_EQ(m.bandwidth(), 0.5);
  const std::string frame = fleet.render_frame();
  EXPECT_NE(frame.find("shard 0"), std::string::npos);
  EXPECT_NE(frame.find("shard 1"), std::string::npos);
  EXPECT_NE(frame.find("fleet"), std::string::npos);
  // A re-dispatched shard (id beyond the initial split) gets a lane too.
  fleet.update(4, e);
  EXPECT_EQ(fleet.merged().jobs_done, 3u);
  EXPECT_NE(fleet.render_frame().find("shard 3   (waiting)"),
            std::string::npos);
}

// ---- progress event metrics ------------------------------------------------

TEST(LiveProgressLine, CarriesJobMetrics) {
  runner::JobResult j;
  j.index = 7;
  j.status = runner::JobStatus::ok;
  j.name = "gemm dim=48, blocked";
  j.num_threads = 8;
  j.total_cycles = 123456;
  j.timeline_cycles = 120000;
  j.state_cycles = {1, 2, 3, 959994};
  j.trace_mem_bytes = 1ULL << 40;
  const std::string line = runner::format_progress_event(j, 2, 5);
  // The timeline duration travels next to the record.
  EXPECT_NE(line.find("\"cycles\":120000,"), std::string::npos) << line;
  const runner::ProgressEvent p = runner::parse_progress_event(line);
  EXPECT_EQ(p.done, 2);
  EXPECT_EQ(p.jobs, 5);
  EXPECT_EQ(p.job.index, 7);
  EXPECT_EQ(p.job.status, runner::JobStatus::ok);
  EXPECT_EQ(p.job.name, j.name);
  EXPECT_EQ(p.job.total_cycles, 123456u);
  EXPECT_EQ(p.job.timeline_cycles, 120000u);
  EXPECT_EQ(p.job.num_threads, 8);
  EXPECT_EQ(p.job.state_cycles,
            (std::array<std::uint64_t, 4>{1, 2, 3, 959994}));
  EXPECT_EQ(p.job.trace_mem_bytes, 1ULL << 40);
}

// ---- merged chrome traces --------------------------------------------------

TEST(LiveChromeMerge, NamespacesAndRebasesInputs) {
  const std::string doc_a =
      R"({"traceEvents":[{"name":"a","ph":"X","ts":10,"dur":5,"pid":1,"tid":0}]})";
  const std::string doc_b =
      R"({"traceEvents":[{"name":"b","ph":"X","ts":1,"dur":2,"tid":3}]})";
  const std::string merged = telemetry::merge_chrome_traces({
      {"coordinator", doc_a, 0},
      {"shard-0", doc_b, 100},
      {"shard-1", "", 0},           // dead shard: skipped
      {"shard-2", "not json", 0},   // torn file: skipped
  });
  const JsonValue v = json_parse(merged);
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int process_names = 0;
  for (const JsonValue& e : events->items()) {
    const JsonValue* name = e.find("name");
    if (name != nullptr && name->as_string() == "process_name") {
      ++process_names;
      const std::string label = e.find("args")->find("name")->as_string();
      EXPECT_TRUE(label == "coordinator" || label == "shard-0");
    }
    if (name != nullptr && name->as_string() == "b") {
      EXPECT_EQ(e.find("ts")->as_double(), 101.0);  // 1 + offset 100
      EXPECT_EQ(e.find("pid")->as_int64(), 2);      // second surviving input
    }
  }
  EXPECT_EQ(process_names, 2);
  EXPECT_EQ(v.find("otherData")->find("merged_inputs")->as_int64(), 2);
}

// ---- metrics table ---------------------------------------------------------

TEST(LiveMetricsTable, FormatsSnapshotRows) {
  const std::string snap =
      R"({"schema":"hlsprof-telemetry","schema_version":1,)"
      R"("counters":{"sim.runs":{"value":3},"sim.cycles":{"value":99,"unit":"cycles"}},)"
      R"("gauges":{"sim.cycles_per_sec":{"value":1.5e6}},)"
      R"("histograms":{"serve.request_ms":{"count":2,"sum":8.5,"unit":"ms"}},)"
      R"("spans":{"recorded":4,"dropped":0},"samples":{"recorded":1,"dropped":2}})";
  const std::string table = telemetry::metrics_table(snap);
  EXPECT_NE(table.find("sim.runs"), std::string::npos);
  EXPECT_NE(table.find("99 cycles"), std::string::npos);
  EXPECT_NE(table.find("count 2, sum 8.5 ms"), std::string::npos);
  EXPECT_NE(table.find("recorded 1, dropped 2"), std::string::npos);
  // Aligned: every row's value starts at the same column.
  EXPECT_THROW(telemetry::metrics_table("{\"schema\":\"other\"}"), Error);
}

// ---- argparse --------------------------------------------------------------

TEST(LiveArgParse, OptionalValueFlagForms) {
  std::string value = "state";
  bool present = false;
  ArgParser p;
  p.option_optional("live", &value, &present, "live mode");

  const char* bare[] = {"prog", "--live"};
  ASSERT_TRUE(p.parse(2, bare));
  EXPECT_TRUE(present);
  EXPECT_EQ(value, "state");  // bare form keeps the default

  present = false;
  const char* with_value[] = {"prog", "--live=metrics"};
  ASSERT_TRUE(p.parse(2, with_value));
  EXPECT_TRUE(present);
  EXPECT_EQ(value, "metrics");

  const char* empty[] = {"prog", "--live="};
  EXPECT_FALSE(p.parse(2, empty));
}

TEST(LiveArgParse, ModeNamesParse) {
  live::LiveMode m = live::LiveMode::off;
  EXPECT_TRUE(live::parse_live_mode("state", &m));
  EXPECT_EQ(m, live::LiveMode::state);
  EXPECT_TRUE(live::parse_live_mode("metrics", &m));
  EXPECT_EQ(m, live::LiveMode::metrics);
  EXPECT_FALSE(live::parse_live_mode("bogus", &m));
  EXPECT_EQ(m, live::LiveMode::metrics);  // untouched on failure
}

}  // namespace
}  // namespace hlsprof
