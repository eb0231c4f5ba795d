// Outside-in attribution: one job repeated through each layer's public
// calls, in the order runner::run_job and core::Session::run make them,
// with a steady_clock timer around every call. The replica must produce
// the same simulated results as the untimed job; main.cpp checks that.
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "paraver/writer.hpp"
#include "profiling/unit.hpp"
#include "trace/streaming.hpp"
#include "trace/timed_trace.hpp"

namespace perfbench {

namespace {

/// Times the decoder's share of Simulator::run: the profiling unit calls
/// the sink from inside the run on every flush burst.
class TimedFlushSink final : public trace::FlushSink {
 public:
  explicit TimedFlushSink(trace::StreamingDecoder& decoder)
      : decoder_(decoder) {}

  void on_burst(const std::uint8_t* data, std::size_t n) override {
    const auto t0 = Clock::now();
    decoder_.on_burst(data, n);
    ms += ms_since(t0);
    bytes += n;
  }

  double ms = 0;
  std::uint64_t bytes = 0;

 private:
  trace::StreamingDecoder& decoder_;
};

}  // namespace

double JobTrace::attributed_ms() const {
  return kernel_ms + compile_ms + sim_construct_ms + prof_construct_ms +
         bind_ms + sim_run_ms + decode_ms + timeline_finish_ms + analysis_ms +
         (check_ms > 0 ? check_ms : 0) +
         (paraver_write_ms > 0 ? paraver_write_ms : 0) + teardown_ms;
}

JobTrace run_traced_job(const Workload& w, int index,
                        runner::DesignCache* cache,
                        const std::string& paraver_base) {
  const runner::JobSpec& spec = w.batch.spec(index);
  JobTrace jt;
  runner::JobResult& out = jt.result;
  out.index = index;
  out.name = spec.name;
  out.seed = job_seed(w, index);
  jt.approx = spec.run.sim.fast_forward;
  jt.profiled = spec.run.enable_profiling;
  const auto t0 = Clock::now();
  try {
    SplitMix64 rng(out.seed);
    auto t = Clock::now();
    ir::Kernel kernel = spec.kernel(rng);
    jt.kernel_ms = ms_since(t);

    t = Clock::now();
    std::shared_ptr<const hls::Design> design;
    if (cache != nullptr) {
      runner::DesignCache::Entry entry =
          cache->get_or_compile(std::move(kernel), spec.hls);
      design = std::move(entry.design);
      jt.cache_used = true;
      jt.cache_hit = entry.hit;
    } else {
      design = core::compile_shared(std::move(kernel), spec.hls);
    }
    jt.compile_ms = ms_since(t);

    core::RunOptions opts = spec.run;
    if (spec.max_cycles != 0) opts.sim.max_cycles = spec.max_cycles;
    // core::Session builds the Simulator and then the ProfilingUnit on its
    // memory; build them one at a time so each constructor gets a timer.
    core::RunOptions sim_only = opts;
    sim_only.enable_profiling = false;
    t = Clock::now();
    auto session = std::make_unique<core::Session>(design, sim_only);
    jt.sim_construct_ms = ms_since(t);
    std::unique_ptr<profiling::ProfilingUnit> unit;
    if (opts.enable_profiling) {
      t = Clock::now();
      unit = std::make_unique<profiling::ProfilingUnit>(
          *design, opts.profiling, session->sim().memory());
      jt.prof_construct_ms = ms_since(t);
    }

    auto buffers = std::make_unique<runner::HostBuffers>();
    t = Clock::now();
    if (spec.bind) spec.bind(*session, *buffers, rng);
    jt.bind_ms = ms_since(t);

    // core::Session::run, unrolled.
    auto r = std::make_unique<core::RunResult>();
    if (unit == nullptr) {
      t = Clock::now();
      r->sim = session->sim().run(nullptr);
      jt.sim_run_ms = ms_since(t);
    } else {
      const int threads = design->kernel.num_threads;
      trace::TimedTraceBuilder builder(threads, opts.profiling.sampling_period);
      trace::StreamingDecoder decoder(threads, builder);
      TimedFlushSink sink(decoder);
      unit->set_flush_sink(&sink);
      t = Clock::now();
      try {
        r->sim = session->sim().run(unit.get());
      } catch (...) {
        unit->set_flush_sink(nullptr);
        throw;
      }
      jt.sim_run_ms = ms_since(t) - sink.ms;
      unit->set_flush_sink(nullptr);
      t = Clock::now();
      decoder.finish();
      jt.decode_ms = sink.ms + ms_since(t);
      jt.decoded_bytes = sink.bytes;
      t = Clock::now();
      r->timeline = builder.finish(unit->run_end());
      jt.timeline_finish_ms = ms_since(t);
      r->has_trace = true;
      for (const sim::HostTransfer& h : r->sim.transfers) {
        r->timeline.comms.push_back(trace::CommRecord{
            0, h.begin, h.end, h.bytes,
            h.to_device ? trace::kCommTagToDevice
                        : trace::kCommTagFromDevice});
      }
      r->state_records = unit->state_records();
      r->event_records = unit->event_records();
      r->flush_bursts = unit->flush_bursts();
      r->trace_bytes = unit->trace_bytes_written();
      r->peak_trace_buffer_bytes = unit->peak_burst_bytes();
    }
    const auto ff = session->sim().fast_forward_stats();
    jt.ff_phases = ff.phases;
    jt.ff_cycles_skipped = ff.cycles_skipped;
    jt.ff_model_rejects = ff.model_rejects;
    const auto fp = session->sim().fast_path_stats();
    jt.direct_dispatch = fp.direct_dispatch;
    jt.batched_mem = fp.batched_mem;

    // runner::run_job order: report fill, then the check.
    t = Clock::now();
    fill_result(out, *session, *r);
    jt.analysis_ms = ms_since(t);
    if (spec.check) {
      t = Clock::now();
      spec.check(*r, *buffers);
      jt.check_ms = ms_since(t);
    }
    if (!paraver_base.empty()) {
      t = Clock::now();
      paraver::write_paraver(r->timeline, spec.name, paraver_base);
      jt.paraver_write_ms = ms_since(t);
      for (const char* ext : {".prv", ".pcf", ".row"}) {
        jt.paraver_bytes += std::filesystem::file_size(paraver_base + ext);
      }
    }

    t = Clock::now();
    r.reset();
    unit.reset();
    session.reset();
    buffers.reset();
    design.reset();
    jt.teardown_ms = ms_since(t);
    out.status = runner::JobStatus::ok;
  } catch (const std::exception& e) {
    out.status = runner::JobStatus::failed;
    out.error = e.what();
  }
  jt.job_ms = ms_since(t0);
  out.wall_ms = jt.job_ms;
  return jt;
}

double sim_ms_without_profiling(const Workload& w, int index,
                                runner::DesignCache& cache) {
  const runner::JobSpec& spec = w.batch.spec(index);
  SplitMix64 rng(job_seed(w, index));
  runner::DesignCache::Entry entry =
      cache.get_or_compile(spec.kernel(rng), spec.hls);
  core::RunOptions opts = spec.run;
  if (spec.max_cycles != 0) opts.sim.max_cycles = spec.max_cycles;
  opts.enable_profiling = false;
  core::Session session(entry.design, opts);
  runner::HostBuffers buffers;
  if (spec.bind) spec.bind(session, buffers, rng);
  const auto t = Clock::now();
  session.run();
  return ms_since(t);
}

}  // namespace perfbench
