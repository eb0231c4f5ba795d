// The benchmark's three workloads, built from a seed the way a user builds
// them: manifest text through runner::parse_manifest, and the paper's
// OpenMP-C kernel through frontend::compile_source. Only the input data
// (matrix and vector contents) depend on the seed; the job list does not,
// so runs on different seeds do the same simulated work.
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "frontend/lower.hpp"
#include "paraver/analysis.hpp"
#include "paraver/writer.hpp"
#include "runner/manifest.hpp"
#include "workloads/reference.hpp"

namespace perfbench {

namespace {

constexpr int kWorkers = 2;

/// Append every job of a parsed manifest to `w`.
void add_manifest(Workload& w, const std::string& text, int twin_offset = -1) {
  const runner::ManifestRun run = runner::parse_manifest(text);
  for (int i = 0; i < int(run.batch.size()); ++i) {
    w.batch.add(run.batch.spec(i));
    w.twin_of.push_back(twin_offset < 0 ? -1 : twin_offset + i);
    w.from_source.push_back(0);
  }
}

// Sweep and fuzzing traffic: many small jobs whose fixed per-job cost
// (simulator construction, cache lookup, report) outweighs simulation. The
// π jobs share one design across sampling periods, so the cache hit path
// runs as well as the miss path.
Workload small_sweep(std::uint64_t seed, Size size) {
  const bool full = size == Size::full;
  const std::string common = "workers = " + std::to_string(kWorkers) +
                             "\nseed = " + std::to_string(seed) +
                             "\nverify = on\nprofiling = on\n";
  Workload w;
  add_manifest(w, "workload = gemm\n" + common +
                      (full ? "version = naive,no_critical,vectorized,blocked,"
                              "double_buffered\ndim = 8,16\n"
                              "threads = 1,2,4,8\n"
                            : "version = naive,blocked\ndim = 8\n"
                              "threads = 1,8\n"));
  for (const char* kind : {"vecadd", "dot"}) {
    add_manifest(w, std::string("workload = ") + kind + "\n" + common +
                        (full ? "n = 256,1024,4096\nthreads = 1,2,4,8\n"
                              : "n = 256\nthreads = 2\n"));
  }
  add_manifest(w, "workload = pi\n" + common +
                      "steps = 2048\nthreads = 2\nunroll = 4\n" +
                      (full ? "sampling_period = 32,48,64,96,128,192,256,384,"
                              "512,768,1024,1536,2048,3072,4096,8192\n"
                              "buffer_lines = 16,64\n"
                            : "sampling_period = 64,128\n"));
  return w;
}

// The E3/E4 GEMM case study: simulation dominates. Every exact job (checked
// against the host reference) has an approx-trace twin with the same seed,
// whose cycles and state shares must stay within the approx tolerance.
Workload paper_ladder(std::uint64_t seed, Size size) {
  const std::string jobs =
      "workload = gemm\nworkers = " + std::to_string(kWorkers) +
      "\nseed = " + std::to_string(seed) +
      "\nverify = on\nprofiling = on\n" +
      (size == Size::full
           ? "version = naive,no_critical,vectorized,blocked,double_buffered,"
             "preloaded\ndim = 96\n"
           : "version = naive,preloaded\ndim = 16\n") +
      "threads = 1,8\n";
  Workload w;
  add_manifest(w, jobs);
  const int exact = int(w.batch.size());
  add_manifest(w, jobs + "approx_trace = on\n", 0);
  for (int i = 0; i < int(w.batch.size()); ++i) {
    const int base = w.twin_of[std::size_t(i)] < 0 ? i : i - exact;
    w.batch.spec_mut(i).seed = runner::Batch::job_seed(seed, base);
  }
  return w;
}

// The paper's single-user flow: the Fig. 3 matmul source through the
// OpenMP-C frontend, and the E7 π series, each traced at a fine sampling
// period into a small trace buffer and written out as Paraver files. Two
// users run it at once (one job each at a time): on a shared host that
// measured steadier than one thread. Largest job first, so the two users
// finish a round together.
Workload source_to_paraver(std::uint64_t seed, Size size,
                           const std::string& source_path) {
  const bool full = size == Size::full;
  const std::string trace_opts = "sampling_period = 256\nbuffer_lines = 16\n";
  Workload w;
  const std::string source = read_file(source_path);
  for (const int dim : full ? std::vector<int>{96, 64, 48, 32}
                            : std::vector<int>{8}) {
    runner::JobSpec spec;
    spec.name = "matmul.dim=" + std::to_string(dim);
    frontend::LowerOptions lower;
    lower.constants["DIM"] = dim;
    spec.kernel = [source, lower](SplitMix64&) {
      return frontend::compile_source(source, lower);
    };
    spec.bind = [dim](core::Session& s, runner::HostBuffers& bufs,
                      SplitMix64& rng) {
      auto& a = bufs.f32(workloads::random_matrix(dim, rng.next()));
      auto& b = bufs.f32(workloads::random_matrix(dim, rng.next()));
      auto& c = bufs.f32(std::size_t(dim) * std::size_t(dim));
      s.sim().bind_f32("A", a);
      s.sim().bind_f32("B", b);
      s.sim().bind_f32("C", c);
      s.sim().set_arg("DIM", std::int64_t(dim));
    };
    spec.check = [dim](const core::RunResult&, runner::HostBuffers& bufs) {
      const double err = workloads::max_rel_error(
          bufs.f32_at(2),
          workloads::gemm_reference(bufs.f32_at(0), bufs.f32_at(1), dim));
      if (err > 1e-3) {
        fail("matmul verification failed: max rel error " +
             std::to_string(err));
      }
    };
    spec.run.profiling.sampling_period = 256;
    spec.run.profiling.buffer_lines = 16;
    w.batch.add(std::move(spec));
    w.twin_of.push_back(-1);
    w.from_source.push_back(1);
  }
  // Enough steps that the series, not the 700k-cycle thread-start
  // stagger, fills the trace.
  add_manifest(w, "workload = pi\nseed = " + std::to_string(seed) + "\n" +
                      trace_opts +
                      (full ? "steps = 4000000\nthreads = 1,2,4,8\n"
                            : "steps = 20000\nthreads = 2\n"));
  w.single_user = true;
  return w;
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) fail("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

Workload make_workload(const std::string& name, std::uint64_t seed, Size size,
                       const std::string& kernel_source_path) {
  Workload w;
  if (name == "small_sweep") {
    w = small_sweep(seed, size);
  } else if (name == "paper_ladder") {
    w = paper_ladder(seed, size);
  } else if (name == "source_to_paraver") {
    w = source_to_paraver(seed, size, kernel_source_path);
  } else {
    fail("unknown workload '" + name + "'");
  }
  w.name = name;
  w.options.seed = seed;
  w.options.workers = kWorkers;
  return w;
}

std::uint64_t job_seed(const Workload& w, int index) {
  const runner::JobSpec& spec = w.batch.spec(index);
  return spec.seed != 0 ? spec.seed
                        : runner::Batch::job_seed(w.options.seed, index);
}

// The same fields runner::Batch fills (its helper is internal to the
// runner), so single-user and traced jobs produce report-ready results.
void fill_result(runner::JobResult& out, const core::Session& session,
                 const core::RunResult& r) {
  const hls::Design& d = session.design();
  out.fmax_mhz = d.fmax_mhz;
  out.alm = d.area.alm;
  out.bram_bits = d.area.bram_bits;
  out.num_threads = d.stats.num_threads;
  out.total_cycles = r.sim.total_cycles;
  out.kernel_cycles = r.sim.kernel_cycles;
  out.stall_cycles = r.sim.total_stall_cycles();
  out.fp_ops = r.sim.total_fp_ops();
  out.gflops = paraver::gflops(out.fp_ops, r.sim.total_cycles, d.fmax_mhz);
  out.row_hit_rate = r.sim.row_hit_rate;
  out.has_trace = r.has_trace;
  if (r.has_trace) {
    const auto st = paraver::summarize_states(r.timeline);
    out.state_idle = st.idle;
    out.state_running = st.running;
    out.state_critical = st.critical;
    out.state_spinning = st.spinning;
    out.state_records = r.state_records;
    out.event_records = r.event_records;
    out.flush_bursts = r.flush_bursts;
    out.trace_bytes = r.trace_bytes;
    out.peak_trace_buffer_bytes = r.peak_trace_buffer_bytes;
    const auto oh = session.overhead();
    out.overhead_alm_pct = oh.alm_pct;
    out.overhead_register_pct = oh.register_pct;
  }
}

runner::JobResult run_single_user_job(const Workload& w, int index,
                                      const std::string& paraver_base) {
  const runner::JobSpec& spec = w.batch.spec(index);
  runner::JobResult out;
  out.index = index;
  out.name = spec.name;
  out.seed = job_seed(w, index);
  const auto t0 = Clock::now();
  try {
    SplitMix64 rng(out.seed);
    core::Session session(core::compile(spec.kernel(rng), spec.hls),
                          spec.run);
    runner::HostBuffers buffers;
    spec.bind(session, buffers, rng);
    const core::RunResult r = session.run();
    if (spec.check) spec.check(r, buffers);
    fill_result(out, session, r);
    paraver::write_paraver(r.timeline, spec.name, paraver_base);
    out.status = runner::JobStatus::ok;
  } catch (const std::exception& e) {
    out.status = runner::JobStatus::failed;
    out.error = e.what();
  }
  out.wall_ms = ms_since(t0);
  return out;
}

}  // namespace perfbench
