// Micro-benchmarks of the live observability layer plus a hard guard on
// its core contract: with no live sink attached (the default), the run
// path must be near-free. Disabled cost is ONE pointer test per run —
// core::Session::run selects the canonical builder directly and never
// constructs the tee — so the guard measures the real cost of that
// sink-selection branch, scales it by a generous over-estimate of
// selections per run, and asserts the bound stays under 2% of a measured
// run time. The enabled path (tee + LiveTimelineView per record) is
// measured and reported for reference but is not part of the disabled
// contract.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/hlsprof.hpp"
#include "live/timeline.hpp"
#include "trace/streaming.hpp"
#include "workloads/simple.hpp"

using namespace hlsprof;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sink that discards records — the cheapest possible tee target, so the
/// branch measurement below is not polluted by real sink work.
struct NullSink final : trace::RecordSink {
  void on_state(const trace::StateRecord&, cycle_t) override {}
  void on_event(const trace::EventRecord&, cycle_t) override {}
};

/// Measured wall-clock cost of one disabled sink selection: the
/// `live_sink != nullptr` test Session::run performs once per run (the
/// tee is never constructed when it fails).
double disabled_branch_seconds() {
  NullSink primary;
  trace::RecordSink* live = nullptr;
  benchmark::DoNotOptimize(live);  // opaque to the optimizer
  constexpr long long kIters = 16'000'000;
  const auto t0 = Clock::now();
  for (long long i = 0; i < kIters; ++i) {
    trace::RecordSink* sink = &primary;
    if (live != nullptr) sink = live;
    benchmark::DoNotOptimize(sink);
  }
  return seconds_since(t0) / double(kIters);
}

/// Min-of-several simulator run time for a small workload; `sink`
/// optionally attaches a live observer (min damps scheduler noise).
double sim_run_seconds(trace::RecordSink* sink) {
  const auto design = std::make_shared<const hls::Design>(
      core::compile(workloads::vecadd(4096, 4)));
  double best = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    core::RunOptions opts;
    opts.live_sink = sink;
    core::Session session(design, opts);
    std::vector<float> x(4096, 1.0f), y(4096, 2.0f), z(4096, 0.0f);
    session.sim().bind_f32("x", x);
    session.sim().bind_f32("y", y);
    session.sim().bind_f32("z", z);
    const auto t0 = Clock::now();
    session.run();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// The branch runs once per Session::run; 64 leaves room for future
/// per-phase selection points without moving the bound.
constexpr double kSelectionsPerRun = 64.0;

void check_disabled_overhead() {
  const double branch_s = disabled_branch_seconds();
  const double run_s = sim_run_seconds(nullptr);
  const double overhead = kSelectionsPerRun * branch_s / run_s;
  std::printf(
      "live disabled-path guard: %.2f ns/selection, sim run %.3f ms, "
      "bound %.6f%% of run (limit 2%%)\n",
      branch_s * 1e9, run_s * 1e3, overhead * 100.0);
  if (overhead >= 0.02) {
    std::fprintf(stderr,
                 "FAIL: disabled live-path overhead bound %.6f%% >= 2%%\n",
                 overhead * 100.0);
    std::exit(1);
  }
  // Reference only: what attaching the live timeline costs (no output
  // stream, so it accounts every record but never renders).
  live::LiveTimelineView view(4);
  const double live_run_s = sim_run_seconds(&view);
  std::printf(
      "live enabled-path reference: run %.3f ms with LiveTimelineView "
      "attached (%+.1f%% vs disabled)\n",
      live_run_s * 1e3, (live_run_s / run_s - 1.0) * 100.0);
}

// ---- microbenches ----------------------------------------------------------

trace::StateRecord make_state(int threads, std::uint32_t clock) {
  trace::StateRecord r;
  r.clock32 = clock;
  for (int k = 0; k < threads; ++k) {
    r.states.push_back(std::uint8_t((clock + std::uint32_t(k)) % 4));
  }
  return r;
}

void BM_live_timeline_on_state(benchmark::State& state) {
  live::LiveTimelineView view(8);  // null output: never auto-renders
  cycle_t t = 0;
  for (auto _ : state) {
    view.on_state(make_state(8, std::uint32_t(t)), t);
    t += 16;
  }
  benchmark::DoNotOptimize(view.last_clock());
}
BENCHMARK(BM_live_timeline_on_state);

void BM_tee_dispatch(benchmark::State& state) {
  NullSink a;
  NullSink b;
  trace::TeeRecordSink tee(a, b);
  const trace::StateRecord r = make_state(8, 0);
  cycle_t t = 0;
  for (auto _ : state) tee.on_state(r, ++t);
}
BENCHMARK(BM_tee_dispatch);

}  // namespace

int main(int argc, char** argv) {
  check_disabled_overhead();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
