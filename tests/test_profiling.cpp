// Tests for the profiling unit: state recording, event sampling, the
// buffer/flush engine, DRAM round-trip decoding, and the overhead model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/hlsprof.hpp"
#include "paraver/writer.hpp"
#include "profiling/overhead.hpp"
#include "profiling/unit.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof::profiling {
namespace {

using sim::ThreadState;
using trace::EventKind;

core::RunOptions fast_opts() {
  core::RunOptions o;
  o.sim.host.thread_start_interval = 300;
  o.profiling.sampling_period = 128;
  return o;
}

core::RunResult run_dot(int threads, core::RunOptions opts,
                        std::int64_t n = 240) {
  hls::Design d = hls::compile(workloads::dot(n, threads));
  core::Session s(std::move(d), opts);
  auto x = workloads::random_vector(n, 3);
  auto y = workloads::random_vector(n, 4);
  std::vector<float> out(1, 0.0f);
  s.sim().bind_f32("x", x);
  s.sim().bind_f32("y", y);
  s.sim().bind_f32("out", out);
  return s.run();
}

// ---- state recording ---------------------------------------------------------

TEST(ProfilingStates, LifecycleIdleRunningIdle) {
  const auto r = run_dot(2, fast_opts());
  ASSERT_TRUE(r.has_trace);
  int trailing_idle = 0;
  for (int t = 0; t < 2; ++t) {
    const auto& iv = r.timeline.thread_states[std::size_t(t)];
    ASSERT_GE(iv.size(), 2u) << t;
    EXPECT_EQ(iv.front().state, ThreadState::idle);
    bool ran = false;
    for (const auto& s : iv) ran |= s.state == ThreadState::running;
    EXPECT_TRUE(ran);
    if (iv.back().state == ThreadState::idle) ++trailing_idle;
  }
  // Every thread except the last finisher shows a trailing idle interval
  // (the trace ends exactly when the last thread goes idle).
  EXPECT_GE(trailing_idle, 1);
}

TEST(ProfilingStates, CriticalSectionsAppearInTrace) {
  const auto r = run_dot(4, fast_opts());
  EXPECT_GT(r.timeline.state_cycles(ThreadState::critical), 0u);
}

TEST(ProfilingStates, IntervalsArePartition) {
  // Per thread: intervals are contiguous, non-overlapping, cover [0, end).
  const auto r = run_dot(4, fast_opts());
  for (const auto& iv : r.timeline.thread_states) {
    ASSERT_FALSE(iv.empty());
    EXPECT_EQ(iv.front().begin, 0u);
    for (std::size_t i = 1; i < iv.size(); ++i) {
      EXPECT_EQ(iv[i].begin, iv[i - 1].end);
    }
    EXPECT_EQ(iv.back().end, r.timeline.duration);
  }
}

TEST(ProfilingStates, SpinningRecordedUnderContention) {
  // 8 threads hammering one critical section must spin.
  core::RunOptions o = fast_opts();
  const auto r = run_dot(8, o, 960);
  EXPECT_GT(r.timeline.state_cycles(ThreadState::spinning), 0u);
}

TEST(ProfilingStates, DisabledStatesProduceNoStateRecords) {
  core::RunOptions o = fast_opts();
  o.profiling.enable_states = false;
  const auto r = run_dot(2, o);
  EXPECT_EQ(r.state_records, 0);
  EXPECT_GT(r.event_records, 0);
}

// ---- event sampling --------------------------------------------------------------

TEST(ProfilingEvents, MemoryBytesMatchSimulatorCounts) {
  const auto r = run_dot(2, fast_opts());
  // Trace bytes-read must equal the application's loads (4 B each); the
  // tracer's own flush writes must NOT appear (it snoops the CU ports).
  long long app_loads = 0;
  for (const auto& t : r.sim.threads) app_loads += t.ext_loads;
  EXPECT_EQ(r.timeline.event_total(EventKind::bytes_read),
            std::uint64_t(app_loads) * 4);
}

TEST(ProfilingEvents, FlopCountsMatchSimulator) {
  const auto r = run_dot(2, fast_opts());
  const auto traced = r.timeline.event_total(EventKind::fp_ops);
  const auto simmed = std::uint64_t(r.sim.total_fp_ops());
  // add_range attribution rounds per window; allow 1% slack.
  EXPECT_NEAR(double(traced), double(simmed), 0.01 * double(simmed) + 2);
}

TEST(ProfilingEvents, StallCyclesMatchSimulator) {
  const auto r = run_dot(2, fast_opts());
  EXPECT_EQ(r.timeline.event_total(EventKind::stall_cycles),
            std::uint64_t(r.sim.total_stall_cycles()));
}

TEST(ProfilingEvents, WindowTimestampsAlignToPeriod) {
  const auto r = run_dot(2, fast_opts());
  for (const auto& e : r.timeline.events) {
    EXPECT_EQ(e.t % 128, 0u);
  }
}

TEST(ProfilingEvents, DisabledCollectorsEmitNothing) {
  core::RunOptions o = fast_opts();
  o.profiling.enable_memory_events = false;
  o.profiling.enable_stall_events = false;
  const auto r = run_dot(2, o);
  EXPECT_EQ(r.timeline.event_total(EventKind::bytes_read), 0u);
  EXPECT_EQ(r.timeline.event_total(EventKind::stall_cycles), 0u);
  EXPECT_GT(r.timeline.event_total(EventKind::fp_ops), 0u);
}

TEST(ProfilingEvents, FinerPeriodMoreRecords) {
  core::RunOptions coarse = fast_opts();
  coarse.profiling.sampling_period = 4096;
  core::RunOptions fine = fast_opts();
  fine.profiling.sampling_period = 64;
  const auto rc = run_dot(2, coarse);
  const auto rf = run_dot(2, fine);
  EXPECT_GT(rf.event_records, rc.event_records);
  EXPECT_GT(rf.trace_bytes, rc.trace_bytes);
}

/// Per-window reference of the unit's event sampling: bins per (metric,
/// thread) and window, point samples land in their cycle's window, spans
/// spread uniformly, and a window is emitted once the high-water mark is
/// the finalize lag past its end. Samples for an emitted window are lost.
class RefSampler {
 public:
  RefSampler(const ProfilingConfig& cfg, int threads)
      : cfg_(cfg), T_(threads), bins_(std::size_t(5 * threads)) {}

  void point(int metric, int tid, cycle_t t, double amount) {
    note(t);
    bin(metric, tid, std::size_t(t / cfg_.sampling_period)) += amount;
  }
  void span(int metric, int tid, cycle_t t0, cycle_t t1, double amount) {
    if (t1 > t0) {
      const cycle_t P = cfg_.sampling_period;
      for (cycle_t w = t0 / P; w <= (t1 - 1) / P; ++w) {
        const cycle_t lo = std::max(t0, w * P);
        const cycle_t hi = std::min(t1, (w + 1) * P);
        bin(metric, tid, std::size_t(w)) +=
            amount * double(hi - lo) / double(t1 - t0);
      }
    }
    high_water_ = std::max(high_water_, t1);
  }
  void note(cycle_t t) {
    high_water_ = std::max(high_water_, t);
    const cycle_t lag = std::max(cfg_.finalize_lag, cfg_.sampling_period);
    if (cfg_.any_events() && high_water_ > lag) emit_up_to(high_water_ - lag);
  }
  void finish(cycle_t t) {
    high_water_ = std::max(high_water_, t);
    if (cfg_.any_events()) emit_up_to(high_water_ + cfg_.sampling_period);
  }
  const std::vector<trace::EventRecord>& records() const { return records_; }

 private:
  double& bin(int metric, int tid, std::size_t w) {
    auto& b = bins_[std::size_t(metric * T_ + tid)];
    if (b.size() <= w) b.resize(w + 1, 0.0);
    return b[w];
  }
  bool enabled(int m) const {
    return m == 0 ? cfg_.enable_stall_events
                  : m <= 2 ? cfg_.enable_compute_events
                           : cfg_.enable_memory_events;
  }
  void emit_up_to(cycle_t limit) {
    const cycle_t P = cfg_.sampling_period;
    for (; (cycle_t(next_) + 1) * P <= limit; ++next_) {
      for (int m = 0; m < 5; ++m) {
        if (!enabled(m)) continue;
        for (int t = 0; t < T_; ++t) {
          const auto& b = bins_[std::size_t(m * T_ + t)];
          const double raw = next_ < b.size() ? b[next_] : 0.0;
          const auto v = std::uint64_t(std::llround(raw));
          if (v == 0) continue;
          trace::EventRecord r;
          r.kind = EventKind(m + 1);
          r.thread = std::uint8_t(t);
          r.clock32 = std::uint32_t(cycle_t(next_) * P);
          r.value = v;
          records_.push_back(r);
        }
      }
    }
  }

  ProfilingConfig cfg_;
  int T_;
  std::vector<std::vector<double>> bins_;
  std::size_t next_ = 0;
  cycle_t high_water_ = 0;
  std::vector<trace::EventRecord> records_;
};

TEST(ProfilingEvents, RandomHookStreamMatchesReference) {
  // The metric order the unit bins by matches EventKind's numbering.
  ASSERT_EQ(int(EventKind::stall_cycles), 1);
  ASSERT_EQ(int(EventKind::bytes_written), 5);
  constexpr int T = 3;
  const hls::Design d = hls::compile(workloads::dot(60, T));
  SplitMix64 rng(0x5eed1e55ULL);
  long long records_checked = 0;
  for (int stream = 0; stream < 60; ++stream) {
    ProfilingConfig cfg;
    const cycle_t periods[] = {1, 7, 64, 100, 128};
    cfg.sampling_period = periods[rng.next_below(5)];
    const cycle_t lags[] = {0, cfg.sampling_period, 3 * cfg.sampling_period,
                            1000};
    cfg.finalize_lag = lags[rng.next_below(4)];
    cfg.enable_states = rng.next_below(4) != 0;
    cfg.enable_stall_events = rng.next_below(4) != 0;
    cfg.enable_compute_events = rng.next_below(4) != 0;
    cfg.enable_memory_events = rng.next_below(4) != 0;
    cfg.buffer_lines = 8;
    cfg.trace_region_bytes = std::size_t{4} << 20;
    sim::ExternalMemory mem(sim::DramParams{}, std::size_t{8} << 20);
    ProfilingUnit unit(d, cfg, mem);
    RefSampler ref(cfg, T);

    const cycle_t P = cfg.sampling_period;
    cycle_t now = 0;
    cycle_t high = 0;
    for (int i = 0; i < 1500; ++i) {
      // Mostly small forward steps; sometimes behind the last sample's
      // window, behind the high-water mark, inside windows already
      // emitted, or far ahead.
      cycle_t t = now;
      switch (rng.next_below(10)) {
        case 0: t = now > 2 * P ? now - 1 - rng.next_below(2 * P) : 0; break;
        case 1: t = high > 0 ? rng.next_below(high) : 0; break;
        case 2: t = now + 5 * P + rng.next_below(40 * P); break;
        default: t = now + rng.next_below(P + 3); break;
      }
      now = std::max(now, t);
      const int tid = int(rng.next_below(T));
      const cycle_t t1 = t + rng.next_below(6 * P + 2);
      high = std::max(high, std::max(t, t1));
      switch (rng.next_below(6)) {
        case 0: {
          const auto bytes = std::uint32_t(4 << rng.next_below(5));
          const bool wr = rng.next_below(3) == 0;
          unit.on_mem(thread_id_t(tid), t, bytes, wr);
          if (cfg.enable_memory_events) ref.point(wr ? 4 : 3, tid, t, bytes);
          break;
        }
        case 1: {
          const cycle_t cycles = 1 + rng.next_below(50);
          unit.on_stall(thread_id_t(tid), t, cycles);
          if (cfg.enable_stall_events) ref.point(0, tid, t, double(cycles));
          break;
        }
        case 2: {
          const auto iops = (long long)rng.next_below(40);
          const auto fops = (long long)rng.next_below(40);
          unit.on_compute(thread_id_t(tid), iops, fops, t, t1);
          if (cfg.enable_compute_events) {
            if (iops > 0) ref.span(1, tid, t, t1, double(iops));
            if (fops > 0) ref.span(2, tid, t, t1, double(fops));
            if (iops == 0 && fops == 0) ref.span(1, tid, t, t1, 0.0);
          }
          break;
        }
        case 3: {
          const std::uint64_t rd = rng.next_below(300);
          const std::uint64_t wr = rng.next_below(2) * rng.next_below(300);
          unit.on_mem_span(thread_id_t(tid), t, t1, rd, wr);
          if (cfg.enable_memory_events) {
            if (rd > 0) ref.span(3, tid, t, t1, double(rd));
            if (wr > 0) ref.span(4, tid, t, t1, double(wr));
            if (rd == 0 && wr == 0) ref.span(3, tid, t, t1, 0.0);
          }
          break;
        }
        case 4: {
          const cycle_t cycles = rng.next_below(200);
          unit.on_stall_span(thread_id_t(tid), t, t1, cycles);
          if (cfg.enable_stall_events) ref.span(0, tid, t, t1, double(cycles));
          break;
        }
        default: {
          const auto st = sim::ThreadState(rng.next_below(4));
          unit.on_state(thread_id_t(tid), st, t);
          if (cfg.enable_states) ref.note(t);
          break;
        }
      }
    }
    const cycle_t end = high + rng.next_below(3 * P);
    unit.on_finish(end);
    ref.finish(end);

    const trace::DecodedTrace got = unit.decode();
    const auto& want = ref.records();
    ASSERT_EQ(got.events.size(), want.size()) << "stream " << stream;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const auto& g = got.events[k];
      const auto& w = want[k];
      ASSERT_TRUE(g.kind == w.kind && g.thread == w.thread &&
                  g.clock32 == w.clock32 && g.value == w.value)
          << "stream " << stream << " record " << k << ": got kind "
          << int(g.kind) << " thread " << int(g.thread) << " clock "
          << g.clock32 << " value " << g.value << ", want kind "
          << int(w.kind) << " thread " << int(w.thread) << " clock "
          << w.clock32 << " value " << w.value;
    }
    records_checked += (long long)want.size();
  }
  EXPECT_GT(records_checked, 10000);
}

// ---- buffer / flush engine ---------------------------------------------------------

TEST(ProfilingFlush, SmallerBufferFlushesMoreOften) {
  core::RunOptions small = fast_opts();
  small.profiling.buffer_lines = 8;
  core::RunOptions big = fast_opts();
  big.profiling.buffer_lines = 512;
  const auto rs = run_dot(4, small);
  const auto rb = run_dot(4, big);
  EXPECT_GT(rs.flush_bursts, rb.flush_bursts);
}

TEST(ProfilingFlush, TraceRegionOverflowDiagnosedWithoutSink) {
  // Batch mode (no streaming sink): the whole trace must stay resident
  // for the post-run decode, so a tiny region overflows.
  hls::Design d = hls::compile(workloads::dot(240, 4));
  sim::Simulator s(d, fast_opts().sim);
  ProfilingConfig cfg = fast_opts().profiling;
  cfg.sampling_period = 16;     // huge record volume
  cfg.trace_region_bytes = 512;  // tiny region
  ProfilingUnit unit(d, cfg, s.memory());
  auto x = workloads::random_vector(240, 3);
  auto y = workloads::random_vector(240, 4);
  std::vector<float> out(1, 0.0f);
  s.bind_f32("x", x);
  s.bind_f32("y", y);
  s.bind_f32("out", out);
  EXPECT_THROW(s.run(&unit), Error);
}

TEST(ProfilingFlush, StreamingSinkMakesTinyRegionARing) {
  // Session streams each flush burst through the decoder, so the DRAM
  // region wraps instead of overflowing and the run that used to die with
  // "trace region overflow" completes with a full timeline.
  core::RunOptions o = fast_opts();
  o.profiling.sampling_period = 16;     // huge record volume
  o.profiling.trace_region_bytes = 512;  // tiny region — now a ring
  const auto r = run_dot(4, o);
  ASSERT_TRUE(r.has_trace);
  EXPECT_GT(r.trace_bytes, o.profiling.trace_region_bytes);
  EXPECT_EQ(r.timeline.num_threads, 4);
  EXPECT_GT(r.timeline.duration, 0u);
  EXPECT_GT(r.timeline.state_cycles(ThreadState::running), 0u);
}

TEST(ProfilingFlush, PeakTraceBufferBoundedByBurstSize) {
  // Peak host-side trace residency is O(flush burst), not O(run): it can
  // never exceed the on-chip buffer capacity, however big the trace got.
  core::RunOptions o = fast_opts();
  o.profiling.buffer_lines = 8;
  o.profiling.flush_headroom_lines = 2;
  const auto r = run_dot(4, o, 960);
  ASSERT_TRUE(r.has_trace);
  EXPECT_GT(r.peak_trace_buffer_bytes, 0u);
  EXPECT_LE(r.peak_trace_buffer_bytes,
            std::size_t(o.profiling.buffer_lines) * trace::kLineBytes);
  // The bound is burst-sized even though the whole trace is much bigger.
  EXPECT_GT(r.trace_bytes, r.peak_trace_buffer_bytes);
}

TEST(ProfilingFlush, TraceBytesAreWholeLines) {
  const auto r = run_dot(2, fast_opts());
  EXPECT_GT(r.trace_bytes, 0u);
  EXPECT_EQ(r.trace_bytes % trace::kLineBytes, 0u);
}

TEST(ProfilingFlush, BadConfigRejected) {
  hls::Design d = hls::compile(workloads::dot(240, 2));
  sim::Simulator s(d);
  ProfilingConfig bad;
  bad.sampling_period = 0;
  EXPECT_THROW(ProfilingUnit(d, bad, s.memory()), Error);
  ProfilingConfig bad2;
  bad2.buffer_lines = 2;
  bad2.flush_headroom_lines = 4;
  EXPECT_THROW(ProfilingUnit(d, bad2, s.memory()), Error);
}

// ---- round-trip through simulated DRAM ----------------------------------------------

TEST(ProfilingRoundTrip, DecodeMatchesRecordCounts) {
  hls::Design d = hls::compile(workloads::dot(240, 2));
  core::RunOptions o = fast_opts();
  core::Session s(std::move(d), o);
  auto x = workloads::random_vector(240, 3);
  auto y = workloads::random_vector(240, 4);
  std::vector<float> out(1, 0.0f);
  s.sim().bind_f32("x", x);
  s.sim().bind_f32("y", y);
  s.sim().bind_f32("out", out);
  const auto r = s.run();
  const auto decoded = s.unit()->decode();
  EXPECT_EQ(static_cast<long long>(decoded.states.size()), r.state_records);
  EXPECT_EQ(static_cast<long long>(decoded.events.size()), r.event_records);
}

TEST(ProfilingRoundTrip, TimelineBeforeFinishRejected) {
  hls::Design d = hls::compile(workloads::dot(240, 2));
  sim::Simulator s(d);
  ProfilingUnit unit(d, ProfilingConfig{}, s.memory());
  EXPECT_THROW(unit.timeline(), Error);
}

TEST(ProfilingRoundTrip, PerturbationIsBoundedButTrafficReal) {
  // The tracer's flush traffic goes through the shared DRAM: the profiled
  // run differs from the clean run by less than 2%, and the DRAM write
  // count includes the trace lines.
  auto d = core::compile_shared(workloads::dot(960, 4));
  core::RunOptions clean = fast_opts();
  clean.enable_profiling = false;
  core::RunOptions traced = fast_opts();

  auto run_with = [&](const core::RunOptions& o) {
    core::Session s(d, o);
    auto x = workloads::random_vector(960, 3);
    auto y = workloads::random_vector(960, 4);
    std::vector<float> out(1, 0.0f);
    s.sim().bind_f32("x", x);
    s.sim().bind_f32("y", y);
    s.sim().bind_f32("out", out);
    return s.run();
  };
  const auto rc = run_with(clean);
  const auto rt = run_with(traced);
  const double delta =
      std::abs(double(rt.sim.kernel_cycles) - double(rc.sim.kernel_cycles)) /
      double(rc.sim.kernel_cycles);
  EXPECT_LT(delta, 0.02);
  EXPECT_GT(rt.sim.dram_writes, rc.sim.dram_writes);
}

// ---- streaming pipeline vs post-run batch decode -------------------------------------

// The acceptance bar for the streaming pipeline: the timeline it builds
// burst-by-burst must render byte-identical Paraver files to the pre-change
// batch path (read the whole DRAM trace region after the run, decode, then
// reconstruct). Exercised on the paper's two case-study kernels.
void expect_stream_equals_batch(core::Session& s, core::RunResult r) {
  ASSERT_TRUE(r.has_trace);
  // Rebuild the timeline the old way: whole-region DRAM read-back.
  trace::TimedTrace batch = s.unit()->timeline();
  for (const sim::HostTransfer& t : r.sim.transfers) {
    batch.comms.push_back(trace::CommRecord{
        0, t.begin, t.end, t.bytes,
        t.to_device ? trace::kCommTagToDevice : trace::kCommTagFromDevice});
  }
  const auto stream_files = paraver::to_paraver(r.timeline, "stream");
  const auto batch_files = paraver::to_paraver(batch, "stream");
  EXPECT_EQ(stream_files.prv, batch_files.prv);
  EXPECT_EQ(stream_files.pcf, batch_files.pcf);
  EXPECT_EQ(stream_files.row, batch_files.row);
}

TEST(ProfilingStreaming, GemmParaverByteIdenticalToBatchDecode) {
  workloads::GemmConfig cfg;
  cfg.dim = 16;
  core::Session s(core::compile(workloads::gemm_naive(cfg)), fast_opts());
  auto a = workloads::random_matrix(cfg.dim, 11);
  auto b = workloads::random_matrix(cfg.dim, 22);
  std::vector<float> c(std::size_t(cfg.dim) * std::size_t(cfg.dim), 0.0f);
  s.sim().bind_f32("A", a);
  s.sim().bind_f32("B", b);
  s.sim().bind_f32("C", c);
  expect_stream_equals_batch(s, s.run());
}

TEST(ProfilingStreaming, PiParaverByteIdenticalToBatchDecode) {
  workloads::PiConfig cfg;
  cfg.steps = 4096;
  core::Session s(core::compile(workloads::pi_series(cfg)), fast_opts());
  std::vector<float> out(1, 0.0f);
  s.sim().bind_f32("out", out);
  s.sim().set_arg("steps", std::int64_t(cfg.steps));
  s.sim().set_arg("inv_steps", 1.0 / double(cfg.steps));
  expect_stream_equals_batch(s, s.run());
}

// ---- overhead model ------------------------------------------------------------------

TEST(Overhead, ZeroWhenEverythingDisabled) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  hls::Design d = hls::compile(workloads::gemm_naive(cfg));
  ProfilingConfig off;
  off.enable_states = false;
  off.enable_stall_events = false;
  off.enable_compute_events = false;
  off.enable_memory_events = false;
  const auto oh = estimate_overhead(d, off);
  EXPECT_DOUBLE_EQ(oh.delta.ff, 0.0);
  EXPECT_DOUBLE_EQ(oh.delta.alm, 0.0);
}

TEST(Overhead, EachCollectorAddsHardware) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  hls::Design d = hls::compile(workloads::gemm_naive(cfg));
  ProfilingConfig base;
  base.enable_states = false;
  base.enable_stall_events = false;
  base.enable_compute_events = false;
  base.enable_memory_events = false;

  double prev_ff = estimate_overhead(d, base).delta.ff;
  auto check_grows = [&](auto enable) {
    ProfilingConfig c = base;
    enable(c);
    const double ff = estimate_overhead(d, c).delta.ff;
    EXPECT_GT(ff, prev_ff);
  };
  check_grows([](ProfilingConfig& c) { c.enable_states = true; });
  check_grows([](ProfilingConfig& c) { c.enable_stall_events = true; });
  check_grows([](ProfilingConfig& c) { c.enable_compute_events = true; });
  check_grows([](ProfilingConfig& c) { c.enable_memory_events = true; });
}

TEST(Overhead, CountersContributeSimilarly) {
  // The paper: "each of the counters contributes similarly to the
  // hardware overhead, none ... remarkably expensive."
  workloads::GemmConfig cfg;
  cfg.dim = 64;
  hls::Design d = hls::compile(workloads::gemm_naive(cfg));
  const auto oh = estimate_overhead(d, ProfilingConfig{});
  const double parts[] = {oh.parts.stall_counters.alm,
                          oh.parts.compute_counters.alm,
                          oh.parts.memory_counters.alm};
  for (double a : parts) {
    for (double b : parts) {
      EXPECT_LT(a / b, 5.0);  // within a small factor of each other
    }
  }
}

TEST(Overhead, RelativeCostShrinksForBiggerDesigns) {
  workloads::GemmConfig small;
  small.dim = 32;
  workloads::GemmConfig big = small;
  big.block = 16;
  hls::Design d_small = hls::compile(workloads::gemm_naive(small));
  hls::Design d_big = hls::compile(workloads::gemm_blocked(big));
  const auto oh_small = estimate_overhead(d_small, ProfilingConfig{});
  const auto oh_big = estimate_overhead(d_big, ProfilingConfig{});
  EXPECT_GT(oh_small.register_pct, oh_big.register_pct);
}

TEST(Overhead, FmaxDeltaWithinPaperBound) {
  for (const auto& v : workloads::gemm_versions()) {
    workloads::GemmConfig cfg;
    cfg.dim = 64;
    hls::Design d = hls::compile(v.build(cfg));
    const auto oh = estimate_overhead(d, ProfilingConfig{});
    EXPECT_LE(oh.fmax_delta_mhz, 8.0) << v.name;
    EXPECT_GE(oh.fmax_delta_mhz, 0.0) << v.name;
    EXPECT_LT(oh.profiled_fmax(d.fmax_mhz), d.fmax_mhz);
  }
}

TEST(Overhead, BufferDepthCostsBram) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  hls::Design d = hls::compile(workloads::gemm_naive(cfg));
  ProfilingConfig small;
  small.buffer_lines = 16;
  ProfilingConfig big;
  big.buffer_lines = 256;
  EXPECT_GT(estimate_overhead(d, big).delta.bram_bits,
            estimate_overhead(d, small).delta.bram_bits);
}

}  // namespace
}  // namespace hlsprof::profiling
