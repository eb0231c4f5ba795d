// Differential suite for the simulator's two execution modes: the fast
// path (direct dispatch + batched memory streams, the default) must be
// cycle-exact against the reference event loop
// (SimParams::reference_event_loop) — identical SimResult fields, bitwise
// identical output buffers, and byte-identical Paraver .prv/.pcf/.row
// text — on every example workload and on randomized designs mixing
// thread counts, lock patterns, and barrier/critical interleavings.
#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/hlsprof.hpp"
#include "frontend/lower.hpp"
#include "ir/builder.hpp"
#include "paraver/writer.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

/// Host buffers for one run. The bound spans point into these vectors, so
/// they must outlive Simulator::run(); buffers registered through `out()`
/// are the ones whose *post-run* contents the test compares between modes.
class HostBufs {
 public:
  std::vector<float>& in(std::vector<float> v) {
    bufs_.push_back(std::move(v));
    return bufs_.back();
  }
  std::vector<float>& out(std::vector<float> v) {
    bufs_.push_back(std::move(v));
    out_idx_.push_back(bufs_.size() - 1);
    return bufs_.back();
  }
  std::vector<std::vector<float>> outputs() const {
    std::vector<std::vector<float>> o;
    for (std::size_t i : out_idx_) o.push_back(bufs_[i]);
    return o;
  }

 private:
  std::deque<std::vector<float>> bufs_;  // stable addresses across pushes
  std::vector<std::size_t> out_idx_;
};

using Binder = std::function<void(sim::Simulator&, HostBufs&)>;

struct ModeRun {
  sim::SimResult sim;
  paraver::ParaverFiles files;
  sim::Simulator::FastPathStats fast;
  std::vector<std::vector<float>> outputs;
};

sim::SimParams quick_params() {
  sim::SimParams p;
  p.host.thread_start_interval = 1000;  // keep tiny workloads fast
  return p;
}

ModeRun run_mode(const std::shared_ptr<const hls::Design>& design,
                 const Binder& bind, const sim::SimParams& base,
                 bool reference) {
  core::RunOptions opts;
  opts.sim = base;
  opts.sim.reference_event_loop = reference;
  core::Session s(design, opts);
  HostBufs bufs;
  bind(s.sim(), bufs);
  core::RunResult r = s.run();
  ModeRun m;
  m.sim = r.sim;
  m.files = paraver::to_paraver(r.timeline, design->kernel.name);
  m.fast = s.sim().fast_path_stats();
  m.outputs = bufs.outputs();
  return m;
}

void expect_same_result(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.kernel_start, b.kernel_start);
  EXPECT_EQ(a.kernel_done, b.kernel_done);
  EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t t = 0; t < a.threads.size(); ++t) {
    EXPECT_EQ(a.threads[t].start, b.threads[t].start) << "thread " << t;
    EXPECT_EQ(a.threads[t].end, b.threads[t].end) << "thread " << t;
    EXPECT_EQ(a.threads[t].stall_cycles, b.threads[t].stall_cycles)
        << "thread " << t;
    EXPECT_EQ(a.threads[t].int_ops, b.threads[t].int_ops) << "thread " << t;
    EXPECT_EQ(a.threads[t].fp_ops, b.threads[t].fp_ops) << "thread " << t;
    EXPECT_EQ(a.threads[t].ext_loads, b.threads[t].ext_loads)
        << "thread " << t;
    EXPECT_EQ(a.threads[t].ext_stores, b.threads[t].ext_stores)
        << "thread " << t;
  }
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].arg, b.transfers[i].arg);
    EXPECT_EQ(a.transfers[i].begin, b.transfers[i].begin);
    EXPECT_EQ(a.transfers[i].end, b.transfers[i].end);
  }
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.dram_bytes_read, b.dram_bytes_read);
  EXPECT_EQ(a.dram_bytes_written, b.dram_bytes_written);
  EXPECT_DOUBLE_EQ(a.row_hit_rate, b.row_hit_rate);
}

/// The core assertion: fast and reference runs of the same design agree on
/// every observable — SimResult, output bytes, and Paraver text.
void expect_modes_identical(ir::Kernel kernel, const Binder& bind,
                            const sim::SimParams& base = quick_params()) {
  auto design = core::compile_shared(std::move(kernel));
  const ModeRun fast = run_mode(design, bind, base, /*reference=*/false);
  const ModeRun ref = run_mode(design, bind, base, /*reference=*/true);

  expect_same_result(fast.sim, ref.sim);

  ASSERT_EQ(fast.outputs.size(), ref.outputs.size());
  for (std::size_t i = 0; i < fast.outputs.size(); ++i) {
    EXPECT_EQ(fast.outputs[i], ref.outputs[i]) << "output buffer " << i;
  }

  EXPECT_EQ(fast.files.prv, ref.files.prv);
  EXPECT_EQ(fast.files.pcf, ref.files.pcf);
  EXPECT_EQ(fast.files.row, ref.files.row);

  // The reference loop never touches the fast-path machinery.
  EXPECT_EQ(ref.fast.direct_dispatch, 0u);
  EXPECT_EQ(ref.fast.batched_mem, 0u);
}

// ---- Example workloads -----------------------------------------------------

TEST(SimFastPath, VecAddMatchesReference) {
  const std::int64_t n = 512;
  expect_modes_identical(workloads::vecadd(n, 4, 1),
                         [&](sim::Simulator& s, HostBufs& h) {
                           s.bind_f32("x", h.in(workloads::random_vector(n, 11)));
                           s.bind_f32("y", h.in(workloads::random_vector(n, 12)));
                           s.bind_f32("z", h.out(std::vector<float>(std::size_t(n))));
                         });
}

TEST(SimFastPath, VectorizedVecAddMatchesReference) {
  const std::int64_t n = 512;
  expect_modes_identical(workloads::vecadd(n, 2, 4),
                         [&](sim::Simulator& s, HostBufs& h) {
                           s.bind_f32("x", h.in(workloads::random_vector(n, 21)));
                           s.bind_f32("y", h.in(workloads::random_vector(n, 22)));
                           s.bind_f32("z", h.out(std::vector<float>(std::size_t(n))));
                         });
}

TEST(SimFastPath, DotCriticalReductionMatchesReference) {
  const std::int64_t n = 768;
  expect_modes_identical(workloads::dot(n, 4),
                         [&](sim::Simulator& s, HostBufs& h) {
                           s.bind_f32("x", h.in(workloads::random_vector(n, 31)));
                           s.bind_f32("y", h.in(workloads::random_vector(n, 32)));
                           s.bind_f32("out", h.out(std::vector<float>(1, 0.0f)));
                         });
}

TEST(SimFastPath, StencilMatchesReference) {
  const std::int64_t n = 600;
  expect_modes_identical(workloads::stencil3(n, 3),
                         [&](sim::Simulator& s, HostBufs& h) {
                           s.bind_f32("x", h.in(workloads::random_vector(n, 41)));
                           s.bind_f32("y", h.out(std::vector<float>(std::size_t(n))));
                         });
}

TEST(SimFastPath, BarrierPhasesMatchesReference) {
  const std::int64_t n = 256;
  expect_modes_identical(workloads::barrier_phases(n, 4),
                         [&](sim::Simulator& s, HostBufs& h) {
                           s.bind_f32("x", h.in(workloads::random_vector(n, 51)));
                           s.bind_f32("z", h.out(std::vector<float>(std::size_t(n))));
                           s.bind_f32("w", h.out(std::vector<float>(std::size_t(n))));
                         });
}

TEST(SimFastPath, Jacobi2dMatchesReference) {
  const int n = 16;
  expect_modes_identical(
      workloads::jacobi2d(n, /*iters=*/4, /*threads=*/4),
      [&](sim::Simulator& s, HostBufs& h) {
        s.bind_f32("u", h.out(workloads::random_vector(std::int64_t(n) * n, 61,
                                                       0.f, 1.f)));
      });
}

TEST(SimFastPath, PiSeriesMatchesReference) {
  workloads::PiConfig cfg;
  cfg.steps = 4096;
  cfg.threads = 8;
  cfg.unroll = 4;
  expect_modes_identical(workloads::pi_series(cfg),
                         [&](sim::Simulator& s, HostBufs& h) {
                           s.set_arg("steps", std::int64_t(cfg.steps));
                           s.set_arg("inv_steps", 1.0 / double(cfg.steps));
                           s.bind_f32("out", h.out(std::vector<float>(1, 0.0f)));
                         });
}

// Every GEMM version from the paper's optimization journey, including the
// preloader-DMA variant (batched bursts share ExternalMemory::burst with
// the reference loop, so this pins the by-construction equality).
class GemmVersionDiff : public ::testing::TestWithParam<int> {};

TEST_P(GemmVersionDiff, MatchesReference) {
  workloads::GemmConfig cfg;
  cfg.dim = 16;
  cfg.threads = 4;
  cfg.block = 8;
  ir::Kernel k = GetParam() < int(workloads::gemm_versions().size())
                     ? workloads::gemm_versions()[std::size_t(GetParam())]
                           .build(cfg)
                     : workloads::gemm_preloaded(cfg);
  const std::int64_t nn = std::int64_t(cfg.dim) * cfg.dim;
  expect_modes_identical(
      std::move(k), [&](sim::Simulator& s, HostBufs& h) {
        s.bind_f32("A", h.in(workloads::random_matrix(cfg.dim, 71)));
        s.bind_f32("B", h.in(workloads::random_matrix(cfg.dim, 72)));
        s.bind_f32("C", h.out(std::vector<float>(std::size_t(nn), 0.0f)));
      });
}

INSTANTIATE_TEST_SUITE_P(AllVersions, GemmVersionDiff,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

// 8 threads started 20 cycles apart overlap from the first iteration, so
// requests keep meeting the batching horizon mid-iteration of a batched
// loop body; the fast path resumes those threads inside the batched
// executor, and must stay cycle-exact.
sim::SimParams overlapping_params() {
  sim::SimParams p;
  p.host.thread_start_interval = 20;
  return p;
}

class GemmOverlapDiff
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GemmOverlapDiff, EightThreadsMatchReference) {
  const auto [version, dim] = GetParam();
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  cfg.threads = 8;
  const std::int64_t nn = std::int64_t(dim) * dim;
  expect_modes_identical(
      workloads::gemm_versions()[std::size_t(version)].build(cfg),
      [&](sim::Simulator& s, HostBufs& h) {
        s.bind_f32("A", h.in(workloads::random_matrix(dim, 61)));
        s.bind_f32("B", h.in(workloads::random_matrix(dim, 62)));
        s.bind_f32("C", h.out(std::vector<float>(std::size_t(nn), 0.0f)));
      },
      overlapping_params());
}

// Naive, no-critical and vectorized GEMM at dim 16 and 32.
INSTANTIATE_TEST_SUITE_P(SimFastPath, GemmOverlapDiff,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(16, 32)));

TEST(SimFastPath, MatmulSourceOverlappingThreadsMatchesReference) {
  std::ifstream f(HLSPROF_EXAMPLES_DIR "/kernels/matmul.c");
  ASSERT_TRUE(f.good());
  std::ostringstream src;
  src << f.rdbuf();
  for (const int dim : {16, 24, 32}) {
    SCOPED_TRACE("DIM " + std::to_string(dim));
    frontend::LowerOptions lo;
    lo.constants["DIM"] = dim;
    const std::int64_t nn = std::int64_t(dim) * dim;
    expect_modes_identical(
        frontend::compile_source(src.str(), lo),
        [&](sim::Simulator& s, HostBufs& h) {
          s.bind_f32("A", h.in(workloads::random_matrix(dim, 31)));
          s.bind_f32("B", h.in(workloads::random_matrix(dim, 32)));
          s.bind_f32("C", h.out(std::vector<float>(std::size_t(nn), 0.0f)));
          s.set_arg("DIM", std::int64_t(dim));
        },
        overlapping_params());
  }
}

// ---- Fast path actually engages -------------------------------------------

TEST(SimFastPath, SingleThreadRunsEntirelyOnFastPath) {
  const std::int64_t n = 256;
  hls::Design d = hls::compile(workloads::vecadd(n, 1, 1));
  sim::Simulator s(d, quick_params(), 1 << 22);
  auto x = workloads::random_vector(n, 81);
  auto y = workloads::random_vector(n, 82);
  std::vector<float> z(static_cast<std::size_t>(n));
  s.bind_f32("x", x);
  s.bind_f32("y", y);
  s.bind_f32("z", z);
  s.run();
  const auto st = s.fast_path_stats();
  // With one thread the heap is empty after its start event pops, so every
  // memory request batches and every other action commits inline.
  EXPECT_GT(st.batched_mem, 0u);
  EXPECT_GT(st.direct_dispatch, 0u);
}

TEST(SimFastPath, MultiThreadStillBatchesAndDispatches) {
  const std::int64_t n = 512;
  hls::Design d = hls::compile(workloads::vecadd(n, 4, 1));
  sim::Simulator s(d, quick_params(), 1 << 22);
  auto x = workloads::random_vector(n, 91);
  auto y = workloads::random_vector(n, 92);
  std::vector<float> z(static_cast<std::size_t>(n));
  s.bind_f32("x", x);
  s.bind_f32("y", y);
  s.bind_f32("z", z);
  s.run();
  const auto st = s.fast_path_stats();
  EXPECT_GT(st.direct_dispatch, 0u);
}

// ---- Randomized designs -----------------------------------------------------

/// A random kernel mixing the shapes that stress event ordering: strided
/// external loops, critical sections on random lock ids, barriers between
/// phases, and per-thread partial accumulation — the interleavings where a
/// wrong dispatch/batching rule would reorder commits.
ir::Kernel random_kernel(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const int threads = 1 + int(rng.next_below(6));  // 1..6
  const int locks = 1 + int(rng.next_below(3));    // 1..3
  const std::int64_t n = 64 + std::int64_t(rng.next_below(4)) * 64;
  const int phases = 2 + int(rng.next_below(3));  // 2..4

  ir::KernelBuilder kb("rand" + std::to_string(seed), threads);
  auto x = kb.ptr_arg("x", ir::Type::f32(), ir::MapDir::to, n);
  auto y = kb.ptr_arg("y", ir::Type::f32(), ir::MapDir::tofrom, n);
  auto acc = kb.ptr_arg("acc", ir::Type::f32(), ir::MapDir::tofrom, locks);
  ir::Val tid = kb.thread_id();
  ir::Val nt = kb.num_threads_val();

  // Appending, rather than `"i" + std::to_string(ph)`, keeps GCC 12 -O3
  // free of a false -Wrestrict.
  const auto label = [](char stem, int ph) {
    std::string s(1, stem);
    s += std::to_string(ph);
    return s;
  };
  for (int ph = 0; ph < phases; ++ph) {
    switch (rng.next_below(3)) {
      case 0: {  // strided elementwise update
        kb.for_loop(label('i', ph), tid, kb.c32(n), nt,
                    [&](ir::Val i) {
                      ir::Val v = kb.load(x, i) + kb.load(y, i);
                      kb.store(y, i, v);
                    });
        break;
      }
      case 1: {  // partial sum merged under a random lock
        const int lock = int(rng.next_below(std::uint64_t(locks)));
        auto part = kb.var_init(label('p', ph), kb.cf32(0.0));
        kb.for_loop(label('j', ph), tid, kb.c32(n), nt,
                    [&](ir::Val j) { part.set(part.get() + kb.load(x, j)); });
        kb.critical(lock, [&] {
          ir::Val idx = kb.c32(lock);
          kb.store(acc, idx, kb.load(acc, idx) + part.get());
        });
        break;
      }
      default: {  // neighbour read that is only safe behind a barrier
        kb.barrier();
        kb.for_loop(label('k', ph), tid, kb.c32(n - 1), nt,
                    [&](ir::Val k) {
                      kb.store(y, k,
                               kb.load(y, k + std::int64_t{1}) * 0.5 +
                                   kb.load(x, k));
                    });
        kb.barrier();
        break;
      }
    }
  }
  return std::move(kb).finish();
}

class RandomDesignDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDesignDiff, MatchesReference) {
  const std::uint64_t seed = GetParam();
  ir::Kernel k = random_kernel(seed);
  const std::int64_t n = k.args[0].count;  // "x"
  const std::int64_t locks = k.args[2].count;
  expect_modes_identical(
      std::move(k), [&](sim::Simulator& s, HostBufs& h) {
        s.bind_f32("x", h.in(workloads::random_vector(n, seed * 2 + 1)));
        s.bind_f32("y", h.out(workloads::random_vector(n, seed * 2 + 2)));
        s.bind_f32("acc",
                   h.out(std::vector<float>(std::size_t(locks), 0.0f)));
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesignDiff,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

// Randomized DRAM/host parameters on a fixed contended design: parameter
// changes move accept/complete times around and thus reshuffle the event
// interleaving the fast path must reproduce.
class RandomParamsDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomParamsDiff, DotUnderRandomTimingMatchesReference) {
  SplitMix64 rng(GetParam() * 977);
  sim::SimParams p = quick_params();
  p.dram.base_latency = 4 + cycle_t(rng.next_below(64));
  p.dram.row_miss_penalty = cycle_t(rng.next_below(48));
  p.dram.num_banks = 1 << rng.next_below(4);  // 1..8
  p.host.thread_start_interval = 1 + cycle_t(rng.next_below(3000));
  const std::int64_t n = 512;
  const int threads = 1 << (1 + rng.next_below(3));  // 2, 4, or 8 (n | threads)
  expect_modes_identical(
      workloads::dot(n, threads),
      [&](sim::Simulator& s, HostBufs& h) {
        s.bind_f32("x", h.in(workloads::random_vector(n, 101)));
        s.bind_f32("y", h.in(workloads::random_vector(n, 102)));
        s.bind_f32("out", h.out(std::vector<float>(1, 0.0f)));
      },
      p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomParamsDiff,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace hlsprof
