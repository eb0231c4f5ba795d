// Functional-correctness tests of the IR interpreter: every opcode is
// exercised through a tiny compiled kernel run on the simulator, and the
// result is read back from simulated DRAM — the same path real kernels
// take.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hls/compiler.hpp"
#include "ir/builder.hpp"
#include "sim/simulator.hpp"

namespace hlsprof::sim {
namespace {

using ir::KernelBuilder;
using ir::MapDir;
using ir::Type;
using ir::Val;

SimParams fast_params() {
  SimParams p;
  p.host.thread_start_interval = 50;  // keep unit tests quick
  return p;
}

/// Build a 1-thread kernel computing a scalar f32, run it, return out[0].
float eval_f32(const std::function<Val(KernelBuilder&)>& make) {
  KernelBuilder kb("eval", 1);
  auto out = kb.ptr_arg("out", Type::f32(), MapDir::from, 1);
  Val v = make(kb);
  kb.store(out, kb.c32(0), v);
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<float> o(1, -999.0f);
  sim.bind_f32("out", o);
  sim.run();
  return o[0];
}

/// Same for a scalar i32 result.
std::int32_t eval_i32(const std::function<Val(KernelBuilder&)>& make) {
  KernelBuilder kb("eval", 1);
  auto out = kb.ptr_arg("out", Type::i32(), MapDir::from, 1);
  Val v = make(kb);
  kb.store(out, kb.c32(0), v);
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<std::int32_t> o(1, -999);
  sim.bind_i32("out", o);
  sim.run();
  return o[0];
}

// ---- integer ops -----------------------------------------------------------

TEST(Interp, IntArithmetic) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(7) + kb.c32(5); }),
            12);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(7) - kb.c32(5); }),
            2);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(7) * kb.c32(5); }),
            35);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(17) / kb.c32(5); }),
            3);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(17) % kb.c32(5); }),
            2);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.neg(kb.c32(9)); }), -9);
}

TEST(Interp, IntWrapsAt32Bits) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              return kb.c32(0x7FFFFFFF) + kb.c32(1);
            }),
            std::numeric_limits<std::int32_t>::min());
}

TEST(Interp, IntLogicAndShifts) {
  EXPECT_EQ(
      eval_i32([](KernelBuilder& kb) { return kb.band(kb.c32(12), kb.c32(10)); }),
      8);
  EXPECT_EQ(
      eval_i32([](KernelBuilder& kb) { return kb.bor(kb.c32(12), kb.c32(10)); }),
      14);
  EXPECT_EQ(
      eval_i32([](KernelBuilder& kb) { return kb.bxor(kb.c32(12), kb.c32(10)); }),
      6);
  EXPECT_EQ(
      eval_i32([](KernelBuilder& kb) { return kb.shl(kb.c32(3), kb.c32(4)); }),
      48);
  EXPECT_EQ(
      eval_i32([](KernelBuilder& kb) { return kb.ashr(kb.c32(-16), kb.c32(2)); }),
      -4);
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(1) < kb.c32(2); }),
            1);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(2) < kb.c32(1); }),
            0);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(2) <= kb.c32(2); }),
            1);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(3) > kb.c32(2); }),
            1);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(3) >= kb.c32(4); }),
            0);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(3) == kb.c32(3); }),
            1);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) { return kb.c32(3) != kb.c32(3); }),
            0);
}

TEST(Interp, FloatComparisonUsesFloatSemantics) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              return kb.lt(kb.cf32(1.5), kb.cf32(2.5));
            }),
            1);
}

TEST(Interp, Select) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              return kb.select(kb.c32(1), kb.c32(10), kb.c32(20));
            }),
            10);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              return kb.select(kb.c32(0), kb.c32(10), kb.c32(20));
            }),
            20);
}

TEST(Interp, DivisionByZeroFaults) {
  EXPECT_THROW(
      eval_i32([](KernelBuilder& kb) { return kb.c32(1) / kb.c32(0); }),
      Error);
  EXPECT_THROW(
      eval_i32([](KernelBuilder& kb) { return kb.c32(1) % kb.c32(0); }),
      Error);
}

// ---- float ops ---------------------------------------------------------------

TEST(Interp, FloatArithmetic) {
  EXPECT_FLOAT_EQ(
      eval_f32([](KernelBuilder& kb) { return kb.cf32(1.5) + kb.cf32(2.25); }),
      3.75f);
  EXPECT_FLOAT_EQ(
      eval_f32([](KernelBuilder& kb) { return kb.cf32(1.5) - kb.cf32(2.25); }),
      -0.75f);
  EXPECT_FLOAT_EQ(
      eval_f32([](KernelBuilder& kb) { return kb.cf32(1.5) * kb.cf32(2.0); }),
      3.0f);
  EXPECT_FLOAT_EQ(
      eval_f32([](KernelBuilder& kb) { return kb.cf32(1.0) / kb.cf32(4.0); }),
      0.25f);
  EXPECT_FLOAT_EQ(
      eval_f32([](KernelBuilder& kb) { return kb.neg(kb.cf32(2.5)); }),
      -2.5f);
}

TEST(Interp, F32RoundingMatchesHardware) {
  // 1e8 + 1 is not representable in f32; f32 accumulation must lose it.
  EXPECT_FLOAT_EQ(
      eval_f32([](KernelBuilder& kb) { return kb.cf32(1e8) + kb.cf32(1.0); }),
      1e8f);
}

TEST(Interp, Casts) {
  EXPECT_FLOAT_EQ(
      eval_f32([](KernelBuilder& kb) { return kb.to_f32(kb.c32(7)); }), 7.0f);
  EXPECT_EQ(
      eval_i32([](KernelBuilder& kb) { return kb.to_i32(kb.cf32(3.9)); }), 3);
  EXPECT_EQ(
      eval_i32([](KernelBuilder& kb) { return kb.to_i32(kb.cf32(-3.9)); }),
      -3);
}

// ---- vectors -------------------------------------------------------------------

TEST(Interp, BroadcastExtract) {
  EXPECT_FLOAT_EQ(eval_f32([](KernelBuilder& kb) {
                    return kb.extract(kb.broadcast(kb.cf32(5.5), 8), 7);
                  }),
                  5.5f);
}

TEST(Interp, InsertThenExtract) {
  EXPECT_FLOAT_EQ(eval_f32([](KernelBuilder& kb) {
                    Val v = kb.broadcast(kb.cf32(1.0), 4);
                    v = kb.insert(v, kb.cf32(9.0), 2);
                    return kb.extract(v, 2);
                  }),
                  9.0f);
}

TEST(Interp, InsertLeavesOtherLanes) {
  EXPECT_FLOAT_EQ(eval_f32([](KernelBuilder& kb) {
                    Val v = kb.broadcast(kb.cf32(1.0), 4);
                    v = kb.insert(v, kb.cf32(9.0), 2);
                    return kb.extract(v, 1);
                  }),
                  1.0f);
}

TEST(Interp, ReduceAddSumsLanes) {
  EXPECT_FLOAT_EQ(eval_f32([](KernelBuilder& kb) {
                    Val v = kb.broadcast(kb.cf32(0.0), 4);
                    for (int i = 0; i < 4; ++i) {
                      v = kb.insert(v, kb.cf32(double(i + 1)), i);
                    }
                    return kb.reduce_add(v);  // 1+2+3+4
                  }),
                  10.0f);
}

TEST(Interp, VectorLanewiseArithmetic) {
  EXPECT_FLOAT_EQ(eval_f32([](KernelBuilder& kb) {
                    Val a = kb.broadcast(kb.cf32(2.0), 4);
                    Val b = kb.broadcast(kb.cf32(3.0), 4);
                    return kb.reduce_add(a * b);  // 4 lanes of 6
                  }),
                  24.0f);
}

TEST(Interp, IntegerReduce) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              Val v = kb.broadcast(kb.c32(3), 8);
              return kb.reduce_add(v);
            }),
            24);
}

// ---- vars, loops, ifs ----------------------------------------------------------

TEST(Interp, VarAccumulationInLoop) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              auto acc = kb.var_init("a", kb.c32(0));
              kb.for_loop("i", kb.c32(0), kb.c32(10), kb.c32(1),
                          [&](Val i) { acc.set(acc.get() + i); });
              return acc.get();  // 0+1+...+9
            }),
            45);
}

TEST(Interp, ZeroTripLoopBodySkipped) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              auto acc = kb.var_init("a", kb.c32(7));
              kb.for_loop("i", kb.c32(5), kb.c32(5), kb.c32(1),
                          [&](Val) { acc.set(kb.c32(0)); });
              return acc.get();
            }),
            7);
}

TEST(Interp, NonUnitStepLoop) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              auto acc = kb.var_init("a", kb.c32(0));
              kb.for_loop("i", kb.c32(1), kb.c32(10), kb.c32(3),
                          [&](Val i) { acc.set(acc.get() + i); });
              return acc.get();  // 1+4+7
            }),
            12);
}

TEST(Interp, NestedLoops) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              auto acc = kb.var_init("a", kb.c32(0));
              kb.for_loop("i", kb.c32(0), kb.c32(3), kb.c32(1), [&](Val i) {
                kb.for_loop("j", kb.c32(0), kb.c32(4), kb.c32(1),
                            [&](Val j) { acc.set(acc.get() + i * j); });
              });
              return acc.get();  // sum i*j = (0+1+2)*(0+1+2+3)
            }),
            18);
}

TEST(Interp, IfTakesCorrectBranch) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              auto r = kb.var_init("r", kb.c32(0));
              kb.if_then_else(kb.c32(1) < kb.c32(2),
                              [&] { r.set(kb.c32(111)); },
                              [&] { r.set(kb.c32(222)); });
              return r.get();
            }),
            111);
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              auto r = kb.var_init("r", kb.c32(0));
              kb.if_then_else(kb.c32(2) < kb.c32(1),
                              [&] { r.set(kb.c32(111)); },
                              [&] { r.set(kb.c32(222)); });
              return r.get();
            }),
            222);
}

TEST(Interp, IfInsidePipelinedLoopPredicates) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              auto acc = kb.var_init("a", kb.c32(0));
              kb.for_loop("i", kb.c32(0), kb.c32(10), kb.c32(1), [&](Val i) {
                kb.if_then(i % std::int64_t(2) == kb.c32(0),
                           [&] { acc.set(acc.get() + i); });
              });
              return acc.get();  // 0+2+4+6+8
            }),
            20);
}

// ---- local arrays -----------------------------------------------------------------

TEST(Interp, LocalArrayStoreLoad) {
  EXPECT_FLOAT_EQ(eval_f32([](KernelBuilder& kb) {
                    auto buf = kb.local_array("b", ir::Scalar::f32, 16);
                    kb.store_local(buf, kb.c32(5), kb.cf32(4.5));
                    return kb.load_local(buf, kb.c32(5));
                  }),
                  4.5f);
}

TEST(Interp, LocalArrayVectorAccess) {
  EXPECT_FLOAT_EQ(eval_f32([](KernelBuilder& kb) {
                    auto buf = kb.local_array("b", ir::Scalar::f32, 16);
                    Val v = kb.broadcast(kb.cf32(2.5), 4);
                    kb.store_local(buf, kb.c32(8), v);
                    return kb.reduce_add(kb.load_local(buf, kb.c32(8), 4));
                  }),
                  10.0f);
}

TEST(Interp, LocalArrayZeroInitialized) {
  EXPECT_FLOAT_EQ(eval_f32([](KernelBuilder& kb) {
                    auto buf = kb.local_array("b", ir::Scalar::f32, 4);
                    return kb.load_local(buf, kb.c32(0));
                  }),
                  0.0f);
}

TEST(Interp, LocalArrayOutOfBoundsFaults) {
  EXPECT_THROW(eval_f32([](KernelBuilder& kb) {
                 auto buf = kb.local_array("b", ir::Scalar::f32, 4);
                 return kb.load_local(buf, kb.c32(4));
               }),
               Error);
}

TEST(Interp, LocalArrayIntElements) {
  EXPECT_EQ(eval_i32([](KernelBuilder& kb) {
              auto buf = kb.local_array("b", ir::Scalar::i32, 4);
              kb.store_local(buf, kb.c32(1), kb.c32(-7));
              return kb.load_local(buf, kb.c32(1));
            }),
            -7);
}

// ---- external memory faults --------------------------------------------------------

TEST(Interp, ExternalOutOfBoundsFaults) {
  KernelBuilder kb("oob", 1);
  auto out = kb.ptr_arg("out", Type::f32(), MapDir::from, 4);
  kb.store(out, kb.c32(4), kb.cf32(1));
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<float> o(4);
  sim.bind_f32("out", o);
  EXPECT_THROW(sim.run(), Error);
}

TEST(Interp, VectorAccessPastEndFaults) {
  KernelBuilder kb("oob2", 1);
  auto out = kb.ptr_arg("out", Type::f32(), MapDir::from, 6);
  kb.store(out, kb.c32(4), kb.broadcast(kb.cf32(1), 4));  // 4..7 > 6
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<float> o(6);
  sim.bind_f32("out", o);
  EXPECT_THROW(sim.run(), Error);
}

// ---- thread context ---------------------------------------------------------------

TEST(Interp, ThreadIdAndNumThreads) {
  KernelBuilder kb("tid", 4);
  auto out = kb.ptr_arg("out", Type::i32(), MapDir::from, 8);
  Val tid = kb.thread_id();
  kb.store(out, tid, tid * std::int64_t(10));
  kb.store(out, tid + std::int64_t(4), kb.num_threads_val());
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<std::int32_t> o(8, -1);
  sim.bind_i32("out", o);
  sim.run();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(o[std::size_t(t)], t * 10);
    EXPECT_EQ(o[std::size_t(t + 4)], 4);
  }
}

TEST(Interp, ScalarArgsReachKernel) {
  KernelBuilder kb("args", 1);
  auto out = kb.ptr_arg("out", Type::f32(), MapDir::from, 1);
  Val n = kb.i32_arg("n");
  Val x = kb.f32_arg("x");
  kb.store(out, kb.c32(0), kb.to_f32(n) * x);
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<float> o(1);
  sim.bind_f32("out", o);
  sim.set_arg("n", std::int64_t(6));
  sim.set_arg("x", 2.5);
  sim.run();
  EXPECT_FLOAT_EQ(o[0], 15.0f);
}

// ---- lane kernels against a per-lane reference ------------------------------
//
// Every eval_pure opcode, at every scalar type and at 1, 3, 4 and 16 lanes,
// on seeded random operands that include NaN, ±inf, ±0, subnormals, the
// integer extremes and shift counts at and past 32 and 64. Each result is
// widened to 64 bits inside the kernel (a value-preserving cast), so the
// output buffers hold the interpreter's lane values exactly: a missing i32
// wrap or f32 rounding shows in the stored bits. A zero divisor in the
// last lane of a divs/rems still throws the interpreter's message.

namespace lanes_ref {

using I = std::int64_t;

constexpr I kI64Min = std::numeric_limits<I>::min();
constexpr I kI64Max = std::numeric_limits<I>::max();
constexpr I kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr I kI32Max = std::numeric_limits<std::int32_t>::max();

// The per-lane formulas, one lane at a time. Integer arithmetic wraps in
// two's complement; a float-to-int cast of NaN or of a value outside
// int64 gives INT64_MIN (x86's "integer indefinite").
I wrap(ir::Scalar s, I x) {
  return s == ir::Scalar::i32 ? I(std::int32_t(std::uint32_t(std::uint64_t(x))))
                              : x;
}
double rnd(ir::Scalar s, double x) {
  return s == ir::Scalar::f32 ? double(float(x)) : x;
}
I f2i(double x) {
  if (std::isnan(x) || x >= 9223372036854775808.0 ||
      x < -9223372036854775808.0) {
    return kI64Min;
  }
  return I(x);
}

I int_op(ir::Opcode op, I x, I y) {
  const auto ux = std::uint64_t(x);
  const auto uy = std::uint64_t(y);
  switch (op) {
    case ir::Opcode::add: return I(ux + uy);
    case ir::Opcode::sub: return I(ux - uy);
    case ir::Opcode::mul: return I(ux * uy);
    case ir::Opcode::divs: return y == -1 ? I(0 - ux) : x / y;
    case ir::Opcode::rems: return y == -1 ? 0 : x % y;
    case ir::Opcode::and_: return x & y;
    case ir::Opcode::or_: return x | y;
    case ir::Opcode::xor_: return x ^ y;
    case ir::Opcode::shl: return I(ux << (y & 63));
    case ir::Opcode::ashr: return x >> (y & 63);
    default: break;
  }
  ADD_FAILURE() << "not an integer binary op";
  return 0;
}

double fp_op(ir::Opcode op, double x, double y) {
  switch (op) {
    case ir::Opcode::fadd: return x + y;
    case ir::Opcode::fsub: return x - y;
    case ir::Opcode::fmul: return x * y;
    case ir::Opcode::fdiv: return x / y;
    default: break;
  }
  ADD_FAILURE() << "not a float binary op";
  return 0.0;
}

template <class T>
bool cmp_op(ir::Opcode op, T x, T y) {
  switch (op) {
    case ir::Opcode::cmp_lt: return x < y;
    case ir::Opcode::cmp_le: return x <= y;
    case ir::Opcode::cmp_gt: return x > y;
    case ir::Opcode::cmp_ge: return x >= y;
    case ir::Opcode::cmp_eq: return x == y;
    case ir::Opcode::cmp_ne: return x != y;
    default: break;
  }
  ADD_FAILURE() << "not a comparison";
  return false;
}

/// One run's operands, as the interpreter holds them after the loads.
struct Operands {
  std::vector<I> ai, bi, bnz;  // integer lanes (bnz: b with 0 -> 7)
  std::vector<double> af, bf;  // float lanes
  I c = 0;                     // select condition
  I karg = 0;                  // scalar integer argument
  double farg = 0.0;           // scalar float argument
};

/// Expected lanes of one result: integer or float.
struct Lanes {
  bool fp = false;
  std::vector<I> i;
  std::vector<double> f;
};

Lanes ints(std::vector<I> v) { return Lanes{false, std::move(v), {}}; }
Lanes fps(std::vector<double> v) { return Lanes{true, {}, std::move(v)}; }

std::vector<I> int_specials(ir::Scalar s) {
  if (s == ir::Scalar::i32) {
    return {0, 1, -1, 2, kI32Min, kI32Max, kI32Min + 1, 31, 32, 33,
            63, 64, 65, 100, -32, -64};
  }
  return {0, 1, -1, 2, kI64Min, kI64Max, kI64Min + 1, kI32Min, kI32Max,
          I(1) << 32, 31, 32, 33, 63, 64, 65, 127, -64};
}

std::vector<double> fp_specials(ir::Scalar s) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  if (s == ir::Scalar::f32) {
    return {nan, inf, -inf, 0.0, -0.0,
            double(std::numeric_limits<float>::denorm_min()),
            -double(std::numeric_limits<float>::denorm_min()),
            double(std::numeric_limits<float>::min()),
            double(std::numeric_limits<float>::max()),
            -double(std::numeric_limits<float>::max()), 1.0, -1.0, 0.5,
            16777216.0, 2147483648.0, 9223372036854775808.0, 3.0e9};
  }
  return {nan, inf, -inf, 0.0, -0.0,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::max(), 1.0, -1.0, 0.5, 1e300,
          9223372036854775808.0, -9223372036854775808.0,
          9223372036854774784.0, 3.0e9};
}

I draw_int(SplitMix64& rng, ir::Scalar s) {
  if (rng.next_below(3) == 0) {
    const auto sp = int_specials(s);
    return sp[rng.next_below(sp.size())];
  }
  const std::uint64_t bits = rng.next();
  if (rng.next_below(2) == 0) return wrap(s, I(bits % 201) - 100);
  return wrap(s, I(bits));
}

double draw_fp(SplitMix64& rng, ir::Scalar s) {
  if (rng.next_below(3) == 0) {
    const auto sp = fp_specials(s);
    return sp[rng.next_below(sp.size())];
  }
  if (rng.next_below(2) == 0) return rnd(s, rng.next_double() * 2000.0 - 1000.0);
  // Random bit patterns: every exponent, subnormals and NaNs included.
  if (s == ir::Scalar::f32) {
    return double(std::bit_cast<float>(std::uint32_t(rng.next())));
  }
  return std::bit_cast<double>(rng.next());
}

/// NaN payloads depend on which operand the compiler hands the FPU first,
/// so every NaN compares equal to every NaN; other values compare by bits.
std::uint64_t fp_bits(double x) {
  return std::isnan(x) ? 0x7ff8000000000000ULL : std::bit_cast<std::uint64_t>(x);
}

/// Name of case k's output buffer. Appending, rather than
/// `"o" + std::to_string(k)`, keeps GCC 12 -O3 free of a false -Wrestrict.
std::string out_name(std::size_t k) {
  std::string name(1, 'o');
  name += std::to_string(k);
  return name;
}

/// An L-lane divs (or rems) whose last lane divides by zero throws the
/// interpreter's message.
void expect_zero_divisor_throws(ir::Scalar s, int L, bool rem) {
  KernelBuilder kb("divzero", 1);
  const Type elem = Type::make(s, 1);
  auto pa = kb.ptr_arg("a", elem, MapDir::to, L);
  auto pb = kb.ptr_arg("b", elem, MapDir::to, L);
  auto out = kb.ptr_arg("out", elem, MapDir::from, L);
  Val a = kb.load(pa, kb.c32(0), L);
  Val b = kb.load(pb, kb.c32(0), L);
  kb.store(out, kb.c32(0), rem ? kb.rem(a, b) : kb.div(a, b));
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  const auto n = static_cast<std::size_t>(L);
  std::vector<std::int32_t> a32(n, 5), b32(n, 2), o32(n, 0);
  std::vector<std::int64_t> a64(n, 5), b64(n, 2), o64(n, 0);
  b32.back() = 0;
  b64.back() = 0;
  if (s == ir::Scalar::i32) {
    sim.bind_i32("a", a32);
    sim.bind_i32("b", b32);
    sim.bind_i32("out", o32);
  } else {
    sim.bind_i64("a", a64);
    sim.bind_i64("b", b64);
    sim.bind_i64("out", o64);
  }
  try {
    sim.run();
    ADD_FAILURE() << "zero divisor in lane " << L - 1 << " did not throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(rem ? "integer remainder by zero in kernel"
                           : "integer division by zero in kernel"),
              std::string::npos)
        << msg;
  }
}

}  // namespace lanes_ref

TEST(Interp, LaneKernelsMatchPerLaneReference) {
  using namespace lanes_ref;
  using ir::Opcode;
  using ir::Scalar;
  const Scalar kScalars[] = {Scalar::i32, Scalar::i64, Scalar::f32,
                             Scalar::f64};
  long long lanes_checked = 0;
  for (const Scalar s : kScalars) {
    for (const int L : {1, 3, 4, 16}) {
      const auto n = std::size_t(L);
      const bool fp = s == Scalar::f32 || s == Scalar::f64;
      const Type elem = Type::make(s, 1);
      const std::string where = ir::to_string(Type::make(s, L));

      KernelBuilder kb("lanes", 1);
      auto pa = kb.ptr_arg("a", elem, MapDir::to, L);
      auto pb = kb.ptr_arg("b", elem, MapDir::to, L);
      auto pbnz = kb.ptr_arg("bnz", elem, MapDir::to, L);
      auto pc = kb.ptr_arg("c", Type::i32(), MapDir::to, 1);
      Val karg = fp ? (s == Scalar::f32 ? kb.f32_arg("k") : kb.f64_arg("k"))
                    : (s == Scalar::i32 ? kb.i32_arg("k") : kb.i64_arg("k"));
      Val a = kb.load(pa, kb.c32(0), L);
      Val b = kb.load(pb, kb.c32(0), L);
      Val a0 = kb.load(pa, kb.c32(0), 1);
      Val b0 = kb.load(pb, kb.c32(0), 1);
      Val alast = kb.load(pa, kb.c32(L - 1), 1);
      Val c = kb.load(pc, kb.c32(0), 1);

      // Each case: the result value and its expected lanes.
      using Ref = std::function<Lanes(const Operands&)>;
      std::vector<std::pair<std::string, std::pair<Val, Ref>>> cases;
      auto add_case = [&](std::string name, Val v, Ref ref) {
        cases.push_back({std::move(name), {v, std::move(ref)}});
      };
      const std::int64_t kimm = fp ? 0 : wrap(s, kI64Max - 12345);
      const double fimm = 0.1;  // not representable: f32 must round it

      if (!fp) {
        const std::pair<const char*, Opcode> bin[] = {
            {"add", Opcode::add},   {"sub", Opcode::sub},
            {"mul", Opcode::mul},   {"divs", Opcode::divs},
            {"rems", Opcode::rems}, {"and", Opcode::and_},
            {"or", Opcode::or_},    {"xor", Opcode::xor_},
            {"shl", Opcode::shl},   {"ashr", Opcode::ashr}};
        Val bnz = kb.load(pbnz, kb.c32(0), L);
        for (const auto& [name, op] : bin) {
          const bool div = op == Opcode::divs || op == Opcode::rems;
          const Val rhs = div ? bnz : b;
          Val v;
          switch (op) {
            case Opcode::add: v = kb.add(a, rhs); break;
            case Opcode::sub: v = kb.sub(a, rhs); break;
            case Opcode::mul: v = kb.mul(a, rhs); break;
            case Opcode::divs: v = kb.div(a, rhs); break;
            case Opcode::rems: v = kb.rem(a, rhs); break;
            case Opcode::and_: v = kb.band(a, rhs); break;
            case Opcode::or_: v = kb.bor(a, rhs); break;
            case Opcode::xor_: v = kb.bxor(a, rhs); break;
            case Opcode::shl: v = kb.shl(a, rhs); break;
            default: v = kb.ashr(a, rhs); break;
          }
          add_case(name, v, [op = op, div, s, n](const Operands& o) {
            std::vector<I> r(n);
            for (std::size_t l = 0; l < n; ++l) {
              r[l] = wrap(s, int_op(op, o.ai[l], div ? o.bnz[l] : o.bi[l]));
            }
            return ints(r);
          });
        }
        add_case("neg", kb.neg(a), [s, n](const Operands& o) {
          std::vector<I> r(n);
          for (std::size_t l = 0; l < n; ++l) {
            r[l] = wrap(s, I(0 - std::uint64_t(o.ai[l])));
          }
          return ints(r);
        });
        add_case("const_int", s == Scalar::i32 ? kb.c32(kimm) : kb.c64(kimm),
                 [kimm](const Operands&) { return ints({kimm}); });
        if (L > 1) {
          add_case("reduce_add", kb.reduce_add(a), [s, n](const Operands& o) {
            std::uint64_t sum = 0;
            for (std::size_t l = 0; l < n; ++l) sum += std::uint64_t(o.ai[l]);
            return ints({wrap(s, I(sum))});
          });
        }
      } else {
        const std::pair<const char*, Opcode> bin[] = {{"fadd", Opcode::fadd},
                                                      {"fsub", Opcode::fsub},
                                                      {"fmul", Opcode::fmul},
                                                      {"fdiv", Opcode::fdiv}};
        for (const auto& [name, op] : bin) {
          Val v = op == Opcode::fadd   ? kb.add(a, b)
                  : op == Opcode::fsub ? kb.sub(a, b)
                  : op == Opcode::fmul ? kb.mul(a, b)
                                       : kb.div(a, b);
          add_case(name, v, [op = op, s, n](const Operands& o) {
            std::vector<double> r(n);
            for (std::size_t l = 0; l < n; ++l) {
              r[l] = rnd(s, fp_op(op, o.af[l], o.bf[l]));
            }
            return fps(r);
          });
        }
        add_case("fneg", kb.neg(a), [n](const Operands& o) {
          std::vector<double> r(n);
          for (std::size_t l = 0; l < n; ++l) r[l] = -o.af[l];
          return fps(r);
        });
        add_case("const_float",
                 s == Scalar::f32 ? kb.cf32(fimm) : kb.cf64(fimm),
                 [s, fimm](const Operands&) { return fps({rnd(s, fimm)}); });
        if (L > 1) {
          add_case("reduce_add", kb.reduce_add(a), [s, n](const Operands& o) {
            double sum = 0.0;
            for (std::size_t l = 0; l < n; ++l) sum = rnd(s, sum + o.af[l]);
            return fps({sum});
          });
        }
      }

      // Type-generic cases: lanes move as they are.
      auto pick = [fp](const Operands& o, bool from_a, std::size_t lane) {
        Lanes r;
        r.fp = fp;
        if (fp) {
          r.f.push_back(from_a ? o.af[lane] : o.bf[lane]);
        } else {
          r.i.push_back(from_a ? o.ai[lane] : o.bi[lane]);
        }
        return r;
      };
      auto concat = [](Lanes x, const Lanes& y) {
        x.i.insert(x.i.end(), y.i.begin(), y.i.end());
        x.f.insert(x.f.end(), y.f.begin(), y.f.end());
        return x;
      };
      add_case("select", kb.select(c, a, b), [=](const Operands& o) {
        Lanes r{fp, {}, {}};
        for (std::size_t l = 0; l < n; ++l) r = concat(r, pick(o, o.c != 0, l));
        return r;
      });
      add_case("broadcast", kb.broadcast(alast, L), [=](const Operands& o) {
        Lanes r{fp, {}, {}};
        for (std::size_t l = 0; l < n; ++l) r = concat(r, pick(o, true, n - 1));
        return r;
      });
      add_case("extract", kb.extract(a, L - 1),
               [=](const Operands& o) { return pick(o, true, n - 1); });
      add_case("insert", kb.insert(a, b0, L / 2), [=](const Operands& o) {
        Lanes r{fp, {}, {}};
        for (std::size_t l = 0; l < n; ++l) {
          r = concat(r, l == n / 2 ? pick(o, false, 0) : pick(o, true, l));
        }
        return r;
      });
      add_case("read_arg", karg, [fp, s](const Operands& o) {
        return fp ? fps({rnd(s, o.farg)}) : ints({o.karg});
      });
      {
        auto var = kb.var_init("v", a);  // var_write
        add_case("var_read", var.get(), [=](const Operands& o) {
          Lanes r{fp, {}, {}};
          for (std::size_t l = 0; l < n; ++l) r = concat(r, pick(o, true, l));
          return r;
        });
      }
      {
        // Local arrays hold doubles: i64 lanes go through masked to 48
        // bits, which a double holds exactly.
        auto loc = kb.local_array("loc", s, L);
        const bool mask = s == Scalar::i64;
        Val stored = mask ? kb.band(a, kb.broadcast(kb.c64(0xffffffffffffLL), L))
                          : a;
        kb.store_local(loc, kb.c32(0), stored);
        add_case("load_local", kb.load_local(loc, kb.c32(0), L),
                 [=](const Operands& o) {
                   Lanes r{fp, {}, {}};
                   for (std::size_t l = 0; l < n; ++l) {
                     if (fp) {
                       r.f.push_back(o.af[l]);
                     } else {
                       r.i.push_back(mask ? o.ai[l] & 0xffffffffffffLL : o.ai[l]);
                     }
                   }
                   return r;
                 });
      }
      for (const Scalar to : kScalars) {
        const bool to_fp = to == Scalar::f32 || to == Scalar::f64;
        add_case("cast->" + ir::to_string(to), kb.cast(a, Type::make(to, L)),
                 [=](const Operands& o) {
                   Lanes r{to_fp, {}, {}};
                   for (std::size_t l = 0; l < n; ++l) {
                     if (to_fp) {
                       r.f.push_back(rnd(to, fp ? o.af[l] : double(o.ai[l])));
                     } else {
                       r.i.push_back(wrap(to, fp ? f2i(o.af[l]) : o.ai[l]));
                     }
                   }
                   return r;
                 });
      }
      const std::pair<const char*, Opcode> cmps[] = {
          {"cmp_lt", Opcode::cmp_lt}, {"cmp_le", Opcode::cmp_le},
          {"cmp_gt", Opcode::cmp_gt}, {"cmp_ge", Opcode::cmp_ge},
          {"cmp_eq", Opcode::cmp_eq}, {"cmp_ne", Opcode::cmp_ne}};
      for (const auto& [name, op] : cmps) {
        Val v = op == Opcode::cmp_lt   ? kb.lt(a0, b0)
                : op == Opcode::cmp_le ? kb.le(a0, b0)
                : op == Opcode::cmp_gt ? kb.gt(a0, b0)
                : op == Opcode::cmp_ge ? kb.ge(a0, b0)
                : op == Opcode::cmp_eq ? kb.eq(a0, b0)
                                       : kb.ne(a0, b0);
        add_case(name, v, [op = op, fp](const Operands& o) {
          return ints({fp ? I(cmp_op(op, o.af[0], o.bf[0]))
                          : I(cmp_op(op, o.ai[0], o.bi[0]))});
        });
      }
      add_case("thread_id", kb.thread_id(),
               [](const Operands&) { return ints({0}); });
      add_case("num_threads", kb.num_threads_val(),
               [](const Operands&) { return ints({1}); });

      // Widen every result to 64 bits (a value-preserving cast) and store
      // it to its own output.
      std::vector<Type> types;  // Val::type() needs the live builder
      for (std::size_t k = 0; k < cases.size(); ++k) {
        Val v = cases[k].second.first;
        const Type t = v.type();
        types.push_back(t);
        const Type wide = Type::make(
            t.is_float() ? Scalar::f64 : Scalar::i64, t.lanes);
        if (t != wide) v = kb.cast(v, wide);
        auto out = kb.ptr_arg(out_name(k), wide.element(),
                              MapDir::from, t.lanes);
        kb.store(out, kb.c32(0), v);
      }
      hls::Design d = hls::compile(std::move(kb).finish());

      SplitMix64 rng(0x1a2e0000ULL + std::uint64_t(s) * 64 + n);
      for (int run = 0; run < 24; ++run) {
        Operands o;
        // Host buffers in the kernel's element type.
        std::vector<std::int32_t> a32(n), b32(n), bnz32(n);
        std::vector<std::int64_t> a64(n), b64(n), bnz64(n);
        std::vector<float> af32(n), bf32(n);
        std::vector<double> af64(n), bf64(n);
        for (std::size_t l = 0; l < n; ++l) {
          if (fp) {
            o.af.push_back(draw_fp(rng, s));
            o.bf.push_back(draw_fp(rng, s));
          } else {
            o.ai.push_back(draw_int(rng, s));
            o.bi.push_back(draw_int(rng, s));
            o.bnz.push_back(o.bi.back() == 0 ? 7 : o.bi.back());
          }
        }
        o.c = I(rng.next_below(3)) - 1;  // -1, 0 or 1
        o.karg = draw_int(rng, s == Scalar::i64 ? Scalar::i64 : Scalar::i32);
        o.farg = draw_fp(rng, Scalar::f64);

        Simulator sim(d, fast_params(), 1 << 20);
        std::vector<std::int32_t> cbuf{std::int32_t(o.c)};
        sim.bind_i32("c", cbuf);
        switch (s) {
          case Scalar::i32:
            for (std::size_t l = 0; l < n; ++l) {
              a32[l] = std::int32_t(o.ai[l]);
              b32[l] = std::int32_t(o.bi[l]);
              bnz32[l] = std::int32_t(o.bnz[l]);
            }
            sim.bind_i32("a", a32);
            sim.bind_i32("b", b32);
            sim.bind_i32("bnz", bnz32);
            sim.set_arg("k", o.karg);
            break;
          case Scalar::i64:
            a64 = o.ai;
            b64 = o.bi;
            bnz64 = o.bnz;
            sim.bind_i64("a", a64);
            sim.bind_i64("b", b64);
            sim.bind_i64("bnz", bnz64);
            sim.set_arg("k", o.karg);
            break;
          case Scalar::f32:
            for (std::size_t l = 0; l < n; ++l) {
              af32[l] = float(o.af[l]);
              bf32[l] = float(o.bf[l]);
            }
            sim.bind_f32("a", af32);
            sim.bind_f32("b", bf32);
            sim.bind_f32("bnz", bf32);
            sim.set_arg("k", o.farg);
            break;
          case Scalar::f64:
            af64 = o.af;
            bf64 = o.bf;
            sim.bind_f64("a", af64);
            sim.bind_f64("b", bf64);
            sim.bind_f64("bnz", bf64);
            sim.set_arg("k", o.farg);
            break;
        }
        std::vector<std::vector<std::int64_t>> oi(cases.size());
        std::vector<std::vector<double>> of(cases.size());
        for (std::size_t k = 0; k < cases.size(); ++k) {
          const Type t = types[k];
          const std::string name = out_name(k);
          if (t.is_float()) {
            of[k].assign(t.lanes, -12345.0);
            sim.bind_f64(name, of[k]);
          } else {
            oi[k].assign(t.lanes, -12345);
            sim.bind_i64(name, oi[k]);
          }
        }
        sim.run();

        for (std::size_t k = 0; k < cases.size(); ++k) {
          const Lanes want = cases[k].second.second(o);
          const std::string ctx = where + " " + cases[k].first + " run " +
                                  std::to_string(run);
          if (want.fp) {
            ASSERT_EQ(of[k].size(), want.f.size()) << ctx;
            for (std::size_t l = 0; l < want.f.size(); ++l) {
              EXPECT_EQ(fp_bits(of[k][l]), fp_bits(want.f[l]))
                  << ctx << " lane " << l << ": got " << of[k][l]
                  << " want " << want.f[l];
              ++lanes_checked;
            }
          } else {
            ASSERT_EQ(oi[k].size(), want.i.size()) << ctx;
            for (std::size_t l = 0; l < want.i.size(); ++l) {
              EXPECT_EQ(oi[k][l], want.i[l]) << ctx << " lane " << l;
              ++lanes_checked;
            }
          }
        }
        if (HasFailure()) return;  // one failing run is enough to read
      }
      if (!fp) {
        expect_zero_divisor_throws(s, L, /*rem=*/false);
        expect_zero_divisor_throws(s, L, /*rem=*/true);
      }
    }
  }
  EXPECT_GT(lanes_checked, 10000);
}

}  // namespace
}  // namespace hlsprof::sim
