// Runtime value storage for the IR interpreter. A value holds up to
// ir::kMaxLanes lanes; integer lanes live in `i`, floating lanes in `f`.
// f32 values are rounded through `float` on every producing operation so
// single-precision numerics match real hardware (the paper's pi case study
// §V-D depends on f32 accumulation behaviour).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "ir/type.hpp"

namespace hlsprof::sim {

struct RtVal {
  std::array<std::int64_t, ir::kMaxLanes> i{};
  std::array<double, ir::kMaxLanes> f{};
};

/// Round `x` as if stored in the given scalar type.
inline double round_to(ir::Scalar s, double x) {
  return s == ir::Scalar::f32 ? double(float(x)) : x;
}

/// Truncate an integer to the given scalar width (i32 wraps like int32_t).
inline std::int64_t wrap_int(ir::Scalar s, std::int64_t x) {
  return s == ir::Scalar::i32
             ? std::int64_t(std::int32_t(std::uint32_t(std::uint64_t(x))))
             : x;
}

/// double -> int64 truncation toward zero, defined for every input: NaN
/// and values outside int64's range give INT64_MIN, the "integer
/// indefinite" result of x86's cvttsd2si.
inline std::int64_t trunc_to_i64(double x) {
  return x >= -0x1p63 && x < 0x1p63 ? std::int64_t(x)
                                    : std::numeric_limits<std::int64_t>::min();
}

}  // namespace hlsprof::sim
