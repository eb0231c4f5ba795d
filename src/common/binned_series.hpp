// Time-binned accumulation series. The profiling unit and the Paraver
// analysis layer both need "value per fixed-width time window" curves
// (memory throughput over time, FLOP activity over time — the curves in
// the paper's Figs. 7–9).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace hlsprof {

/// Accumulates samples (time, amount) into fixed-width cycle bins.
/// Bin i covers [i*width, (i+1)*width). The series grows on demand.
class BinnedSeries {
 public:
  /// `bin_width` must be > 0; throws Error otherwise.
  explicit BinnedSeries(cycle_t bin_width);

  /// Add `amount` at cycle `t` (accumulated into t's bin).
  void add(cycle_t t, double amount) {
    add_to_bin(static_cast<std::size_t>(t / bin_width_), amount);
  }

  /// Add `amount` to bin `i`, for callers that already know the bin.
  void add_to_bin(std::size_t i, double amount) {
    if (i >= bins_.size()) bins_.resize(i + 1, 0.0);
    bins_[i] += amount;
  }

  /// Add `amount` spread uniformly over [t0, t1). Used when a block of work
  /// with a known aggregate (e.g. k loop iterations' worth of FLOPs) spans
  /// several bins. No-op if t1 <= t0.
  void add_range(cycle_t t0, cycle_t t1, double amount);

  cycle_t bin_width() const { return bin_width_; }
  std::size_t num_bins() const { return bins_.size(); }

  /// Sum stored in bin `i` (0 if beyond the last touched bin).
  double bin(std::size_t i) const;

  /// Bin value divided by bin width: an average rate (per cycle).
  double rate(std::size_t i) const;

  /// Total across all bins.
  double total() const;

  /// Largest per-bin value (0 for an empty series).
  double peak() const;

  const std::vector<double>& raw() const { return bins_; }

 private:
  cycle_t bin_width_;
  std::vector<double> bins_;
};

}  // namespace hlsprof
