#pragma once

// The benchmark's one statistics helper: median, quartiles and the
// highest tail percentile that still has at least ten samples beyond
// it, always reported together with the sample count. Header-only so
// the self-test (tests/stats_test.cpp) exercises exactly this code.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile of an ascending-sorted sample
/// (the "type 7" definition): q in [0, 1]. 0 for an empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Tail percentiles considered, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// The highest percentile of kTailLadder with at least ten samples
/// strictly beyond it in a sample of size n; 0 when none qualifies.
inline double tail_percentile_for(std::size_t n) {
  for (const double pct : kTailLadder) {
    const double beyond = static_cast<double>(n) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 - 1e-9) return pct;
  }
  return 0.0;
}

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_pct = 0.0;  ///< see tail_percentile_for; 0 = too few samples
  double tail = 0.0;      ///< value at tail_pct (0 when tail_pct is 0)
  double mean = 0.0;

  /// Value at an arbitrary percentile (kept from the sorted sample).
  [[nodiscard]] double at(double pct) const {
    return quantile_sorted(sorted, pct / 100.0);
  }
  std::vector<double> sorted;
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  std::sort(samples.begin(), samples.end());
  s.n = samples.size();
  if (samples.empty()) return s;
  s.median = quantile_sorted(samples, 0.50);
  s.q1 = quantile_sorted(samples, 0.25);
  s.q3 = quantile_sorted(samples, 0.75);
  s.tail_pct = tail_percentile_for(s.n);
  if (s.tail_pct > 0.0) s.tail = quantile_sorted(samples, s.tail_pct / 100.0);
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.sorted = std::move(samples);
  return s;
}

}  // namespace perfbench
