// Order statistics over timing samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The highest order statistic that still has at least ten samples above
// it, with the percentile it sits at.  With ten samples or fewer no such
// statistic exists and the maximum is reported at percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

inline Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = n > 10 ? n - 11 : n - 1;
  t.value = v[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return t;
}

}  // namespace perfbench
