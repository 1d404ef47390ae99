// Sample collection and percentile helpers shared by the load generator,
// the span analyzer and the report.

#ifndef AVA3_PERFBENCH_STATS_H_
#define AVA3_PERFBENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Raw samples of one quantity; percentiles are computed on demand.
class Samples {
 public:
  void Add(int64_t x) {
    v_.push_back(x);
    sorted_ = false;
  }
  size_t n() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  /// Percentile p in [0, 100], or 0 without samples. The samples are
  /// integers (ns from the benchmark's clock, whole µs from the program's
  /// clock), and many of them tie; the estimate therefore treats the value
  /// v at the target rank as the interval [v - 0.5, v + 0.5) and
  /// interpolates within it by rank (the grouped-data median), so a
  /// percentile falling inside a run of ties is not pinned to the integer.
  double Pct(double p) const {
    if (v_.empty()) return 0;
    Sort();
    const double rank = p / 100.0 * static_cast<double>(v_.size());
    size_t idx = static_cast<size_t>(rank);
    if (idx >= v_.size()) idx = v_.size() - 1;
    const int64_t v = v_[idx];
    const auto lo = std::lower_bound(v_.begin(), v_.end(), v);
    const auto hi = std::upper_bound(v_.begin(), v_.end(), v);
    const double below = static_cast<double>(lo - v_.begin());
    const double ties = static_cast<double>(hi - lo);
    double frac = (rank - below) / ties;
    frac = std::clamp(frac, 0.0, 1.0);
    return static_cast<double>(v) - 0.5 + frac;
  }
  double Max() const {
    if (v_.empty()) return 0;
    Sort();
    return static_cast<double>(v_.back());
  }
  /// Samples strictly greater than the p-th percentile (the "beyond"
  /// count that says whether a tail percentile is supported).
  size_t Beyond(double p) const {
    if (v_.empty()) return 0;
    const double cut = Pct(p);
    return static_cast<size_t>(
        v_.end() - std::upper_bound(v_.begin(), v_.end(),
                                    static_cast<int64_t>(cut + 0.5)));
  }

 private:
  void Sort() const {
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<int64_t> v_;
  mutable bool sorted_ = false;
};

}  // namespace perfbench

#endif  // AVA3_PERFBENCH_STATS_H_
