#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace picprk::util {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

// picprk-lint: suppress(reach: Welford variance, read by AccumulatorTest.BasicMoments)
double Accumulator::variance() const {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double Accumulator::min() const { return min_; }

double Accumulator::max() const { return max_; }

LoadImbalance imbalance(std::span<const double> loads) {
  LoadImbalance r;
  if (loads.empty()) return r;
  Accumulator acc;
  for (double v : loads) acc.add(v);
  r.max = acc.max();
  r.min = acc.min();
  r.mean = acc.mean();
  r.ratio = r.mean > 0.0 ? r.max / r.mean : 1.0;
  r.lost_fraction = r.max > 0.0 ? (r.max - r.mean) / r.max : 0.0;
  return r;
}

double percentile(std::vector<double> values, double p) {
  // Degenerate samples: the contract used to be a hard precondition on
  // !empty(), which turned every short benchmark run into UB-adjacent
  // assertion traffic. Summaries of zero or one observation have obvious
  // answers, so return them instead.
  if (values.empty()) return 0.0;
  if (values.size() == 1) return values.front();
  p = std::clamp(p, 0.0, 100.0);
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double histogram_quantile(std::span<const std::uint64_t> counts, double lo, double hi,
                          double p) {
  if (counts.empty() || hi <= lo) return lo;
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return lo;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(total);
  const double width = (hi - lo) / static_cast<double>(counts.size());
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cum + static_cast<double>(counts[i]);
    if (rank <= next && counts[i] > 0) {
      const double frac = (rank - cum) / static_cast<double>(counts[i]);
      return lo + width * (static_cast<double>(i) + frac);
    }
    cum = next;
  }
  return hi;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  PICPRK_EXPECTS(hi > lo);
  PICPRK_EXPECTS(buckets > 0);
}

void Histogram::add(double x, std::uint64_t weight) {
  const double t = (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor(t));
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::quantile(double p) const {
  return histogram_quantile(std::span<const std::uint64_t>(counts_), lo_, hi_, p);
}

}  // namespace picprk::util
