#include "obs/registry.hpp"

#include <algorithm>
#include <span>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace picprk::obs {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo),
      hi_(hi),
      scale_(static_cast<double>(buckets) / (hi - lo)),
      counts_(buckets) {
  PICPRK_EXPECTS(hi > lo);
  PICPRK_EXPECTS(buckets > 0);
}

std::vector<std::uint64_t> Histogram::snapshot() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double p) const {
  const std::vector<std::uint64_t> counts = snapshot();
  return util::histogram_quantile(std::span<const std::uint64_t>(counts), lo_, hi_, p);
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

namespace {

/// Linear scan: registries hold tens of instruments and register_* runs
/// at setup only, so a map would buy nothing.
template <typename Deque>
auto* find_named(Deque& items, const std::string& name) {
  for (auto& item : items) {
    if (item.name == name) return &item.instrument;
  }
  using Instrument = decltype(&items.front().instrument);
  return static_cast<Instrument>(nullptr);
}

}  // namespace

Counter& Registry::register_counter(const std::string& name) {
  util::LockGuard lock(mutex_);
  if (Counter* existing = find_named(counters_, name)) return *existing;
  counters_.emplace_back(name);
  return counters_.back().instrument;
}

Gauge& Registry::register_gauge(const std::string& name) {
  util::LockGuard lock(mutex_);
  if (Gauge* existing = find_named(gauges_, name)) return *existing;
  gauges_.emplace_back(name);
  return gauges_.back().instrument;
}

Histogram& Registry::register_histogram(const std::string& name, double lo, double hi,
                                        std::size_t buckets) {
  util::LockGuard lock(mutex_);
  if (Histogram* existing = find_named(histograms_, name)) {
    PICPRK_EXPECTS(existing->lo() == lo && existing->hi() == hi &&
                   existing->buckets() == buckets);
    return *existing;
  }
  histograms_.emplace_back(name, lo, hi, buckets);
  return histograms_.back().instrument;
}

Counter* Registry::find_counter(const std::string& name) const {
  util::LockGuard lock(mutex_);
  return const_cast<Counter*>(find_named(counters_, name));
}

// picprk-lint: suppress(reach: read by RegistryTest.FindReturnsNullForUnknownNames)
Gauge* Registry::find_gauge(const std::string& name) const {
  util::LockGuard lock(mutex_);
  return const_cast<Gauge*>(find_named(gauges_, name));
}

Histogram* Registry::find_histogram(const std::string& name) const {
  util::LockGuard lock(mutex_);
  return const_cast<Histogram*>(find_named(histograms_, name));
}

std::vector<Registry::CounterView> Registry::counters() const {
  std::vector<CounterView> out;
  {
    util::LockGuard lock(mutex_);
    out.reserve(counters_.size());
    for (const auto& c : counters_) out.push_back({c.name, c.instrument.value()});
  }
  std::sort(out.begin(), out.end(),
            [](const CounterView& a, const CounterView& b) { return a.name < b.name; });
  return out;
}

std::vector<Registry::GaugeView> Registry::gauges() const {
  std::vector<GaugeView> out;
  {
    util::LockGuard lock(mutex_);
    out.reserve(gauges_.size());
    for (const auto& g : gauges_) out.push_back({g.name, g.instrument.value()});
  }
  std::sort(out.begin(), out.end(),
            [](const GaugeView& a, const GaugeView& b) { return a.name < b.name; });
  return out;
}

std::vector<Registry::HistogramView> Registry::histograms() const {
  std::vector<HistogramView> out;
  {
    util::LockGuard lock(mutex_);
    out.reserve(histograms_.size());
    for (const auto& h : histograms_) {
      HistogramView view;
      view.name = h.name;
      view.lo = h.instrument.lo();
      view.hi = h.instrument.hi();
      view.count = h.instrument.count();
      view.sum = h.instrument.sum();
      view.p50 = h.instrument.quantile(50.0);
      view.p99 = h.instrument.quantile(99.0);
      view.buckets = h.instrument.snapshot();
      out.push_back(std::move(view));
    }
  }
  std::sort(out.begin(), out.end(), [](const HistogramView& a, const HistogramView& b) {
    return a.name < b.name;
  });
  return out;
}

std::size_t Registry::size() const {
  util::LockGuard lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

// picprk-lint: suppress(reach: RegistryTest.ResetValuesZeroesInstrumentsButKeepsNames calls it)
void Registry::reset_values() {
  util::LockGuard lock(mutex_);
  for (auto& c : counters_) c.instrument.reset();
  for (auto& g : gauges_) g.instrument.reset();
  for (auto& h : histograms_) h.instrument.reset();
}

}  // namespace picprk::obs
