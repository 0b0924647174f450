#include "perfsim/workload.hpp"

#include "util/assert.hpp"

namespace picprk::perfsim {

ColumnWorkload ColumnWorkload::from_expected(const pic::InitParams& params) {
  PICPRK_EXPECTS(!params.rotate90);  // the column model assumes y-uniformity
  const std::vector<double> weights = pic::column_cell_expectations(params);
  std::vector<double> counts(static_cast<std::size_t>(params.grid.cells), 0.0);
  const double cells = static_cast<double>(params.grid.cells);
  for (std::int64_t cx = 0; cx < params.grid.cells; ++cx) {
    // Column expectation = per-cell expectation × occupied column height
    // (Patch rows are masked to the patch region).
    if (const auto* p = std::get_if<pic::Patch>(&params.distribution)) {
      if (cx >= p->region.x0 && cx < p->region.x1) {
        counts[static_cast<std::size_t>(cx)] =
            weights[static_cast<std::size_t>(cx)] *
            static_cast<double>(p->region.height());
      }
    } else {
      counts[static_cast<std::size_t>(cx)] = weights[static_cast<std::size_t>(cx)] * cells;
    }
  }
  return ColumnWorkload(std::move(counts));
}

/* picprk-lint: suppress(reach: exact-count reference read by
   ColumnWorkloadTest.FromInitializerMatchesRealColumnTotals) */
ColumnWorkload ColumnWorkload::from_initializer(const pic::Initializer& init) {
  const std::int64_t c = init.params().grid.cells;
  std::vector<double> counts(static_cast<std::size_t>(c), 0.0);
  for (std::int64_t cx = 0; cx < c; ++cx) {
    counts[static_cast<std::size_t>(cx)] = static_cast<double>(init.column_total(cx));
  }
  return ColumnWorkload(std::move(counts));
}

ColumnWorkload::ColumnWorkload(std::vector<double> counts) : counts_(std::move(counts)) {
  PICPRK_EXPECTS(!counts_.empty());
}

double ColumnWorkload::total() const { return range_sum(0, columns()); }

std::size_t ColumnWorkload::physical(std::int64_t logical) const {
  const std::int64_t n = columns();
  std::int64_t p = (logical - offset_) % n;
  if (p < 0) p += n;
  return static_cast<std::size_t>(p);
}

double ColumnWorkload::count(std::int64_t col) const {
  PICPRK_EXPECTS(col >= 0 && col < columns());
  return counts_[physical(col)];
}

void ColumnWorkload::rebuild_prefix() const {
  prefix_.resize(counts_.size() + 1);
  prefix_[0] = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) prefix_[i + 1] = prefix_[i] + counts_[i];
  prefix_dirty_ = false;
}

double ColumnWorkload::range_sum(std::int64_t c0, std::int64_t c1) const {
  PICPRK_EXPECTS(c0 >= 0 && c0 <= c1 && c1 <= columns());
  if (c0 == c1) return 0.0;
  if (prefix_dirty_) rebuild_prefix();
  const std::int64_t n = columns();
  // Physical interval of the logical range; may wrap once.
  const auto p0 = static_cast<std::int64_t>(physical(c0));
  const std::int64_t len = c1 - c0;
  if (p0 + len <= n) {
    return prefix_[static_cast<std::size_t>(p0 + len)] - prefix_[static_cast<std::size_t>(p0)];
  }
  const double tail = prefix_[static_cast<std::size_t>(n)] - prefix_[static_cast<std::size_t>(p0)];
  const double head = prefix_[static_cast<std::size_t>(p0 + len - n)];
  return tail + head;
}

void ColumnWorkload::advance(std::int64_t shift) {
  const std::int64_t n = columns();
  offset_ = ((offset_ + shift) % n + n) % n;
}

void ColumnWorkload::add_uniform(std::int64_t x0, std::int64_t x1, double amount) {
  PICPRK_EXPECTS(x0 >= 0 && x0 < x1 && x1 <= columns());
  const double per_column = amount / static_cast<double>(x1 - x0);
  for (std::int64_t c = x0; c < x1; ++c) counts_[physical(c)] += per_column;
  prefix_dirty_ = true;
}

void ColumnWorkload::scale_range(std::int64_t x0, std::int64_t x1, double factor) {
  PICPRK_EXPECTS(x0 >= 0 && x0 < x1 && x1 <= columns());
  PICPRK_EXPECTS(factor >= 0.0);
  for (std::int64_t c = x0; c < x1; ++c) counts_[physical(c)] *= factor;
  prefix_dirty_ = true;
}

}  // namespace picprk::perfsim
