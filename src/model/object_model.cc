#include "model/object_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace rfid {

namespace {
// Measure used for uniform sampling across regions: volume when the region
// has thickness in z, area otherwise. A tiny floor keeps degenerate
// (point-like) regions sampleable.
double RegionMeasure(const Aabb& b) {
  const Vec3 e = b.Extent();
  const double xy = std::max(e.x, 1e-9) * std::max(e.y, 1e-9);
  return xy * std::max(e.z, 1e-9);
}

// Grid cells allowed per indexed box. Caps the grid at 4,000 cells for
// 1,000 boxes, whatever their layout.
constexpr size_t kMaxCellsPerBox = 4;

// Columns along one axis: about one median box extent wide, so a column of
// a row of shelves overlaps one or two of them; at most one per box, and
// one when the boxes span nothing (or an infinite range) on the axis.
size_t ColumnsAlong(double span, std::vector<double> extents) {
  if (!(span > 0.0) || !std::isfinite(span)) return 1;
  const auto mid = extents.begin() + extents.size() / 2;
  std::nth_element(extents.begin(), mid, extents.end());
  const double boxes = static_cast<double>(extents.size());
  const double columns = *mid > 0.0 ? std::ceil(span / *mid) : boxes;
  return static_cast<size_t>(std::clamp(columns, 1.0, boxes));
}
}  // namespace

ShelfRegions::ShelfRegions(std::vector<Aabb> regions)
    : regions_(std::move(regions)) {
  cumulative_measure_.reserve(regions_.size());
  double acc = 0.0;
  for (const Aabb& r : regions_) {
    acc += RegionMeasure(r);
    cumulative_measure_.push_back(acc);
    bounds_.Extend(r);
  }
  BuildGrid();
}

void ShelfRegions::BuildGrid() {
  // A box holds a point only when min <= max on every axis, which is false
  // for an inverted box and for a NaN bound: the grid leaves those out.
  std::vector<const Aabb*> boxes;
  for (const Aabb& r : regions_) {
    if (r.min.x <= r.max.x && r.min.y <= r.max.y && r.min.z <= r.max.z) {
      boxes.push_back(&r);
    }
  }
  if (boxes.empty()) return;

  GridAxis x;
  GridAxis y;
  std::vector<double> x_extents;
  std::vector<double> y_extents;
  for (const Aabb* b : boxes) {
    x.lo = std::min(x.lo, b->min.x);
    x.hi = std::max(x.hi, b->max.x);
    y.lo = std::min(y.lo, b->min.y);
    y.hi = std::max(y.hi, b->max.y);
    x_extents.push_back(b->max.x - b->min.x);
    y_extents.push_back(b->max.y - b->min.y);
  }
  x.cells = ColumnsAlong(x.hi - x.lo, std::move(x_extents));
  y.cells = ColumnsAlong(y.hi - y.lo, std::move(y_extents));
  const size_t max_cells = kMaxCellsPerBox * boxes.size();
  if (x.cells * y.cells > max_cells) {
    const double shrink = std::sqrt(static_cast<double>(max_cells) /
                                    static_cast<double>(x.cells * y.cells));
    for (GridAxis* axis : {&x, &y}) {
      axis->cells = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(axis->cells) * shrink));
    }
  }
  for (GridAxis* axis : {&x, &y}) {
    axis->inv_width = axis->cells > 1 ? static_cast<double>(axis->cells) /
                                            (axis->hi - axis->lo)
                                      : 0.0;
    if (!std::isfinite(axis->inv_width)) {  // A subnormal span.
      axis->cells = 1;
      axis->inv_width = 0.0;
    }
  }

  // Counting sort of (cell, box) pairs: every cell a box's xy footprint
  // overlaps lists the box.
  const auto for_each_cell = [&x, &y](const Aabb& b, auto&& visit) {
    const size_t x0 = x.Column(b.min.x);
    const size_t x1 = x.Column(b.max.x);
    for (size_t cy = y.Column(b.min.y); cy <= y.Column(b.max.y); ++cy) {
      for (size_t cx = x0; cx <= x1; ++cx) visit(cy * x.cells + cx);
    }
  };
  cell_begin_.assign(x.cells * y.cells + 1, 0);
  for (const Aabb* b : boxes) {
    for_each_cell(*b, [this](size_t cell) { ++cell_begin_[cell + 1]; });
  }
  std::partial_sum(cell_begin_.begin(), cell_begin_.end(),
                   cell_begin_.begin());
  cell_boxes_.resize(cell_begin_.back());
  std::vector<size_t> next(cell_begin_.begin(), cell_begin_.end() - 1);
  for (const Aabb* b : boxes) {
    for_each_cell(*b,
                  [&](size_t cell) { cell_boxes_[next[cell]++] = *b; });
  }
  grid_x_ = x;
  grid_y_ = y;
}

Vec3 ShelfRegions::SampleUniform(Rng& rng) const {
  assert(!regions_.empty());
  const double total = cumulative_measure_.back();
  const double u = rng.NextDouble() * total;
  // The first region whose prefix sum exceeds u, else the last. Prefix sums
  // never decrease and a NaN sum stays NaN, so `sum <= u` holds on a prefix
  // of them and the binary search picks what a scan would for every draw.
  const auto pick = std::partition_point(
      cumulative_measure_.begin(), cumulative_measure_.end() - 1,
      [u](double sum) { return sum <= u; });
  const Aabb& r =
      regions_[static_cast<size_t>(pick - cumulative_measure_.begin())];
  return {rng.Uniform(r.min.x, r.max.x), rng.Uniform(r.min.y, r.max.y),
          r.min.z == r.max.z ? r.min.z : rng.Uniform(r.min.z, r.max.z)};
}

bool ShelfRegions::Contains(const Vec3& p) const {
  // Outside the boxes' xy extent, or NaN, no box holds the point.
  if (!(p.x >= grid_x_.lo && p.x <= grid_x_.hi && p.y >= grid_y_.lo &&
        p.y <= grid_y_.hi)) {
    return false;
  }
  const size_t cell =
      grid_y_.Column(p.y) * grid_x_.cells + grid_x_.Column(p.x);
  const Aabb* box = cell_boxes_.data() + cell_begin_[cell];
  const Aabb* const end = cell_boxes_.data() + cell_begin_[cell + 1];
  for (; box != end; ++box) {
    if (box->Contains(p)) return true;
  }
  return false;
}

}  // namespace rfid
