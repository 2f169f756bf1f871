// Object location model (paper §III-A): objects are stationary but move with
// probability alpha per epoch, in which case the new location is uniform
// across all shelves. The model deliberately carries no information about
// the destination; the particle filter recovers it from subsequent readings.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "geometry/aabb.h"
#include "util/rng.h"

namespace rfid {

/// The set of shelf regions an object can occupy, as axis-aligned boxes.
/// Sampling is uniform by area/volume across all regions.
///
/// Contains() runs once per rejection try of every initial particle (§IV-A)
/// and per shelf-clipped draw of the baselines, so the constructor builds a
/// uniform grid over the xy bounding box of the boxes, with cells about the
/// size of a typical box, and a lookup tests only the boxes overlapping the
/// point's cell: O(1) box tests on rows of shelves. The grid is exact: for
/// every point Contains() answers what a scan over regions() would —
/// closed boundaries, flat and thick boxes, overlapping and touching boxes.
/// Boxes that hold no point (inverted, or with a NaN bound) are left out,
/// and a NaN or infinite coordinate answers false unless some box's own
/// bounds are infinite on that axis, exactly as the scan does. The value
/// stays cheap to copy: the grid is two flat vectors.
class ShelfRegions {
 public:
  ShelfRegions() = default;
  explicit ShelfRegions(std::vector<Aabb> regions);

  bool empty() const { return regions_.empty(); }
  size_t size() const { return regions_.size(); }
  const std::vector<Aabb>& regions() const { return regions_; }

  /// Uniform sample over the union of shelf regions. Requires non-empty.
  Vec3 SampleUniform(Rng& rng) const;

  /// True if the point lies inside any shelf region.
  bool Contains(const Vec3& p) const;

  /// Bounding box of all regions (empty box when no regions).
  const Aabb& BoundingBox() const { return bounds_; }

 private:
  /// One axis of the grid: `cells` columns of width 1/inv_width from lo.
  /// The default rejects every coordinate (no box holds a point).
  struct GridAxis {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    double inv_width = 0.0;
    size_t cells = 1;

    /// Column of a coordinate in [lo, hi]. Monotone in v, so a box entered
    /// in the columns of its min and max bounds and every column between
    /// is found from any point it contains.
    size_t Column(double v) const {
      const double t = (v - lo) * inv_width;
      return t < static_cast<double>(cells - 1) ? static_cast<size_t>(t)
                                                 : cells - 1;
    }
  };

  void BuildGrid();

  std::vector<Aabb> regions_;
  std::vector<double> cumulative_measure_;  ///< Prefix sums for sampling.
  Aabb bounds_;
  GridAxis grid_x_;
  GridAxis grid_y_;
  /// Cell c (row-major, x fastest) holds the boxes
  /// cell_boxes_[cell_begin_[c] .. cell_begin_[c + 1]), copied in region
  /// order so a lookup reads one contiguous run.
  std::vector<size_t> cell_begin_;
  std::vector<Aabb> cell_boxes_;
};

struct ObjectModelParams {
  double move_probability = 1e-4;  ///< alpha: per-epoch move probability.
};

/// p(O_t,i | O_{t-1,i}) — the particle-filter proposal for object positions.
class ObjectLocationModel {
 public:
  ObjectLocationModel() = default;
  ObjectLocationModel(const ObjectModelParams& params, ShelfRegions shelves)
      : params_(params), shelves_(std::move(shelves)) {}

  /// Samples the next position: stay put w.p. 1 - alpha, else jump uniform.
  /// Inline: the filter calls it once per particle of every read object.
  Vec3 Propagate(const Vec3& prev, Rng& rng) const {
    if (!shelves_.empty() && rng.Bernoulli(params_.move_probability)) {
      return shelves_.SampleUniform(rng);
    }
    return prev;
  }

  const ObjectModelParams& params() const { return params_; }
  const ShelfRegions& shelves() const { return shelves_; }

 private:
  ObjectModelParams params_;
  ShelfRegions shelves_;
};

}  // namespace rfid
