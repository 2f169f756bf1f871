// Axis-aligned bounding boxes, the primitive indexed by the R*-tree and used
// to approximate reader sensing regions (paper SIV-C).
#pragma once

#include <algorithm>
#include <limits>
#include <ostream>

#include "geometry/vec.h"

namespace rfid {

/// Closed axis-aligned box [min, max] in 3-D.
struct Aabb {
  Vec3 min{std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity()};
  Vec3 max{-std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()};

  Aabb() = default;
  Aabb(const Vec3& mn, const Vec3& mx) : min(mn), max(mx) {}

  /// Empty (inverted) box; Extend() grows it.
  static Aabb Empty() { return Aabb(); }

  /// Box centered at `c` with half-extent `r` in x/y and `rz` in z.
  static Aabb FromCenterRadius(const Vec3& c, double r, double rz = 0.0);

  bool IsEmpty() const { return min.x > max.x || min.y > max.y || min.z > max.z; }

  void Extend(const Vec3& p);
  void Extend(const Aabb& other);

  bool Contains(const Vec3& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y &&
           p.z >= min.z && p.z <= max.z;
  }
  bool Intersects(const Aabb& other) const;

  /// Intersection box; empty if disjoint.
  Aabb Intersection(const Aabb& other) const;

  Vec3 Center() const { return (min + max) * 0.5; }
  Vec3 Extent() const { return max - min; }

  /// Volume treating zero-thickness dimensions as thickness 0 (so flat boxes
  /// have volume 0); use Margin() when comparing flat boxes.
  double Volume() const;
  /// Surface "margin": sum of edge lengths (R*-tree split heuristic).
  double Margin() const;
  /// Volume of overlap with `other` (0 when disjoint).
  double OverlapVolume(const Aabb& other) const;
  /// Volume increase caused by extending this box to cover `other`.
  double Enlargement(const Aabb& other) const;
};

std::ostream& operator<<(std::ostream& os, const Aabb& b);

}  // namespace rfid
