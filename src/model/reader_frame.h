// Precomputed reader frames for batched sensor-model evaluation.
//
// Per paper Eq. (1) every likelihood evaluation needs the tag's range and
// bearing relative to a reader pose, and the bearing needs cos/sin of the
// reader heading. The filters evaluate thousands of particles against a
// handful of poses per epoch, so the trig is hoisted out of the per-particle
// loop into a ReaderFrame computed once per pose per epoch.
//
// The templated kernels below replicate ComputeRangeBearing (geometry/vec.h)
// term for term — same expressions, same association order, same 1e-12
// degenerate-distance guard — so a batched evaluation returns exactly what a
// scalar ProbReadAt call would. Three cuts skip part of that arithmetic
// (ZeroCuts): past the model's zero range they return 0 (exact for the
// cone, a negligible rounding for the smooth models, see
// kBatchNegligibleProb); past its zero bearing they return 0, and inside
// its flat bearing they return ProbRead(dist, 0) without the division and
// acos, each with a margin that keeps the result bit-identical (the cone's
// wedge edge and its major wedge, see kBearingCutMargin). There are two
// kernels: one frame over AoS positions (the basic filter) and a
// per-element frame gather over SoA positions (the factored filter); both
// take their cuts from MakeZeroCuts. The gather reads positions at their
// stored ParticleCoord (float) width and widens each coordinate once, so
// everything after the load, cuts included, is the same double arithmetic
// on the same values as the AoS kernel's. When instantiated with a concrete
// `final` sensor model the per-particle ProbRead call devirtualizes and
// inlines. ZeroRegionBounds boxes the region where a frame's kernel output
// can be nonzero; the factored filter skips objects outside every box.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "geometry/aabb.h"
#include "geometry/vec.h"

namespace rfid {

/// A reader pose with the heading trig precomputed.
struct ReaderFrame {
  Vec3 origin;
  double cos_heading = 1.0;
  double sin_heading = 0.0;

  static ReaderFrame From(const Pose& pose) {
    ReaderFrame f;
    f.origin = pose.position;
    f.cos_heading = std::cos(pose.heading);
    f.sin_heading = std::sin(pose.heading);
    return f;
  }
};

/// Box of the spherical sector of radius `r` and half angle θ0 around frame
/// `f`'s heading, apex at its origin, for θ0 short of a right angle (wider
/// sectors reach r straight up, which this box misses). From the frame's
/// cos/sin and cos θ0, sin θ0 by the angle-sum formulas: the apex, the two
/// arc endpoints at heading ± θ0, r along each axis direction the arc
/// crosses, and z within ± r·sin θ0.
inline Aabb SectorBounds(const ReaderFrame& f, double r, double half_angle) {
  const double cos0 = std::cos(half_angle);
  const double sin0 = std::sin(half_angle);
  const double c = f.cos_heading;
  const double s = f.sin_heading;
  // Arc endpoints: the heading turned by +θ0 and by −θ0.
  const double x_plus = r * (c * cos0 - s * sin0);
  const double y_plus = r * (s * cos0 + c * sin0);
  const double x_minus = r * (c * cos0 + s * sin0);
  const double y_minus = r * (s * cos0 - c * sin0);
  Vec3 lo{std::min({0.0, x_plus, x_minus}), std::min({0.0, y_plus, y_minus}),
          -r * sin0};
  Vec3 hi{std::max({0.0, x_plus, x_minus}), std::max({0.0, y_plus, y_minus}),
          r * sin0};
  // An axis direction within θ0 of the heading lies on the arc.
  if (c > cos0) hi.x = r;
  if (-c > cos0) lo.x = -r;
  if (s > cos0) hi.y = r;
  if (-s > cos0) lo.y = -r;
  return Aabb(f.origin + lo, f.origin + hi);
}

namespace batch_detail {

inline constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

/// Slack subtracted from cos(θ0) for the bearing cut, θ0 being the bearing
/// at and past which the model's ProbRead is exactly 0.
///
/// The cut zeroes an element when dot <= 0 or dot² <= c²·dist_sq, with
/// c = cos(θ0) − kBearingCutMargin. dot and dist_sq are the very values the
/// exact path divides and takes the sqrt of, so only these roundings count:
/// cos(θ0) (glibc, ≤ 1 ulp), the subtraction, c², c²·dist_sq and dot² on
/// the cut's side; the sqrt, the division and acos (glibc, ≤ 1 ulp) on the
/// exact side. Each is a relative error of at most ~2.2e-16, about 1e-15 on
/// the cosine in all. So the cosine the exact path computes for a zeroed
/// element is at most cos(θ0) − 1e-9 + 1e-15 (and at most 0 when dot <= 0,
/// past a right angle since c > 0 needs θ0 < π/2), the clamp keeps it under
/// that bound, and acos falls at least as fast as its argument rises
/// (|acos'| >= 1): the angle is at least θ0 + 1e-9 − 2e-15 after its own
/// rounding — still past θ0, where ProbRead returns exactly 0.
/// An element at or past θ0 but inside the 1e-9 band is not cut; it takes
/// the exact path and gets its 0 from ProbRead.
///
/// The flat cut mirrors it on the other side of the cone's axis: with
/// k = cos(θf) + kBearingCutMargin, an element with dot > 0 and
/// dot² >= k²·dist_sq has an exact-path cosine of at least
/// cos(θf) + 1e-9 − 1e-15, so its angle is at most θf − 1e-9 + 2e-15 —
/// still short of θf, where ProbRead does not look at the angle.
inline constexpr double kBearingCutMargin = 1e-9;

/// The cut applies only above this squared distance. EvalOne computes a
/// bearing only for dist > 1e-12 (below it the angle is 0); dist_sq just
/// above 1e-24 can round its sqrt to exactly 1e-12, so the cut stays a
/// hundredfold clear of that guard and every element near it takes the
/// exact path.
inline constexpr double kBearingCutMinDistSq = 1e-22;

/// Where the batch kernels may skip ProbRead's arithmetic: past a squared
/// range and past a bearing (exactly 0), and inside a flat bearing
/// (ProbRead at angle 0); see kBearingCutMargin.
struct ZeroCuts {
  double range_sq = kNoCutoff;  ///< dist_sq >= range_sq → 0.
  bool bearing = false;         ///< Whether the bearing cut applies.
  double bearing_cos_sq = 0.0;  ///< c², c = cos(θ0) − kBearingCutMargin.
  bool flat = false;            ///< Whether the flat cut applies.
  double flat_cos_sq = 0.0;     ///< k², k = cos(θf) + kBearingCutMargin.
};

/// The cuts for a model that is zero past `zero_beyond` (its
/// BatchZeroRadius()) and at bearings >= `zero_angle` (its
/// BatchZeroAngle()); +inf for either means no cut. The bearing cut needs
/// c > 0, i.e. θ0 short of a right angle. Comparing squared distances can
/// disagree with comparing distances by one ulp exactly at the range
/// cutoff, where every model's probability is below the 1e-12 parity
/// tolerance by construction. A model whose ProbRead(d, θ) equals
/// ProbRead(d, 0) at every bearing θ <= `flat_angle` passes it (the cone:
/// its major half angle); 0, the default, means no flat cut, as does a θf
/// so small that k reaches 1.
inline ZeroCuts MakeZeroCuts(double zero_beyond, double zero_angle,
                             double flat_angle = 0.0) {
  ZeroCuts cuts;
  cuts.range_sq = zero_beyond * zero_beyond;
  if (zero_angle < M_PI / 2) {
    const double c = std::cos(zero_angle) - kBearingCutMargin;
    cuts.bearing = c > 0.0;
    cuts.bearing_cos_sq = c * c;
  }
  if (flat_angle > 0.0 && flat_angle < M_PI / 2) {
    const double k = std::cos(flat_angle) + kBearingCutMargin;
    cuts.flat = k < 1.0;
    cuts.flat_cos_sq = k * k;
  }
  return cuts;
}

/// Box of the positions where a model that is zero past `zero_beyond` and
/// at bearings >= `zero_angle` (MakeZeroCuts' arguments) can read nonzero
/// against frame `f`: every element outside it evaluates to exactly 0 in
/// both kernels. With θ0 short of a right angle and a finite radius R it
/// is the frame's SectorBounds (the cone), padded by 1e-9·R on every face.
/// Otherwise it is the cube of half-extent R·(1 + 1e-9) around the origin.
/// The padding dwarfs the ~1e-15 relative roundings of this arithmetic and
/// of the kernels' range and bearing (see kBearingCutMargin), so an element
/// outside the box is past R or past θ0 in the kernels' own arithmetic.
inline Aabb ZeroRegionBounds(const ReaderFrame& f, double zero_beyond,
                             double zero_angle) {
  if (!(zero_angle < M_PI / 2) || !std::isfinite(zero_beyond)) {
    const double reach = zero_beyond * (1.0 + 1e-9);
    return Aabb(f.origin - Vec3{reach, reach, reach},
                f.origin + Vec3{reach, reach, reach});
  }
  const Aabb sector = SectorBounds(f, zero_beyond, zero_angle);
  const double pad = 1e-9 * zero_beyond;
  return Aabb(sector.min - Vec3{pad, pad, pad},
              sector.max + Vec3{pad, pad, pad});
}

/// Range/bearing of one offset against one frame, then the model's
/// ProbRead — or exactly 0 where `cuts` prove ProbRead would return it, or
/// ProbRead at angle 0 where they prove the angle would not matter.
/// Skipping the sqrt and acos matters: in a priming round most particles
/// lie past the cone's range or outside its bearing, and four in ten of a
/// read object's particles lie inside the cone's major wedge.
template <typename ModelT>
inline double EvalOne(const ModelT& model, const ReaderFrame& f, double tx,
                      double ty, double tz, const ZeroCuts& cuts) {
  const double dx = tx - f.origin.x;
  const double dy = ty - f.origin.y;
  const double dz = tz - f.origin.z;
  const double dist_sq = dx * dx + dy * dy + dz * dz;
  if (dist_sq >= cuts.range_sq) return 0.0;
  const double dot = dx * f.cos_heading + dy * f.sin_heading;
  if (cuts.bearing && dist_sq > kBearingCutMinDistSq &&
      (dot <= 0.0 || dot * dot <= cuts.bearing_cos_sq * dist_sq)) {
    return 0.0;
  }
  const double dist = std::sqrt(dist_sq);
  // Below the 1e-12 distance guard the exact path's angle is 0 as well, so
  // the flat cut needs no distance floor.
  if (cuts.flat && dot > 0.0 && dot * dot >= cuts.flat_cos_sq * dist_sq) {
    return model.ProbRead(dist, 0.0);
  }
  double angle = 0.0;
  if (dist > 1e-12) {
    const double cos_theta = dot / dist;
    angle = std::acos(std::clamp(cos_theta, -1.0, 1.0));
  }
  return model.ProbRead(dist, angle);
}

/// One frame, AoS positions (the basic filter's per-particle object lists).
template <typename ModelT>
inline void BatchAos(const ModelT& model, const ReaderFrame& frame,
                     const Vec3* positions, size_t n, double* out,
                     double zero_beyond, double zero_angle,
                     double flat_angle = 0.0) {
  const ZeroCuts cuts = MakeZeroCuts(zero_beyond, zero_angle, flat_angle);
  for (size_t k = 0; k < n; ++k) {
    out[k] = EvalOne(model, frame, positions[k].x, positions[k].y,
                     positions[k].z, cuts);
  }
}

/// Per-element frame lookup (the factored filter: particle k is conditioned
/// on reader particle frame_idx[k]). Positions come at their stored
/// ParticleCoord width; each coordinate widens to double (exactly) before
/// EvalOne, so every cut margin above holds as argued for double positions.
template <typename ModelT>
inline void BatchGather(const ModelT& model, const ReaderFrame* frames,
                        const uint32_t* frame_idx, const ParticleCoord* xs,
                        const ParticleCoord* ys, const ParticleCoord* zs,
                        size_t n, double* out, double zero_beyond,
                        double zero_angle, double flat_angle = 0.0) {
  const ZeroCuts cuts = MakeZeroCuts(zero_beyond, zero_angle, flat_angle);
  for (size_t k = 0; k < n; ++k) {
    out[k] = EvalOne(model, frames[frame_idx[k]], static_cast<double>(xs[k]),
                     static_cast<double>(ys[k]), static_cast<double>(zs[k]),
                     cuts);
  }
}

}  // namespace batch_detail

/// Probability below which the batch kernels may round a read probability to
/// exactly 0 (the paper's Case-4 "negligible probability" rounding, applied
/// at kernel level). The threshold sits far below 2^-54 ≈ 5.6e-17, which
/// makes the rounding provably invisible to every consumer of batched
/// likelihoods: `max(p, 1e-9)` is unchanged, and `1.0 - p` rounds to exactly
/// 1.0 for any p < 2^-54 — so filter estimates stay bit-identical while
/// far-field elements skip their transcendentals. The spherical and logistic
/// models precompute the radius beyond which their probability provably
/// stays under this bound (NegligibleRange()) and pass it as `zero_beyond`.
inline constexpr double kBatchNegligibleProb = 1e-18;

}  // namespace rfid
