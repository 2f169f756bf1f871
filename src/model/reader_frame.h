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
// scalar ProbReadAt call would. There are two: one frame over AoS positions
// (the basic filter) and a per-element frame gather over SoA positions (the
// factored filter). When instantiated with a concrete `final` sensor model
// the per-particle ProbRead call devirtualizes and inlines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

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

namespace batch_detail {

/// Range/bearing of one offset against one frame, then the model's ProbRead.
/// `zero_beyond_sq` is the *squared* cutoff distance past which the model's
/// probability is (exactly or negligibly) zero — the squared comparison
/// lets far-field elements skip the sqrt as well as the acos; pass +inf for
/// no cutoff. Comparing squares can disagree with comparing distances by
/// one ulp exactly at the cutoff, where every model's probability is below
/// the 1e-12 parity tolerance by construction.
template <typename ModelT>
inline double EvalOne(const ModelT& model, const ReaderFrame& f, double tx,
                      double ty, double tz, double zero_beyond_sq) {
  const double dx = tx - f.origin.x;
  const double dy = ty - f.origin.y;
  const double dz = tz - f.origin.z;
  const double dist_sq = dx * dx + dy * dy + dz * dz;
  if (dist_sq >= zero_beyond_sq) return 0.0;
  const double dist = std::sqrt(dist_sq);
  double angle = 0.0;
  if (dist > 1e-12) {
    const double cos_theta = (dx * f.cos_heading + dy * f.sin_heading) / dist;
    angle = std::acos(std::clamp(cos_theta, -1.0, 1.0));
  }
  return model.ProbRead(dist, angle);
}

/// Squares a cutoff for EvalOne (inf stays inf).
inline double SquaredCutoff(double zero_beyond) {
  return zero_beyond * zero_beyond;
}

/// One frame, AoS positions (the basic filter's per-particle object lists).
template <typename ModelT>
inline void BatchAos(const ModelT& model, const ReaderFrame& frame,
                     const Vec3* positions, size_t n, double* out,
                     double zero_beyond) {
  const double zb2 = SquaredCutoff(zero_beyond);
  for (size_t k = 0; k < n; ++k) {
    out[k] = EvalOne(model, frame, positions[k].x, positions[k].y,
                     positions[k].z, zb2);
  }
}

/// Per-element frame lookup (the factored filter: particle k is conditioned
/// on reader particle frame_idx[k]).
template <typename ModelT>
inline void BatchGather(const ModelT& model, const ReaderFrame* frames,
                        const uint32_t* frame_idx, const double* xs,
                        const double* ys, const double* zs, size_t n,
                        double* out, double zero_beyond) {
  const double zb2 = SquaredCutoff(zero_beyond);
  for (size_t k = 0; k < n; ++k) {
    out[k] = EvalOne(model, frames[frame_idx[k]], xs[k], ys[k], zs[k], zb2);
  }
}

inline constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

}  // namespace batch_detail

/// Probability below which the batch kernels may round a read probability to
/// exactly 0 (the paper's Case-4 "negligible probability" rounding, applied
/// at kernel level). The threshold sits far below 2^-54 ≈ 5.6e-17, which
/// makes the rounding provably invisible to every consumer of batched
/// likelihoods: `max(p, 1e-9)` is unchanged, and `1.0 - p` rounds to exactly
/// 1.0 for any p < 2^-54 — so filter estimates stay bit-identical while
/// far-field lanes skip their transcendentals. The spherical and logistic
/// models precompute the radius beyond which their probability provably
/// stays under this bound (NegligibleRange()) and pass it as `zero_beyond`.
inline constexpr double kBatchNegligibleProb = 1e-18;

}  // namespace rfid
