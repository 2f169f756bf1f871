// 4-wide SIMD inner loops for the three sensor models (simd.h lanes).
//
// One shape, the factored weighting's (ProbReadBatchGatherSimd): SoA
// positions in particle order, lane i evaluated against the reader frame
// its particle is attached to, fetched from the frame table with index
// gathers. Model constants are broadcast once per call into the evaluator.
//
// The geometry replicates batch_detail::EvalOne per lane: same 1e-12
// degenerate-distance guard, same clamped bearing, same zero-beyond cutoff;
// the transcendentals are the simd.h polynomials, so results match the
// scalar kernels to the 1e-9 relative bound documented there (parity tests
// pin this down in tests/batch_kernel_test.cc).
//
// Far-field short circuit: when no lane of a 4-group is inside the cutoff
// the kernel stores zeros and skips the heading gathers, the sqrt, the
// bearing acos and (for the spherical and logistic models) the exp
// entirely, so the evaluators only ever see groups with a lane in range. Remainder (n % 4) lanes of batches >= 4 run through one
// overlapped final group (same-index elements recompute to identical
// values); shorter batches take one group padded with copies of the last
// element, whose padding lanes are computed but never stored.
#pragma once

#include <array>
#include <cstddef>

#include "model/reader_frame.h"
#include "util/simd.h"

namespace rfid {
namespace simd_kernel {

/// Four lanes' reader frames (origin and heading trig), one per lane.
struct FrameConst {
  simd::Vec4d ox, oy, oz, cos_h, sin_h;
};

/// Bearing against the frame heading; degenerate lanes (dist <= 1e-12) get
/// angle 0, as the scalar guard does.
inline simd::Vec4d Bearing(const FrameConst& f, simd::Vec4d dx, simd::Vec4d dy,
                           simd::Vec4d dist) {
  using namespace simd;
  const Vec4d one = Set1(1.0);
  const Vec4d ok = CmpLt(Set1(1e-12), dist);
  const Vec4d denom = Select(ok, dist, one);
  Vec4d ct = MulAdd(dx, f.cos_h, dy * f.sin_h) / denom;
  ct = Min(Max(ct, Set1(-1.0)), one);
  return And(Acos(ct), ok);
}

/// Cone model (cone_sensor.h): linear angle/range decay, zero past the
/// major+minor extents. Constants are broadcast at construction; one
/// evaluator serves the whole batch.
struct ConeEval {
  simd::Vec4d one, rate, theta_major, theta_max, r_major, r_max_sq, inv_ma,
      inv_mr;

  struct Params {
    double major_read_rate;
    double major_half_angle;
    double theta_max;
    double major_range;
    double r_max;  ///< == MaxRange(), the hard cutoff.
    double inv_minor_angle;
    double inv_minor_range;
  };

  explicit ConeEval(const Params& p)
      : one(simd::Set1(1.0)),
        rate(simd::Set1(p.major_read_rate)),
        theta_major(simd::Set1(p.major_half_angle)),
        theta_max(simd::Set1(p.theta_max)),
        r_major(simd::Set1(p.major_range)),
        r_max_sq(simd::Set1(p.r_max * p.r_max)),
        inv_ma(simd::Set1(p.inv_minor_angle)),
        inv_mr(simd::Set1(p.inv_minor_range)) {}

  simd::Vec4d CutoffSq() const { return r_max_sq; }

  simd::Vec4d operator()(const FrameConst& fc, simd::Vec4d x, simd::Vec4d y,
                         simd::Vec4d z) const {
    using namespace simd;
    const Vec4d dx = x - fc.ox, dy = y - fc.oy, dz = z - fc.oz;
    const Vec4d dist_sq = MulAdd(dx, dx, MulAdd(dy, dy, dz * dz));
    const Vec4d in_range = CmpLt(dist_sq, r_max_sq);
    const Vec4d dist = Sqrt(dist_sq);
    const Vec4d angle = Bearing(fc, dx, dy, dist);
    const Vec4d af = Select(CmpLt(theta_major, angle),
                            one - (angle - theta_major) * inv_ma, one);
    const Vec4d rf = Select(CmpLt(r_major, dist),
                            one - (dist - r_major) * inv_mr, one);
    const Vec4d mask = And(in_range, CmpLt(angle, theta_max));
    return And(rate * af * rf, mask);
  }
};

/// Spherical model: peak * exp(-2 (d/range)^2) * (1 - falloff*min(a,pi)/pi),
/// zeroed past `zero_beyond` (the negligible-probability radius).
struct SphericalEval {
  simd::Vec4d one, peak, inv_range, falloff_over_pi, pi, cutoff_sq;

  struct Params {
    double peak_read_rate;
    double inv_range;
    double angle_falloff;
    double zero_beyond;
  };

  explicit SphericalEval(const Params& p)
      : one(simd::Set1(1.0)),
        peak(simd::Set1(p.peak_read_rate)),
        inv_range(simd::Set1(p.inv_range)),
        falloff_over_pi(simd::Set1(p.angle_falloff / M_PI)),
        pi(simd::Set1(M_PI)),
        cutoff_sq(simd::Set1(p.zero_beyond * p.zero_beyond)) {}

  simd::Vec4d CutoffSq() const { return cutoff_sq; }

  simd::Vec4d operator()(const FrameConst& fc, simd::Vec4d x, simd::Vec4d y,
                         simd::Vec4d z) const {
    using namespace simd;
    const Vec4d dx = x - fc.ox, dy = y - fc.oy, dz = z - fc.oz;
    const Vec4d dist_sq = MulAdd(dx, dx, MulAdd(dy, dy, dz * dz));
    const Vec4d in_range = CmpLt(dist_sq, cutoff_sq);
    const Vec4d dist = Sqrt(dist_sq);
    const Vec4d angle = Bearing(fc, dx, dy, dist);
    const Vec4d d = dist * inv_range;
    const Vec4d df = Exp(Set1(-2.0) * d * d);
    const Vec4d af = one - falloff_over_pi * Min(angle, pi);
    return And(peak * df * af, in_range);
  }
};

/// Logistic model, paper Eq. (1): sigmoid(a0 + a1 d + a2 d^2 + b1 t + b2 t^2)
/// with the numerically-stable two-branch sigmoid, zeroed past `zero_beyond`.
struct LogisticEval {
  simd::Vec4d one, a0, a1, a2, b1, b2, cutoff_sq;

  LogisticEval(const std::array<double, 3>& a, const std::array<double, 3>& b,
               double zero_beyond)
      : one(simd::Set1(1.0)),
        a0(simd::Set1(a[0])),
        a1(simd::Set1(a[1])),
        a2(simd::Set1(a[2])),
        b1(simd::Set1(b[1])),
        b2(simd::Set1(b[2])),
        cutoff_sq(simd::Set1(zero_beyond * zero_beyond)) {}

  simd::Vec4d CutoffSq() const { return cutoff_sq; }

  simd::Vec4d operator()(const FrameConst& fc, simd::Vec4d x, simd::Vec4d y,
                         simd::Vec4d z) const {
    using namespace simd;
    const Vec4d dx = x - fc.ox, dy = y - fc.oy, dz = z - fc.oz;
    const Vec4d dist_sq = MulAdd(dx, dx, MulAdd(dy, dy, dz * dz));
    const Vec4d in_range = CmpLt(dist_sq, cutoff_sq);
    const Vec4d dist = Sqrt(dist_sq);
    const Vec4d angle = Bearing(fc, dx, dy, dist);
    const Vec4d g = MulAdd(MulAdd(a2, dist, a1), dist, a0) +
                    MulAdd(b2, angle, b1) * angle;
    const Vec4d e = Exp(Zero() - Abs(g));
    const Vec4d inv = one / (one + e);
    const Vec4d sig = Select(CmpGe(g, Zero()), inv, e * inv);
    return And(sig, in_range);
  }
};

/// Per-element frames in original particle order (ProbReadBatchGatherSimd):
/// lane i of a group evaluates against frames[frame_idx[k+i]], fetched with
/// hardware index gathers from the frame table (L1-resident at the paper's
/// ~100 reader particles) into the per-lane FrameConst the evaluators take.
template <typename EvalT>
inline void BatchGatherSimd(const EvalT& eval, const ReaderFrame* frames,
                            const uint32_t* frame_idx, const double* xs,
                            const double* ys, const double* zs, size_t n,
                            double* out) {
  using namespace simd;
  static_assert(sizeof(ReaderFrame) == 5 * sizeof(double),
                "frame table must be densely packed doubles for gathers");
  constexpr int32_t kStride = 5;
  const double* base = reinterpret_cast<const double*>(frames);
  // Origins gather first; the heading components (and the evaluator) are
  // fetched only for groups with at least one lane inside the cutoff, so
  // far-field-dominated batches pay 3 gathers + a squared compare per group.
  const auto eval_group = [&](const uint32_t* idx_ptr, Vec4d x, Vec4d y,
                              Vec4d z) {
    const Idx4 idx = MulIdx(LoadIdx(idx_ptr), kStride);
    FrameConst fc;
    fc.ox = Gather(base + 0, idx);
    fc.oy = Gather(base + 1, idx);
    fc.oz = Gather(base + 2, idx);
    const Vec4d dx = x - fc.ox, dy = y - fc.oy, dz = z - fc.oz;
    const Vec4d dist_sq = MulAdd(dx, dx, MulAdd(dy, dy, dz * dz));
    if (!AnyTrue(CmpLt(dist_sq, eval.CutoffSq()))) return Zero();
    fc.cos_h = Gather(base + 3, idx);
    fc.sin_h = Gather(base + 4, idx);
    return eval(fc, x, y, z);
  };
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    Store(out + k, eval_group(frame_idx + k, Load(xs + k), Load(ys + k),
                              Load(zs + k)));
  }
  if (k == n) return;
  if (n >= static_cast<size_t>(kLanes)) {
    // Overlapped final group: recomputes same-index elements identically.
    const size_t j = n - kLanes;
    Store(out + j, eval_group(frame_idx + j, Load(xs + j), Load(ys + j),
                              Load(zs + j)));
    return;
  }
  double tx[kLanes] = {0}, ty[kLanes] = {0}, tz[kLanes] = {0};
  double tp[kLanes];
  uint32_t ti[kLanes];
  for (int i = 0; i < kLanes; ++i) {
    const size_t src = k + static_cast<size_t>(i) < n ? k + i : n - 1;
    tx[i] = xs[src];
    ty[i] = ys[src];
    tz[i] = zs[src];
    ti[i] = frame_idx[src];
  }
  Store(tp, eval_group(ti, Load(tx), Load(ty), Load(tz)));
  for (size_t i = k; i < n; ++i) out[i] = tp[i - k];
}

}  // namespace simd_kernel
}  // namespace rfid
