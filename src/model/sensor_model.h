// RFID sensor models: p(tag responds | reader pose, tag location).
//
// The learnable model is the logistic form of paper Eq. (1):
//   p(O_ti = 0 | d, theta) = 1 / (1 + exp{ sum_c a_c d^c + sum_c b_c theta^c })
// equivalently p(read) = sigmoid(a0 + a1 d + a2 d^2 + b1 theta + b2 theta^2).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "geometry/aabb.h"
#include "geometry/vec.h"
#include "model/reader_frame.h"
#include "util/status.h"

namespace rfid {

/// Numerically-stable logistic sigmoid.
inline double Sigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// Interface: probability that a tag at range/bearing (d, theta) from the
/// reader responds in one interrogation round.
class SensorModel {
 public:
  virtual ~SensorModel() = default;

  /// p(read = 1 | distance, angle). angle is in [0, pi].
  virtual double ProbRead(double distance, double angle) const = 0;

  /// Distance beyond which ProbRead is negligible for every angle; used to
  /// build sensing-region bounding boxes (§IV-C) and the initialization cone.
  virtual double MaxRange() const = 0;

  /// Distance beyond which the *batch kernels* report exactly 0 (the cone's
  /// hard MaxRange cutoff; the spherical/logistic negligible-probability
  /// radius). The filter uses it to skip whole far-field objects: if every
  /// particle is farther than this from every reader, the batched
  /// likelihoods are all exactly 0 and the update is a pure reweighting by
  /// 1.0. +infinity (the default) disables the skip for models whose batch
  /// kernels never round to zero.
  virtual double BatchZeroRadius() const {
    return std::numeric_limits<double>::infinity();
  }

  /// Bearing θ0 at and past which ProbRead is exactly 0 for every distance
  /// (the cone's outer wedge edge). The scalar batch kernels return 0 for
  /// elements whose bearing is provably past it without the sqrt and acos;
  /// a 1e-9 margin on the cosine keeps every output bit-identical (see
  /// batch_detail::kBearingCutMargin in reader_frame.h). The cut applies
  /// only below a right angle; +infinity (the default) means no cut, for
  /// models that read at every bearing.
  virtual double BatchZeroAngle() const {
    return std::numeric_limits<double>::infinity();
  }

  virtual std::unique_ptr<SensorModel> Clone() const = 0;

  /// Axis-aligned bounding box of the sensing region at `reader` (paper
  /// §IV-C: "for each reported reader location, we construct a bounding box
  /// of the sensing region"). The default is a conservative cube of
  /// half-extent MaxRange(); directional models override with a tight box.
  virtual Aabb SensingBounds(const Pose& reader) const {
    return Aabb::FromCenterRadius(reader.position, MaxRange(), MaxRange());
  }

  /// Convenience helper via the paper's range/bearing computation.
  /// (Distinctly named so derived overrides do not hide it.)
  double ProbReadAt(const Pose& reader, const Vec3& tag) const {
    const RangeBearing rb = ComputeRangeBearing(reader, tag);
    return ProbRead(rb.distance, rb.angle);
  }

  // --- Batched evaluation -------------------------------------------------
  //
  // The two entry points the filters call. Each produces exactly the
  // scalar ProbReadAt result per element (same range/bearing arithmetic,
  // see reader_frame.h). Concrete models override them with devirtualized
  // inner loops; the base implementations pay one virtual ProbRead per
  // element and exist so new sensor models work unoptimized out of the box.

  /// One frame, array-of-structs positions (the basic filter's particles):
  /// out[k] = p(read | frame, positions[k]) for k in [0, n).
  virtual void ProbReadBatchPositions(const ReaderFrame& frame,
                                      const Vec3* positions, size_t n,
                                      double* out) const;

  /// Per-element frames: out[k] uses frames[frame_idx[k]] (the factored
  /// representation, where each particle conditions on its own reader).
  /// Positions come as the particle store holds them, at ParticleCoord
  /// width; out[k] is the scalar result at the widened position.
  virtual void ProbReadBatchGather(const ReaderFrame* frames,
                                   const uint32_t* frame_idx,
                                   const ParticleCoord* xs,
                                   const ParticleCoord* ys,
                                   const ParticleCoord* zs, size_t n,
                                   double* out) const;
};

/// Learnable parametric sensor model, paper Eq. (1).
///
/// Coefficients: a[0..2] multiply d^0, d^1, d^2 and b[1..2] multiply
/// theta^1, theta^2 (b[0] is fixed at 0 — the constant term lives in a[0]).
class LogisticSensorModel final : public SensorModel {
 public:
  /// Default coefficients describe a ~3 ft conical region; calibration
  /// (learn/em.h) replaces them in any real use.
  LogisticSensorModel();
  LogisticSensorModel(const std::array<double, 3>& a,
                      const std::array<double, 3>& b);

  double ProbRead(double distance, double angle) const override;
  double MaxRange() const override { return max_range_; }
  double BatchZeroRadius() const override { return negligible_range_; }
  std::unique_ptr<SensorModel> Clone() const override {
    return std::make_unique<LogisticSensorModel>(*this);
  }

  void ProbReadBatchPositions(const ReaderFrame& frame, const Vec3* positions,
                              size_t n, double* out) const override;
  void ProbReadBatchGather(const ReaderFrame* frames, const uint32_t* frame_idx,
                           const ParticleCoord* xs, const ParticleCoord* ys,
                           const ParticleCoord* zs, size_t n,
                           double* out) const override;

  const std::array<double, 3>& a() const { return a_; }
  const std::array<double, 3>& b() const { return b_; }

  /// Distance beyond which ProbRead provably stays under
  /// kBatchNegligibleProb for every angle; the batch kernels zero such
  /// elements without evaluating the exp. +infinity when the learned
  /// quadratic has no decaying tail (e.g. a[2] > 0 extrapolation upturn).
  double NegligibleRange() const { return negligible_range_; }

  /// Sets coefficients and recomputes the cached max range.
  void SetCoefficients(const std::array<double, 3>& a,
                       const std::array<double, 3>& b);

  /// Coefficients as the flat vector [a0, a1, a2, b1, b2] used by the
  /// logistic-regression trainer.
  std::array<double, 5> AsWeightVector() const;
  static LogisticSensorModel FromWeightVector(const std::array<double, 5>& w);

 private:
  void RecomputeMaxRange();
  void RecomputeNegligibleRange();

  std::array<double, 3> a_;
  std::array<double, 3> b_;
  double max_range_ = 0.0;
  double negligible_range_ = 0.0;
};

}  // namespace rfid
