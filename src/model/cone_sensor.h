// Cone-shaped ground-truth sensor model used by the warehouse simulator
// (paper §V-A, Fig. 5(a)).
//
// A 30-degree open angle (15-degree half angle) major detection range with a
// uniform read rate RR_major, plus an additional 15 degrees of minor range in
// which the read rate degrades linearly from RR_major down to 0. Distance is
// bounded analogously: uniform up to the major range, then linear decay to 0
// at the minor range.
#pragma once

#include "model/sensor_model.h"

namespace rfid {

/// Parameters of the simulated cone antenna pattern.
struct ConeSensorParams {
  double major_read_rate = 1.0;        ///< RR_major, default 100% (paper).
  double major_half_angle = 15.0 * M_PI / 180.0;  ///< 30-degree open angle.
  double minor_extra_angle = 15.0 * M_PI / 180.0; ///< Additional minor wedge.
  double major_range = 3.0;            ///< Feet of full-strength range.
  double minor_extra_range = 1.5;      ///< Feet of decaying range beyond.
};

/// Ground-truth cone model; also usable as the "true model" during inference
/// (Fig. 5(e)'s "True Sensor Model" curve).
class ConeSensorModel final : public SensorModel {
 public:
  ConeSensorModel() = default;
  explicit ConeSensorModel(const ConeSensorParams& params) : params_(params) {}

  double ProbRead(double distance, double angle) const override;
  double MaxRange() const override {
    return params_.major_range + params_.minor_extra_range;
  }
  /// Total half-angle of the cone (major + minor wedge); ProbRead is
  /// exactly 0 at and past it.
  double MaxAngle() const {
    return params_.major_half_angle + params_.minor_extra_angle;
  }
  /// The cone is exactly zero past MaxRange and past MaxAngle, so batch
  /// kernels zero there.
  double BatchZeroRadius() const override { return MaxRange(); }
  double BatchZeroAngle() const override { return MaxAngle(); }
  /// Tight bounding box of the cone (apex at the reader, opening along the
  /// heading, total half-angle major + minor): its SectorBounds, the box the
  /// kernels' zero-region boxes pad.
  Aabb SensingBounds(const Pose& reader) const override;
  std::unique_ptr<SensorModel> Clone() const override {
    return std::make_unique<ConeSensorModel>(*this);
  }

  // Devirtualized batch kernels; beyond MaxRange() or MaxAngle() the cone is
  // exactly zero, so such particles skip the sqrt and the bearing acos, and
  // inside the major wedge the read rate does not depend on the bearing, so
  // such particles skip the division and the acos (the flat cut).
  void ProbReadBatchPositions(const ReaderFrame& frame, const Vec3* positions,
                              size_t n, double* out) const override;
  void ProbReadBatchGather(const ReaderFrame* frames, const uint32_t* frame_idx,
                           const ParticleCoord* xs, const ParticleCoord* ys,
                           const ParticleCoord* zs, size_t n,
                           double* out) const override;

  const ConeSensorParams& params() const { return params_; }

 private:
  ConeSensorParams params_;
};

}  // namespace rfid
