#include "model/cone_sensor.h"

#include <algorithm>
#include <cmath>

namespace rfid {

Aabb ConeSensorModel::SensingBounds(const Pose& reader) const {
  // The box of the cone's sector; a cone at least a right angle wide reaches
  // MaxRange straight up, where the sector box would stop short.
  if (!(MaxAngle() < M_PI / 2)) return SensorModel::SensingBounds(reader);
  return SectorBounds(ReaderFrame::From(reader), MaxRange(), MaxAngle());
}

double ConeSensorModel::ProbRead(double distance, double angle) const {
  if (angle >= MaxAngle() || distance >= MaxRange()) return 0.0;

  const double theta_major = params_.major_half_angle;
  const double r_major = params_.major_range;
  // Linear decay factors in the minor wedge / minor range; 1 inside major.
  double angle_factor = 1.0;
  if (angle > theta_major) {
    angle_factor = 1.0 - (angle - theta_major) / params_.minor_extra_angle;
  }
  double range_factor = 1.0;
  if (distance > r_major) {
    range_factor = 1.0 - (distance - r_major) / params_.minor_extra_range;
  }
  return params_.major_read_rate * angle_factor * range_factor;
}

void ConeSensorModel::ProbReadBatchPositions(const ReaderFrame& frame,
                                             const Vec3* positions, size_t n,
                                             double* out) const {
  batch_detail::BatchAos(*this, frame, positions, n, out, MaxRange(),
                         MaxAngle(), params_.major_half_angle);
}

void ConeSensorModel::ProbReadBatchGather(const ReaderFrame* frames,
                                          const uint32_t* frame_idx,
                                          const ParticleCoord* xs,
                                          const ParticleCoord* ys,
                                          const ParticleCoord* zs, size_t n,
                                          double* out) const {
  batch_detail::BatchGather(*this, frames, frame_idx, xs, ys, zs, n, out,
                            MaxRange(), MaxAngle(), params_.major_half_angle);
}

}  // namespace rfid
