#include "model/cone_sensor.h"

#include <algorithm>
#include <cmath>

namespace rfid {

Aabb ConeSensorModel::SensingBounds(const Pose& reader) const {
  const double r = MaxRange();
  const double theta_max = MaxAngle();
  Aabb box;
  box.Extend(reader.position);
  // Sample the bounding arc: the extremes of the cone's planar footprint are
  // attained at the arc endpoints, the axis, and (if inside the wedge) the
  // axis-aligned tangent directions.
  for (double a : {-theta_max, -theta_max / 2, 0.0, theta_max / 2, theta_max}) {
    const double phi = reader.heading + a;
    box.Extend(reader.position + Vec3{r * std::cos(phi), r * std::sin(phi), 0});
  }
  for (double phi_card = -M_PI; phi_card <= M_PI + 1e-9; phi_card += M_PI / 2) {
    if (std::abs(WrapAngle(phi_card - reader.heading)) <= theta_max) {
      box.Extend(reader.position +
                 Vec3{r * std::cos(phi_card), r * std::sin(phi_card), 0});
    }
  }
  // The 3-D angular acceptance allows tags above/below the antenna plane.
  const double z_span = r * std::sin(theta_max);
  box.Extend(reader.position + Vec3{0, 0, z_span});
  box.Extend(reader.position - Vec3{0, 0, z_span});
  return box;
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
                                          const double* xs, const double* ys,
                                          const double* zs, size_t n,
                                          double* out) const {
  batch_detail::BatchGather(*this, frames, frame_idx, xs, ys, zs, n, out,
                            MaxRange(), MaxAngle(), params_.major_half_angle);
}

}  // namespace rfid
