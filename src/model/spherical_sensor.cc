#include "model/spherical_sensor.h"

#include <algorithm>
#include <cmath>

namespace rfid {

SphericalSensorModel SphericalSensorModel::ForTimeoutMs(double timeout_ms) {
  // Longer timeout -> more tags answer (higher peak rate) and tags respond
  // from farther away (larger range). Calibrated so 250/500/750 ms span a
  // plausible 60..85% peak read rate, consistent with EPC Gen2 field studies.
  const double t = std::clamp(timeout_ms, 100.0, 1000.0) / 1000.0;
  SphericalSensorParams p;
  p.peak_read_rate = std::min(0.95, 0.45 + 0.55 * t);
  p.range = 1.6 + 1.2 * t;
  p.angle_falloff = 0.75;
  return SphericalSensorModel(p);
}

double SphericalSensorModel::ProbRead(double distance, double angle) const {
  const double d = distance / params_.range;
  const double distance_factor = std::exp(-2.0 * d * d);
  const double angle_factor =
      1.0 - params_.angle_falloff * std::min(angle, M_PI) / M_PI;
  return params_.peak_read_rate * distance_factor * angle_factor;
}

double SphericalSensorModel::MaxRange() const {
  // exp(-2 d^2) drops below ~1e-3 of peak at d ~ 1.86 range units.
  return 1.9 * params_.range;
}

void SphericalSensorModel::RecomputeNegligibleRange() {
  // peak * exp(-2 (d/range)^2) * af <= kBatchNegligibleProb for all
  // d >= cutoff, with the angle factor bounded by max(1, 1 - falloff).
  const double bound =
      params_.peak_read_rate * std::max(1.0, 1.0 - params_.angle_falloff);
  if (bound <= kBatchNegligibleProb || params_.range <= 0.0) {
    negligible_range_ = 0.0;  // Negligible everywhere.
    return;
  }
  negligible_range_ =
      params_.range * std::sqrt(0.5 * std::log(bound / kBatchNegligibleProb));
}

void SphericalSensorModel::ProbReadBatchPositions(const ReaderFrame& frame,
                                                  const Vec3* positions,
                                                  size_t n,
                                                  double* out) const {
  batch_detail::BatchAos(*this, frame, positions, n, out, negligible_range_,
                         batch_detail::kNoCutoff);
}

void SphericalSensorModel::ProbReadBatchGather(
    const ReaderFrame* frames, const uint32_t* frame_idx,
    const ParticleCoord* xs, const ParticleCoord* ys, const ParticleCoord* zs,
    size_t n, double* out) const {
  batch_detail::BatchGather(*this, frames, frame_idx, xs, ys, zs, n, out,
                            negligible_range_, batch_detail::kNoCutoff);
}

}  // namespace rfid
