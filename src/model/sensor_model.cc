#include "model/sensor_model.h"

#include <algorithm>
#include <cmath>

namespace rfid {

namespace {
// Read probability below which a tag is considered out of range. Matches the
// paper's Case-4 approximation of rounding tiny probabilities to zero.
constexpr double kNegligibleProb = 1e-3;
// Upper bound on any physically plausible UHF read range, in feet. Keeps the
// max-range scan finite even for degenerate coefficient settings.
constexpr double kRangeScanLimit = 25.0;
// A learned fit trained on a narrow (d, theta) manifold can have long, thin
// probability tails along the axis; the effective range additionally cuts
// off where the on-axis rate falls below this fraction of the peak.
constexpr double kPeakFraction = 0.1;
}  // namespace

void SensorModel::ProbReadBatchPositions(const ReaderFrame& frame,
                                         const Vec3* positions, size_t n,
                                         double* out) const {
  batch_detail::BatchAos(*this, frame, positions, n, out,
                         batch_detail::kNoCutoff, batch_detail::kNoCutoff);
}

void SensorModel::ProbReadBatchGather(const ReaderFrame* frames,
                                      const uint32_t* frame_idx,
                                      const ParticleCoord* xs,
                                      const ParticleCoord* ys,
                                      const ParticleCoord* zs, size_t n,
                                      double* out) const {
  batch_detail::BatchGather(*this, frames, frame_idx, xs, ys, zs, n, out,
                            batch_detail::kNoCutoff, batch_detail::kNoCutoff);
}

void LogisticSensorModel::ProbReadBatchPositions(const ReaderFrame& frame,
                                                 const Vec3* positions,
                                                 size_t n, double* out) const {
  batch_detail::BatchAos(*this, frame, positions, n, out, negligible_range_,
                         batch_detail::kNoCutoff);
}

void LogisticSensorModel::ProbReadBatchGather(
    const ReaderFrame* frames, const uint32_t* frame_idx,
    const ParticleCoord* xs, const ParticleCoord* ys, const ParticleCoord* zs,
    size_t n, double* out) const {
  batch_detail::BatchGather(*this, frames, frame_idx, xs, ys, zs, n, out,
                            negligible_range_, batch_detail::kNoCutoff);
}

LogisticSensorModel::LogisticSensorModel()
    // ~95% read rate at the antenna, decaying past ~3 ft and ~0.4 rad.
    : LogisticSensorModel({4.0, -0.5, -0.35}, {0.0, -1.0, -3.0}) {}

LogisticSensorModel::LogisticSensorModel(const std::array<double, 3>& a,
                                         const std::array<double, 3>& b)
    : a_(a), b_(b) {
  RecomputeMaxRange();
}

double LogisticSensorModel::ProbRead(double distance, double angle) const {
  const double g = a_[0] + a_[1] * distance + a_[2] * distance * distance +
                   b_[1] * angle + b_[2] * angle * angle;
  return Sigmoid(g);
}

void LogisticSensorModel::SetCoefficients(const std::array<double, 3>& a,
                                          const std::array<double, 3>& b) {
  a_ = a;
  b_ = b;
  RecomputeMaxRange();
}

std::array<double, 5> LogisticSensorModel::AsWeightVector() const {
  return {a_[0], a_[1], a_[2], b_[1], b_[2]};
}

LogisticSensorModel LogisticSensorModel::FromWeightVector(
    const std::array<double, 5>& w) {
  return LogisticSensorModel({w[0], w[1], w[2]}, {0.0, w[3], w[4]});
}

void LogisticSensorModel::RecomputeMaxRange() {
  // Scan outward along the best-case bearing (theta = 0) until the read
  // probability first drops below the negligible threshold. The quadratic
  // form is not guaranteed monotone in d — a learned fit can curl upward far
  // from the data — so the *first* crossing is the physically meaningful
  // range (the far upturn is extrapolation artifact, not antenna gain).
  double max_range = 0.0;
  constexpr double kStep = 0.05;
  const double cutoff =
      std::max(kNegligibleProb, kPeakFraction * ProbRead(0.0, 0.0));
  bool was_in_range = false;
  for (double d = 0.0; d <= kRangeScanLimit; d += kStep) {
    if (ProbRead(d, 0.0) >= cutoff) {
      max_range = d + kStep;
      was_in_range = true;
    } else if (was_in_range) {
      break;
    }
  }
  max_range_ = std::max(max_range, kStep);
  RecomputeNegligibleRange();
}

void LogisticSensorModel::RecomputeNegligibleRange() {
  // Smallest D such that for all d >= D and every angle in [0, pi]:
  //   sigmoid(a0 + a1 d + a2 d^2 + b1 t + b2 t^2) <= kBatchNegligibleProb.
  // Using sigmoid(g) <= exp(g), it suffices that the exponent stays below
  // L = log(kBatchNegligibleProb). The angle terms are bounded by their
  // maximum over [0, pi] (attained at an endpoint or the vertex), leaving a
  // one-dimensional quadratic condition in d.
  const double L = std::log(kBatchNegligibleProb);
  double bmax = std::max(0.0, b_[1] * M_PI + b_[2] * M_PI * M_PI);
  if (b_[2] != 0.0) {
    const double v = -b_[1] / (2.0 * b_[2]);
    if (v > 0.0 && v < M_PI) bmax = std::max(bmax, b_[1] * v + b_[2] * v * v);
  }
  // Want a2 d^2 + a1 d + c <= 0 beyond the cutoff, with c = a0 + bmax - L.
  const double c = a_[0] + bmax - L;
  if (a_[2] < 0.0) {
    const double disc = a_[1] * a_[1] - 4.0 * a_[2] * c;
    if (disc <= 0.0) {
      negligible_range_ = 0.0;  // Negligible everywhere.
      return;
    }
    // Larger root of the concave quadratic; beyond it the exponent only
    // falls further.
    negligible_range_ =
        std::max(0.0, (-a_[1] - std::sqrt(disc)) / (2.0 * a_[2]));
  } else if (a_[2] == 0.0 && a_[1] < 0.0) {
    negligible_range_ = std::max(0.0, -c / a_[1]);
  } else {
    // Non-decaying tail (extrapolation upturn): never short-circuit.
    negligible_range_ = batch_detail::kNoCutoff;
  }
}

}  // namespace rfid
