#include "pf/belief.h"

#include <cassert>
#include <cmath>

namespace rfid {

namespace {
// Diagonal regularizer keeping degenerate (e.g. planar z = const) particle
// clouds factorizable. 1e-6 sq-ft is far below any meaningful location
// uncertainty.
constexpr double kCovarianceFloor = 1e-6;
}  // namespace

GaussianBelief::GaussianBelief(const Vec3& mean,
                               const std::array<double, 6>& cov)
    : mean_(mean), cov_(cov) {
  Factorize();
}

GaussianBelief GaussianBelief::Fit(const std::vector<WeightedPoint>& points) {
  assert(!points.empty());
  double total = 0.0;
  for (const auto& p : points) total += p.weight;
  const double inv_total = total > 0.0 ? 1.0 / total : 0.0;

  Vec3 mean;
  if (inv_total > 0.0) {
    for (const auto& p : points) mean += p.position * (p.weight * inv_total);
  } else {
    // Zero-mass set: fall back to the unweighted centroid.
    for (const auto& p : points) mean += p.position;
    mean = mean / static_cast<double>(points.size());
  }

  std::array<double, 6> cov = {0, 0, 0, 0, 0, 0};
  const double w_uniform = 1.0 / static_cast<double>(points.size());
  for (const auto& p : points) {
    const double w = inv_total > 0.0 ? p.weight * inv_total : w_uniform;
    const Vec3 d = p.position - mean;
    cov[0] += w * d.x * d.x;
    cov[1] += w * d.x * d.y;
    cov[2] += w * d.x * d.z;
    cov[3] += w * d.y * d.y;
    cov[4] += w * d.y * d.z;
    cov[5] += w * d.z * d.z;
  }
  return GaussianBelief(mean, cov);
}

void GaussianBelief::Factorize() {
  // Cholesky of the regularized covariance:
  // [ c0 c1 c2 ]      [ l00  0   0  ]
  // [ c1 c3 c4 ]  ->  [ l10 l11  0  ]
  // [ c2 c4 c5 ]      [ l20 l21 l22 ]
  const double c0 = cov_[0] + kCovarianceFloor;
  const double c3 = cov_[3] + kCovarianceFloor;
  const double c5 = cov_[5] + kCovarianceFloor;
  const double l00 = std::sqrt(std::max(c0, kCovarianceFloor));
  const double l10 = cov_[1] / l00;
  const double l11 =
      std::sqrt(std::max(c3 - l10 * l10, kCovarianceFloor));
  const double l20 = cov_[2] / l00;
  const double l21 = (cov_[4] - l20 * l10) / l11;
  const double l22 =
      std::sqrt(std::max(c5 - l20 * l20 - l21 * l21, kCovarianceFloor));
  chol_ = {l00, l10, l11, l20, l21, l22};
}

Vec3 GaussianBelief::Sample(Rng& rng) const {
  const double z0 = rng.Gaussian();
  const double z1 = rng.Gaussian();
  const double z2 = rng.Gaussian();
  return {mean_.x + chol_[0] * z0,
          mean_.y + chol_[1] * z0 + chol_[2] * z1,
          mean_.z + chol_[3] * z0 + chol_[4] * z1 + chol_[5] * z2};
}

}  // namespace rfid
