// Gaussian belief compression (paper §IV-D).
//
// A weighted particle set over an object's location is compressed into a
// 3-D Gaussian (9 stored numbers: mean + symmetric covariance). The KL
// divergence KL(p_hat || q) is minimized by the weighted sample mean and
// covariance.
#pragma once

#include <array>
#include <vector>

#include "geometry/vec.h"
#include "util/rng.h"

namespace rfid {

/// One weighted location sample (the (position, weight) slice of an object
/// particle; reader association is dropped at compression time).
struct WeightedPoint {
  Vec3 position;
  double weight = 0.0;
};

/// 3-D Gaussian with symmetric covariance stored as
/// [xx, xy, xz, yy, yz, zz].
class GaussianBelief {
 public:
  GaussianBelief() = default;
  GaussianBelief(const Vec3& mean, const std::array<double, 6>& cov);

  /// KL-optimal fit: weighted sample mean + covariance. Weights need not be
  /// normalized (they are normalized internally). Requires a non-empty set.
  static GaussianBelief Fit(const std::vector<WeightedPoint>& points);

  const Vec3& mean() const { return mean_; }
  const std::array<double, 6>& covariance() const { return cov_; }
  Vec3 DiagonalVariance() const { return {cov_[0], cov_[3], cov_[5]}; }

  /// Draws one sample (uses the cached Cholesky factor).
  Vec3 Sample(Rng& rng) const;

 private:
  void Factorize();

  Vec3 mean_;
  std::array<double, 6> cov_ = {1e-6, 0, 0, 1e-6, 0, 1e-6};
  // Lower-triangular Cholesky factor L (L * L^T = cov + reg), row-major
  // [l00, l10, l11, l20, l21, l22].
  std::array<double, 6> chol_ = {0, 0, 0, 0, 0, 0};
};

}  // namespace rfid
