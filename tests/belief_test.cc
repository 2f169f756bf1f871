// Tests for Gaussian belief compression (§IV-D).
#include <gtest/gtest.h>

#include <cmath>

#include "pf/belief.h"

namespace rfid {
namespace {

std::vector<WeightedPoint> GaussianCloud(const Vec3& mean, const Vec3& stddev,
                                         int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedPoint> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    pts.push_back({{mean.x + rng.Gaussian(0.0, stddev.x),
                    mean.y + rng.Gaussian(0.0, stddev.y),
                    mean.z + rng.Gaussian(0.0, stddev.z)},
                   1.0});
  }
  return pts;
}

// ------------------------------------------------------------------ Fit ---

TEST(GaussianBeliefTest, FitRecoverssMeanAndVariance) {
  const auto pts = GaussianCloud({2.0, -1.0, 0.5}, {0.5, 0.3, 0.1}, 20000, 1);
  const GaussianBelief g = GaussianBelief::Fit(pts);
  EXPECT_NEAR(g.mean().x, 2.0, 0.02);
  EXPECT_NEAR(g.mean().y, -1.0, 0.02);
  EXPECT_NEAR(g.mean().z, 0.5, 0.02);
  EXPECT_NEAR(std::sqrt(g.DiagonalVariance().x), 0.5, 0.02);
  EXPECT_NEAR(std::sqrt(g.DiagonalVariance().y), 0.3, 0.02);
}

TEST(GaussianBeliefTest, FitUsesWeights) {
  // Two clusters; weights pick the first.
  std::vector<WeightedPoint> pts;
  for (int i = 0; i < 100; ++i) pts.push_back({{0, 0, 0}, 0.99 / 100});
  for (int i = 0; i < 100; ++i) pts.push_back({{10, 0, 0}, 0.01 / 100});
  const GaussianBelief g = GaussianBelief::Fit(pts);
  EXPECT_NEAR(g.mean().x, 0.1, 1e-9);
}

TEST(GaussianBeliefTest, FitZeroMassFallsBackToCentroid) {
  std::vector<WeightedPoint> pts = {{{0, 0, 0}, 0.0}, {{2, 0, 0}, 0.0}};
  const GaussianBelief g = GaussianBelief::Fit(pts);
  EXPECT_NEAR(g.mean().x, 1.0, 1e-9);
}

TEST(GaussianBeliefTest, SinglePointHasTinyVariance) {
  const GaussianBelief g = GaussianBelief::Fit({{{3, 4, 5}, 1.0}});
  EXPECT_EQ(g.mean(), Vec3(3, 4, 5));
  EXPECT_LE(g.DiagonalVariance().x, 1e-9);
}

// --------------------------------------------------------------- Sample ---

TEST(GaussianBeliefTest, SampleRoundTripsMoments) {
  const Vec3 mean{1.0, 2.0, 0.0};
  const std::array<double, 6> cov = {0.25, 0.1, 0.0, 0.5, 0.0, 0.01};
  const GaussianBelief g(mean, cov);
  Rng rng(2);
  Vec3 sum;
  double sum_xx = 0, sum_yy = 0, sum_xy = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const Vec3 s = g.Sample(rng);
    sum += s;
    sum_xx += (s.x - mean.x) * (s.x - mean.x);
    sum_yy += (s.y - mean.y) * (s.y - mean.y);
    sum_xy += (s.x - mean.x) * (s.y - mean.y);
  }
  EXPECT_NEAR(sum.x / kN, 1.0, 0.01);
  EXPECT_NEAR(sum.y / kN, 2.0, 0.01);
  EXPECT_NEAR(sum_xx / kN, 0.25, 0.01);
  EXPECT_NEAR(sum_yy / kN, 0.5, 0.01);
  EXPECT_NEAR(sum_xy / kN, 0.1, 0.01);
}

TEST(GaussianBeliefTest, FitThenSampleRoundTrip) {
  const auto pts = GaussianCloud({0, 0, 0}, {1.0, 2.0, 0.0}, 50000, 3);
  const GaussianBelief g = GaussianBelief::Fit(pts);
  Rng rng(4);
  double sum_yy = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const Vec3 s = g.Sample(rng);
    sum_yy += (s.y - g.mean().y) * (s.y - g.mean().y);
  }
  EXPECT_NEAR(std::sqrt(sum_yy / kN), 2.0, 0.05);
}

TEST(GaussianBeliefTest, PlanarParticlesFactorizeViaRegularization) {
  // z variance is exactly zero; the covariance floor must keep Cholesky and
  // sampling finite.
  const auto pts = GaussianCloud({0, 0, 0}, {1.0, 1.0, 0.0}, 1000, 9);
  const GaussianBelief g = GaussianBelief::Fit(pts);
  Rng rng(10);
  const Vec3 s = g.Sample(rng);
  EXPECT_TRUE(std::isfinite(s.z));
  EXPECT_NEAR(s.z, 0.0, 0.01);
}

}  // namespace
}  // namespace rfid
