// Tests for the three sensor models: logistic (Eq. 1), cone (simulator
// ground truth), and spherical (lab antenna).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/cone_sensor.h"
#include "model/sensor_model.h"
#include "model/spherical_sensor.h"
#include "util/rng.h"

namespace rfid {
namespace {

// --------------------------------------------------------------- Sigmoid ---

TEST(SigmoidTest, Midpoint) { EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5); }

TEST(SigmoidTest, Symmetry) {
  for (double x = -5; x <= 5; x += 0.5) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0, 1e-12);
  }
}

TEST(SigmoidTest, SaturatesWithoutOverflow) {
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
}

// ------------------------------------------------------ LogisticSensor ----

TEST(LogisticSensorTest, MatchesEquationOne) {
  // p(read) must equal sigmoid(a0 + a1 d + a2 d^2 + b1 t + b2 t^2), i.e.
  // p(O=0) = 1 / (1 + exp(g)) as printed in the paper.
  const LogisticSensorModel m({2.0, -0.5, -0.1}, {0.0, -1.0, -0.3});
  const double d = 1.5, th = 0.4;
  const double g = 2.0 - 0.5 * d - 0.1 * d * d - 1.0 * th - 0.3 * th * th;
  EXPECT_NEAR(m.ProbRead(d, th), Sigmoid(g), 1e-12);
  EXPECT_NEAR(1.0 - m.ProbRead(d, th), 1.0 / (1.0 + std::exp(g)), 1e-12);
}

TEST(LogisticSensorTest, ProbabilityInUnitInterval) {
  const LogisticSensorModel m;
  for (double d = 0; d < 20; d += 0.5) {
    for (double th = 0; th <= M_PI; th += 0.3) {
      const double p = m.ProbRead(d, th);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(LogisticSensorTest, DecaysWithDistanceForNegativeCoefficients) {
  const LogisticSensorModel m;  // Default has negative a1, a2.
  double prev = 2.0;
  for (double d = 0; d < 10; d += 0.25) {
    const double p = m.ProbRead(d, 0.0);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(LogisticSensorTest, DecaysWithAngle) {
  const LogisticSensorModel m;
  double prev = 2.0;
  for (double th = 0; th <= M_PI; th += 0.1) {
    const double p = m.ProbRead(1.0, th);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(LogisticSensorTest, MaxRangeIsWhereProbFallsOffPeak) {
  // Effective range: where the on-axis rate first falls below 10% of the
  // peak (or 1e-3, whichever is larger).
  const LogisticSensorModel m;
  const double r = m.MaxRange();
  const double cutoff = std::max(1e-3, 0.1 * m.ProbRead(0.0, 0.0));
  EXPECT_GT(r, 0.0);
  EXPECT_LT(m.ProbRead(r + 0.1, 0.0), cutoff);
  EXPECT_GE(m.ProbRead(r - 0.2, 0.0), cutoff);
}

TEST(LogisticSensorTest, MaxRangeBoundedForHeavyTailedFits) {
  // A nearly-flat distance profile (as learned from a narrow-geometry
  // training manifold) must still produce a physically bounded range.
  const LogisticSensorModel m({2.3, -0.55, 0.003}, {0.0, -3.5, -1.5});
  EXPECT_LT(m.MaxRange(), 26.0);
  EXPECT_GT(m.MaxRange(), 1.0);
}

TEST(LogisticSensorTest, SetCoefficientsRecomputesRange) {
  LogisticSensorModel m;
  const double before = m.MaxRange();
  // Much slower decay -> much larger range.
  m.SetCoefficients({4.0, -0.1, -0.01}, {0.0, -1.0, -3.0});
  EXPECT_GT(m.MaxRange(), before);
}

TEST(LogisticSensorTest, WeightVectorRoundTrip) {
  const std::array<double, 5> w = {3.0, -0.7, -0.2, -0.5, -1.5};
  const LogisticSensorModel m = LogisticSensorModel::FromWeightVector(w);
  const auto w2 = m.AsWeightVector();
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(w2[i], w[i]);
}

TEST(LogisticSensorTest, CloneIsIndependent) {
  LogisticSensorModel m;
  auto clone = m.Clone();
  m.SetCoefficients({0.0, -10.0, -10.0}, {0.0, 0.0, 0.0});
  EXPECT_NE(clone->ProbRead(1.0, 0.0), m.ProbRead(1.0, 0.0));
}

TEST(LogisticSensorTest, PoseHelperMatchesRangeBearing) {
  const LogisticSensorModel m;
  const Pose reader({0, 0, 0}, 0.0);
  const Vec3 tag{2.0, 1.0, 0.0};
  const RangeBearing rb = ComputeRangeBearing(reader, tag);
  EXPECT_DOUBLE_EQ(m.ProbReadAt(reader, tag),
                   m.ProbRead(rb.distance, rb.angle));
}

// ----------------------------------------------------------- ConeSensor ---

TEST(ConeSensorTest, MajorRangeHasUniformReadRate) {
  ConeSensorParams p;
  p.major_read_rate = 0.8;
  const ConeSensorModel m(p);
  EXPECT_DOUBLE_EQ(m.ProbRead(0.5, 0.0), 0.8);
  EXPECT_DOUBLE_EQ(m.ProbRead(2.9, 0.1), 0.8);
}

TEST(ConeSensorTest, ZeroOutsideTotalAngle) {
  const ConeSensorModel m;
  const double theta_max = m.params().major_half_angle +
                           m.params().minor_extra_angle;
  EXPECT_EQ(m.ProbRead(1.0, theta_max + 0.01), 0.0);
  EXPECT_EQ(m.ProbRead(1.0, M_PI), 0.0);
}

TEST(ConeSensorTest, ZeroBeyondMaxRange) {
  const ConeSensorModel m;
  EXPECT_EQ(m.ProbRead(m.MaxRange() + 0.01, 0.0), 0.0);
}

TEST(ConeSensorTest, MinorWedgeDecaysLinearlyToZero) {
  const ConeSensorModel m;
  const double t0 = m.params().major_half_angle;
  const double dt = m.params().minor_extra_angle;
  const double rr = m.params().major_read_rate;
  EXPECT_NEAR(m.ProbRead(1.0, t0 + 0.5 * dt), 0.5 * rr, 1e-9);
  EXPECT_NEAR(m.ProbRead(1.0, t0 + 0.99 * dt), 0.01 * rr, 1e-9);
}

TEST(ConeSensorTest, MinorRangeDecaysWithDistance) {
  const ConeSensorModel m;
  const double r0 = m.params().major_range;
  const double dr = m.params().minor_extra_range;
  const double rr = m.params().major_read_rate;
  EXPECT_NEAR(m.ProbRead(r0 + 0.5 * dr, 0.0), 0.5 * rr, 1e-9);
}

TEST(ConeSensorTest, AngleAndRangeFactorsMultiply) {
  const ConeSensorModel m;
  const double t0 = m.params().major_half_angle;
  const double dt = m.params().minor_extra_angle;
  const double r0 = m.params().major_range;
  const double dr = m.params().minor_extra_range;
  EXPECT_NEAR(m.ProbRead(r0 + 0.5 * dr, t0 + 0.5 * dt),
              0.25 * m.params().major_read_rate, 1e-9);
}

TEST(ConeSensorTest, MaxRangeIsMajorPlusMinor) {
  ConeSensorParams p;
  p.major_range = 2.0;
  p.minor_extra_range = 1.0;
  EXPECT_DOUBLE_EQ(ConeSensorModel(p).MaxRange(), 3.0);
}

/// The cone's sensing box as SensingBounds sampled it before it took the
/// sector formula it shares with the kernels' zero-region boxes: the apex,
/// five bearings across the arc, the cardinal directions inside the wedge,
/// and z within ± r·sin θ0.
Aabb SampledConeBounds(const ConeSensorModel& cone, const Pose& reader) {
  const double r = cone.MaxRange();
  const double theta_max = cone.MaxAngle();
  Aabb box;
  box.Extend(reader.position);
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
  const double z_span = r * std::sin(theta_max);
  box.Extend(reader.position + Vec3{0, 0, z_span});
  box.Extend(reader.position - Vec3{0, 0, z_span});
  return box;
}

TEST(ConeSensorTest, SensingBoundsMatchTheSampledArc) {
  // Headings on each axis, θ0 off each one (where an arc endpoint lies on
  // the axis), and random ones, for the default cone, a narrow one and one
  // just short of a right angle.
  ConeSensorParams narrow;
  narrow.major_half_angle = 2.0 * M_PI / 180;
  narrow.minor_extra_angle = 3.0 * M_PI / 180;
  ConeSensorParams wide;
  wide.major_half_angle = 40.0 * M_PI / 180;
  wide.minor_extra_angle = 45.0 * M_PI / 180;
  wide.major_range = 2.0;
  constexpr double kTol = 1e-12;
  for (const ConeSensorParams& params : {ConeSensorParams{}, narrow, wide}) {
    const ConeSensorModel cone(params);
    const double theta0 = cone.MaxAngle();
    std::vector<double> headings;
    for (double axis : {0.0, M_PI / 2, M_PI, -M_PI / 2}) {
      for (double off : {0.0, theta0, -theta0}) headings.push_back(axis + off);
    }
    Rng rng(707);
    for (int i = 0; i < 24; ++i) headings.push_back(rng.Uniform(-M_PI, M_PI));
    for (const Vec3& origin :
         {Vec3{0, 0, 0}, Vec3{0.7, -1.2, 0.3}, Vec3{-37.5, 112.25, 4.0}}) {
      for (double heading : headings) {
        SCOPED_TRACE(::testing::Message() << "zero angle " << theta0
                                          << ", heading " << heading
                                          << ", origin " << origin);
        const Pose reader(origin, heading);
        const Aabb box = cone.SensingBounds(reader);
        const Aabb sampled = SampledConeBounds(cone, reader);
        EXPECT_NEAR(box.min.x, sampled.min.x, kTol);
        EXPECT_NEAR(box.min.y, sampled.min.y, kTol);
        EXPECT_NEAR(box.min.z, sampled.min.z, kTol);
        EXPECT_NEAR(box.max.x, sampled.max.x, kTol);
        EXPECT_NEAR(box.max.y, sampled.max.y, kTol);
        EXPECT_NEAR(box.max.z, sampled.max.z, kTol);
      }
    }
  }
}

// Parameterized sweep: probability never exceeds RR_major anywhere.
class ConeSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ConeSweepTest, BoundedByMajorReadRate) {
  ConeSensorParams p;
  p.major_read_rate = GetParam();
  const ConeSensorModel m(p);
  for (double d = 0; d <= m.MaxRange() + 1; d += 0.2) {
    for (double th = 0; th <= M_PI; th += 0.1) {
      const double prob = m.ProbRead(d, th);
      EXPECT_GE(prob, 0.0);
      EXPECT_LE(prob, p.major_read_rate + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ReadRates, ConeSweepTest,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9, 1.0));

// ------------------------------------------------------ SphericalSensor ---

TEST(SphericalSensorTest, PeakAtAntennaCenter) {
  const SphericalSensorModel m;
  EXPECT_DOUBLE_EQ(m.ProbRead(0.0, 0.0), m.params().peak_read_rate);
}

TEST(SphericalSensorTest, ReadableBehindAntenna) {
  // "Spherical with a wide minor range": reads happen even at theta = pi.
  const SphericalSensorModel m;
  EXPECT_GT(m.ProbRead(0.5, M_PI), 0.0);
}

TEST(SphericalSensorTest, BackLobeIsAttenuatedButNonZero) {
  // Bi-static patch antennas have a strong front-back ratio; the emulated
  // pattern keeps a faint back lobe (falloff 0.75 -> 25% of peak at pi).
  const SphericalSensorModel m;
  EXPECT_GT(m.ProbRead(1.0, M_PI), 0.15 * m.ProbRead(1.0, 0.0));
  EXPECT_LT(m.ProbRead(1.0, M_PI), 0.5 * m.ProbRead(1.0, 0.0));
}

TEST(SphericalSensorTest, MonotoneDecayWithDistance) {
  const SphericalSensorModel m;
  double prev = 1.0;
  for (double d = 0; d < 6; d += 0.2) {
    const double p = m.ProbRead(d, 0.2);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(SphericalSensorTest, TimeoutIncreasesPeakRateAndRange) {
  const auto m250 = SphericalSensorModel::ForTimeoutMs(250);
  const auto m500 = SphericalSensorModel::ForTimeoutMs(500);
  const auto m750 = SphericalSensorModel::ForTimeoutMs(750);
  EXPECT_LT(m250.params().peak_read_rate, m500.params().peak_read_rate);
  EXPECT_LT(m500.params().peak_read_rate, m750.params().peak_read_rate);
  EXPECT_LT(m250.MaxRange(), m500.MaxRange());
  EXPECT_LT(m500.MaxRange(), m750.MaxRange());
}

TEST(SphericalSensorTest, TimeoutClamped) {
  const auto lo = SphericalSensorModel::ForTimeoutMs(-50);
  const auto hi = SphericalSensorModel::ForTimeoutMs(99999);
  EXPECT_GT(lo.params().peak_read_rate, 0.0);
  EXPECT_LE(hi.params().peak_read_rate, 0.95);
}

TEST(SphericalSensorTest, NegligibleBeyondMaxRange) {
  const SphericalSensorModel m;
  EXPECT_LT(m.ProbRead(m.MaxRange(), 0.0),
            1e-2 * m.params().peak_read_rate);
}

}  // namespace
}  // namespace rfid
