// Parity tests for the batched sensor kernels (reader_frame.h): every batch
// entry point must reproduce the scalar ProbReadAt result to 1e-12 per
// element, for the cone, spherical and logistic models, including the
// degenerate tag-at-reader geometry and out-of-range positions. Single-frame
// cases run through the gather entry points with every particle attached to
// frame 0.
//
// The SIMD kernels (simd_kernels.h) carry a looser, explicitly documented
// contract — |simd - scalar| <= 1e-9 * scalar + 1e-12 per element — because
// their exp/acos are the simd.h polynomials; randomized sweeps below pin it
// down for all three models, every remainder-lane count n % 4, and the
// far-field short-circuit boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/cone_sensor.h"
#include "model/spherical_sensor.h"
#include "model/sensor_model.h"
#include "util/rng.h"

namespace rfid {
namespace {

constexpr double kTol = 1e-12;
/// SIMD contract: relative 1e-9, with an absolute floor of 1e-12 where the
/// scalar probability itself is negligible (e.g. short-circuited lanes).
constexpr double kSimdRelTol = 1e-9;
constexpr double kSimdAbsTol = 1e-12;
constexpr size_t kNumPositions = 4096;

struct Soa {
  std::vector<double> xs, ys, zs;
};

/// Positions spanning in-range, edge-of-range, far-out and degenerate cases.
Soa MakePositions(const Pose& reader, uint64_t seed) {
  Rng rng(seed);
  Soa soa;
  for (size_t k = 0; k < kNumPositions; ++k) {
    soa.xs.push_back(rng.Uniform(-8.0, 8.0));
    soa.ys.push_back(rng.Uniform(-8.0, 8.0));
    soa.zs.push_back(rng.Uniform(-2.0, 2.0));
  }
  // Degenerate: tag exactly at the reader position.
  soa.xs.push_back(reader.position.x);
  soa.ys.push_back(reader.position.y);
  soa.zs.push_back(reader.position.z);
  return soa;
}

void ExpectBatchMatchesScalar(const SensorModel& sensor, uint64_t seed) {
  const Pose reader({0.7, -1.2, 0.3}, 0.9);
  const Soa soa = MakePositions(reader, seed);
  const size_t n = soa.xs.size();
  const ReaderFrame frame = ReaderFrame::From(reader);

  const std::vector<uint32_t> frame_idx(n, 0);
  std::vector<double> out(n, -1.0);
  sensor.ProbReadBatchGather(&frame, frame_idx.data(), soa.xs.data(),
                             soa.ys.data(), soa.zs.data(), n, out.data());
  std::vector<Vec3> positions(n);
  for (size_t k = 0; k < n; ++k) {
    positions[k] = {soa.xs[k], soa.ys[k], soa.zs[k]};
  }
  std::vector<double> out_aos(n, -1.0);
  sensor.ProbReadBatchPositions(frame, positions.data(), n, out_aos.data());

  for (size_t k = 0; k < n; ++k) {
    const double scalar = sensor.ProbReadAt(reader, positions[k]);
    EXPECT_NEAR(out[k], scalar, kTol) << "single-frame gather, element " << k;
    EXPECT_NEAR(out_aos[k], scalar, kTol) << "AoS batch, element " << k;
  }
}

void ExpectGatherMatchesScalar(const SensorModel& sensor, uint64_t seed) {
  // Several frames, each particle attached to one of them — the factored
  // filter's access pattern.
  std::vector<Pose> poses = {Pose({0, 0, 0}, 0.0), Pose({1, 2, 0}, 1.3),
                             Pose({-2, 4, 0.5}, -2.7), Pose({3, -1, 0}, 3.1)};
  std::vector<ReaderFrame> frames;
  for (const Pose& p : poses) frames.push_back(ReaderFrame::From(p));

  Rng rng(seed);
  Soa soa = MakePositions(poses[0], seed + 1);
  const size_t n = soa.xs.size();
  std::vector<uint32_t> frame_idx(n);
  for (size_t k = 0; k < n; ++k) {
    frame_idx[k] = static_cast<uint32_t>(rng.UniformInt(poses.size()));
  }

  std::vector<double> out(n, -1.0);
  sensor.ProbReadBatchGather(frames.data(), frame_idx.data(), soa.xs.data(),
                             soa.ys.data(), soa.zs.data(), n, out.data());
  for (size_t k = 0; k < n; ++k) {
    const double scalar = sensor.ProbReadAt(
        poses[frame_idx[k]], {soa.xs[k], soa.ys[k], soa.zs[k]});
    EXPECT_NEAR(out[k], scalar, kTol) << "gather batch, element " << k;
  }
}

TEST(BatchKernelTest, ConeMatchesScalar) {
  ExpectBatchMatchesScalar(ConeSensorModel(), 101);
  ExpectGatherMatchesScalar(ConeSensorModel(), 102);
}

TEST(BatchKernelTest, SphericalMatchesScalar) {
  ExpectBatchMatchesScalar(SphericalSensorModel(), 201);
  ExpectGatherMatchesScalar(SphericalSensorModel(), 202);
}

TEST(BatchKernelTest, SphericalTimeoutVariantsMatchScalar) {
  for (double timeout : {250.0, 500.0, 750.0}) {
    ExpectBatchMatchesScalar(SphericalSensorModel::ForTimeoutMs(timeout), 301);
  }
}

TEST(BatchKernelTest, LogisticMatchesScalar) {
  ExpectBatchMatchesScalar(LogisticSensorModel(), 401);
  ExpectGatherMatchesScalar(LogisticSensorModel(), 402);
}

TEST(BatchKernelTest, BaseClassDefaultMatchesScalar) {
  // A model that does not override the batch API must still agree through
  // the base-class fallback loops.
  class PlainModel final : public SensorModel {
   public:
    double ProbRead(double distance, double angle) const override {
      return std::exp(-distance) * (1.0 - angle / (2.0 * M_PI));
    }
    double MaxRange() const override { return 10.0; }
    std::unique_ptr<SensorModel> Clone() const override {
      return std::make_unique<PlainModel>(*this);
    }
  };
  ExpectBatchMatchesScalar(PlainModel(), 501);
  ExpectGatherMatchesScalar(PlainModel(), 502);
}

/// SIMD-vs-scalar parity sweep on one frame (all frame indices 0): random
/// positions at every remainder-lane count (n % 4 in {0,1,2,3}), plus a
/// large batch and the degenerate tag-at-reader geometry.
void ExpectSimdMatchesScalar(const SensorModel& sensor, uint64_t seed) {
  const Pose reader({0.7, -1.2, 0.3}, 0.9);
  const ReaderFrame frame = ReaderFrame::From(reader);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{6}, size_t{7}, size_t{8}, size_t{33},
                   kNumPositions + 1}) {
    Rng rng(seed + n);
    Soa soa;
    for (size_t k = 0; k + 1 < n; ++k) {
      soa.xs.push_back(rng.Uniform(-8.0, 8.0));
      soa.ys.push_back(rng.Uniform(-8.0, 8.0));
      soa.zs.push_back(rng.Uniform(-2.0, 2.0));
    }
    // Last element: degenerate tag-at-reader position.
    soa.xs.push_back(reader.position.x);
    soa.ys.push_back(reader.position.y);
    soa.zs.push_back(reader.position.z);

    const std::vector<uint32_t> frame_idx(n, 0);
    std::vector<double> out(n, -1.0);
    sensor.ProbReadBatchGatherSimd(&frame, frame_idx.data(), soa.xs.data(),
                                   soa.ys.data(), soa.zs.data(), n,
                                   out.data());
    for (size_t k = 0; k < n; ++k) {
      const double scalar = sensor.ProbReadAt(
          reader, {soa.xs[k], soa.ys[k], soa.zs[k]});
      EXPECT_NEAR(out[k], scalar, kSimdRelTol * scalar + kSimdAbsTol)
          << "n = " << n << ", element " << k;
    }
  }
}

/// Same sweep with per-element frames (the factored filter's SIMD path),
/// including every remainder-lane count.
void ExpectGatherSimdMatchesScalar(const SensorModel& sensor, uint64_t seed) {
  std::vector<Pose> poses = {Pose({0, 0, 0}, 0.0), Pose({1, 2, 0}, 1.3),
                             Pose({-2, 4, 0.5}, -2.7), Pose({3, -1, 0}, 3.1)};
  std::vector<ReaderFrame> frames;
  for (const Pose& p : poses) frames.push_back(ReaderFrame::From(p));
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{7},
                   size_t{64}, kNumPositions}) {
    Rng rng(seed + n);
    Soa soa;
    std::vector<uint32_t> frame_idx;
    for (size_t k = 0; k < n; ++k) {
      soa.xs.push_back(rng.Uniform(-8.0, 8.0));
      soa.ys.push_back(rng.Uniform(-8.0, 8.0));
      soa.zs.push_back(rng.Uniform(-2.0, 2.0));
      frame_idx.push_back(static_cast<uint32_t>(rng.UniformInt(poses.size())));
    }
    std::vector<double> out(n, -1.0);
    sensor.ProbReadBatchGatherSimd(frames.data(), frame_idx.data(),
                                   soa.xs.data(), soa.ys.data(), soa.zs.data(),
                                   n, out.data());
    for (size_t k = 0; k < n; ++k) {
      const double scalar = sensor.ProbReadAt(
          poses[frame_idx[k]], {soa.xs[k], soa.ys[k], soa.zs[k]});
      EXPECT_NEAR(out[k], scalar, kSimdRelTol * scalar + kSimdAbsTol)
          << "n = " << n << ", element " << k;
    }
  }
}

TEST(BatchKernelTest, SimdConeMatchesScalar) {
  ExpectSimdMatchesScalar(ConeSensorModel(), 601);
  ExpectGatherSimdMatchesScalar(ConeSensorModel(), 611);
}

TEST(BatchKernelTest, SimdSphericalMatchesScalar) {
  ExpectSimdMatchesScalar(SphericalSensorModel(), 602);
  ExpectGatherSimdMatchesScalar(SphericalSensorModel(), 612);
  for (double timeout : {250.0, 500.0, 750.0}) {
    ExpectSimdMatchesScalar(SphericalSensorModel::ForTimeoutMs(timeout), 603);
  }
}

TEST(BatchKernelTest, SimdLogisticMatchesScalar) {
  ExpectSimdMatchesScalar(LogisticSensorModel(), 604);
  ExpectGatherSimdMatchesScalar(LogisticSensorModel(), 614);
}

TEST(BatchKernelTest, SimdBaseClassFallbackMatchesScalarExactly) {
  // A model without a vector kernel routes ProbReadBatchGatherSimd through
  // the scalar gather — exact parity, not just 1e-9.
  class PlainModel final : public SensorModel {
   public:
    double ProbRead(double distance, double angle) const override {
      return std::exp(-distance) * (1.0 - angle / (2.0 * M_PI));
    }
    double MaxRange() const override { return 10.0; }
    std::unique_ptr<SensorModel> Clone() const override {
      return std::make_unique<PlainModel>(*this);
    }
  };
  const PlainModel plain;
  const Pose reader({0.2, 0.4, 0.0}, -0.3);
  const ReaderFrame frame = ReaderFrame::From(reader);
  const Soa soa = MakePositions(reader, 605);
  const size_t n = soa.xs.size();
  const std::vector<uint32_t> frame_idx(n, 0);
  std::vector<double> simd_out(n, -1.0), batch_out(n, -2.0);
  plain.ProbReadBatchGatherSimd(&frame, frame_idx.data(), soa.xs.data(),
                                soa.ys.data(), soa.zs.data(), n,
                                simd_out.data());
  plain.ProbReadBatchGather(&frame, frame_idx.data(), soa.xs.data(),
                            soa.ys.data(), soa.zs.data(), n, batch_out.data());
  for (size_t k = 0; k < n; ++k) EXPECT_EQ(simd_out[k], batch_out[k]);
}

/// Far-field short circuit: beyond NegligibleRange() the spherical and
/// logistic batch kernels return exactly 0; the scalar value there is below
/// kBatchNegligibleProb, which the filters provably cannot distinguish from
/// 0 (see reader_frame.h). Just inside the boundary the kernels still
/// produce the (tiny) true probability.
template <typename ModelT>
void ExpectFarFieldShortCircuit(const ModelT& sensor) {
  const double cutoff = sensor.NegligibleRange();
  ASSERT_GT(cutoff, 0.0);
  ASSERT_TRUE(std::isfinite(cutoff));
  // On-axis positions straddling the cutoff, reader at origin, heading 0.
  const ReaderFrame frame = ReaderFrame::From(Pose({0, 0, 0}, 0.0));
  const double xs[] = {cutoff * (1.0 - 1e-9), cutoff, cutoff * 1.5,
                       cutoff * 100.0};
  const double ys[] = {0.0, 0.0, 0.0, 0.0};
  const double zs[] = {0.0, 0.0, 0.0, 0.0};
  const uint32_t frame_idx[] = {0, 0, 0, 0};
  double out[4] = {-1, -1, -1, -1};
  sensor.ProbReadBatchGather(&frame, frame_idx, xs, ys, zs, 4, out);
  EXPECT_GT(out[0], 0.0);  // Just inside: true (tiny) probability.
  EXPECT_EQ(out[1], 0.0);  // At and beyond: exactly zero.
  EXPECT_EQ(out[2], 0.0);
  EXPECT_EQ(out[3], 0.0);
  // The scalar value at the boundary really is negligible (the rounding is
  // invisible through max(p, 1e-9) and 1.0 - p). Allow a whisker of float
  // slack on the threshold itself: 2^-54, the level that actually matters,
  // is 50 million times higher.
  EXPECT_LT(sensor.ProbRead(cutoff, 0.0), kBatchNegligibleProb * 1.01);
  EXPECT_EQ(1.0 - sensor.ProbRead(cutoff, 0.0), 1.0);

  double simd_out[4] = {-1, -1, -1, -1};
  sensor.ProbReadBatchGatherSimd(&frame, frame_idx, xs, ys, zs, 4, simd_out);
  EXPECT_GT(simd_out[0], 0.0);
  EXPECT_EQ(simd_out[1], 0.0);
  EXPECT_EQ(simd_out[2], 0.0);
  EXPECT_EQ(simd_out[3], 0.0);
}

TEST(BatchKernelTest, SphericalFarFieldShortCircuit) {
  ExpectFarFieldShortCircuit(SphericalSensorModel());
}

TEST(BatchKernelTest, LogisticFarFieldShortCircuit) {
  ExpectFarFieldShortCircuit(LogisticSensorModel());
}

TEST(BatchKernelTest, LogisticUpturnedFitNeverShortCircuits) {
  // A (degenerate) learned fit with a positive d^2 coefficient has no
  // decaying tail; the cutoff must be +infinity, never zeroing real values.
  const LogisticSensorModel sensor({-3.0, -0.1, 0.02}, {0.0, -0.5, -0.1});
  EXPECT_FALSE(std::isfinite(sensor.NegligibleRange()));
  const ReaderFrame frame = ReaderFrame::From(Pose({0, 0, 0}, 0.0));
  const double xs[] = {50.0};
  const double ys[] = {0.0};
  const double zs[] = {0.0};
  const uint32_t frame_idx[] = {0};
  double out[1] = {-1};
  sensor.ProbReadBatchGather(&frame, frame_idx, xs, ys, zs, 1, out);
  EXPECT_NEAR(out[0], sensor.ProbRead(50.0, 0.0), kTol);
}

TEST(BatchKernelTest, ConeZeroBeyondMaxRangeExactly) {
  // The cone kernel short-circuits past MaxRange(); verify the fast path
  // returns exactly 0, as the scalar does.
  const ConeSensorModel sensor;
  const Pose reader({0, 0, 0}, 0.0);
  const ReaderFrame frame = ReaderFrame::From(reader);
  const double far = sensor.MaxRange() + 0.5;
  const double xs[] = {far, -far, 100.0};
  const double ys[] = {0.0, 0.0, 100.0};
  const double zs[] = {0.0, 0.0, 0.0};
  const uint32_t frame_idx[] = {0, 0, 0};
  double out[3] = {-1, -1, -1};
  sensor.ProbReadBatchGather(&frame, frame_idx, xs, ys, zs, 3, out);
  for (double p : out) EXPECT_EQ(p, 0.0);
}

}  // namespace
}  // namespace rfid
