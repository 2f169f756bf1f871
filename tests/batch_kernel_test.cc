// Parity tests for the batched sensor kernels (reader_frame.h): every batch
// entry point must reproduce the scalar ProbReadAt result to 1e-12 per
// element, for the cone, spherical and logistic models, including the
// degenerate tag-at-reader geometry and out-of-range positions. Single-frame
// cases run through the gather entry points with every particle attached to
// frame 0. The gather takes positions at the particle store's ParticleCoord
// width; cases that need positions at double resolution run it against
// frames moved by the position instead (GatherAt). The bearing and flat
// cuts are held to more: bit-equality with the kernel loop as it was before
// each cut. Last, the zero-region boxes the factored filter's far-field test
// uses must hold every element a frame's kernels read nonzero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "model/cone_sensor.h"
#include "model/spherical_sensor.h"
#include "model/sensor_model.h"
#include "util/rng.h"

namespace rfid {
namespace {

constexpr double kTol = 1e-12;
constexpr size_t kNumPositions = 4096;

/// Positions as the particle store holds them, at ParticleCoord width.
struct Soa {
  std::vector<ParticleCoord> xs, ys, zs;

  void Add(const Vec3& p) {
    xs.push_back(static_cast<ParticleCoord>(p.x));
    ys.push_back(static_cast<ParticleCoord>(p.y));
    zs.push_back(static_cast<ParticleCoord>(p.z));
  }
  /// Position k widened to double, as the gather kernel reads it.
  Vec3 At(size_t k) const { return {xs[k], ys[k], zs[k]}; }
};

/// Positions spanning in-range, edge-of-range, far-out and degenerate cases.
/// The reader must stand on ParticleCoord values for the degenerate case.
Soa MakePositions(const Pose& reader, uint64_t seed) {
  Rng rng(seed);
  Soa soa;
  for (size_t k = 0; k < kNumPositions; ++k) {
    soa.Add({rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0),
             rng.Uniform(-2.0, 2.0)});
  }
  // Degenerate: tag exactly at the reader position.
  soa.Add(reader.position);
  EXPECT_EQ(soa.At(soa.xs.size() - 1), reader.position);
  return soa;
}

void ExpectBatchMatchesScalar(const SensorModel& sensor, uint64_t seed) {
  const Pose reader({0.75, -1.25, 0.3125}, 0.9);
  const Soa soa = MakePositions(reader, seed);
  const size_t n = soa.xs.size();
  const ReaderFrame frame = ReaderFrame::From(reader);

  const std::vector<uint32_t> frame_idx(n, 0);
  std::vector<double> out(n, -1.0);
  sensor.ProbReadBatchGather(&frame, frame_idx.data(), soa.xs.data(),
                             soa.ys.data(), soa.zs.data(), n, out.data());
  std::vector<Vec3> positions(n);
  for (size_t k = 0; k < n; ++k) positions[k] = soa.At(k);
  std::vector<double> out_aos(n, -1.0);
  sensor.ProbReadBatchPositions(frame, positions.data(), n, out_aos.data());

  for (size_t k = 0; k < n; ++k) {
    const double scalar = sensor.ProbReadAt(reader, positions[k]);
    EXPECT_NEAR(out[k], scalar, kTol) << "single-frame gather, element " << k;
    EXPECT_NEAR(out_aos[k], scalar, kTol) << "AoS batch, element " << k;
    // The gather widens each stored coordinate, then runs the AoS kernel's
    // arithmetic on the widened position.
    EXPECT_EQ(std::memcmp(&out[k], &out_aos[k], sizeof(double)), 0)
        << "gather vs AoS, element " << k;
  }
}

/// The gather kernel at positions held to double resolution, finer than
/// ParticleCoord: each element sits at the origin against its own copy of
/// its frame, moved by minus its position. The kernel's offset
/// 0 − (origin − p) is then exactly p − origin, the offset it takes from p
/// itself (negation is exact and rounding symmetric), so the output is the
/// kernel's at p bit for bit.
std::vector<double> GatherAt(const SensorModel& sensor,
                             const std::vector<ReaderFrame>& frames,
                             const std::vector<uint32_t>& frame_idx,
                             const std::vector<Vec3>& positions) {
  const size_t n = positions.size();
  std::vector<ReaderFrame> moved(n);
  std::vector<uint32_t> own(n);
  for (size_t k = 0; k < n; ++k) {
    moved[k] = frames[frame_idx[k]];
    moved[k].origin = moved[k].origin - positions[k];
    own[k] = static_cast<uint32_t>(k);
  }
  const std::vector<ParticleCoord> origin(n, 0.0f);
  std::vector<double> out(n, -1.0);
  sensor.ProbReadBatchGather(moved.data(), own.data(), origin.data(),
                             origin.data(), origin.data(), n, out.data());
  return out;
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
    const double scalar = sensor.ProbReadAt(poses[frame_idx[k]], soa.At(k));
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
  // On-axis positions straddling the cutoff, reader at origin, heading 0;
  // 1e-9 inside it is finer than ParticleCoord resolves.
  const std::vector<ReaderFrame> frame = {
      ReaderFrame::From(Pose({0, 0, 0}, 0.0))};
  const std::vector<double> out =
      GatherAt(sensor, frame, {0, 0, 0, 0},
               {{cutoff * (1.0 - 1e-9), 0.0, 0.0}, {cutoff, 0.0, 0.0},
                {cutoff * 1.5, 0.0, 0.0}, {cutoff * 100.0, 0.0, 0.0}});
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
  const ParticleCoord xs[] = {50.0f};
  const ParticleCoord ys[] = {0.0f};
  const ParticleCoord zs[] = {0.0f};
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
  const auto far = static_cast<ParticleCoord>(sensor.MaxRange() + 0.5);
  ASSERT_GT(far, sensor.MaxRange());
  const ParticleCoord xs[] = {far, -far, 100.0f};
  const ParticleCoord ys[] = {0.0f, 0.0f, 100.0f};
  const ParticleCoord zs[] = {0.0f, 0.0f, 0.0f};
  const uint32_t frame_idx[] = {0, 0, 0};
  double out[3] = {-1, -1, -1};
  sensor.ProbReadBatchGather(&frame, frame_idx, xs, ys, zs, 3, out);
  for (double p : out) EXPECT_EQ(p, 0.0);
}

// ---------------------------------------------------- bearing cut, exact ---
//
// The scalar kernels return 0 without the sqrt and acos for elements whose
// bearing is provably past the model's BatchZeroAngle(). That must change
// no output bit, so the cone's gather and AoS kernels are compared with
// memcmp against the per-element loop they had before the cut, kept here:

/// The per-element evaluation as it was before the bearing cut.
double ReferenceEvalOne(const SensorModel& model, const ReaderFrame& f,
                        double tx, double ty, double tz,
                        double zero_beyond_sq) {
  const double dx = tx - f.origin.x;
  const double dy = ty - f.origin.y;
  const double dz = tz - f.origin.z;
  const double dist_sq = dx * dx + dy * dy + dz * dz;
  if (dist_sq >= zero_beyond_sq) return 0.0;
  const double dist = std::sqrt(dist_sq);
  double angle = 0.0;
  if (dist > 1e-12) {
    const double cos_theta = (dx * f.cos_heading + dy * f.sin_heading) / dist;
    angle = std::acos(std::clamp(cos_theta, -1.0, 1.0));
  }
  return model.ProbRead(dist, angle);
}

/// Offset at distance r and 3-D bearing theta from a frame's heading,
/// rotated by psi around the heading axis (psi = 0: in the reader's plane).
Vec3 AtBearing(const ReaderFrame& f, double r, double theta, double psi) {
  const double along = r * std::cos(theta);
  const double across = r * std::sin(theta) * std::cos(psi);
  const double up = r * std::sin(theta) * std::sin(psi);
  return {f.origin.x + along * f.cos_heading - across * f.sin_heading,
          f.origin.y + along * f.sin_heading + across * f.cos_heading,
          f.origin.z + up};
}

struct CutCases {
  std::vector<ReaderFrame> frames;
  std::vector<uint32_t> frame_idx;
  std::vector<double> xs, ys, zs;

  void Add(uint32_t frame, const Vec3& p) {
    frame_idx.push_back(frame);
    xs.push_back(p.x);
    ys.push_back(p.y);
    zs.push_back(p.z);
  }
};

/// Elements around a cut's bearing (by default the model's zero bearing
/// θ0), in its 1e-9 margin band (~2e-9 of bearing at 30°, ~3.9e-9 at 15°)
/// and beyond it, at dot = 0 and behind the reader, at distances around
/// the 1e-12 degenerate-distance guard, around MaxRange and at
/// `extra_distances`, in and out of the reader's plane, over several
/// frames; plus a dense random sweep.
CutCases MakeCutCases(const SensorModel& sensor, uint64_t seed,
                      double cut_bearing = -1.0,
                      const std::vector<double>& extra_distances = {}) {
  CutCases cases;
  for (const Pose& pose :
       {Pose({0, 0, 0}, 0.0), Pose({1.25, -3.5, 0.75}, 0.9),
        Pose({-2, 4, -0.4}, -2.7), Pose({3, -1, 0}, M_PI),
        Pose({0.1, 0.2, 0.3}, M_PI / 2)}) {
    cases.frames.push_back(ReaderFrame::From(pose));
  }
  const double theta0 = cut_bearing >= 0.0
                            ? cut_bearing
                            : std::min(sensor.BatchZeroAngle(), M_PI);
  const double range = sensor.MaxRange();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> bearings = {M_PI / 2, M_PI / 2 + 1e-12, 2.0, 3.0, M_PI,
                                  0.0, 0.1};
  for (double d : {0.0, 1e-12, 1e-10, 1.5e-9, 1.9e-9, 1.99e-9, 2e-9, 2.01e-9,
                   2.1e-9, 2.5e-9, 3.8e-9, 3.85e-9, 3.9e-9, 4e-9, 1e-8,
                   1e-6}) {
    bearings.push_back(theta0 + d);
    bearings.push_back(theta0 - d);
  }
  bearings.push_back(std::nextafter(theta0, inf));
  bearings.push_back(std::nextafter(theta0, -inf));
  std::vector<double> distances = {
      1e-13, std::nextafter(1e-12, 0.0), 1e-12, std::nextafter(1e-12, 1.0),
      1.0000001e-12, 3e-12, 9.9e-12, 1e-11, 1.0001e-11, 5e-11, 1e-10,
      0.5, 1.0, 2.0, 3.0, 3.7, std::nextafter(range, 0.0), range,
      std::nextafter(range, inf), range * (1 + 1e-12), range + 0.5};
  distances.insert(distances.end(), extra_distances.begin(),
                   extra_distances.end());
  for (uint32_t f = 0; f < cases.frames.size(); ++f) {
    for (double theta : bearings) {
      for (double r : distances) {
        for (double psi : {0.0, M_PI, 0.3, -1.2, M_PI / 2}) {
          cases.Add(f, AtBearing(cases.frames[f], r, theta, psi));
        }
      }
    }
    // Exactly dot = 0 for the heading-0 frame: offsets along y (and z).
    const Vec3 o = cases.frames[f].origin;
    for (double dy : {-2.0, -1e-12, 1e-12, 0.5, 2.0}) {
      cases.Add(f, {o.x, o.y + dy, o.z});
      cases.Add(f, {o.x, o.y + dy, o.z + 0.3});
    }
    cases.Add(f, o);  // Tag at the reader.
  }
  Rng rng(seed);
  for (int i = 0; i < 40000; ++i) {
    const uint32_t f =
        static_cast<uint32_t>(rng.UniformInt(cases.frames.size()));
    const double theta = i % 2 == 0
                             ? theta0 + rng.Uniform(-2e-8, 2e-8)
                             : rng.Uniform(0.0, M_PI);
    cases.Add(f, AtBearing(cases.frames[f], rng.Uniform(0.0, 1.1 * range),
                           theta, rng.Uniform(-M_PI, M_PI)));
  }
  return cases;
}

/// Both kernels of `sensor` over `c`, compared with memcmp to `expected`;
/// the gather at the cases' double positions (GatherAt).
void ExpectKernelsAreBitExact(const SensorModel& sensor, const CutCases& c,
                              const std::vector<double>& expected) {
  const size_t n = c.xs.size();
  std::vector<Vec3> points(n);
  for (size_t k = 0; k < n; ++k) points[k] = {c.xs[k], c.ys[k], c.zs[k]};
  const std::vector<double> gathered =
      GatherAt(sensor, c.frames, c.frame_idx, points);
  for (size_t k = 0; k < n; ++k) {
    ASSERT_EQ(std::memcmp(&gathered[k], &expected[k], sizeof(double)), 0)
        << "gather element " << k << ": " << gathered[k] << " vs "
        << expected[k];
  }
  // The AoS kernel, one frame at a time.
  for (uint32_t f = 0; f < c.frames.size(); ++f) {
    std::vector<Vec3> positions;
    std::vector<double> want;
    for (size_t k = 0; k < n; ++k) {
      if (c.frame_idx[k] != f) continue;
      positions.push_back({c.xs[k], c.ys[k], c.zs[k]});
      want.push_back(expected[k]);
    }
    std::vector<double> got(positions.size(), -1.0);
    sensor.ProbReadBatchPositions(c.frames[f], positions.data(),
                                  positions.size(), got.data());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0)
        << "AoS frame " << f;
  }
}

void ExpectCutIsBitExact(const SensorModel& sensor, double zero_beyond,
                         uint64_t seed) {
  const CutCases c = MakeCutCases(sensor, seed);
  const double zero_beyond_sq = zero_beyond * zero_beyond;
  std::vector<double> expected(c.xs.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    expected[k] = ReferenceEvalOne(sensor, c.frames[c.frame_idx[k]], c.xs[k],
                                   c.ys[k], c.zs[k], zero_beyond_sq);
  }
  ExpectKernelsAreBitExact(sensor, c, expected);
}

TEST(BatchKernelTest, ConeBearingCutIsBitExact) {
  const ConeSensorModel cone;
  const ConeSensorParams& p = cone.params();
  EXPECT_EQ(cone.BatchZeroAngle(), p.major_half_angle + p.minor_extra_angle);
  ExpectCutIsBitExact(cone, cone.MaxRange(), 601);
}

TEST(BatchKernelTest, ConeBearingCutIsBitExactForOtherWedges) {
  // Narrow, near-right-angle (c = cos(θ0) − 1e-9 tiny but positive), just
  // short of a cut (cos(θ0) below the margin) and wider than a right angle
  // (no cut at all).
  for (const auto& [major, minor] :
       {std::pair{2.0 * M_PI / 180, 3.0 * M_PI / 180},
        std::pair{M_PI / 4, M_PI / 4 - 1e-8},
        std::pair{M_PI / 4, M_PI / 4 - 5e-10},
        std::pair{60.0 * M_PI / 180, 40.0 * M_PI / 180}}) {
    ConeSensorParams params;
    params.major_half_angle = major;
    params.minor_extra_angle = minor;
    const ConeSensorModel cone(params);
    SCOPED_TRACE(::testing::Message() << "zero angle " << cone.BatchZeroAngle());
    ExpectCutIsBitExact(cone, cone.MaxRange(), 602);
  }
}

TEST(BatchKernelTest, ModelsWithoutAZeroBearingKeepTheirKernels) {
  // The spherical and logistic models read at every bearing: no cut, and
  // their kernels stay bit-identical to the loop before it.
  EXPECT_FALSE(std::isfinite(SphericalSensorModel().BatchZeroAngle()));
  EXPECT_FALSE(std::isfinite(LogisticSensorModel().BatchZeroAngle()));
  const SphericalSensorModel spherical;
  ExpectCutIsBitExact(spherical, spherical.NegligibleRange(), 603);
  const LogisticSensorModel logistic;
  ExpectCutIsBitExact(logistic, logistic.NegligibleRange(), 604);
}

// ------------------------------------------------------ flat cut, exact ---
//
// Inside the cone's major wedge ProbRead does not look at the bearing, so
// the kernels return ProbRead(dist, 0) there without the division and the
// acos. Compared with memcmp against the loop without that cut.

TEST(BatchKernelTest, ConeFlatWedgeIsBitExact) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double rate : {1.0, 0.6}) {
    ConeSensorParams params;
    params.major_read_rate = rate;
    const ConeSensorModel cone(params);
    SCOPED_TRACE(::testing::Message() << "major read rate " << rate);
    const double theta_f = params.major_half_angle;
    const double range = cone.MaxRange();
    const batch_detail::ZeroCuts without_flat =
        batch_detail::MakeZeroCuts(range, cone.BatchZeroAngle());
    const batch_detail::ZeroCuts with_flat =
        batch_detail::MakeZeroCuts(range, cone.BatchZeroAngle(), theta_f);
    ASSERT_FALSE(without_flat.flat);
    ASSERT_TRUE(with_flat.flat);

    // θf ± {0, 1 ulp, 1e-12, 1e-10, 2e-9, 1e-6}, across the margin band and
    // at major_range ± 1 ulp.
    const double major = params.major_range;
    const CutCases c = MakeCutCases(
        cone, 605, theta_f,
        {std::nextafter(major, 0.0), major, std::nextafter(major, inf)});

    std::vector<double> expected(c.xs.size());
    size_t flat = 0;
    for (size_t k = 0; k < expected.size(); ++k) {
      const ReaderFrame& frame = c.frames[c.frame_idx[k]];
      expected[k] = batch_detail::EvalOne(cone, frame, c.xs[k], c.ys[k],
                                          c.zs[k], without_flat);
      const double dx = c.xs[k] - frame.origin.x;
      const double dy = c.ys[k] - frame.origin.y;
      const double dz = c.zs[k] - frame.origin.z;
      const double dist_sq = dx * dx + dy * dy + dz * dz;
      const double dot = dx * frame.cos_heading + dy * frame.sin_heading;
      if (dist_sq < with_flat.range_sq && dot > 0.0 &&
          dot * dot >= with_flat.flat_cos_sq * dist_sq) {
        ++flat;
      }
    }
    // The cut fires on a good share of the cases, so the comparison covers
    // it, not only the elements it leaves alone.
    EXPECT_GT(flat, expected.size() / 5);
    ExpectKernelsAreBitExact(cone, c, expected);
  }
}

// ------------------------------------------------- zero-region boxes ---
//
// batch_detail::ZeroRegionBounds: the box of the positions a frame's
// kernels can read nonzero. The factored filter skips an unread object
// whose particles all lie outside the union of these boxes, which is exact
// only if no nonzero element lies outside its frame's box.

/// Both kernels for one element against one frame; they must agree. The
/// sweeps below move elements by single ulps of a double, so the gather
/// runs at the double position (GatherAt).
double KernelAt(const SensorModel& sensor, const ReaderFrame& frame,
                const Vec3& p) {
  const double gathered = GatherAt(sensor, {frame}, {0}, {p})[0];
  double aos = -1.0;
  sensor.ProbReadBatchPositions(frame, &p, 1, &aos);
  EXPECT_EQ(std::memcmp(&gathered, &aos, sizeof(double)), 0);
  return gathered;
}

/// `v` moved by `steps` ulps (negative: down).
double Ulps(double v, int steps) {
  const double toward = steps < 0 ? -std::numeric_limits<double>::infinity()
                                  : std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(steps); ++i) v = std::nextafter(v, toward);
  return v;
}

void ExpectBoxHoldsEveryNonzeroElement(const ConeSensorModel& cone,
                                       const ReaderFrame& f, Rng& rng) {
  const double range = cone.MaxRange();
  const double theta0 = cone.BatchZeroAngle();
  const double margin = 1e-9 * range;
  const Aabb box = batch_detail::ZeroRegionBounds(f, range, theta0);
  ASSERT_FALSE(box.IsEmpty());

  // The apex and points inside the cone, down to its boundary.
  EXPECT_TRUE(box.Contains(f.origin));
  for (int i = 0; i < 400; ++i) {
    const double r = i < 40 ? range * (1.0 - 1e-12) : rng.Uniform(0.0, range);
    const double theta = i < 80 ? theta0 * (1.0 - 1e-12)
                                : rng.Uniform(0.0, theta0);
    const Vec3 p = AtBearing(f, r, theta, rng.Uniform(-M_PI, M_PI));
    if (KernelAt(cone, f, p) > 0.0) {
      EXPECT_TRUE(box.Contains(p)) << "in-cone point " << p << ", box " << box;
    }
  }
  for (double psi : {0.0, M_PI / 2, M_PI, -M_PI / 2}) {
    for (double theta : {0.0, 0.5 * theta0, theta0 * (1.0 - 1e-12)}) {
      const Vec3 p = AtBearing(f, range * (1.0 - 1e-12), theta, psi);
      ASSERT_GT(KernelAt(cone, f, p), 0.0) << p;
      EXPECT_TRUE(box.Contains(p)) << "in-cone point " << p << ", box " << box;
    }
  }

  // The corners where each face's extreme is reached, each swept over a
  // grid of ulps around it: whatever the kernels read nonzero there lies
  // inside the box. Axis points count where the arc crosses the axis.
  std::vector<Vec3> corners;
  for (double psi : {0.0, M_PI / 2, M_PI, -M_PI / 2}) {
    corners.push_back(AtBearing(f, range, theta0, psi));
  }
  for (const Vec3& axis : {Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0},
                           Vec3{0, -1, 0}}) {
    if (axis.x * f.cos_heading + axis.y * f.sin_heading >
        std::cos(theta0) - 1e-6) {
      corners.push_back(f.origin + axis * range);
    }
  }
  for (const Vec3& corner : corners) {
    for (int i = -4; i <= 4; ++i) {
      for (int j = -4; j <= 4; ++j) {
        for (int k = -4; k <= 4; ++k) {
          const Vec3 p{Ulps(corner.x, i), Ulps(corner.y, j),
                       Ulps(corner.z, k)};
          if (KernelAt(cone, f, p) > 0.0) {
            EXPECT_TRUE(box.Contains(p))
                << "nonzero element " << p << " near corner " << corner
                << " outside " << box;
          }
        }
      }
    }
  }

  // One margin and one ulp outside each face, across the face: exactly 0.
  const auto coord = [](Vec3& v, int axis) -> double& {
    return axis == 0 ? v.x : axis == 1 ? v.y : v.z;
  };
  Vec3 lo = box.min;
  Vec3 hi = box.max;
  const double inf = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < 3; ++axis) {
    const int a1 = (axis + 1) % 3;
    const int a2 = (axis + 2) % 3;
    for (double outward : {-1.0, 1.0}) {
      const double face = outward < 0 ? coord(lo, axis) : coord(hi, axis);
      for (double u : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        for (double v : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
          Vec3 p;
          coord(p, a1) = coord(lo, a1) + u * (coord(hi, a1) - coord(lo, a1));
          coord(p, a2) = coord(lo, a2) + v * (coord(hi, a2) - coord(lo, a2));
          for (double out :
               {std::nextafter(face, outward * inf), face + outward * margin}) {
            coord(p, axis) = out;
            EXPECT_EQ(KernelAt(cone, f, p), 0.0)
                << "element " << p << " outside face " << axis << " of "
                << box;
          }
        }
      }
    }
  }

  // Random points around the box and outside it: exactly 0.
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p{rng.Uniform(box.min.x - range, box.max.x + range),
                 rng.Uniform(box.min.y - range, box.max.y + range),
                 rng.Uniform(box.min.z - range, box.max.z + range)};
    if (!box.Contains(p)) {
      EXPECT_EQ(KernelAt(cone, f, p), 0.0) << "element " << p << " outside "
                                           << box;
    }
  }
}

TEST(BatchKernelTest, ZeroRegionBoundsHoldEveryNonzeroElement) {
  ConeSensorParams narrow;
  narrow.major_half_angle = 2.0 * M_PI / 180;
  narrow.minor_extra_angle = 3.0 * M_PI / 180;
  ConeSensorParams wide;
  wide.major_half_angle = 40.0 * M_PI / 180;
  wide.minor_extra_angle = 45.0 * M_PI / 180;
  wide.major_range = 2.0;
  for (const ConeSensorParams& params : {ConeSensorParams{}, narrow, wide}) {
    const ConeSensorModel cone(params);
    const double theta0 = cone.BatchZeroAngle();
    SCOPED_TRACE(::testing::Message() << "zero angle " << theta0);
    // Headings on each axis and θ0 off each one (the arc's endpoint on the
    // axis), then random ones.
    std::vector<double> headings;
    for (double axis : {0.0, M_PI / 2, M_PI, -M_PI / 2}) {
      for (double off : {0.0, theta0, -theta0}) headings.push_back(axis + off);
    }
    Rng rng(606);
    for (int i = 0; i < 24; ++i) headings.push_back(rng.Uniform(-M_PI, M_PI));
    for (const Vec3& origin :
         {Vec3{0, 0, 0}, Vec3{0.7, -1.2, 0.3}, Vec3{-37.5, 112.25, 4.0}}) {
      for (double heading : headings) {
        SCOPED_TRACE(::testing::Message()
                     << "heading " << heading << ", origin " << origin);
        ExpectBoxHoldsEveryNonzeroElement(
            cone, ReaderFrame::From(Pose(origin, heading)), rng);
      }
    }
  }
}

TEST(BatchKernelTest, ZeroRegionBoundsAreTheCubeWithoutAZeroBearing) {
  // Models that read at every bearing, and a cone wider than a right angle,
  // keep the cube of half-extent R·(1 + 1e-9) bit for bit.
  const ReaderFrame f = ReaderFrame::From(Pose({0.7, -1.2, 0.3}, 0.9));
  for (double zero_angle :
       {std::numeric_limits<double>::infinity(), M_PI / 2, 2.0}) {
    for (double radius : {4.5, 17.25}) {
      const double reach = radius * (1.0 + 1e-9);
      const Aabb cube(f.origin - Vec3{reach, reach, reach},
                      f.origin + Vec3{reach, reach, reach});
      const Aabb box = batch_detail::ZeroRegionBounds(f, radius, zero_angle);
      EXPECT_EQ(std::memcmp(&box, &cube, sizeof(Aabb)), 0) << box;
    }
  }
}

}  // namespace
}  // namespace rfid
