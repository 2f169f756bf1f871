// Tests for motion, location sensing, object dynamics and the joint model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "model/cone_sensor.h"
#include "model/location_sensing.h"
#include "model/motion_model.h"
#include "model/object_model.h"
#include "model/world_model.h"
#include "sim/lab.h"
#include "sim/warehouse.h"

namespace rfid {
namespace {

// -------------------------------------------------------- GaussianLogPdf ---

TEST(GaussianLogPdfTest, MatchesClosedForm) {
  const double lp = GaussianLogPdf(1.0, 0.0, 2.0);
  const double expected =
      -0.5 * (1.0 / 4.0) - std::log(2.0) - 0.5 * std::log(2 * M_PI);
  EXPECT_NEAR(lp, expected, 1e-12);
}

TEST(GaussianLogPdfTest, PeaksAtMean) {
  EXPECT_GT(GaussianLogPdf(0.0, 0.0, 1.0), GaussianLogPdf(0.5, 0.0, 1.0));
}

TEST(GaussianLogPdfTest, ZeroSigmaIsDeterministic) {
  EXPECT_EQ(GaussianLogPdf(3.0, 3.0, 0.0), 0.0);
  EXPECT_EQ(GaussianLogPdf(3.1, 3.0, 0.0),
            -std::numeric_limits<double>::infinity());
}

// ------------------------------------------------------------ MotionModel --

TEST(MotionModelTest, PropagateAppliesDeltaOnAverage) {
  MotionModelParams p;
  p.delta = {0.0, 0.1, 0.0};
  p.sigma = {0.01, 0.01, 0.0};
  const MotionModel m(p);
  Rng rng(1);
  Vec3 sum;
  constexpr int kN = 20000;
  const Pose start({1.0, 2.0, 0.0}, 0.0);
  for (int i = 0; i < kN; ++i) {
    sum += m.Propagate(start, rng).position - start.position;
  }
  EXPECT_NEAR(sum.x / kN, 0.0, 0.001);
  EXPECT_NEAR(sum.y / kN, 0.1, 0.001);
  EXPECT_EQ(sum.z, 0.0);
}

TEST(MotionModelTest, LogPdfPeaksAtExpectedStep) {
  MotionModelParams p;
  p.delta = {0.0, 0.1, 0.0};
  p.sigma = {0.01, 0.01, 0.0};
  const MotionModel m(p);
  const Pose prev({0, 0, 0}, 0.0);
  const Pose at_mean({0.0, 0.1, 0.0}, 0.0);
  const Pose off_mean({0.0, 0.3, 0.0}, 0.0);
  EXPECT_GT(m.LogPdf(prev, at_mean), m.LogPdf(prev, off_mean));
}

TEST(MotionModelTest, ZeroSigmaAxesAreDeterministic) {
  MotionModelParams p;
  p.delta = {0.0, 0.1, 0.0};
  p.sigma = {0.0, 0.01, 0.0};
  const MotionModel m(p);
  Rng rng(2);
  const Pose start({5.0, 0.0, 0.0}, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.Propagate(start, rng).position.x, 5.0);
  }
}

TEST(MotionModelTest, HeadingNoiseWrapAround) {
  MotionModelParams p;
  p.heading_delta = 0.2;
  p.heading_sigma = 0.05;
  const MotionModel m(p);
  Rng rng(3);
  Pose pose({0, 0, 0}, M_PI - 0.05);
  pose = m.Propagate(pose, rng);
  EXPECT_LE(pose.heading, M_PI);
  EXPECT_GT(pose.heading, -M_PI);
}

// ----------------------------------------------------- LocationSensing ----

TEST(LocationSensingTest, ObservationBiasAndNoise) {
  LocationSensingParams p;
  p.mu = {0.5, -0.25, 0.0};
  p.sigma = {0.1, 0.2, 0.0};
  const LocationSensingModel m(p);
  Rng rng(4);
  const Vec3 truth{1.0, 1.0, 0.0};
  Vec3 sum, sum_sq;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const Vec3 obs = m.SampleObservation(truth, rng);
    const Vec3 r = obs - truth;
    sum += r;
    sum_sq += {r.x * r.x, r.y * r.y, r.z * r.z};
  }
  EXPECT_NEAR(sum.x / kN, 0.5, 0.01);
  EXPECT_NEAR(sum.y / kN, -0.25, 0.01);
  const double var_x = sum_sq.x / kN - (sum.x / kN) * (sum.x / kN);
  EXPECT_NEAR(std::sqrt(var_x), 0.1, 0.01);
}

TEST(LocationSensingTest, LogPdfPeaksAtBiasedLocation) {
  LocationSensingParams p;
  p.mu = {0.5, 0.0, 0.0};
  p.sigma = {0.1, 0.1, 0.0};
  const LocationSensingModel m(p);
  const Vec3 truth{0, 0, 0};
  EXPECT_GT(m.LogPdf({0.5, 0.0, 0.0}, truth), m.LogPdf({0.0, 0.0, 0.0}, truth));
}

TEST(LocationSensingTest, ZeroSigmaAxesCarryNoInformation) {
  LocationSensingParams p;
  p.sigma = {0.1, 0.1, 0.0};
  const LocationSensingModel m(p);
  // Different z must not change the density (z sigma is 0 => ignored).
  EXPECT_EQ(m.LogPdf({0, 0, 5}, {0, 0, 0}), m.LogPdf({0, 0, -5}, {0, 0, 0}));
}

// --------------------------------------------------------- ShelfRegions ---

TEST(ShelfRegionsTest, EmptyByDefault) {
  ShelfRegions r;
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.Contains({0, 0, 0}));
}

TEST(ShelfRegionsTest, ContainsRespectsAllRegions) {
  const ShelfRegions r({Aabb({0, 0, 0}, {1, 1, 0}), Aabb({5, 0, 0}, {6, 1, 0})});
  EXPECT_TRUE(r.Contains({0.5, 0.5, 0}));
  EXPECT_TRUE(r.Contains({5.5, 0.5, 0}));
  EXPECT_FALSE(r.Contains({3.0, 0.5, 0}));
}

TEST(ShelfRegionsTest, SamplesLandInsideRegions) {
  const ShelfRegions r({Aabb({0, 0, 0}, {1, 2, 0}), Aabb({5, 0, 0}, {6, 2, 0})});
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(r.Contains(r.SampleUniform(rng)));
  }
}

TEST(ShelfRegionsTest, SamplingProportionalToArea) {
  // First region has 3x the area of the second.
  const ShelfRegions r(
      {Aabb({0, 0, 0}, {3, 1, 0}), Aabb({10, 0, 0}, {11, 1, 0})});
  Rng rng(6);
  int in_first = 0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    if (r.SampleUniform(rng).x < 5.0) ++in_first;
  }
  EXPECT_NEAR(in_first / static_cast<double>(kN), 0.75, 0.02);
}

TEST(ShelfRegionsTest, BoundingBoxCoversAll) {
  const ShelfRegions r(
      {Aabb({0, 0, 0}, {1, 1, 0}), Aabb({5, -2, 0}, {6, 3, 0})});
  const Aabb& b = r.BoundingBox();
  EXPECT_EQ(b.min, Vec3(0, -2, 0));
  EXPECT_EQ(b.max, Vec3(6, 3, 0));
}

// The grid index must answer exactly what a scan over every box answers,
// and the binary-searched region pick must draw exactly what the scan drew.
// Both references live only here.

bool ScanContains(const std::vector<Aabb>& regions, const Vec3& p) {
  for (const Aabb& r : regions) {
    if (p.x >= r.min.x && p.x <= r.max.x && p.y >= r.min.y &&
        p.y <= r.max.y && p.z >= r.min.z && p.z <= r.max.z) {
      return true;
    }
  }
  return false;
}

Vec3 ScanSampleUniform(const std::vector<Aabb>& regions, Rng& rng) {
  std::vector<double> cumulative;
  double acc = 0.0;
  for (const Aabb& b : regions) {
    const Vec3 e = b.Extent();
    const double xy = std::max(e.x, 1e-9) * std::max(e.y, 1e-9);
    acc += xy * std::max(e.z, 1e-9);
    cumulative.push_back(acc);
  }
  const double u = rng.NextDouble() * cumulative.back();
  size_t idx = 0;
  while (idx + 1 < regions.size() && cumulative[idx] <= u) ++idx;
  const Aabb& r = regions[idx];
  return {rng.Uniform(r.min.x, r.max.x), rng.Uniform(r.min.y, r.max.y),
          r.min.z == r.max.z ? r.min.z : rng.Uniform(r.min.z, r.max.z)};
}

/// Seeded random layout: boxes on a 0.25-ft lattice (so bounds coincide
/// with each other) or at arbitrary coordinates, flat or thick, some
/// touching or overlapping an earlier box, some inverted or empty.
std::vector<Aabb> RandomLayout(size_t n, uint64_t seed) {
  Rng rng(seed);
  const double span = 10.0 * std::sqrt(static_cast<double>(n));
  auto coord = [&rng, span](bool snap) {
    const double v = rng.Uniform(-span, span);
    return snap ? std::round(v * 4.0) / 4.0 : v;
  };
  std::vector<Aabb> boxes;
  for (size_t i = 0; i < n; ++i) {
    const bool snap = rng.Bernoulli(0.5);
    Vec3 lo{coord(snap), coord(snap), rng.Bernoulli(0.5) ? 0.0 : coord(snap)};
    Vec3 size{rng.Uniform(0.0, 6.0), rng.Uniform(0.0, 6.0),
              rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.0, 2.0)};
    if (snap) size = {std::round(size.x * 4) / 4, std::round(size.y * 4) / 4,
                      std::round(size.z * 4) / 4};
    if (rng.Bernoulli(0.1)) size.x = 0.0;  // Flat across x as well.
    if (!boxes.empty() && rng.Bernoulli(0.3)) {
      const Aabb& other = boxes[rng.UniformInt(boxes.size())];
      lo = other.min;
      if (rng.Bernoulli(0.5)) {
        lo.x = other.max.x;  // Touching along x.
      } else {
        lo.y = 0.5 * (other.min.y + other.max.y);  // Overlapping.
      }
    }
    Aabb box(lo, lo + size);
    if (rng.Bernoulli(0.05)) std::swap(box.min.y, box.max.y);  // Inverted.
    if (rng.Bernoulli(0.02)) box = Aabb::Empty();
    boxes.push_back(box);
  }
  return boxes;
}

/// Seeded layout on the integer lattice with sides of 0, 1 or 2: the median
/// side is 1, so grid cell edges fall on integers, exactly on box bounds.
std::vector<Aabb> LatticeLayout(size_t n, int extent, uint64_t seed) {
  Rng rng(seed);
  auto lattice = [&rng](int hi) {
    return static_cast<double>(rng.UniformInt(static_cast<uint64_t>(hi)));
  };
  std::vector<Aabb> boxes;
  for (size_t i = 0; i < n; ++i) {
    const Vec3 lo{lattice(extent), lattice(extent), lattice(3)};
    const Vec3 size{lattice(3), lattice(3), lattice(3)};
    boxes.emplace_back(lo, lo + size);
  }
  return boxes;
}

/// Corners and edge midpoints of every box, each with its one-ulp
/// neighbours on every axis.
std::vector<Vec3> BoundaryQueries(const std::vector<Aabb>& boxes) {
  std::vector<Vec3> points;
  for (const Aabb& b : boxes) {
    const double xs[] = {b.min.x, 0.5 * (b.min.x + b.max.x), b.max.x};
    const double ys[] = {b.min.y, 0.5 * (b.min.y + b.max.y), b.max.y};
    const double zs[] = {b.min.z, 0.5 * (b.min.z + b.max.z), b.max.z};
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        for (int k = 0; k < 3; ++k) {
          // Corners (no midpoint) and edge midpoints (one midpoint).
          if ((i == 1) + (j == 1) + (k == 1) > 1) continue;
          const Vec3 q{xs[i], ys[j], zs[k]};
          points.push_back(q);
          for (double dir : {-std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity()}) {
            points.push_back({std::nextafter(q.x, dir), q.y, q.z});
            points.push_back({q.x, std::nextafter(q.y, dir), q.z});
            points.push_back({q.x, q.y, std::nextafter(q.z, dir)});
          }
        }
      }
    }
  }
  return points;
}

/// Every combination of NaN, ±inf and an in-layout value per axis.
std::vector<Vec3> NonFiniteQueries(const Vec3& inside) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Vec3> points;
  for (double x : {nan, inf, -inf, inside.x}) {
    for (double y : {nan, inf, -inf, inside.y}) {
      for (double z : {nan, inf, -inf, inside.z}) points.push_back({x, y, z});
    }
  }
  return points;
}

bool SameBits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

void ExpectMatchesScan(const std::vector<Aabb>& boxes, uint64_t seed) {
  const ShelfRegions regions(boxes);
  Rng rng(seed);
  std::vector<Vec3> queries = BoundaryQueries(boxes);
  const Aabb& bounds = regions.BoundingBox();
  const Vec3 lo = bounds.IsEmpty() ? Vec3{-1, -1, -1} : bounds.min;
  const Vec3 hi = bounds.IsEmpty() ? Vec3{1, 1, 1} : bounds.max;
  for (int i = 0; i < 5000; ++i) {
    queries.push_back({rng.Uniform(lo.x - 2, hi.x + 2),
                       rng.Uniform(lo.y - 2, hi.y + 2),
                       rng.Uniform(lo.z - 0.5, hi.z + 0.5)});
  }
  // NaN and ±inf around the first boxes (the answer does not depend on
  // which box the finite coordinates come from).
  for (size_t i = 0; i < std::min<size_t>(boxes.size(), 16); ++i) {
    if (!boxes[i].IsEmpty()) {
      const auto more = NonFiniteQueries(boxes[i].Center());
      queries.insert(queries.end(), more.begin(), more.end());
    }
  }
  const auto outside = NonFiniteQueries({0, 0, 0});
  queries.insert(queries.end(), outside.begin(), outside.end());

  size_t hits = 0;
  for (const Vec3& q : queries) {
    const bool expected = ScanContains(boxes, q);
    ASSERT_EQ(regions.Contains(q), expected)
        << boxes.size() << " boxes, query " << q;
    hits += expected;
  }
  if (!regions.empty() && !bounds.IsEmpty()) {
    EXPECT_GT(hits, 0u);
  }

  // The copy answers alike on its own, after the original is gone.
  auto original = std::make_unique<ShelfRegions>(boxes);
  const ShelfRegions copy = *original;
  original.reset();
  for (size_t i = 0; i < queries.size(); i += 7) {
    ASSERT_EQ(copy.Contains(queries[i]), ScanContains(boxes, queries[i]));
  }

  if (boxes.empty()) return;
  Rng a(seed + 1);
  Rng b(seed + 1);
  for (int i = 0; i < 5000; ++i) {
    const Vec3 expected = ScanSampleUniform(boxes, a);
    ASSERT_TRUE(SameBits(regions.SampleUniform(b), expected))
        << boxes.size() << " boxes, draw " << i;
  }
}

TEST(ShelfRegionsTest, IndexMatchesLinearScanOnRandomLayouts) {
  for (size_t n : {size_t{1}, size_t{40}, size_t{1000}}) {
    SCOPED_TRACE(::testing::Message() << n << " boxes");
    ExpectMatchesScan(RandomLayout(n, 11), 11);
  }
  for (size_t n : {size_t{1}, size_t{40}}) {
    SCOPED_TRACE(::testing::Message() << n << " boxes, seed 12");
    ExpectMatchesScan(RandomLayout(n, 12), 12);
  }
  ExpectMatchesScan(LatticeLayout(40, 6, 13), 13);
  ExpectMatchesScan(LatticeLayout(1000, 30, 14), 14);
}

TEST(ShelfRegionsTest, IndexMatchesLinearScanOnSimulatorLayouts) {
  WarehouseConfig warehouse;
  warehouse.num_shelves = 40;
  const auto built = BuildWarehouse(warehouse);
  ASSERT_TRUE(built.ok());
  ExpectMatchesScan(built.value().shelf_boxes, 21);
  const auto lab = BuildLabDeployment(LabConfig{});
  ASSERT_TRUE(lab.ok());
  ExpectMatchesScan(lab.value().shelf_boxes, 22);
}

TEST(ShelfRegionsTest, IndexMatchesLinearScanOnDegenerateBoxes) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Duplicates, a point box, a box with a NaN bound, inverted boxes only,
  // boxes unbounded on an axis (which then hold infinite coordinates), and
  // a subnormal span.
  ExpectMatchesScan({Aabb({0, 0, 0}, {1, 1, 0}), Aabb({0, 0, 0}, {1, 1, 0}),
                     Aabb({3, 3, 3}, {3, 3, 3}),
                     Aabb({nan, 0, 0}, {5, 5, 5})},
                    31);
  ExpectMatchesScan({Aabb({1, 0, 0}, {0, 1, 0}), Aabb::Empty()}, 32);
  ExpectMatchesScan({Aabb({-inf, 0, 0}, {inf, 1, 0}),
                     Aabb({2, 4, 0}, {3, 5, 1}),
                     Aabb({0, -inf, -inf}, {0.5, inf, inf})},
                    33);
  ExpectMatchesScan({Aabb({0, 0, 0}, {4e-323, 1, 0}),
                     Aabb({2e-323, 0.5, 0}, {3e-323, 2, 0})},
                    34);
  ExpectMatchesScan({}, 35);
}

// -------------------------------------------------- ObjectLocationModel ---

TEST(ObjectModelTest, StationaryWhenAlphaZero) {
  ObjectModelParams p;
  p.move_probability = 0.0;
  const ObjectLocationModel m(p, ShelfRegions({Aabb({0, 0, 0}, {10, 10, 0})}));
  Rng rng(7);
  const Vec3 pos{3, 3, 0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.Propagate(pos, rng), pos);
  }
}

TEST(ObjectModelTest, MoveFrequencyMatchesAlpha) {
  ObjectModelParams p;
  p.move_probability = 0.1;
  const ObjectLocationModel m(p, ShelfRegions({Aabb({0, 0, 0}, {10, 10, 0})}));
  Rng rng(8);
  const Vec3 pos{3, 3, 0};
  int moved = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (!(m.Propagate(pos, rng) == pos)) ++moved;
  }
  EXPECT_NEAR(moved / static_cast<double>(kN), 0.1, 0.01);
}

TEST(ObjectModelTest, JumpsLandOnShelves) {
  ObjectModelParams p;
  p.move_probability = 1.0;  // Always jump.
  const ShelfRegions shelves({Aabb({0, 0, 0}, {2, 8, 0})});
  const ObjectLocationModel m(p, shelves);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(shelves.Contains(m.Propagate({100, 100, 0}, rng)));
  }
}

TEST(ObjectModelTest, NoShelvesMeansNoJumps) {
  ObjectModelParams p;
  p.move_probability = 1.0;
  const ObjectLocationModel m(p, ShelfRegions{});
  Rng rng(10);
  const Vec3 pos{1, 2, 0};
  EXPECT_EQ(m.Propagate(pos, rng), pos);
}

// ------------------------------------------------------------ WorldModel --

WorldModel MakeTestModel() {
  std::vector<ShelfTag> shelf_tags = {{1, {1.5, 2.0, 0.0}},
                                      {2, {1.5, 8.0, 0.0}}};
  return WorldModel(std::make_unique<ConeSensorModel>(), MotionModel(),
                    LocationSensingModel(),
                    ObjectLocationModel(
                        ObjectModelParams{},
                        ShelfRegions({Aabb({1.5, 0, 0}, {2.5, 10, 0})})),
                    shelf_tags);
}

TEST(WorldModelTest, ShelfTagLookup) {
  const WorldModel m = MakeTestModel();
  Vec3 loc;
  EXPECT_TRUE(m.IsShelfTag(1, &loc));
  EXPECT_EQ(loc, Vec3(1.5, 2.0, 0.0));
  EXPECT_TRUE(m.IsShelfTag(2));
  EXPECT_FALSE(m.IsShelfTag(999));
}

TEST(WorldModelTest, FindShelfTagReturnsCanonicalPointer) {
  const WorldModel m = MakeTestModel();
  const ShelfTag* s = m.FindShelfTag(2);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->tag, 2u);
  EXPECT_EQ(s, &m.shelf_tags()[1]);
  EXPECT_EQ(m.FindShelfTag(42), nullptr);
}

TEST(WorldModelTest, ShelfTagsNearFiltersByRange) {
  const WorldModel m = MakeTestModel();
  // Cone max range is 4.5 ft; from y=2 only the first shelf tag is in range.
  std::vector<const ShelfTag*> near;
  m.ShelfTagsNear({0.0, 2.0, 0.0}, &near);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0]->tag, 1u);
  // From the middle, both are within 4.5 ft (the old contents are replaced).
  m.ShelfTagsNear({1.5, 5.0, 0.0}, &near);
  EXPECT_EQ(near.size(), 2u);
}

TEST(WorldModelTest, CopyIsDeep) {
  WorldModel a = MakeTestModel();
  WorldModel b = a;
  b.SetSensor(std::make_unique<LogisticSensorModel>());
  // a keeps its cone model: probability at major range differs.
  EXPECT_NE(a.sensor().ProbRead(0.1, 0.0), b.sensor().ProbRead(0.1, 0.0));
}

TEST(WorldModelTest, SetSensorReplacesModel) {
  WorldModel m = MakeTestModel();
  const double before = m.sensor().MaxRange();
  ConeSensorParams p;
  p.major_range = 1.0;
  p.minor_extra_range = 0.5;
  m.SetSensor(std::make_unique<ConeSensorModel>(p));
  EXPECT_NE(m.sensor().MaxRange(), before);
  EXPECT_DOUBLE_EQ(m.sensor().MaxRange(), 1.5);
}

TEST(WorldModelTest, AssignmentIsDeep) {
  WorldModel a = MakeTestModel();
  WorldModel b = MakeTestModel();
  ConeSensorParams p;
  p.major_read_rate = 0.5;
  b.SetSensor(std::make_unique<ConeSensorModel>(p));
  a = b;
  EXPECT_DOUBLE_EQ(a.sensor().ProbRead(0.1, 0.0), 0.5);
  b.SetSensor(std::make_unique<ConeSensorModel>());
  EXPECT_DOUBLE_EQ(a.sensor().ProbRead(0.1, 0.0), 0.5);  // Unaffected.
}

}  // namespace
}  // namespace rfid
