// The thinned §IV-A sampler against plain rejection.
//
// ReferenceSample below is the shelf-clipped draw as plain rejection, kept
// here as the reference: up to 64 uniform cone points, the first one on a
// shelf kept, else one more cone point. ParticleInitializer must draw the
// same distribution: a two-sample chi-square over xy cells (every draw, and
// the draws on a shelf alone) and over the shares of fallbacks and of
// draws off the shelves, on 20,000 seeded draws per side, from the same
// reader cloud. Every draw the sampler keeps from a try must lie in
// cone ∩ shelves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "model/cone_sensor.h"
#include "model/spherical_sensor.h"
#include "pf/initializer.h"
#include "sim/lab.h"
#include "sim/warehouse.h"

namespace rfid {
namespace {

constexpr int kDraws = 20000;

/// A uniform point of the planar cone at `reader`.
Vec3 ReferenceCone(const Pose& reader, double range, double half_angle,
                   Rng& rng) {
  const double r = range * std::sqrt(rng.NextDouble());
  const double phi = reader.heading + rng.Uniform(-half_angle, half_angle);
  Vec3 p = reader.position;
  p.x += r * std::cos(phi);
  p.y += r * std::sin(phi);
  return p;
}

/// Plain rejection with the unclipped fallback; `fallback` says whether
/// every try missed.
Vec3 ReferenceSample(const Pose& reader, double range, double half_angle,
                     const ShelfRegions& shelves, Rng& rng, bool* fallback) {
  *fallback = false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Vec3 p = ReferenceCone(reader, range, half_angle, rng);
    if (shelves.Contains(p)) return p;
  }
  *fallback = true;
  return ReferenceCone(reader, range, half_angle, rng);
}

struct Case {
  std::string name;
  std::vector<Aabb> shelves;
  std::shared_ptr<const SensorModel> sensor;
  InitializerConfig config;
  Vec3 center;              ///< Mean reader position.
  Vec3 spread;              ///< Reader position spread, per axis.
  double heading = 0.0;     ///< Mean reader heading.
  double heading_spread = 0.05;
};

/// The cone sensor with MaxRange() = `range`.
std::shared_ptr<const SensorModel> ConeOfRange(double range) {
  ConeSensorParams p;
  p.major_range = range - p.minor_extra_range;
  return std::make_shared<ConeSensorModel>(p);
}

std::vector<Aabb> WarehouseShelves(int num_shelves) {
  WarehouseConfig wc;
  wc.num_shelves = num_shelves;
  wc.shelf_length = 10.0;
  return BuildWarehouse(wc).value().shelf_boxes;
}

/// 100 reader hypotheses around the case's pose: one epoch's cloud.
std::vector<Pose> Readers(const Case& c) {
  Rng rng(17);
  std::vector<Pose> readers;
  for (int i = 0; i < 100; ++i) {
    readers.emplace_back(
        Vec3{c.center.x + rng.Gaussian(0.0, c.spread.x),
             c.center.y + rng.Gaussian(0.0, c.spread.y),
             c.center.z + rng.Gaussian(0.0, c.spread.z)},
        c.heading + rng.Gaussian(0.0, c.heading_spread));
  }
  return readers;
}

/// Two-sample chi-square of equal-size samples over a grid of `cells` x
/// `cells` on the points' joint bounding box, pooling cells with fewer
/// than 10 points; the statistic against its critical value at z = 4 of
/// the Wilson-Hilferty approximation (p ~ 3e-5). True when consistent.
::testing::AssertionResult SameXyDistribution(const std::vector<Vec3>& a,
                                              const std::vector<Vec3>& b,
                                              int cells = 20) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sample sizes " << a.size() << " vs " << b.size();
  }
  if (a.size() < 100) return ::testing::AssertionSuccess();
  double x0 = INFINITY, x1 = -INFINITY, y0 = INFINITY, y1 = -INFINITY;
  for (const auto* s : {&a, &b}) {
    for (const Vec3& p : *s) {
      x0 = std::min(x0, p.x);
      x1 = std::max(x1, p.x);
      y0 = std::min(y0, p.y);
      y1 = std::max(y1, p.y);
    }
  }
  const auto cell = [&](const Vec3& p) {
    const auto column = [cells](double v, double lo, double hi) {
      const int k = hi > lo ? static_cast<int>((v - lo) / (hi - lo) * cells)
                            : 0;
      return std::clamp(k, 0, cells - 1);
    };
    return column(p.y, y0, y1) * cells + column(p.x, x0, x1);
  };
  std::vector<double> na(cells * cells, 0.0), nb(cells * cells, 0.0);
  for (const Vec3& p : a) ++na[cell(p)];
  for (const Vec3& p : b) ++nb[cell(p)];
  double chi2 = 0.0, pooled_a = 0.0, pooled_b = 0.0;
  int bins = 0;
  for (size_t k = 0; k < na.size(); ++k) {
    if (na[k] + nb[k] < 10) {
      pooled_a += na[k];
      pooled_b += nb[k];
      continue;
    }
    chi2 += (na[k] - nb[k]) * (na[k] - nb[k]) / (na[k] + nb[k]);
    ++bins;
  }
  if (pooled_a + pooled_b > 0) {
    chi2 += (pooled_a - pooled_b) * (pooled_a - pooled_b) /
            (pooled_a + pooled_b);
    ++bins;
  }
  const double df = std::max(1, bins - 1);
  const double h = 2.0 / (9.0 * df);
  const double critical = df * std::pow(1.0 - h + 4.0 * std::sqrt(h), 3);
  if (chi2 <= critical) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "chi2 " << chi2 << " > " << critical << " over " << bins
         << " bins";
}

/// Two-proportion chi-square (1 df) at the same z = 4.
::testing::AssertionResult SameShare(int a, int b, int n) {
  const double pooled = static_cast<double>(a + b) / (2.0 * n);
  if (pooled == 0.0 || pooled == 1.0) {
    return a == b ? ::testing::AssertionSuccess()
                  : ::testing::AssertionFailure() << a << " vs " << b;
  }
  const double z = (a - b) / std::sqrt(2.0 * n * pooled * (1.0 - pooled));
  if (std::abs(z) <= 4.0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " of " << n << " (z = " << z << ")";
}

/// Whether `p` lies in the planar cone of `reader`, computed the slow way.
bool InCone(const Pose& reader, const Vec3& p, double range,
            double half_angle) {
  const double dx = p.x - reader.position.x;
  const double dy = p.y - reader.position.y;
  const double bearing =
      std::abs(WrapAngle(std::atan2(dy, dx) - reader.heading));
  return p.z == reader.position.z &&
         std::hypot(dx, dy) <= range * (1 + 1e-12) &&
         bearing <= half_angle + 1e-12;
}

struct Outcome {
  int draws_off_shelves = 0;
  int fallbacks = 0;
  int tries = 0;
  int points = 0;
};

/// Draws kDraws from both samplers over the case's reader cloud and
/// compares them; returns what the thinned sampler did.
Outcome ExpectSameDistribution(const Case& c) {
  SCOPED_TRACE(c.name);
  const ShelfRegions shelves(c.shelves);
  const std::vector<Pose> readers = Readers(c);
  std::vector<ReaderFrame> frames;
  Aabb cloud = Aabb::Empty();
  for (const Pose& r : readers) {
    frames.push_back(ReaderFrame::From(r));
    cloud.Extend(r.position);
  }
  ParticleInitializer initializer(c.config, c.sensor.get(), &shelves);
  initializer.Prepare(cloud);
  const double range = c.sensor->MaxRange() * c.config.range_overestimate;

  Outcome out;
  int reference_off = 0;
  int reference_fallbacks = 0;
  std::vector<Vec3> thinned, reference, thinned_on, reference_on;
  Rng rng_thinned(101), rng_reference(202);
  for (int k = 0; k < kDraws; ++k) {
    const size_t j = static_cast<size_t>(k) % readers.size();
    InitSampleTrace trace;
    const Vec3 p =
        initializer.Sample(readers[j], frames[j], rng_thinned, &trace);
    out.tries += trace.tries;
    out.points += trace.points;
    out.fallbacks += trace.fallback ? 1 : 0;
    if (!trace.fallback) {
      EXPECT_TRUE(shelves.Contains(p) &&
                  InCone(readers[j], p, range, c.config.half_angle))
          << "kept (" << p.x << ", " << p.y << ", " << p.z
          << ") off cone ∩ shelves";
    }
    thinned.push_back(p);
    if (shelves.Contains(p)) {
      thinned_on.push_back(p);
    } else {
      ++out.draws_off_shelves;
    }

    bool fallback = false;
    const Vec3 q = ReferenceSample(readers[j], range, c.config.half_angle,
                                   shelves, rng_reference, &fallback);
    reference_fallbacks += fallback ? 1 : 0;
    reference.push_back(q);
    if (shelves.Contains(q)) {
      reference_on.push_back(q);
    } else {
      ++reference_off;
    }
  }
  EXPECT_TRUE(SameShare(out.fallbacks, reference_fallbacks, kDraws))
      << "fallbacks";
  EXPECT_TRUE(SameShare(out.draws_off_shelves, reference_off, kDraws))
      << "draws off the shelves";
  EXPECT_TRUE(SameXyDistribution(thinned, reference)) << "every draw";
  // The on-shelf samples differ in size by the off-shelf counts, which the
  // share test bounds; compare equal-size prefixes.
  const size_t on = std::min(thinned_on.size(), reference_on.size());
  thinned_on.resize(on);
  reference_on.resize(on);
  EXPECT_TRUE(SameXyDistribution(thinned_on, reference_on))
      << "draws on a shelf";
  return out;
}

Case Warehouse() {
  Case c;
  c.name = "e2e warehouse layout";
  c.shelves = WarehouseShelves(40);
  c.sensor = std::make_shared<ConeSensorModel>();
  c.center = {0.0, 203.5, 0.0};  // Near a gap between two shelves.
  c.spread = {0.1, 0.3, 0.0};
  return c;
}

TEST(InitializerTest, E2eWarehouseLayout) {
  const Outcome out = ExpectSameDistribution(Warehouse());
  EXPECT_LT(out.points, out.tries);  // The thinned proposal ran.
}

TEST(InitializerTest, E2eWarehouseLayoutHalfAnglePi) {
  Case c = Warehouse();
  c.name += ", half-angle pi";
  c.config.half_angle = M_PI;
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_LT(out.points, out.tries);
}

TEST(InitializerTest, E2eWarehouseLayoutHalfAngle30Degrees) {
  Case c = Warehouse();
  c.name += ", half-angle 30 degrees, no overestimate";
  c.config.half_angle = 30.0 * M_PI / 180.0;
  c.config.range_overestimate = 1.0;
  c.center.y = 105.0;
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_LT(out.points, out.tries);
}

TEST(InitializerTest, E2eIdleSiteLayout) {
  Case c;
  c.name = "e2e idle_site layout";
  c.shelves = WarehouseShelves(15);
  SphericalSensorParams p;
  p.peak_read_rate = 0.9;
  p.range = 3.0;
  c.sensor = std::make_shared<SphericalSensorModel>(p);
  c.center = {0.0, 48.0, 0.0};
  c.spread = {0.3, 0.3, 0.0};
  c.heading_spread = 0.3;
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_LT(out.points, out.tries);
}

TEST(InitializerTest, LabLayout) {
  const auto lab = BuildLabDeployment(LabConfig{});
  ASSERT_TRUE(lab.ok());
  Case c;
  c.name = "lab, half-angle pi";
  c.shelves = lab.value().shelf_boxes;
  c.sensor = std::make_shared<SphericalSensorModel>(lab.value().sensor);
  c.config.half_angle = M_PI;
  c.center = {0.0, 4.0, 0.0};
  c.spread = {0.3, 0.3, 0.0};
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_LT(out.points, out.tries);
}

TEST(InitializerTest, OverlappingBoxes) {
  // B overlaps A, C repeats A and D lies inside B: a point in an overlap
  // belongs to its first box only, or its density doubles there.
  Case c;
  c.name = "overlapping boxes";
  c.shelves = {Aabb({1, -1, 0}, {3, 1, 0}), Aabb({2, 0, 0}, {4, 2, 0}),
               Aabb({1, -1, 0}, {3, 1, 0}), Aabb({2.5, 0.5, 0}, {3, 1, 0})};
  c.sensor = ConeOfRange(4.5);
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_LT(out.points, out.tries);
}

TEST(InitializerTest, BoxesStraddlingTheConeEdge) {
  // One box across the 60-degree wedge edge, one across the range arc.
  Case c;
  c.name = "boxes straddling the cone edge";
  c.shelves = {Aabb({0.5, 1.5, 0}, {2, 3.5, 0}),
               Aabb({4.5, -0.5, 0}, {6.5, 0.5, 0})};
  c.sensor = ConeOfRange(4.5);
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_LT(out.points, out.tries);
}

TEST(InitializerTest, BoxAtAnotherHeight) {
  // The z = 3 box never holds a cone point; the thick box does, and the
  // flat one overlaps the z = 3 box in xy only.
  Case c;
  c.name = "box at another z";
  c.shelves = {Aabb({1, -1, 3}, {3, 1, 3}), Aabb({2, -2, -1}, {4, -1, 1}),
               Aabb({1, 0, 0}, {3, 2, 0})};
  c.sensor = ConeOfRange(4.5);
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_LT(out.points, out.tries);
}

TEST(InitializerTest, ConeMissingEveryShelf) {
  // One box within reach behind the reader, one out of reach ahead: every
  // draw is the fallback.
  Case c;
  c.name = "cone missing every shelf";
  c.shelves = {Aabb({-3, -1, 0}, {-1, 1, 0}), Aabb({20, -1, 0}, {21, 1, 0})};
  c.sensor = ConeOfRange(4.5);
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_EQ(out.fallbacks, kDraws);
  EXPECT_EQ(out.draws_off_shelves, kDraws);
}

TEST(InitializerTest, WideConeOverOneShelf) {
  // EM's learned range at its 25 ft cap: the 30 ft initialization cone
  // over one 10 x 1 ft shelf, ~1% of its area, falls back on about half of
  // the draws.
  Case c;
  c.name = "30 ft cone over one shelf";
  c.shelves = WarehouseShelves(1);
  c.sensor = ConeOfRange(25.0);
  c.center = {0.0, 5.0, 0.0};
  c.spread = {0.1, 0.3, 0.0};
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_GT(out.fallbacks, kDraws / 3);
  EXPECT_LT(out.fallbacks, 2 * kDraws / 3);
}

TEST(InitializerTest, BoxesDenserThanTheCone) {
  // |P| > |C|: a 1.2 ft cone over a large shelf and a box overlapping it.
  // Every try draws its own cone point.
  Case c;
  c.name = "dense boxes";
  c.shelves = {Aabb({-5, -5, 0}, {5, 5, 0}), Aabb({0, 0, 0}, {2, 2, 0})};
  c.sensor = ConeOfRange(1.0);
  c.spread = {0.3, 0.3, 0.0};
  const Outcome out = ExpectSameDistribution(c);
  EXPECT_EQ(out.points, out.tries);
}

TEST(InitializerTest, UnclippedDrawIsTheConeDraw) {
  // Without clipping a sample is one cone draw, bit for bit.
  const ShelfRegions shelves(WarehouseShelves(2));
  const ConeSensorModel sensor;
  InitializerConfig config;
  config.clip_to_shelves = false;
  ParticleInitializer initializer(config, &sensor, &shelves);
  const Pose reader({0.0, 5.0, 0.0}, 0.1);
  Rng a(5), b(5);
  for (int k = 0; k < 1000; ++k) {
    const Vec3 p = initializer.Sample(reader, ReaderFrame::From(reader), a);
    const Vec3 q = ReferenceCone(reader, 1.2 * sensor.MaxRange(),
                                 config.half_angle, b);
    ASSERT_EQ(p, q);
  }
}

}  // namespace
}  // namespace rfid
