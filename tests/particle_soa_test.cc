// Unit tests for the structure-of-arrays particle store.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pf/particle_soa.h"
#include "util/rng.h"

namespace rfid {
namespace {

TEST(ParticleSoaTest, PushBackAndAccessors) {
  ParticleSoa soa;
  EXPECT_TRUE(soa.empty());
  soa.PushBack({1.0, 2.0, 3.0}, 7, 0.5);
  soa.PushBack({-1.0, 0.0, 4.0}, 2, 0.25);
  ASSERT_EQ(soa.size(), 2u);
  EXPECT_EQ(soa.PositionAt(0), Vec3(1.0, 2.0, 3.0));
  EXPECT_EQ(soa.ReaderIdxAt(1), 2u);
  EXPECT_DOUBLE_EQ(soa.WeightAt(1), 0.25);
  EXPECT_DOUBLE_EQ(soa.xs()[1], -1.0);
  EXPECT_DOUBLE_EQ(soa.ys()[0], 2.0);
  EXPECT_DOUBLE_EQ(soa.zs()[1], 4.0);
}

TEST(ParticleSoaTest, ViewIterationMatchesStorage) {
  ParticleSoa soa;
  soa.PushBack({1, 2, 3}, 5, 0.75);
  soa.PushBack({4, 5, 6}, 9, 0.25);
  size_t k = 0;
  double weight_sum = 0.0;
  for (const auto& p : soa) {  // The tests' historical access pattern.
    EXPECT_EQ(p.position, soa.PositionAt(k));
    EXPECT_EQ(p.reader_idx, soa.ReaderIdxAt(k));
    weight_sum += p.weight;
    ++k;
  }
  EXPECT_EQ(k, 2u);
  EXPECT_DOUBLE_EQ(weight_sum, 1.0);
}

TEST(ParticleSoaTest, MutatorsWriteThrough) {
  ParticleSoa soa;
  soa.PushBack({0, 0, 0}, 0, 1.0);
  soa.SetPosition(0, {7, 8, 9});
  soa.SetReaderIdx(0, 3);
  soa.SetWeight(0, 0.125);
  const ParticleSoa::View p = soa[0];
  EXPECT_EQ(p.position, Vec3(7, 8, 9));
  EXPECT_EQ(p.reader_idx, 3u);
  EXPECT_DOUBLE_EQ(p.weight, 0.125);
}

TEST(ParticleSoaTest, SetUniformWeights) {
  ParticleSoa soa;
  for (int i = 0; i < 4; ++i) soa.PushBack({0, 0, 0}, 0, 0.0);
  soa.SetUniformWeights();
  for (const auto& p : soa) EXPECT_DOUBLE_EQ(p.weight, 0.25);
}

TEST(ParticleSoaTest, ComputeBounds) {
  // ComputeBounds scans each axis in four accumulators (element k feeds
  // accumulator k % 4), folds them, then scans the n % 4 tail. Each size
  // below moves one point past all others, down or up on every axis, into
  // each accumulator of the first and last two groups and into the tail,
  // and compares the box with a sequential Extend loop over the stored
  // (rounded) positions.
  const auto expect_sequential_bounds = [](const std::vector<Vec3>& points) {
    ParticleSoa soa;
    Aabb expected = Aabb::Empty();
    for (const Vec3& p : points) {
      soa.PushBack(p, 0, 1.0);
      expected.Extend(soa.PositionAt(soa.size() - 1));
    }
    const Aabb box = soa.ComputeBounds();
    EXPECT_EQ(box.min, expected.min);
    EXPECT_EQ(box.max, expected.max);
  };
  Rng rng(58);
  for (const size_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 4097}) {
    SCOPED_TRACE(testing::Message() << "n = " << n);
    std::vector<Vec3> points(n);
    // x all positive and y all negative, so neither accumulator can start
    // from 0; z straddles 0.
    for (Vec3& p : points) {
      p = Vec3(rng.Uniform(10.0, 60.0), rng.Uniform(-60.0, -10.0),
               rng.Uniform(-5.0, 5.0));
    }
    expect_sequential_bounds(points);
    for (size_t at = 0; at < n; ++at) {
      if (at >= 8 && at + 8 < n) continue;
      SCOPED_TRACE(testing::Message() << "extreme at " << at);
      for (const double extreme : {-1e3, 1e3}) {
        std::vector<Vec3> moved = points;
        moved[at] = Vec3(extreme, 2.0 * extreme, 0.5 * extreme);
        expect_sequential_bounds(moved);
      }
    }
  }
}

TEST(ParticleSoaTest, GatherFromPreservesReaderPointers) {
  ParticleSoa src;
  src.PushBack({0, 0, 0}, 10, 0.1);
  src.PushBack({1, 1, 1}, 11, 0.2);
  src.PushBack({2, 2, 2}, 12, 0.7);
  ParticleSoa dst;
  dst.GatherFrom(src, {2, 2, 0, 1}, 0.25);
  ASSERT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.PositionAt(0), Vec3(2, 2, 2));
  EXPECT_EQ(dst.ReaderIdxAt(0), 12u);
  EXPECT_EQ(dst.ReaderIdxAt(2), 10u);
  EXPECT_EQ(dst.ReaderIdxAt(3), 11u);
  for (const auto& p : dst) EXPECT_DOUBLE_EQ(p.weight, 0.25);
}

TEST(ParticleSoaTest, GatherFromLeavesExactCapacity) {
  // Whatever the target held before, a gather leaves the same contents in
  // storage of exactly ancestors.size() particles; a target already of that
  // capacity keeps its arrays (a fixed-budget resample allocates nothing).
  ParticleSoa src;
  for (uint32_t k = 0; k < 10; ++k) {
    src.PushBack({0.5 * k, 1.0 + k, 0.25}, 100 + k, 0.1);
  }
  const std::vector<uint32_t> ancestors = {9, 3, 3, 0, 7, 7, 7};
  ParticleSoa expected;
  expected.GatherFrom(src, ancestors, 1.0 / 7.0);
  ASSERT_EQ(expected.CapacityParticles(), ancestors.size());

  for (const size_t capacity : {size_t{0}, size_t{3}, size_t{7}, size_t{40}}) {
    SCOPED_TRACE(testing::Message() << "target capacity " << capacity);
    ParticleSoa dst;
    dst.Reset(capacity);
    for (size_t k = 0; k < capacity; ++k) dst.PushBack({9, 9, 9}, 1, 1.0);
    ASSERT_EQ(dst.CapacityParticles(), capacity);
    const ParticleCoord* before = dst.xs();
    dst.GatherFrom(src, ancestors, 1.0 / 7.0);
    EXPECT_EQ(dst.CapacityParticles(), ancestors.size());
    EXPECT_EQ(dst.ApproxMemoryBytes(), 24 * ancestors.size());
    if (capacity == ancestors.size()) {
      EXPECT_EQ(dst.xs(), before);
    }
    ASSERT_EQ(dst.size(), expected.size());
    for (size_t k = 0; k < dst.size(); ++k) {
      EXPECT_EQ(dst.PositionAt(k), expected.PositionAt(k));
      EXPECT_EQ(dst.ReaderIdxAt(k), expected.ReaderIdxAt(k));
      EXPECT_EQ(dst.WeightAt(k), expected.WeightAt(k));
    }
  }
}

TEST(ParticleSoaTest, PositionsRoundOnceAndStoreBackExactly) {
  // PushBack and SetPosition round to ParticleCoord; a position read back
  // with PositionAt (widened exactly) stores back bit for bit, which keeps
  // unmoved particles exact copies of each other.
  const Vec3 p{1.0 / 3.0, -1000.1, 1e-7};
  // The nearest floats, as float literals: a cast of p's coordinates kept
  // in registers is what GCC 12's SLP vectorizer can drop (see
  // particle_soa.h).
  const Vec3 rounded(1.0f / 3.0f, -1000.1f, 1e-7f);
  ASSERT_FALSE(rounded == p);
  ParticleSoa soa;
  soa.PushBack(p, 0, 1.0);
  const Vec3 stored = soa.PositionAt(0);
  EXPECT_EQ(stored, rounded);
  // Rounding to nearest moves a coordinate by at most half a float ulp:
  // under 3.1e-5 ft anywhere below 1,024 ft.
  EXPECT_LE(std::abs(stored.y - p.y), 3.1e-5);
  soa.SetPosition(0, stored);
  EXPECT_EQ(soa.PositionAt(0), stored);
  soa.SetPosition(0, p);
  EXPECT_EQ(soa.PositionAt(0), stored);
}

TEST(ParticleSoaTest, ApproxMemoryIs24BytesPerParticle) {
  // x, y, z at 4 bytes, the weight at 8 and the reader index at 4: the
  // store's footprint, which a return to double positions (36 bytes) would
  // grow by half.
  ParticleSoa soa;
  for (size_t n : {1, 7, 1000}) {
    soa.Reset(n);
    for (size_t k = 0; k < n; ++k) soa.PushBack({1, 2, 3}, 0, 1.0);
    ASSERT_EQ(soa.CapacityParticles(), n);
    EXPECT_EQ(soa.ApproxMemoryBytes(), 24 * n) << n << " particles";
  }
}

TEST(ParticleSoaTest, ResetSizesStorageExactly) {
  ParticleSoa soa;
  for (int i = 0; i < 1000; ++i) soa.PushBack({0, 0, 0}, 0, 0.001);
  EXPECT_GT(soa.ApproxMemoryBytes(), 0u);
  // Smaller and larger requests both land on exactly the asked capacity.
  soa.Reset(300);
  EXPECT_TRUE(soa.empty());
  EXPECT_EQ(soa.CapacityParticles(), 300u);
  soa.Reset(2000);
  EXPECT_EQ(soa.CapacityParticles(), 2000u);
  // The same capacity keeps the arrays.
  for (int i = 0; i < 5; ++i) soa.PushBack({0, 0, 0}, 0, 0.2);
  const double* before = soa.weights();
  soa.Reset(2000);
  EXPECT_TRUE(soa.empty());
  EXPECT_EQ(soa.weights(), before);
  // Reset(0) frees everything.
  soa.Reset(0);
  EXPECT_EQ(soa.ApproxMemoryBytes(), 0u);
}

}  // namespace
}  // namespace rfid
