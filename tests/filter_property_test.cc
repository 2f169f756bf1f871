// Property tests: invariants of the factored filter that must hold across
// seeds, particle counts and feature combinations (index / compression /
// support weight / resampling scheme).
#include <gtest/gtest.h>

#include <cmath>

#include "pf/factored_filter.h"
#include "test_util.h"

namespace rfid {
namespace {

using testing_util::MakeEpoch;
using testing_util::MakeLineWorld;

struct PropertyParam {
  uint64_t seed;
  int reader_particles;
  int object_particles;
  bool use_index;
  bool use_compression;
  double support_weight;
  ResampleScheme scheme;
};

class FilterPropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  FactoredFilterConfig MakeConfig() const {
    const PropertyParam& p = GetParam();
    FactoredFilterConfig c;
    c.seed = p.seed;
    c.num_reader_particles = p.reader_particles;
    c.num_object_particles = p.object_particles;
    c.use_spatial_index = p.use_index;
    if (p.use_compression) {
      c.compression.compress_after_epochs = 5;
    }
    c.reader_support_weight = p.support_weight;
    c.resample_scheme = p.scheme;
    return c;
  }

  /// Drives a two-object scan (objects at y=2 and y=6) with a long runout.
  void Drive(FactoredParticleFilter* filter) const {
    ConeSensorModel sensor;
    Rng rng(GetParam().seed + 1);
    const Vec3 obj_a{1.5, 2.0, 0.0}, obj_b{1.5, 6.0, 0.0};
    for (int t = 0; t < 160; ++t) {
      const double y = 0.1 * t;
      const Pose pose({0.0, y, 0.0}, 0.0);
      std::vector<TagId> tags;
      if (rng.Bernoulli(sensor.ProbReadAt(pose, obj_a))) tags.push_back(1000);
      if (rng.Bernoulli(sensor.ProbReadAt(pose, obj_b))) tags.push_back(1001);
      if (t % 7 == 0) tags.push_back(1);  // Shelf tag read occasionally.
      filter->ObserveEpoch(MakeEpoch(t, y, tags));
    }
  }
};

TEST_P(FilterPropertyTest, ReaderWeightsFormDistribution) {
  FactoredParticleFilter filter(MakeLineWorld(), MakeConfig());
  Drive(&filter);
  double sum = 0.0;
  for (const auto& r : filter.reader_particles()) {
    EXPECT_GE(r.weight, 0.0);
    EXPECT_TRUE(std::isfinite(r.weight));
    sum += r.weight;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_P(FilterPropertyTest, ObjectWeightsFormDistributions) {
  FactoredParticleFilter filter(MakeLineWorld(), MakeConfig());
  Drive(&filter);
  for (TagId tag : {1000u, 1001u}) {
    const auto* state = filter.FindObject(tag);
    ASSERT_NE(state, nullptr);
    if (state->IsCompressed()) continue;
    double sum = 0.0;
    for (const auto& p : state->particles) {
      EXPECT_GE(p.weight, 0.0);
      EXPECT_LT(p.reader_idx, filter.reader_particles().size());
      sum += p.weight;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST_P(FilterPropertyTest, EstimatesAreFiniteAndPlausible) {
  FactoredParticleFilter filter(MakeLineWorld(), MakeConfig());
  Drive(&filter);
  for (TagId tag : {1000u, 1001u}) {
    const auto est = filter.EstimateObject(tag);
    ASSERT_TRUE(est.has_value());
    EXPECT_TRUE(std::isfinite(est->mean.x));
    EXPECT_TRUE(std::isfinite(est->mean.y));
    EXPECT_GE(est->variance.x, 0.0);
    EXPECT_GE(est->variance.y, 0.0);
    // Within the (generous) vicinity of the shelf area.
    EXPECT_GT(est->mean.x, -6.0);
    EXPECT_LT(est->mean.x, 9.0);
    EXPECT_GT(est->mean.y, -8.0);
    EXPECT_LT(est->mean.y, 18.0);
  }
}

TEST_P(FilterPropertyTest, EstimatesLandNearTruth) {
  FactoredParticleFilter filter(MakeLineWorld(), MakeConfig());
  Drive(&filter);
  const auto est_a = filter.EstimateObject(1000);
  const auto est_b = filter.EstimateObject(1001);
  ASSERT_TRUE(est_a.has_value());
  ASSERT_TRUE(est_b.has_value());
  EXPECT_LT(est_a->mean.DistanceXYTo({1.5, 2.0, 0}), 1.5);
  EXPECT_LT(est_b->mean.DistanceXYTo({1.5, 6.0, 0}), 1.5);
}

TEST_P(FilterPropertyTest, ActivePlusCompressedEqualsTracked) {
  FactoredParticleFilter filter(MakeLineWorld(), MakeConfig());
  Drive(&filter);
  EXPECT_EQ(filter.NumActiveObjects() + filter.NumCompressedObjects(),
            filter.NumTrackedObjects());
}

TEST_P(FilterPropertyTest, DeterministicReplay) {
  FactoredParticleFilter a(MakeLineWorld(), MakeConfig());
  FactoredParticleFilter b(MakeLineWorld(), MakeConfig());
  Drive(&a);
  Drive(&b);
  const auto ea = a.EstimateObject(1000);
  const auto eb = b.EstimateObject(1000);
  ASSERT_TRUE(ea.has_value());
  ASSERT_TRUE(eb.has_value());
  EXPECT_EQ(ea->mean, eb->mean);
  EXPECT_EQ(a.EstimateReader().mean, b.EstimateReader().mean);
}

TEST_P(FilterPropertyTest, MemoryAccountingPositiveAndBounded) {
  FactoredParticleFilter filter(MakeLineWorld(), MakeConfig());
  Drive(&filter);
  const size_t bytes = filter.ApproxMemoryBytes();
  EXPECT_GT(bytes, 0u);
  // Upper bound: every tracked object fully particled plus reader storage.
  // Particle storage is sized to the count, so no dead capacity is allowed.
  const size_t upper =
      filter.NumTrackedObjects() *
          (sizeof(FactoredParticleFilter::ObjectState) +
           static_cast<size_t>(GetParam().object_particles) *
               sizeof(FactoredParticleFilter::ObjectParticle)) +
      2 * static_cast<size_t>(GetParam().reader_particles) *
          sizeof(FactoredParticleFilter::ReaderParticle) +
      4096;
  EXPECT_LE(bytes, upper);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FilterPropertyTest,
    ::testing::Values(
        PropertyParam{1, 50, 200, true, false, 1.0,
                      ResampleScheme::kSystematic},
        PropertyParam{2, 50, 200, false, false, 1.0,
                      ResampleScheme::kSystematic},
        PropertyParam{3, 50, 200, true, true, 1.0,
                      ResampleScheme::kSystematic},
        PropertyParam{4, 20, 100, true, true, 0.0,
                      ResampleScheme::kMultinomial},
        PropertyParam{5, 100, 400, true, false, 0.25,
                      ResampleScheme::kResidual},
        PropertyParam{6, 10, 50, true, true, 1.0,
                      ResampleScheme::kSystematic},
        PropertyParam{7, 50, 200, true, true, 0.5,
                      ResampleScheme::kMultinomial},
        PropertyParam{8, 200, 100, false, false, 1.0,
                      ResampleScheme::kResidual}));

}  // namespace
}  // namespace rfid
