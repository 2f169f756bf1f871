// Adaptive inference scheduling: elastic per-object particle budgets and
// the idle-tag hibernation tier.
//
// Contracts under test:
//  * budgets shrink toward min_object_particles as a posterior settles and
//    never leave [min_object_particles, num_object_particles];
//  * elastic + hibernation stay bit-identical across thread counts at a
//    fixed seed (the resize and the collapse both run off per-slot streams
//    or the serial section);
//  * a hibernated tag leaves the sweep, revives on its next reading, and
//    the revived estimate lands where the always-full-budget run does;
//  * on the lab trace, elastic + hibernation match the full-budget
//    baseline's accuracy to a few percent;
//  * the sensing index skips entries whose slots are all hibernated, which
//    also skips the negative-evidence revive roll: a parked tag that moved
//    stays frozen where it was until it is read again, then re-converges.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/experiment.h"
#include "model/spherical_sensor.h"
#include "pf/factored_filter.h"
#include "sim/lab.h"
#include "test_util.h"

namespace rfid {
namespace {

using testing_util::MakeEpoch;
using testing_util::MakeLineWorld;

constexpr TagId kTagA = 1000;
constexpr TagId kTagB = 1001;
const Vec3 kObjA{1.5, 2.0, 0.0};
const Vec3 kObjB{1.5, 8.0, 0.0};

FactoredFilterConfig ElasticConfig() {
  FactoredFilterConfig c;
  c.num_reader_particles = 30;
  c.num_object_particles = 200;
  c.min_object_particles = 40;
  c.seed = 4242;
  return c;
}

/// Reader oscillates around y = `center` for `epochs` steps, reading tags
/// by their true read probability (tag A at `obj_a`); `rng` drives the
/// readings so interleaved phases stay reproducible.
void Loiter(FactoredParticleFilter* filter, ConeSensorModel* sensor, Rng* rng,
            double center, int epochs, int* step, const Vec3& obj_a = kObjA) {
  for (int i = 0; i < epochs; ++i, ++(*step)) {
    const double y = center + 0.3 * std::sin(0.4 * i);
    const Pose pose({0.0, y, 0.0}, 0.0);
    std::vector<TagId> tags;
    if (rng->Bernoulli(sensor->ProbReadAt(pose, obj_a))) tags.push_back(kTagA);
    if (rng->Bernoulli(sensor->ProbReadAt(pose, kObjB))) tags.push_back(kTagB);
    filter->ObserveEpoch(MakeEpoch(*step, y, tags));
  }
}

TEST(ElasticBudgetTest, SettledTagShrinksWithinBounds) {
  FactoredParticleFilter filter(MakeLineWorld(), ElasticConfig());
  ConeSensorModel sensor;
  Rng rng(5);
  int step = 0;
  Loiter(&filter, &sensor, &rng, kObjA.y, 80, &step);

  const auto* state = filter.FindObject(kTagA);
  ASSERT_NE(state, nullptr);
  ASSERT_FALSE(state->IsCompressed());
  // 80 epochs of repeated reads from nearby poses collapse the posterior
  // well below the full-budget spread scale, so the budget must have left
  // the full count — and must respect both bounds.
  EXPECT_LT(state->particles.size(), 200u);
  EXPECT_GE(state->particles.size(), 40u);

  // The estimate still tracks truth with the reduced budget.
  const auto est = filter.EstimateObject(kTagA);
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->mean.DistanceXYTo(kObjA), 1.0);
}

TEST(ElasticBudgetTest, FreshTagRespectsBoundsAndConverges) {
  FactoredParticleFilter filter(MakeLineWorld(), ElasticConfig());
  filter.ObserveEpoch(MakeEpoch(0, kObjA.y, {kTagA}));
  const auto* state = filter.FindObject(kTagA);
  ASSERT_NE(state, nullptr);
  // Initialization happens at the full budget; the first update may already
  // shrink (one reading from a close pose genuinely concentrates the
  // posterior), but never below the floor or above the cap.
  EXPECT_GE(state->particles.size(), 40u);
  EXPECT_LE(state->particles.size(), 200u);
}

std::unique_ptr<FactoredParticleFilter> RunLabElastic(
    const LabDeployment& lab, int num_threads, size_t max_epochs,
    bool elastic, bool hibernate) {
  ExperimentModelOptions options;
  options.motion.delta = {};
  options.motion.sigma = {0.05, 0.15, 0.0};
  options.sensing.sigma = {0.3, 0.3, 0.0};

  FactoredFilterConfig config;
  config.num_reader_particles = 40;
  config.num_object_particles = 200;
  config.seed = 77;
  config.num_threads = num_threads;
  config.init.half_angle = M_PI;
  if (elastic) config.min_object_particles = 32;
  if (hibernate) {
    config.compression.compress_after_epochs = 6;
    config.compression.hibernate_after_epochs = 25;
  }

  auto filter = std::make_unique<FactoredParticleFilter>(
      MakeWorldModel(lab.shelf_boxes, lab.shelf_tags,
                     std::make_unique<SphericalSensorModel>(lab.sensor),
                     options),
      config);
  size_t fed = 0;
  for (const SimEpoch& e : lab.trace.epochs) {
    if (fed++ >= max_epochs) break;
    filter->ObserveEpoch(e.observations);
  }
  return filter;
}

TEST(ElasticBudgetTest, DeterministicAcrossThreadCountsWithHibernation) {
  LabConfig lc;
  lc.seed = 910;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  ASSERT_GE(lab.value().trace.epochs.size(), 200u);

  const auto serial = RunLabElastic(lab.value(), 1, 200, /*elastic=*/true,
                                    /*hibernate=*/true);
  const auto parallel = RunLabElastic(lab.value(), 4, 200, /*elastic=*/true,
                                      /*hibernate=*/true);
  EXPECT_GT(serial->NumHibernatedObjects(), 0u);
  EXPECT_EQ(serial->NumHibernatedObjects(), parallel->NumHibernatedObjects());
  EXPECT_EQ(serial->NumCompressedObjects(), parallel->NumCompressedObjects());
  EXPECT_EQ(serial->NumActiveObjects(), parallel->NumActiveObjects());
  EXPECT_EQ(serial->particle_updates(), parallel->particle_updates());

  size_t compared = 0;
  for (const ObjectPlacement& o : lab.value().objects) {
    const auto ea = serial->EstimateObject(o.tag);
    const auto eb = parallel->EstimateObject(o.tag);
    ASSERT_EQ(ea.has_value(), eb.has_value()) << "tag " << o.tag;
    if (!ea.has_value()) continue;
    EXPECT_EQ(ea->mean, eb->mean) << "tag " << o.tag;
    EXPECT_EQ(ea->variance, eb->variance) << "tag " << o.tag;
    EXPECT_EQ(ea->support, eb->support) << "tag " << o.tag;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST(ElasticBudgetTest, ElasticAccuracyTracksFullBudgetOnLabTrace) {
  LabConfig lc;
  lc.seed = 911;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());

  const auto full = RunLabElastic(lab.value(), 1, 200, /*elastic=*/false,
                                  /*hibernate=*/false);
  const auto elastic = RunLabElastic(lab.value(), 1, 200, /*elastic=*/true,
                                     /*hibernate=*/true);

  ErrorStats full_err, elastic_err;
  for (const ObjectPlacement& o : lab.value().objects) {
    const auto ef = full->EstimateObject(o.tag);
    const auto ee = elastic->EstimateObject(o.tag);
    if (!ef.has_value() || !ee.has_value()) continue;
    full_err.Add(ef->mean, o.position);
    elastic_err.Add(ee->mean, o.position);
  }
  ASSERT_GT(full_err.count(), 10u);
  // Same tag set was scored for both; elastic may not degrade the paper's
  // headline metric by more than a few percent (plus a small absolute
  // allowance for the noise floor of a single 200-epoch run).
  EXPECT_LE(elastic_err.MeanXY(), full_err.MeanXY() * 1.10 + 0.05)
      << "elastic " << elastic_err.MeanXY() << " vs full "
      << full_err.MeanXY();
}

TEST(ElasticBudgetTest, HibernateThenReviveRoundTrip) {
  FactoredFilterConfig config = ElasticConfig();
  config.compression.hibernate_after_epochs = 12;
  FactoredParticleFilter filter(MakeLineWorld(), config);
  ConeSensorModel sensor;
  Rng rng(9);
  int step = 0;

  // Learn tag A, then walk far away (B's neighbourhood) long enough for A
  // to pass the hibernation horizon.
  Loiter(&filter, &sensor, &rng, kObjA.y, 30, &step);
  ASSERT_NE(filter.FindObject(kTagA), nullptr);
  const auto before = filter.EstimateObject(kTagA);
  ASSERT_TRUE(before.has_value());

  Loiter(&filter, &sensor, &rng, kObjB.y, 40, &step);
  const auto* state = filter.FindObject(kTagA);
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->hibernated);
  EXPECT_TRUE(state->IsCompressed());
  EXPECT_TRUE(state->particles.empty());
  EXPECT_EQ(filter.NumHibernatedObjects(), 1u);

  // The summary still answers queries while hibernated.
  const auto during = filter.EstimateObject(kTagA);
  ASSERT_TRUE(during.has_value());
  EXPECT_LT(during->mean.DistanceXYTo(kObjA), 1.5);

  // Coming back and reading the tag revives it through the decompression
  // path, and the estimate re-converges onto truth.
  Loiter(&filter, &sensor, &rng, kObjA.y, 30, &step);
  ASSERT_FALSE(filter.FindObject(kTagA)->hibernated);
  EXPECT_FALSE(filter.FindObject(kTagA)->particles.empty());
  const auto after = filter.EstimateObject(kTagA);
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(after->mean.DistanceXYTo(kObjA), 1.0);
}

TEST(ElasticBudgetTest, HibernatedTagIsSkippedByTheSweep) {
  FactoredFilterConfig config = ElasticConfig();
  config.compression.hibernate_after_epochs = 10;
  FactoredParticleFilter filter(MakeLineWorld(), config);
  ConeSensorModel sensor;
  Rng rng(13);
  int step = 0;
  Loiter(&filter, &sensor, &rng, kObjA.y, 20, &step);
  Loiter(&filter, &sensor, &rng, kObjB.y, 25, &step);
  ASSERT_EQ(filter.NumHibernatedObjects(), 1u);

  // Once hibernated, epochs elsewhere cost the tag nothing: the counter of
  // weighted particles only moves for the active tag.
  const uint64_t updates_at_hibernate = filter.particle_updates();
  const auto summary = filter.EstimateObject(kTagA);
  Loiter(&filter, &sensor, &rng, kObjB.y, 25, &step);
  const auto* state = filter.FindObject(kTagA);
  ASSERT_TRUE(state->hibernated);
  // The hibernated belief is frozen bit-for-bit.
  const auto still = filter.EstimateObject(kTagA);
  ASSERT_TRUE(summary.has_value() && still.has_value());
  EXPECT_EQ(summary->mean, still->mean);
  EXPECT_EQ(summary->variance, still->variance);
  EXPECT_GT(filter.particle_updates(), updates_at_hibernate);
}

/// One run of the moved-while-parked scenario: A is learned at y = 2 and
/// hibernates while the reader works near B; A then moves to y = 5 and the
/// reader parks at A's old spot for 30 epochs. `frozen` reports whether A
/// stayed hibernated with its summary unchanged bit for bit through the
/// parked phase, and `strong_miss` whether the parked reader's read
/// probability at the summary mean reached the hibernated revive gate
/// (0.5), i.e. whether a probe of A's index entry would have revived it.
/// Then the reader loiters at y = 5 and A is read again.
struct MovedWhileParked {
  std::unique_ptr<FactoredParticleFilter> filter;
  bool frozen = false;
  bool strong_miss = false;
};

MovedWhileParked RunMovedWhileParked(int num_threads) {
  FactoredFilterConfig config = ElasticConfig();
  config.compression.hibernate_after_epochs = 12;
  config.num_threads = num_threads;
  MovedWhileParked run;
  run.filter = std::make_unique<FactoredParticleFilter>(MakeLineWorld(),
                                                        config);
  FactoredParticleFilter& filter = *run.filter;
  ConeSensorModel sensor;
  Rng rng(21);
  int step = 0;
  Loiter(&filter, &sensor, &rng, kObjA.y, 30, &step);
  Loiter(&filter, &sensor, &rng, kObjB.y, 40, &step);
  const auto parked = filter.EstimateObject(kTagA);
  if (!filter.FindObject(kTagA)->hibernated || !parked.has_value()) {
    return run;
  }
  const Vec3 moved{1.5, 5.0, 0.0};
  run.strong_miss = sensor.ProbReadAt(Pose({0.0, kObjA.y, 0.0}, 0.0),
                                      parked->mean) >= 0.5;
  Loiter(&filter, &sensor, &rng, kObjA.y, 30, &step, moved);
  const auto still = filter.EstimateObject(kTagA);
  run.frozen = filter.FindObject(kTagA)->hibernated && still.has_value() &&
               still->mean == parked->mean &&
               still->variance == parked->variance;
  Loiter(&filter, &sensor, &rng, moved.y, 30, &step, moved);
  return run;
}

TEST(ElasticBudgetTest, AllHibernatedEntrySkipFreezesAMovedTagUntilRead) {
  const MovedWhileParked serial = RunMovedWhileParked(1);
  // The miss at A's old spot is strong evidence, yet the probe skips the
  // entry (every slot in it is hibernated), so the revive roll never runs:
  // that is the skip's cost, and the tag stays frozen where it was.
  EXPECT_TRUE(serial.strong_miss);
  EXPECT_TRUE(serial.frozen);
  // Read again at its new spot, A revives through Case 1 and re-converges.
  const auto* state = serial.filter->FindObject(kTagA);
  ASSERT_NE(state, nullptr);
  EXPECT_FALSE(state->hibernated);
  const auto estimate = serial.filter->EstimateObject(kTagA);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_LT(estimate->mean.DistanceXYTo({1.5, 5.0, 0.0}), 1.0);

  const MovedWhileParked parallel = RunMovedWhileParked(4);
  EXPECT_EQ(parallel.strong_miss, serial.strong_miss);
  EXPECT_EQ(parallel.frozen, serial.frozen);
  EXPECT_EQ(parallel.filter->particle_updates(),
            serial.filter->particle_updates());
  for (const TagId tag : {kTagA, kTagB}) {
    const auto a = serial.filter->EstimateObject(tag);
    const auto b = parallel.filter->EstimateObject(tag);
    ASSERT_TRUE(a.has_value() && b.has_value()) << "tag " << tag;
    EXPECT_EQ(a->mean, b->mean) << "tag " << tag;
    EXPECT_EQ(a->variance, b->variance) << "tag " << tag;
  }
}

}  // namespace
}  // namespace rfid
