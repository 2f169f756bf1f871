// The determinism contract of the parallel per-object updates: at a fixed
// seed, estimates are bit-identical at any num_threads, because every object
// update draws from a private RNG stream keyed by (seed, slot, step) rather
// than from the shared generator, and the thread pool only changes *where*
// a slot runs, never *what* it computes.
#include <gtest/gtest.h>

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

/// Runs the factored filter over the first `max_epochs` epochs of a lab
/// trace at the given thread count and returns it for inspection.
std::unique_ptr<FactoredParticleFilter> RunLabTrace(const LabDeployment& lab,
                                                    int num_threads,
                                                    bool compression,
                                                    size_t max_epochs) {
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
  if (compression) {
    config.compression.compress_after_epochs = 6;
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

void ExpectIdenticalEstimates(const FactoredParticleFilter& a,
                              const FactoredParticleFilter& b,
                              const std::vector<ObjectPlacement>& objects) {
  const ReaderEstimate ra = a.EstimateReader();
  const ReaderEstimate rb = b.EstimateReader();
  EXPECT_EQ(ra.mean, rb.mean);
  EXPECT_EQ(ra.variance, rb.variance);
  EXPECT_EQ(ra.heading, rb.heading);

  size_t compared = 0;
  for (const ObjectPlacement& o : objects) {
    const auto ea = a.EstimateObject(o.tag);
    const auto eb = b.EstimateObject(o.tag);
    ASSERT_EQ(ea.has_value(), eb.has_value()) << "tag " << o.tag;
    if (!ea.has_value()) continue;
    // Bit-identical, not approximately equal: Vec3::operator== is exact.
    EXPECT_EQ(ea->mean, eb->mean) << "tag " << o.tag;
    EXPECT_EQ(ea->variance, eb->variance) << "tag " << o.tag;
    EXPECT_EQ(ea->support, eb->support) << "tag " << o.tag;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST(ParallelDeterminismTest, LabTrace200EpochsThreads1Vs4) {
  LabConfig lc;
  lc.seed = 900;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  ASSERT_GE(lab.value().trace.epochs.size(), 200u);

  const auto serial = RunLabTrace(lab.value(), 1, /*compression=*/false, 200);
  const auto parallel = RunLabTrace(lab.value(), 4, /*compression=*/false, 200);
  EXPECT_EQ(serial->current_step(), 200);
  ExpectIdenticalEstimates(*serial, *parallel, lab.value().objects);
  // Both runs weighted the same total number of particles.
  EXPECT_EQ(serial->particle_updates(), parallel->particle_updates());
}

TEST(ParallelDeterminismTest, LabTraceWithCompressionThreads1Vs4) {
  // Compression + decompression exercise the serial/parallel boundary (the
  // revive decisions run serially, the updates fan out).
  LabConfig lc;
  lc.seed = 901;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());

  const auto serial = RunLabTrace(lab.value(), 1, /*compression=*/true, 200);
  const auto parallel = RunLabTrace(lab.value(), 4, /*compression=*/true, 200);
  EXPECT_EQ(serial->NumCompressedObjects(), parallel->NumCompressedObjects());
  ExpectIdenticalEstimates(*serial, *parallel, lab.value().objects);
}

TEST(ParallelDeterminismTest, ThreadCountsTwoAndEightAgreeOnLineWorld) {
  // Denser thread matrix on the cheap scripted world: 1, 2, 3, 8 must agree
  // even when lanes outnumber objects.
  auto run = [](int threads) {
    FactoredFilterConfig c;
    c.num_reader_particles = 30;
    c.num_object_particles = 150;
    c.seed = 13;
    c.num_threads = threads;
    auto filter =
        std::make_unique<FactoredParticleFilter>(MakeLineWorld(), c);
    ConeSensorModel sensor;
    Rng rng(99);
    const Vec3 obj_a{1.5, 2.0, 0.0}, obj_b{1.5, 6.0, 0.0};
    for (int t = 0; t < 120; ++t) {
      const double y = 0.1 * t;
      const Pose pose({0.0, y, 0.0}, 0.0);
      std::vector<TagId> tags;
      if (rng.Bernoulli(sensor.ProbReadAt(pose, obj_a))) tags.push_back(1000);
      if (rng.Bernoulli(sensor.ProbReadAt(pose, obj_b))) tags.push_back(1001);
      filter->ObserveEpoch(MakeEpoch(t, y, tags));
    }
    return filter;
  };
  const auto reference = run(1);
  for (int threads : {2, 3, 8}) {
    const auto other = run(threads);
    for (TagId tag : {1000u, 1001u}) {
      const auto ea = reference->EstimateObject(tag);
      const auto eb = other->EstimateObject(tag);
      ASSERT_TRUE(ea.has_value());
      ASSERT_TRUE(eb.has_value());
      EXPECT_EQ(ea->mean, eb->mean) << "threads=" << threads;
      EXPECT_EQ(ea->variance, eb->variance) << "threads=" << threads;
    }
    EXPECT_EQ(reference->EstimateReader().mean, other->EstimateReader().mean)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, SchedulerSweepBitIdentical) {
  // The work-stealing scheduler's whole contract: which lane claims which
  // chunk is a race, but the estimates cannot be. Every thread count —
  // including more lanes than cores and more lanes than hot objects — must
  // reproduce the single-threaded reference bit for bit, with compression
  // in play.
  LabConfig lc;
  lc.seed = 903;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  ASSERT_GE(lab.value().trace.epochs.size(), 200u);

  const auto reference = RunLabTrace(lab.value(), 1, /*compression=*/true, 200);
  for (int threads : {2, 3, 4, 8}) {
    const auto run =
        RunLabTrace(lab.value(), threads, /*compression=*/true, 200);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdenticalEstimates(*reference, *run, lab.value().objects);
    EXPECT_EQ(reference->particle_updates(), run->particle_updates());
    EXPECT_EQ(reference->NumCompressedObjects(), run->NumCompressedObjects());
  }
}

TEST(ParallelDeterminismTest, EngineEventStreamIdenticalAcrossSchedules) {
  // End-to-end: the emitted event stream (what subscribers actually see),
  // not just the belief estimates, must be byte-for-byte stable across
  // thread counts.
  LabConfig lc;
  lc.seed = 905;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());

  auto run = [&lab](int threads) {
    EngineConfig c;
    c.factored.num_reader_particles = 40;
    c.factored.num_object_particles = 200;
    c.factored.seed = 42;
    c.factored.num_threads = threads;
    c.factored.init.half_angle = M_PI;
    c.factored.compression.compress_after_epochs = 6;
    c.emitter.delay_seconds = 2.0;
    auto engine = RfidInferenceEngine::Create(
        MakeWorldModel(lab.value().shelf_boxes, lab.value().shelf_tags,
                       std::make_unique<SphericalSensorModel>(
                           lab.value().sensor),
                       [] {
                         ExperimentModelOptions options;
                         options.motion.delta = {};
                         options.motion.sigma = {0.05, 0.15, 0.0};
                         options.sensing.sigma = {0.3, 0.3, 0.0};
                         return options;
                       }()),
        c);
    EXPECT_TRUE(engine.ok());
    std::vector<LocationEvent> events;
    size_t fed = 0;
    for (const SimEpoch& e : lab.value().trace.epochs) {
      if (fed++ >= 200) break;
      engine.value()->ProcessEpoch(e.observations);
      for (const LocationEvent& ev : engine.value()->TakeEvents()) {
        events.push_back(ev);
      }
    }
    return events;
  };

  const std::vector<LocationEvent> reference = run(/*threads=*/1);
  EXPECT_GT(reference.size(), 0u);
  for (int threads : {4, 8}) {
    const std::vector<LocationEvent> events = run(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(reference.size(), events.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].time, events[i].time) << "event " << i;
      EXPECT_EQ(reference[i].tag, events[i].tag) << "event " << i;
      EXPECT_EQ(reference[i].location, events[i].location) << "event " << i;
      ASSERT_EQ(reference[i].stats.has_value(), events[i].stats.has_value());
      if (reference[i].stats.has_value()) {
        EXPECT_EQ(reference[i].stats->variance, events[i].stats->variance);
        EXPECT_EQ(reference[i].stats->rmse_radius, events[i].stats->rmse_radius);
        EXPECT_EQ(reference[i].stats->support, events[i].stats->support);
      }
    }
  }
}

}  // namespace
}  // namespace rfid
