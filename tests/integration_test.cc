// Cross-module integration tests: full simulator -> engine pipelines,
// filter-variant accuracy comparisons, baseline comparisons, and the
// end-to-end query pipeline.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.h"
#include "learn/em.h"
#include "model/cone_sensor.h"
#include "sim/lab.h"
#include "stream/colocation.h"
#include "stream/query.h"

namespace rfid {
namespace {

struct SmallSim {
  WarehouseLayout layout;
  SimulatedTrace trace;
};

SmallSim MakeSmallSim(uint64_t seed, int objects_per_shelf = 8,
                      double read_rate = 1.0) {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 8.0;
  wc.objects_per_shelf = objects_per_shelf;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  EXPECT_TRUE(layout.ok());
  ConeSensorParams cp;
  cp.major_read_rate = read_rate;
  ConeSensorModel sensor(cp);
  TraceGenerator gen(layout.value(), RobotConfig{}, {}, sensor, seed);
  return {layout.value(), gen.Generate()};
}

EngineConfig FastConfig() {
  EngineConfig c;
  c.factored.num_reader_particles = 50;
  c.factored.num_object_particles = 300;
  c.factored.seed = 5;
  return c;
}

TEST(IntegrationTest, FactoredEngineBeatsHalfFootOnCleanSim) {
  SmallSim sim = MakeSmallSim(1);
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(sim.layout, std::make_unique<ConeSensorModel>()),
      FastConfig());
  ASSERT_TRUE(engine.ok());
  const TraceEvaluation eval = RunEngineOnTrace(engine.value().get(),
                                                sim.trace);
  EXPECT_EQ(eval.objects_missing, 0u);
  EXPECT_LT(eval.errors.MeanXY(), 0.7);
}

TEST(IntegrationTest, InferenceBeatsUniformBaseline) {
  SmallSim sim = MakeSmallSim(2);
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(sim.layout, std::make_unique<ConeSensorModel>()),
      FastConfig());
  ASSERT_TRUE(engine.ok());
  const auto ours = RunEngineOnTrace(engine.value().get(), sim.trace);

  ConeSensorModel sensor;
  UniformBaseline uniform({}, &sensor, sim.layout.MakeShelfRegions());
  const auto base = RunUniformOnTrace(&uniform, sim.trace);
  EXPECT_LT(ours.errors.MeanXY(), base.errors.MeanXY());
}

TEST(IntegrationTest, InferenceBeatsSmurfWithReaderLocationNoise) {
  // The paper's headline comparison: with systematic reader-location error,
  // SMURF cannot correct the bias but the probabilistic engine can.
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 8.0;
  wc.objects_per_shelf = 8;
  wc.shelf_tags_per_shelf = 3;
  auto layout = BuildWarehouse(wc);
  ASSERT_TRUE(layout.ok());
  RobotConfig robot;
  robot.sensing_noise.mu = {0.0, 0.6, 0.0};  // Systematic drift.
  robot.sensing_noise.sigma = {0.05, 0.05, 0.0};
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), robot, {}, sensor, 3);
  const SimulatedTrace trace = gen.Generate();

  ExperimentModelOptions options;
  options.motion.delta = {0.0, 0.1, 0.0};
  options.motion.sigma = {0.03, 0.03, 0.0};
  options.sensing.mu = {0.0, 0.6, 0.0};  // Engine knows the bias model.
  options.sensing.sigma = {0.05, 0.05, 0.0};
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(layout.value(), std::make_unique<ConeSensorModel>(),
                     options),
      FastConfig());
  ASSERT_TRUE(engine.ok());
  const auto ours = RunEngineOnTrace(engine.value().get(), trace);

  SmurfBaseline smurf(SmurfConfig{}, &sensor,
                      layout.value().MakeShelfRegions());
  const auto theirs = RunSmurfOnTrace(&smurf, trace);
  ASSERT_GT(theirs.objects_evaluated, 0u);
  EXPECT_LT(ours.errors.MeanXY(), theirs.errors.MeanXY());
}

TEST(IntegrationTest, AllFactoredVariantsReachSimilarAccuracy) {
  SmallSim sim = MakeSmallSim(4);
  auto run_variant = [&](bool index, bool compression) {
    EngineConfig c = FastConfig();
    c.factored.use_spatial_index = index;
    if (compression) {
      c.factored.compression.compress_after_epochs = 8;
    }
    auto engine = RfidInferenceEngine::Create(
        MakeWorldModel(sim.layout, std::make_unique<ConeSensorModel>()), c);
    EXPECT_TRUE(engine.ok());
    return RunEngineOnTrace(engine.value().get(), sim.trace).errors.MeanXY();
  };
  const double plain = run_variant(false, false);
  const double indexed = run_variant(true, false);
  const double compressed = run_variant(true, true);
  EXPECT_LT(plain, 0.8);
  EXPECT_LT(indexed, 0.8);
  EXPECT_LT(compressed, 0.8);
}

TEST(IntegrationTest, SpatialIndexReducesProcessingTime) {
  SmallSim sim = MakeSmallSim(5, /*objects_per_shelf=*/30);
  auto particle_updates = [&](bool index) {
    EngineConfig c = FastConfig();
    c.factored.use_spatial_index = index;
    auto engine = RfidInferenceEngine::Create(
        MakeWorldModel(sim.layout, std::make_unique<ConeSensorModel>()), c);
    EXPECT_TRUE(engine.ok());
    RunEngineOnTrace(engine.value().get(), sim.trace);
    return dynamic_cast<const FactoredParticleFilter&>(
               engine.value()->filter())
        .particle_updates();
  };
  // With 60 objects the index already skips much of the work. The filter's
  // exact count of particle weightings measures that work on any host and
  // under any load, which wall-clock times of millisecond runs do not.
  const uint64_t indexed = particle_updates(true);
  const uint64_t plain = particle_updates(false);
  EXPECT_GT(indexed, 0u);
  EXPECT_LE(static_cast<double>(indexed), 0.75 * static_cast<double>(plain));
}

TEST(IntegrationTest, RobustToFiftyPercentReadRate) {
  SmallSim sim = MakeSmallSim(6, 8, /*read_rate=*/0.5);
  // The engine's model carries the (calibrated) 50% major read rate, as in
  // Fig. 5(f) where the model tracks the deployment's actual noise level.
  ConeSensorParams cp;
  cp.major_read_rate = 0.5;
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(sim.layout, std::make_unique<ConeSensorModel>(cp)),
      FastConfig());
  ASSERT_TRUE(engine.ok());
  const auto eval = RunEngineOnTrace(engine.value().get(), sim.trace);
  // Accuracy degrades gracefully (paper Fig. 5(f)).
  EXPECT_LT(eval.errors.MeanXY(), 1.0);
}

TEST(IntegrationTest, LabScenarioEndToEnd) {
  LabConfig lc;
  lc.timeout_ms = 500;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());

  ExperimentModelOptions options;
  options.motion.delta = {};  // Random walk: the robot reverses mid-run.
  options.motion.sigma = {0.05, 0.15, 0.0};
  options.sensing.sigma = {0.3, 0.3, 0.0};  // Tolerate dead-reckoning drift.
  options.motion.heading_sigma = 0.2;       // The robot turns around mid-run.
  options.sensing.heading_sigma = 0.1;      // Dead reckoning reports heading.
  EngineConfig c = FastConfig();
  // The spherical antenna reads all around the reader: initialize particles
  // on a disc instead of a forward cone. Damp the object-support feedback in
  // reader resampling: under systematic dead-reckoning drift, stale object
  // posteriors would otherwise drag the reader estimate backwards.
  c.factored.init.half_angle = M_PI;
  c.factored.reader_support_weight = 0.1;
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(lab.value().shelf_boxes, lab.value().shelf_tags,
                     std::make_unique<SphericalSensorModel>(
                         lab.value().sensor),
                     options),
      c);
  ASSERT_TRUE(engine.ok());
  const auto eval = RunEngineOnTrace(engine.value().get(), lab.value().trace);
  EXPECT_GT(eval.objects_evaluated, 70u);
  EXPECT_LT(eval.errors.MeanXY(), 1.2);  // Paper: ~0.4-0.5 ft.
}

TEST(IntegrationTest, QueriesRunOverEngineEvents) {
  SmallSim sim = MakeSmallSim(7);
  EngineConfig c = FastConfig();
  c.emitter.delay_seconds = 10.0;
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(sim.layout, std::make_unique<ConeSensorModel>()), c);
  ASSERT_TRUE(engine.ok());

  LocationUpdateQuery update_query(0.1);
  FireCodeQuery fire_query(5.0, 200.0, [](TagId) { return 80.0; });
  size_t updates = 0, alerts = 0;
  for (const SimEpoch& epoch : sim.trace.epochs) {
    engine.value()->ProcessEpoch(epoch.observations);
    for (const LocationEvent& e : engine.value()->TakeEvents()) {
      if (update_query.Process(e).has_value()) ++updates;
      alerts += fire_query.Process(e).size();
    }
  }
  EXPECT_GT(updates, 10u);  // Every object's first event is an update.
}

TEST(IntegrationTest, MovingObjectIsRelocatedOnSecondScan) {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 8.0;
  wc.objects_per_shelf = 6;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  ASSERT_TRUE(layout.ok());
  RobotConfig robot;
  robot.rounds = 2;
  ObjectMovementConfig mv;
  mv.enabled = true;
  mv.interval_seconds = 200.0;  // A move happens between the two passes.
  mv.distance = 8.0;
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), robot, mv, sensor, 8);
  const SimulatedTrace trace = gen.Generate();
  ASSERT_FALSE(trace.truth.events().empty());

  ExperimentModelOptions options;
  options.motion.delta = {};  // Two passes in opposite directions.
  options.motion.sigma = {0.05, 0.15, 0.0};
  options.object_move_probability = 1e-3;
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(layout.value(), std::make_unique<ConeSensorModel>(),
                     options),
      FastConfig());
  ASSERT_TRUE(engine.ok());
  const auto eval = RunEngineOnTrace(engine.value().get(), trace);
  // Moved objects included, final estimates still reasonable on average.
  EXPECT_LT(eval.errors.MeanXY(), 1.5);
}

TEST(IntegrationTest, CalibratedModelPerformsCloseToTrueModel) {
  // Train EM on a small trace, then evaluate on a fresh one (Fig. 5(e)).
  WarehouseConfig train_wc;
  train_wc.num_shelves = 1;
  train_wc.shelf_length = 10.0;
  train_wc.objects_per_shelf = 10;
  train_wc.shelf_tags_per_shelf = 10;
  auto train_layout = BuildWarehouse(train_wc);
  ASSERT_TRUE(train_layout.ok());
  ConeSensorModel true_sensor;
  TraceGenerator train_gen(train_layout.value(), RobotConfig{}, {},
                           true_sensor, 9);
  const SimulatedTrace train_trace = train_gen.Generate();

  ExperimentModelOptions options;
  options.motion.delta = {0.0, 0.1, 0.0};
  options.motion.sigma = {0.02, 0.02, 0.0};
  EmConfig em_config;
  em_config.iterations = 3;
  em_config.filter.num_reader_particles = 40;
  em_config.filter.num_object_particles = 200;
  EmCalibrator calibrator(
      MakeWorldModel(train_layout.value(),
                     std::make_unique<LogisticSensorModel>(), options),
      em_config);
  auto calibrated = calibrator.Calibrate(train_trace.ObservationsOnly());
  ASSERT_TRUE(calibrated.ok());

  SmallSim test_sim = MakeSmallSim(10);
  auto run_with = [&](std::unique_ptr<SensorModel> sensor) {
    auto engine = RfidInferenceEngine::Create(
        MakeWorldModel(test_sim.layout, std::move(sensor), options),
        FastConfig());
    EXPECT_TRUE(engine.ok());
    return RunEngineOnTrace(engine.value().get(), test_sim.trace)
        .errors.MeanXY();
  };
  const double with_true = run_with(std::make_unique<ConeSensorModel>());
  const double with_learned = run_with(calibrated.value().model.sensor().Clone());
  EXPECT_LT(with_learned, with_true + 0.4);
}

TEST(IntegrationTest, HandheldReaderWithoutLocationStream) {
  // The paper's §VII future work: "support handheld readers that lack
  // reader location information". Without any location report the reader is
  // tracked purely by the motion prior plus shelf-tag evidence, so the
  // engine still produces located events — at reduced but usable accuracy.
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 8.0;
  wc.objects_per_shelf = 8;
  wc.shelf_tags_per_shelf = 4;  // Dense anchors replace the location stream.
  auto layout = BuildWarehouse(wc);
  ASSERT_TRUE(layout.ok());
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), RobotConfig{}, {}, sensor, 77);
  SimulatedTrace trace = gen.Generate();
  // Strip the location (and heading) stream entirely.
  for (SimEpoch& epoch : trace.epochs) {
    epoch.observations.has_location = false;
    epoch.observations.has_heading = false;
  }

  ExperimentModelOptions options;
  options.motion.delta = {0.0, 0.1, 0.0};  // Operator walks the aisle.
  options.motion.sigma = {0.03, 0.05, 0.0};
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(layout.value(), std::make_unique<ConeSensorModel>(),
                     options),
      FastConfig());
  ASSERT_TRUE(engine.ok());
  const auto eval = RunEngineOnTrace(engine.value().get(), trace);
  EXPECT_GT(eval.objects_evaluated, 10u);
  // The reader estimate must have followed the walk (anchored by shelf
  // tags), keeping object estimates in the right neighbourhood.
  EXPECT_LT(eval.errors.MeanXY(), 1.5);
}

TEST(IntegrationTest, ColocationTrackerFindsCoPackedObjects) {
  // End-to-end future-work prototype: two objects placed 0.3 ft apart (a
  // "case" and its "content") co-locate in the clean event stream.
  WarehouseConfig wc;
  wc.num_shelves = 1;
  wc.shelf_length = 10.0;
  wc.objects_per_shelf = 5;  // 2 ft apart.
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  ASSERT_TRUE(layout.ok());
  // Add a co-packed companion right next to the second object.
  ObjectPlacement companion;
  companion.tag = 9000;
  companion.position = layout.value().objects[1].position + Vec3{0.0, 0.3, 0};
  layout.value().objects.push_back(companion);

  ConeSensorModel sensor;
  RobotConfig robot;
  robot.rounds = 4;  // Several passes -> several joint event reports.
  TraceGenerator gen(layout.value(), robot, {}, sensor, 78);
  const SimulatedTrace trace = gen.Generate();

  ExperimentModelOptions options;
  options.motion.delta = {};
  options.motion.sigma = {0.05, 0.15, 0.0};
  EngineConfig config = FastConfig();
  config.emitter.delay_seconds = 20.0;
  config.emitter.scope_timeout_epochs = 40;
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(layout.value(), std::make_unique<ConeSensorModel>(),
                     options),
      config);
  ASSERT_TRUE(engine.ok());

  ColocationTracker tracker;
  for (const SimEpoch& epoch : trace.epochs) {
    engine.value()->ProcessEpoch(epoch.observations);
    for (const LocationEvent& e : engine.value()->TakeEvents()) {
      tracker.Process(e);
    }
  }
  const auto stats =
      tracker.PairStats(layout.value().objects[1].tag, companion.tag);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->ratio, 0.8);
}

}  // namespace
}  // namespace rfid
