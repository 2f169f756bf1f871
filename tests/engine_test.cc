// Tests for the public engine API: configuration validation, event flow,
// statistics, and filter selection.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/engine.h"
#include "test_util.h"

namespace rfid {
namespace {

using testing_util::MakeEpoch;
using testing_util::MakeLineWorld;

EngineConfig SmallEngineConfig() {
  EngineConfig c;
  c.factored.num_reader_particles = 50;
  c.factored.num_object_particles = 200;
  c.factored.seed = 7;
  c.emitter.delay_seconds = 5.0;
  return c;
}

TEST(EngineTest, CreateValidatesParticleCounts) {
  EngineConfig c = SmallEngineConfig();
  c.factored.num_object_particles = 0;
  EXPECT_FALSE(RfidInferenceEngine::Create(MakeLineWorld(), c).ok());
  c = SmallEngineConfig();
  c.filter = EngineConfig::FilterKind::kBasic;
  c.basic.num_particles = -5;
  EXPECT_FALSE(RfidInferenceEngine::Create(MakeLineWorld(), c).ok());
}

TEST(EngineTest, CreateRejectsCompressionWithoutIndex) {
  EngineConfig c = SmallEngineConfig();
  c.factored.use_spatial_index = false;
  c.factored.compression.compress_after_epochs = 8;
  auto engine = RfidInferenceEngine::Create(MakeLineWorld(), c);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);

  // A negative threshold is rejected with the index on too; 0 is off.
  c = SmallEngineConfig();
  c.factored.compression.compress_after_epochs = -1;
  engine = RfidInferenceEngine::Create(MakeLineWorld(), c);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  c.factored.compression.compress_after_epochs = 0;
  c.factored.use_spatial_index = false;
  EXPECT_TRUE(RfidInferenceEngine::Create(MakeLineWorld(), c).ok());
}

TEST(EngineTest, CreateRejectsInitializationConesThatBreakCheckpoints) {
  // An infinite or NaN cone depth seeds non-finite particles that no
  // snapshot can hold; a negative one samples a mirrored cone behind the
  // reader; a half-angle past pi covers some bearings twice.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto kind :
       {EngineConfig::FilterKind::kFactored, EngineConfig::FilterKind::kBasic}) {
    const auto init_of = [kind](EngineConfig* c) {
      return kind == EngineConfig::FilterKind::kBasic ? &c->basic.init
                                                      : &c->factored.init;
    };
    for (double bad : {inf, -inf, nan, 0.0, -1.2}) {
      EngineConfig c = SmallEngineConfig();
      c.filter = kind;
      init_of(&c)->range_overestimate = bad;
      const auto engine = RfidInferenceEngine::Create(MakeLineWorld(), c);
      EXPECT_FALSE(engine.ok()) << "range_overestimate " << bad;
      if (!engine.ok()) {
        EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
      }
    }
    for (double bad : {0.0, -0.5, nan, inf, M_PI + 1e-6, 2 * M_PI}) {
      EngineConfig c = SmallEngineConfig();
      c.filter = kind;
      init_of(&c)->half_angle = bad;
      EXPECT_FALSE(RfidInferenceEngine::Create(MakeLineWorld(), c).ok())
          << "half_angle " << bad;
    }
    EngineConfig c = SmallEngineConfig();
    c.filter = kind;
    init_of(&c)->half_angle = M_PI;
    init_of(&c)->range_overestimate = 1e-3;
    EXPECT_TRUE(RfidInferenceEngine::Create(MakeLineWorld(), c).ok());
  }
}

TEST(EngineTest, CreateRejectsNegativeDelay) {
  // A NaN delay would emit at once, with no warning.
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EngineConfig c = SmallEngineConfig();
    c.emitter.delay_seconds = bad;
    EXPECT_FALSE(RfidInferenceEngine::Create(MakeLineWorld(), c).ok()) << bad;
  }
}

TEST(EngineTest, ProcessesEpochsAndCountsStats) {
  auto engine = RfidInferenceEngine::Create(MakeLineWorld(),
                                            SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  for (int t = 0; t < 10; ++t) {
    engine.value()->ProcessEpoch(
        MakeEpoch(t, 0.1 * t, t % 2 == 0 ? std::vector<TagId>{1000}
                                         : std::vector<TagId>{}));
  }
  const EngineStats& stats = engine.value()->stats();
  EXPECT_EQ(stats.epochs_processed, 10u);
  EXPECT_EQ(stats.readings_processed, 5u);
  EXPECT_GT(stats.processing_seconds, 0.0);
  EXPECT_GT(stats.ReadingsPerSecond(), 0.0);
  EXPECT_GT(stats.MillisPerReading(), 0.0);
}

TEST(EngineTest, EventsFlowThroughTakeEvents) {
  EngineConfig c = SmallEngineConfig();
  c.emitter.delay_seconds = 3.0;
  auto engine = RfidInferenceEngine::Create(MakeLineWorld(), c);
  ASSERT_TRUE(engine.ok());
  size_t total = 0;
  for (int t = 0; t < 10; ++t) {
    engine.value()->ProcessEpoch(MakeEpoch(t, 2.0, {1000}));
    total += engine.value()->TakeEvents().size();
  }
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(engine.value()->stats().events_emitted, 1u);
  // TakeEvents drained the queue.
  EXPECT_TRUE(engine.value()->TakeEvents().empty());
}

TEST(EngineTest, EstimateObjectDelegatesToFilter) {
  auto engine = RfidInferenceEngine::Create(MakeLineWorld(),
                                            SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine.value()->EstimateObject(1000).has_value());
  engine.value()->ProcessEpoch(MakeEpoch(0, 2.0, {1000}));
  EXPECT_TRUE(engine.value()->EstimateObject(1000).has_value());
}

TEST(EngineTest, BasicFilterKindWorksEndToEnd) {
  EngineConfig c;
  c.filter = EngineConfig::FilterKind::kBasic;
  c.basic.num_particles = 500;
  c.basic.seed = 3;
  auto engine = RfidInferenceEngine::Create(MakeLineWorld(), c);
  ASSERT_TRUE(engine.ok());
  for (int t = 0; t < 20; ++t) {
    engine.value()->ProcessEpoch(MakeEpoch(t, 1.0 + 0.1 * t, {1000}));
  }
  const auto est = engine.value()->EstimateObject(1000);
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->mean.DistanceXYTo({1.5, 2.0, 0}), 2.0);
}

TEST(EngineTest, ScanCompleteFlushesEvents) {
  EngineConfig c = SmallEngineConfig();
  c.emitter.policy = EmitPolicy::kOnScanComplete;
  auto engine = RfidInferenceEngine::Create(MakeLineWorld(), c);
  ASSERT_TRUE(engine.ok());
  engine.value()->ProcessEpoch(MakeEpoch(0, 2.0, {1000, 1001}));
  EXPECT_TRUE(engine.value()->TakeEvents().empty());
  const auto events = engine.value()->NotifyScanComplete(100.0);
  EXPECT_EQ(events.size(), 2u);
}

TEST(EngineTest, ReaderEstimateAvailable) {
  auto engine = RfidInferenceEngine::Create(MakeLineWorld(),
                                            SmallEngineConfig());
  ASSERT_TRUE(engine.ok());
  for (int t = 0; t < 20; ++t) {
    engine.value()->ProcessEpoch(MakeEpoch(t, 0.1 * t, {}));
  }
  EXPECT_NEAR(engine.value()->EstimateReader().mean.y, 1.9, 0.3);
}

}  // namespace
}  // namespace rfid
