// Tests for the stream layer: synchronizer, event emitter, and the two CQL
// queries of §II-B.
#include <gtest/gtest.h>

#include "stream/emitter.h"
#include "stream/query.h"
#include "stream/synchronizer.h"
#include "test_util.h"

namespace rfid {
namespace {

using testing_util::SynchronizeAll;

// ---------------------------------------------------------- Synchronizer ---

TEST(SynchronizerTest, EmptyStreamsYieldNothing) {
  StreamSynchronizer sync;
  EXPECT_TRUE(SynchronizeAll(&sync, {}, {}).empty());
}

TEST(SynchronizerTest, GroupsReadingsByEpoch) {
  StreamSynchronizer sync;
  const std::vector<TagReading> readings = {
      {0.1, 5}, {0.7, 6}, {1.2, 7}, {2.9, 8}};
  const auto epochs = SynchronizeAll(&sync, readings, {});
  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_EQ(epochs[0].tags, (std::vector<TagId>{5, 6}));
  EXPECT_EQ(epochs[1].tags, (std::vector<TagId>{7}));
  EXPECT_EQ(epochs[2].tags, (std::vector<TagId>{8}));
}

TEST(SynchronizerTest, DeduplicatesTagsWithinEpoch) {
  StreamSynchronizer sync;
  const std::vector<TagReading> readings = {{0.1, 5}, {0.5, 5}, {0.9, 5}};
  const auto epochs = SynchronizeAll(&sync, readings, {});
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].tags, (std::vector<TagId>{5}));
}

TEST(SynchronizerTest, AveragesLocationReports) {
  StreamSynchronizer sync;
  const std::vector<ReaderLocationReport> locs = {{0.2, {1, 2, 0}},
                                                  {0.8, {3, 4, 0}}};
  const auto epochs = SynchronizeAll(&sync, {}, locs);
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_TRUE(epochs[0].has_location);
  EXPECT_EQ(epochs[0].reported_location, Vec3(2, 3, 0));
}

TEST(SynchronizerTest, EmitsEmptyEpochsBetweenRecords) {
  StreamSynchronizer sync;
  const std::vector<TagReading> readings = {{0.5, 1}, {3.5, 2}};
  const auto epochs = SynchronizeAll(&sync, readings, {});
  ASSERT_EQ(epochs.size(), 4u);
  EXPECT_TRUE(epochs[1].tags.empty());
  EXPECT_FALSE(epochs[1].has_location);
}

TEST(SynchronizerTest, SlightlyOutOfSyncStreamsLandInSameEpoch) {
  // The paper's motivation for coarse epochs: streams slightly out of sync.
  StreamSynchronizer sync;
  const std::vector<TagReading> readings = {{1.05, 9}};
  const std::vector<ReaderLocationReport> locs = {{1.95, {5, 5, 0}}};
  const auto epochs = SynchronizeAll(&sync, readings, locs);
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].tags.size(), 1u);
  EXPECT_TRUE(epochs[0].has_location);
}

TEST(SynchronizerTest, CustomEpochLength) {
  SynchronizerConfig config;
  config.epoch_seconds = 2.0;
  StreamSynchronizer sync(config);
  const std::vector<TagReading> readings = {{0.5, 1}, {1.5, 2}, {2.5, 3}};
  const auto epochs = SynchronizeAll(&sync, readings, {});
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].tags.size(), 2u);
}

TEST(SynchronizerTest, OnlinePollReturnsClosedEpochs) {
  StreamSynchronizer sync;
  sync.Push(TagReading{0.3, 1});
  sync.Push(ReaderLocationReport{0.5, {1, 1, 0}});
  sync.Push(TagReading{1.2, 2});
  // Epoch 0 closes once the watermark passes 1.0.
  const auto closed = sync.PollWatermark();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].step, 0);
  EXPECT_EQ(closed[0].tags, (std::vector<TagId>{1}));
  EXPECT_TRUE(closed[0].has_location);
  // Finish flushes the rest.
  const auto rest = sync.Finish();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].tags, (std::vector<TagId>{2}));
}

TEST(SynchronizerTest, PollTwiceDoesNotDuplicate) {
  StreamSynchronizer sync;
  sync.Push(TagReading{0.3, 1});
  EXPECT_TRUE(sync.PollWatermark().empty());
  sync.Push(TagReading{1.5, 2});
  EXPECT_EQ(sync.PollWatermark().size(), 1u);
  EXPECT_TRUE(sync.PollWatermark().empty());
}

// --------------------------------------------------------------- Emitter ---

SyncedEpoch EmitterEpoch(int64_t step, std::vector<TagId> tags) {
  SyncedEpoch e;
  e.step = step;
  e.time = static_cast<double>(step);
  e.tags = std::move(tags);
  return e;
}

EventEmitter::EstimateFn FixedEstimate(const Vec3& at) {
  return [at](TagId) -> std::optional<LocationEstimate> {
    LocationEstimate est;
    est.mean = at;
    est.variance = {0.01, 0.02, 0.0};
    est.support = 100;
    return est;
  };
}

TEST(EmitterTest, AfterDelayEmitsOncePerScope) {
  EmitterConfig config;
  config.policy = EmitPolicy::kAfterDelay;
  config.delay_seconds = 5.0;
  EventEmitter emitter(config);
  const auto estimate = FixedEstimate({1, 2, 0});
  size_t total = 0;
  for (int t = 0; t < 20; ++t) {
    const auto events =
        emitter.OnEpoch(EmitterEpoch(t, {1000}), estimate);
    total += events.size();
    if (t < 5) {
      EXPECT_TRUE(events.empty()) << "premature emit at " << t;
    }
  }
  EXPECT_EQ(total, 1u);
}

TEST(EmitterTest, NewScopePeriodEmitsAgain) {
  EmitterConfig config;
  config.delay_seconds = 2.0;
  config.scope_timeout_epochs = 5;
  EventEmitter emitter(config);
  const auto estimate = FixedEstimate({1, 2, 0});
  size_t total = 0;
  for (int t = 0; t < 10; ++t) {
    total += emitter.OnEpoch(EmitterEpoch(t, {1000}), estimate).size();
  }
  for (int t = 10; t < 30; ++t) {  // Long gap: scope ends.
    total += emitter.OnEpoch(EmitterEpoch(t, {}), estimate).size();
  }
  for (int t = 30; t < 40; ++t) {  // Reappears: new scope, new event.
    total += emitter.OnEpoch(EmitterEpoch(t, {1000}), estimate).size();
  }
  EXPECT_EQ(total, 2u);
}

TEST(EmitterTest, EventCarriesStats) {
  EmitterConfig config;
  config.delay_seconds = 0.0;
  EventEmitter emitter(config);
  const auto events =
      emitter.OnEpoch(EmitterEpoch(0, {7}), FixedEstimate({3, 4, 0}));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tag, 7u);
  EXPECT_EQ(events[0].location, Vec3(3, 4, 0));
  ASSERT_TRUE(events[0].stats.has_value());
  EXPECT_NEAR(events[0].stats->rmse_radius, std::sqrt(0.03), 1e-9);
  EXPECT_EQ(events[0].stats->support, 100);
}

TEST(EmitterTest, StatsCanBeDisabled) {
  EmitterConfig config;
  config.delay_seconds = 0.0;
  config.attach_stats = false;
  EventEmitter emitter(config);
  const auto events =
      emitter.OnEpoch(EmitterEpoch(0, {7}), FixedEstimate({3, 4, 0}));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].stats.has_value());
}

TEST(EmitterTest, ScanCompleteEmitsEverySeenTag) {
  EmitterConfig config;
  config.policy = EmitPolicy::kOnScanComplete;
  EventEmitter emitter(config);
  const auto estimate = FixedEstimate({1, 1, 0});
  EXPECT_TRUE(emitter.OnEpoch(EmitterEpoch(0, {1, 2}), estimate).empty());
  EXPECT_TRUE(emitter.OnEpoch(EmitterEpoch(1, {3}), estimate).empty());
  const auto events = emitter.NotifyScanComplete(10.0, estimate);
  EXPECT_EQ(events.size(), 3u);
}

TEST(EmitterTest, EveryEpochPolicyEmitsContinuously) {
  EmitterConfig config;
  config.policy = EmitPolicy::kEveryEpoch;
  EventEmitter emitter(config);
  const auto estimate = FixedEstimate({1, 1, 0});
  emitter.OnEpoch(EmitterEpoch(0, {1}), estimate);
  const auto events = emitter.OnEpoch(EmitterEpoch(1, {}), estimate);
  EXPECT_EQ(events.size(), 1u);  // Tag 1 still tracked.
}

std::vector<TagId> EventTags(const std::vector<LocationEvent>& events) {
  std::vector<TagId> tags;
  for (const auto& e : events) tags.push_back(e.tag);
  return tags;
}

// Event order is part of the stream's bit-identity contract: the same set
// of tracked tags must produce the same event sequence no matter what order
// the scope map saw them in (hash order must never leak into the stream).
TEST(EmitterTest, EveryEpochOrderIndependentOfInsertion) {
  EmitterConfig config;
  config.policy = EmitPolicy::kEveryEpoch;
  const auto estimate = FixedEstimate({1, 1, 0});
  const std::vector<TagId> forward{11, 503, 7, 90210, 42, 1, 65536, 8};
  std::vector<TagId> reversed(forward.rbegin(), forward.rend());

  EventEmitter a(config);
  EventEmitter b(config);
  for (TagId tag : forward) a.OnEpoch(EmitterEpoch(0, {tag}), estimate);
  for (TagId tag : reversed) b.OnEpoch(EmitterEpoch(0, {tag}), estimate);

  const auto ta = EventTags(a.OnEpoch(EmitterEpoch(1, {}), estimate));
  const auto tb = EventTags(b.OnEpoch(EmitterEpoch(1, {}), estimate));
  EXPECT_EQ(ta, tb);
  EXPECT_TRUE(std::is_sorted(ta.begin(), ta.end()));
  EXPECT_EQ(ta.size(), forward.size());
}

TEST(EmitterTest, ScanCompleteOrderIndependentOfInsertion) {
  EmitterConfig config;
  config.policy = EmitPolicy::kOnScanComplete;
  const auto estimate = FixedEstimate({2, 2, 0});
  const std::vector<TagId> forward{9, 1000, 3, 77, 123456, 2};
  std::vector<TagId> reversed(forward.rbegin(), forward.rend());

  EventEmitter a(config);
  EventEmitter b(config);
  for (TagId tag : forward) a.OnEpoch(EmitterEpoch(0, {tag}), estimate);
  for (TagId tag : reversed) b.OnEpoch(EmitterEpoch(0, {tag}), estimate);

  const auto ta = EventTags(a.NotifyScanComplete(5.0, estimate));
  const auto tb = EventTags(b.NotifyScanComplete(5.0, estimate));
  EXPECT_EQ(ta, tb);
  EXPECT_TRUE(std::is_sorted(ta.begin(), ta.end()));
  EXPECT_EQ(ta.size(), forward.size());
}

// --------------------------------------------------- LocationUpdateQuery ---

LocationEvent Event(double time, TagId tag, const Vec3& loc) {
  LocationEvent e;
  e.time = time;
  e.tag = tag;
  e.location = loc;
  return e;
}

TEST(LocationUpdateQueryTest, FirstReportAlwaysEmits) {
  LocationUpdateQuery q;
  EXPECT_TRUE(q.Process(Event(0, 1, {1, 1, 0})).has_value());
}

TEST(LocationUpdateQueryTest, UnchangedLocationSuppressed) {
  LocationUpdateQuery q(0.05);
  EXPECT_TRUE(q.Process(Event(0, 1, {1, 1, 0})).has_value());
  EXPECT_FALSE(q.Process(Event(1, 1, {1, 1.01, 0})).has_value());
  EXPECT_TRUE(q.Process(Event(2, 1, {1, 2, 0})).has_value());
}

TEST(LocationUpdateQueryTest, PartitionsByTag) {
  LocationUpdateQuery q(0.05);
  EXPECT_TRUE(q.Process(Event(0, 1, {1, 1, 0})).has_value());
  EXPECT_TRUE(q.Process(Event(0, 2, {1, 1, 0})).has_value());
  EXPECT_EQ(q.num_partitions(), 2u);
  EXPECT_FALSE(q.Process(Event(1, 2, {1, 1, 0})).has_value());
}

// ---------------------------------------------------------- FireCodeQuery --

TEST(FireCodeQueryTest, CellOfUsesFloor) {
  FireCodeQuery q(5.0, 200.0, [](TagId) { return 1.0; });
  EXPECT_EQ(q.CellOf({0.5, 0.5, 0}).x, 0);
  EXPECT_EQ(q.CellOf({-0.5, 1.5, 0}).x, -1);
  EXPECT_EQ(q.CellOf({-0.5, 1.5, 0}).y, 1);
}

TEST(FireCodeQueryTest, AlertsWhenWeightExceedsLimit) {
  FireCodeQuery q(5.0, 200.0, [](TagId) { return 150.0; });
  EXPECT_TRUE(q.Process(Event(0.0, 1, {0.5, 0.5, 0})).empty());
  const auto alerts = q.Process(Event(1.0, 2, {0.7, 0.3, 0}));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].area.x, 0);
  EXPECT_EQ(alerts[0].area.y, 0);
  EXPECT_DOUBLE_EQ(alerts[0].total_weight, 300.0);
}

TEST(FireCodeQueryTest, DifferentCellsDoNotCombine) {
  FireCodeQuery q(5.0, 200.0, [](TagId) { return 150.0; });
  EXPECT_TRUE(q.Process(Event(0.0, 1, {0.5, 0.5, 0})).empty());
  EXPECT_TRUE(q.Process(Event(1.0, 2, {5.5, 0.5, 0})).empty());
}

TEST(FireCodeQueryTest, WindowEvictionClearsOldWeight) {
  FireCodeQuery q(5.0, 200.0, [](TagId) { return 150.0; });
  q.Process(Event(0.0, 1, {0.5, 0.5, 0}));
  // 6 seconds later the first event fell out of the 5 s window.
  EXPECT_TRUE(q.Process(Event(6.0, 2, {0.5, 0.5, 0})).empty());
  EXPECT_DOUBLE_EQ(q.AreaWeight({0, 0}), 150.0);
}

TEST(FireCodeQueryTest, AlertOncePerExcursion) {
  FireCodeQuery q(10.0, 200.0, [](TagId) { return 150.0; });
  q.Process(Event(0.0, 1, {0.5, 0.5, 0}));
  EXPECT_EQ(q.Process(Event(1.0, 2, {0.5, 0.5, 0})).size(), 1u);
  // Still above threshold: no duplicate alert.
  EXPECT_TRUE(q.Process(Event(2.0, 3, {0.5, 0.5, 0})).empty());
}

TEST(FireCodeQueryTest, ReAlertsAfterDroppingBelowLimit) {
  FireCodeQuery q(5.0, 200.0, [](TagId) { return 150.0; });
  q.Process(Event(0.0, 1, {0.5, 0.5, 0}));
  EXPECT_EQ(q.Process(Event(1.0, 2, {0.5, 0.5, 0})).size(), 1u);
  // Window slides past both events; weight drops to zero, then builds again.
  q.Process(Event(10.0, 3, {0.5, 0.5, 0}));
  EXPECT_EQ(q.Process(Event(11.0, 4, {0.5, 0.5, 0})).size(), 1u);
}

TEST(LocationUpdateQueryTest, TtlEvictsDepartedTags) {
  LocationUpdateQuery q(/*min_change_feet=*/0.05, /*ttl_seconds=*/10.0);
  EXPECT_TRUE(q.Process(Event(0, 1, {1, 1, 0})).has_value());
  EXPECT_TRUE(q.Process(Event(0, 2, {5, 5, 0})).has_value());
  // Tag 2 keeps reporting (suppressed, but present); tag 1 goes silent.
  EXPECT_FALSE(q.Process(Event(5, 2, {5, 5, 0})).has_value());
  EXPECT_FALSE(q.Process(Event(12, 2, {5, 5, 0})).has_value());
  EXPECT_EQ(q.num_partitions(), 1u);  // Tag 1 evicted at t=12.
  EXPECT_EQ(q.Stats().evicted, 1u);
  // Regression: the first post-eviction report always emits, even from the
  // exact same location as before the eviction.
  EXPECT_TRUE(q.Process(Event(13, 1, {1, 1, 0})).has_value());
}

TEST(LocationUpdateQueryTest, SuppressedReportsRefreshTtl) {
  LocationUpdateQuery q(0.05, /*ttl_seconds=*/10.0);
  EXPECT_TRUE(q.Process(Event(0, 1, {1, 1, 0})).has_value());
  // A stationary tag reporting every 4 s must never be evicted.
  for (int t = 4; t <= 40; t += 4) {
    EXPECT_FALSE(q.Process(Event(t, 1, {1, 1, 0})).has_value()) << t;
  }
  EXPECT_EQ(q.num_partitions(), 1u);
  EXPECT_EQ(q.Stats().evicted, 0u);
}

TEST(LocationUpdateQueryTest, ZeroTtlNeverEvicts) {
  LocationUpdateQuery q(0.05);  // Default: eviction disabled.
  EXPECT_TRUE(q.Process(Event(0, 1, {1, 1, 0})).has_value());
  EXPECT_FALSE(q.Process(Event(1e9, 1, {1, 1, 0})).has_value());
  EXPECT_EQ(q.num_partitions(), 1u);
}

TEST(FireCodeQueryTest, WeightFunctionPerTag) {
  FireCodeQuery q(5.0, 200.0,
                  [](TagId tag) { return tag == 1 ? 500.0 : 1.0; });
  const auto alerts = q.Process(Event(0.0, 1, {0.5, 0.5, 0}));
  ASSERT_EQ(alerts.size(), 1u);  // Single heavy object trips the code.
  EXPECT_TRUE(q.Process(Event(1.0, 2, {8.5, 0.5, 0})).empty());
}

TEST(FireCodeQueryTest, EvictionErasesAlertStateWithTheCell) {
  // Regression for the seed leak: evicting a cell set `alerted_[cell] =
  // false` — inserting an entry per evicted cell that nothing ever erased.
  FireCodeQuery q(5.0, 100.0, [](TagId) { return 150.0; });
  for (int i = 0; i < 1000; ++i) {
    // Each event lands in a fresh cell, alerts, and expires 10 s later.
    q.Process(Event(i * 10.0, 1, {i * 3.0 + 0.5, 0.5, 0}));
  }
  // Only the newest event's cell is live; every alerted cell before it is
  // fully erased (weight, window, and armed flag alike).
  EXPECT_EQ(q.num_cells(), 1u);
  EXPECT_EQ(q.window_entries(), 1u);
  EXPECT_EQ(q.Stats().evicted, 999u);
}

TEST(FireCodeQueryTest, EvictedWeightResidueIsClampedToZero) {
  // 1e16 + 1.0 is absorbed in double precision, so evicting both entries
  // naively leaves total = -1.0: negative area weight and (in the seed) a
  // cell that survives the `<= 1e-12` erase check's intent.
  FireCodeQuery q(5.0, 1e17, [](TagId tag) { return tag == 1 ? 1e16 : 1.0; });
  q.Process(Event(0.0, 1, {0.5, 0.5, 0}));
  q.Process(Event(0.5, 2, {0.5, 0.5, 0}));
  q.Process(Event(6.0, 3, {50.5, 0.5, 0}));  // Evicts both entries.
  EXPECT_GE(q.AreaWeight({0, 0}), 0.0);
  EXPECT_EQ(q.num_cells(), 1u);  // Only the t=6 cell remains.
}

TEST(FireCodeQueryTest, HysteresisArmDisarmBoundaries) {
  FireCodeConfig config;
  config.window_seconds = 10.0;
  config.weight_limit = 200.0;
  config.disarm_limit = 100.0;
  FireCodeQuery q(config, [](TagId) { return 60.0; });

  // 60, 120, 180: at or below the arm threshold — no alert (strictly
  // greater arms, exactly-equal does not... 180 < 200 anyway).
  EXPECT_TRUE(q.Process(Event(0.0, 1, {0.5, 0.5, 0})).empty());
  EXPECT_TRUE(q.Process(Event(1.0, 2, {0.5, 0.5, 0})).empty());
  EXPECT_TRUE(q.Process(Event(2.0, 3, {0.5, 0.5, 0})).empty());
  EXPECT_FALSE(q.IsArmed(q.CellOf({0.5, 0.5, 0})));
  // 240 > 200: arms and alerts once.
  EXPECT_EQ(q.Process(Event(3.0, 4, {0.5, 0.5, 0})).size(), 1u);
  EXPECT_TRUE(q.IsArmed(q.CellOf({0.5, 0.5, 0})));

  // Window slides: eviction drops the weight to 180, then the new report
  // brings it back over 200. 180 is above the disarm threshold (100), so
  // the cell stays armed and re-crossing 200 does NOT re-alert — this is
  // exactly the boundary flapping the hysteresis exists to suppress.
  EXPECT_TRUE(q.Process(Event(10.5, 5, {0.5, 0.5, 0})).empty());
  EXPECT_TRUE(q.Process(Event(11.5, 6, {0.5, 0.5, 0})).empty());
  EXPECT_DOUBLE_EQ(q.AreaWeight({0, 0}), 240.0);  // t=2, 3, 10.5, 11.5.
  EXPECT_TRUE(q.IsArmed(q.CellOf({0.5, 0.5, 0})));

  // Let everything but the t=11.5 event expire: 60 <= 100 disarms.
  EXPECT_TRUE(q.Process(Event(21.0, 7, {0.5, 0.5, 0})).empty());
  EXPECT_DOUBLE_EQ(q.AreaWeight({0, 0}), 120.0);  // t=11.5 and t=21.
  EXPECT_FALSE(q.IsArmed(q.CellOf({0.5, 0.5, 0})));

  // Re-arm: crossing 200 alerts again after a genuine disarm.
  EXPECT_TRUE(q.Process(Event(22.0, 8, {0.5, 0.5, 0})).empty());   // 120.
  EXPECT_TRUE(q.Process(Event(23.0, 9, {0.5, 0.5, 0})).empty());   // 180.
  EXPECT_EQ(q.Process(Event(23.5, 10, {0.5, 0.5, 0})).size(), 1u);  // 240.
}

TEST(FireCodeQueryTest, DisarmExactlyAtThresholdDisarms) {
  FireCodeConfig config;
  config.window_seconds = 5.0;
  config.weight_limit = 100.0;
  config.disarm_limit = 60.0;
  FireCodeQuery q(config, [](TagId) { return 60.0; });
  q.Process(Event(0.0, 1, {0.5, 0.5, 0}));
  EXPECT_EQ(q.Process(Event(1.0, 2, {0.5, 0.5, 0})).size(), 1u);  // 120.
  // t=6: the t=0 entry expires, weight drops to exactly 60 == disarm_limit;
  // "falls to or below" must disarm.
  q.Process(Event(6.0, 3, {50.5, 0.5, 0}));
  EXPECT_FALSE(q.IsArmed(q.CellOf({0.5, 0.5, 0})));
}

TEST(FireCodeQueryTest, DisarmLimitAboveArmIsClampedDown) {
  FireCodeConfig config;
  config.window_seconds = 5.0;
  config.weight_limit = 100.0;
  config.disarm_limit = 500.0;  // Nonsense; behaves like no hysteresis.
  FireCodeQuery q(config, [](TagId) { return 80.0; });
  q.Process(Event(0.0, 1, {0.5, 0.5, 0}));
  EXPECT_EQ(q.Process(Event(1.0, 2, {0.5, 0.5, 0})).size(), 1u);  // 160.
  q.Process(Event(7.0, 3, {0.5, 0.5, 0}));   // Both expired; 80 <= 100.
  EXPECT_FALSE(q.IsArmed(q.CellOf({0.5, 0.5, 0})));
  EXPECT_EQ(q.Process(Event(7.5, 4, {0.5, 0.5, 0})).size(), 1u);  // 160.
}

}  // namespace
}  // namespace rfid
