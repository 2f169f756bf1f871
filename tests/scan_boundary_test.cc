// Mid-stream scan-boundary detection in the serving path: the detector
// closes scans from record-time signals (reader back at origin, or an idle
// gap with no readings) so the kOnScanComplete emitter policy produces
// events on an endless stream, where Flush() never comes. Everything here
// drives a SitePipeline directly with hand-built record streams.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "serve/site_pipeline.h"
#include "serve/subscription_bus.h"
#include "test_util.h"

namespace rfid {
namespace {

using testing_util::MakeLineWorld;

constexpr SiteId kSite = 7;

SitePipelineConfig ScanConfig(ScanBoundaryConfig::Mode mode) {
  SitePipelineConfig config;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 0.0;  // Epochs close as time advances.
  config.engine.factored.num_reader_particles = 20;
  config.engine.factored.num_object_particles = 60;
  config.engine.factored.seed = 11;
  config.engine.emitter.policy = EmitPolicy::kOnScanComplete;
  config.scan_boundary.mode = mode;
  config.scan_boundary.origin_radius = 1.0;
  config.scan_boundary.depart_radius = 3.0;
  config.scan_boundary.idle_gap_seconds = 5.0;
  return config;
}

/// One out-and-back pass down the aisle: the reader starts at y = 0, walks
/// to y = 8 reading object tag 1000 on the way, and returns to y = 0. With
/// `tail` extra seconds of standing at the origin afterwards (watermark
/// push so the return epoch itself closes).
std::vector<ServeRecord> OutAndBack(double t0, int tail = 3) {
  std::vector<ServeRecord> records;
  auto at = [&records](double time, double y) {
    ReaderLocationReport report;
    report.time = time;
    report.location = {0.0, y, 0.0};
    records.push_back(ServeRecord::Location(kSite, report));
  };
  const std::vector<double> path = {0.0, 2.0, 4.0, 6.0, 8.0,
                                    8.0, 6.0, 4.0, 2.0, 0.0};
  for (size_t i = 0; i < path.size(); ++i) {
    const double time = t0 + static_cast<double>(i);
    at(time, path[i]);
    if (path[i] > 1.0 && path[i] < 7.0) {
      records.push_back(ServeRecord::Reading(kSite, {time, 1000}));
    }
  }
  for (int i = 0; i < tail; ++i) {
    at(t0 + static_cast<double>(path.size() + i), 0.0);
  }
  return records;
}

TEST(ScanBoundaryTest, ReaderReturnFiresMidStreamWithoutFlush) {
  auto pipeline = SitePipeline::Create(
      kSite, MakeLineWorld(), ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn));
  ASSERT_TRUE(pipeline.ok());
  SubscriptionBus bus;
  std::vector<LocationEvent> events;
  bus.SubscribeEvents(
      [&events](SiteId, const LocationEvent& e) { events.push_back(e); });

  for (const ServeRecord& r : OutAndBack(0.0)) {
    pipeline.value()->OnRecord(r, &bus);
  }
  // No Flush() — the return to origin alone must have closed the scan and
  // dispatched the kOnScanComplete events for the tag seen during it.
  EXPECT_EQ(pipeline.value()->Stats().scan_completes, 1u);
  ASSERT_FALSE(events.empty());
  bool saw_tag = false;
  for (const LocationEvent& e : events) saw_tag |= (e.tag == 1000);
  EXPECT_TRUE(saw_tag);

  // A second pass is a new scan: origin re-captured, fires again.
  for (const ServeRecord& r : OutAndBack(20.0)) {
    pipeline.value()->OnRecord(r, &bus);
  }
  EXPECT_EQ(pipeline.value()->Stats().scan_completes, 2u);
}

TEST(ScanBoundaryTest, ReaderReturnRequiresDeparture) {
  // Hysteresis: jitter near the dock (never past depart_radius) must not
  // close a scan that never started moving.
  auto pipeline = SitePipeline::Create(
      kSite, MakeLineWorld(), ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn));
  ASSERT_TRUE(pipeline.ok());
  SubscriptionBus bus;
  for (int t = 0; t < 20; ++t) {
    ReaderLocationReport report;
    report.time = static_cast<double>(t);
    report.location = {0.0, (t % 2 == 0) ? 0.0 : 0.5, 0.0};
    pipeline.value()->OnRecord(ServeRecord::Location(kSite, report), &bus);
  }
  EXPECT_EQ(pipeline.value()->Stats().scan_completes, 0u);
}

TEST(ScanBoundaryTest, IdleGapFiresAfterQuietRecordTime) {
  auto pipeline = SitePipeline::Create(
      kSite, MakeLineWorld(), ScanConfig(ScanBoundaryConfig::Mode::kIdleGap));
  ASSERT_TRUE(pipeline.ok());
  SubscriptionBus bus;
  std::vector<LocationEvent> events;
  bus.SubscribeEvents(
      [&events](SiteId, const LocationEvent& e) { events.push_back(e); });

  // Active phase: readings up to t = 4.
  for (int t = 0; t <= 4; ++t) {
    ReaderLocationReport report;
    report.time = static_cast<double>(t);
    report.location = {0.0, static_cast<double>(t), 0.0};
    pipeline.value()->OnRecord(ServeRecord::Location(kSite, report), &bus);
    pipeline.value()->OnRecord(
        ServeRecord::Reading(kSite, {static_cast<double>(t), 1000}), &bus);
  }
  EXPECT_EQ(pipeline.value()->Stats().scan_completes, 0u);

  // Quiet phase: location keeps reporting (stream is alive, watermark
  // advances) but no tag reads; after idle_gap_seconds of record time the
  // scan closes mid-stream.
  for (int t = 5; t <= 12; ++t) {
    ReaderLocationReport report;
    report.time = static_cast<double>(t);
    report.location = {0.0, 4.0, 0.0};
    pipeline.value()->OnRecord(ServeRecord::Location(kSite, report), &bus);
  }
  EXPECT_EQ(pipeline.value()->Stats().scan_completes, 1u);
  EXPECT_FALSE(events.empty());
}

TEST(ScanBoundaryTest, FlushOnlyModeNeverFiresMidStream) {
  // Seed behavior preserved: with the detector off, the same out-and-back
  // stream produces no mid-stream scans — only Flush() closes the scan.
  auto pipeline = SitePipeline::Create(
      kSite, MakeLineWorld(), ScanConfig(ScanBoundaryConfig::Mode::kOnFlushOnly));
  ASSERT_TRUE(pipeline.ok());
  SubscriptionBus bus;
  for (const ServeRecord& r : OutAndBack(0.0)) {
    pipeline.value()->OnRecord(r, &bus);
  }
  EXPECT_EQ(pipeline.value()->Stats().scan_completes, 0u);
  pipeline.value()->Flush(&bus);
  EXPECT_EQ(pipeline.value()->Stats().scan_completes, 1u);
}

TEST(ScanBoundaryTest, DetectorInertUnderOtherEmitterPolicies) {
  // The detector only makes sense for kOnScanComplete; under kAfterDelay it
  // must not fire (scan_completes counts only kOnScanComplete flushes).
  SitePipelineConfig config = ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn);
  config.engine.emitter.policy = EmitPolicy::kAfterDelay;
  config.engine.emitter.delay_seconds = 2.0;
  auto pipeline = SitePipeline::Create(kSite, MakeLineWorld(), config);
  ASSERT_TRUE(pipeline.ok());
  SubscriptionBus bus;
  for (const ServeRecord& r : OutAndBack(0.0)) {
    pipeline.value()->OnRecord(r, &bus);
  }
  EXPECT_EQ(pipeline.value()->Stats().scan_completes, 0u);
}

TEST(ScanBoundaryTest, CreateValidatesDetectorConfig) {
  SitePipelineConfig bad = ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn);
  bad.scan_boundary.origin_radius = 0.0;
  EXPECT_FALSE(SitePipeline::Create(kSite, MakeLineWorld(), bad).ok());

  bad = ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn);
  bad.scan_boundary.depart_radius = 0.5;  // < origin_radius: no hysteresis.
  EXPECT_FALSE(SitePipeline::Create(kSite, MakeLineWorld(), bad).ok());

  bad = ScanConfig(ScanBoundaryConfig::Mode::kIdleGap);
  bad.scan_boundary.idle_gap_seconds = 0.0;
  EXPECT_FALSE(SitePipeline::Create(kSite, MakeLineWorld(), bad).ok());
}

TEST(ScanBoundaryTest, DetectorStateSurvivesCheckpoint) {
  // Cut the stream mid-scan — after the reader departed but before it
  // returned — checkpoint, restore into a fresh pipeline, and feed the rest.
  // The restored run must close the scan exactly like the uninterrupted
  // one: same scan count, same events, same timestamps.
  const std::vector<ServeRecord> records = OutAndBack(0.0);
  const size_t cut = 6;  // Reader at y = 8..6: departed, not yet returned.

  auto run_events = [&records](SitePipeline* pipeline, SubscriptionBus* bus,
                               size_t from, size_t to,
                               std::vector<LocationEvent>* out) {
    bus->SubscribeEvents(
        [out](SiteId, const LocationEvent& e) { out->push_back(e); });
    for (size_t i = from; i < to; ++i) pipeline->OnRecord(records[i], bus);
  };

  // Uninterrupted reference.
  auto clean = SitePipeline::Create(
      kSite, MakeLineWorld(), ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn));
  ASSERT_TRUE(clean.ok());
  std::vector<LocationEvent> clean_events;
  {
    SubscriptionBus bus;
    run_events(clean.value().get(), &bus, 0, records.size(), &clean_events);
  }
  ASSERT_EQ(clean.value()->Stats().scan_completes, 1u);

  // Interrupted: process half, checkpoint, restore, process the rest.
  auto first = SitePipeline::Create(
      kSite, MakeLineWorld(), ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn));
  ASSERT_TRUE(first.ok());
  std::vector<LocationEvent> resumed_events;
  {
    SubscriptionBus bus;
    run_events(first.value().get(), &bus, 0, cut, &resumed_events);
  }
  std::stringstream checkpoint;
  ASSERT_TRUE(first.value()->SaveCheckpoint(checkpoint).ok());

  auto second = SitePipeline::Create(
      kSite, MakeLineWorld(), ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value()->LoadCheckpoint(checkpoint).ok());
  {
    SubscriptionBus bus;
    run_events(second.value().get(), &bus, cut, records.size(),
               &resumed_events);
  }
  EXPECT_EQ(second.value()->Stats().scan_completes, 1u);

  ASSERT_EQ(clean_events.size(), resumed_events.size());
  for (size_t i = 0; i < clean_events.size(); ++i) {
    EXPECT_EQ(clean_events[i].time, resumed_events[i].time) << "event " << i;
    EXPECT_EQ(clean_events[i].tag, resumed_events[i].tag) << "event " << i;
    EXPECT_EQ(clean_events[i].location, resumed_events[i].location)
        << "event " << i;
  }
}

/// The integer following `key` in `text` (a JSON field or a Prometheus
/// sample line), or -1 when `key` is absent.
long long ValueAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size()));
}

TEST(ScanBoundaryTest, ScanCompleteEventsReachTheDispatchCounter) {
  // Under kOnScanComplete every event leaves through a scan-complete flush.
  // The stats surface and the Prometheus counter must count them alike,
  // whether the flush came from a mid-stream boundary or from Flush().
  const SitePipelineConfig site =
      ScanConfig(ScanBoundaryConfig::Mode::kReaderReturn);
  ServeConfig config;
  config.num_shards = 1;
  config.epoch_seconds = site.epoch_seconds;
  config.max_lateness_seconds = site.max_lateness_seconds;
  config.scan_boundary = site.scan_boundary;
  config.engine = site.engine;
  std::vector<SiteSpec> specs;
  specs.push_back({kSite, MakeLineWorld()});
  auto server = StreamingServer::Create(std::move(specs), config);
  ASSERT_TRUE(server.ok());

  auto expect_counts_agree = [&server](uint64_t scans) {
    EXPECT_EQ(server.value()->FindSite(kSite)->Stats().scan_completes, scans);
    const long long dispatched =
        ValueAfter(server.value()->StatsJson(), "\"events_dispatched\": ");
    EXPECT_GT(dispatched, 0);
    EXPECT_EQ(ValueAfter(server.value()->MetricsPrometheus(),
                         "\nrfid_events_dispatched_total "),
              dispatched);
  };

  // A full out-and-back pass: the return to origin closes the scan.
  for (const ServeRecord& r : OutAndBack(0.0)) {
    ASSERT_TRUE(server.value()->Ingest(r));
  }
  server.value()->Pump();
  expect_counts_agree(1);

  // Half a pass, then the stream ends: Flush() closes the scan.
  const std::vector<ServeRecord> outbound = OutAndBack(20.0);
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.value()->Ingest(outbound[i]));
  }
  server.value()->Pump();
  server.value()->Flush();
  expect_counts_agree(2);
}

}  // namespace
}  // namespace rfid
