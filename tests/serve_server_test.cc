// StreamingServer: end-to-end multi-site serving, determinism of per-site
// event streams across threading modes, backpressure accounting, per-site
// counts against the metrics registry, and a concurrency stress aimed at
// the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "pf/factored_filter.h"
#include "serve/server.h"
#include "sim/trace.h"
#include "util/fault.h"

namespace rfid {
namespace {

struct SiteTraffic {
  WarehouseLayout layout;
  std::vector<ServeRecord> records;
  TagId first_object_tag = 0;
};

/// A small warehouse site flattened to raw serve records (one location
/// report plus the epoch's readings per simulated epoch, in time order).
SiteTraffic MakeSiteTraffic(SiteId site, uint64_t seed,
                            int objects_per_shelf = 4) {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 6.0;
  wc.objects_per_shelf = objects_per_shelf;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  EXPECT_TRUE(layout.ok());
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), RobotConfig{}, {}, sensor, seed);
  const SimulatedTrace trace = gen.Generate();

  SiteTraffic traffic;
  traffic.layout = layout.value();
  traffic.first_object_tag = wc.first_object_tag;
  for (const SimEpoch& epoch : trace.epochs) {
    const SyncedEpoch& obs = epoch.observations;
    if (obs.has_location) {
      ReaderLocationReport report;
      report.time = obs.time;
      report.location = obs.reported_location;
      report.has_heading = obs.has_heading;
      report.heading = obs.reported_heading;
      traffic.records.push_back(ServeRecord::Location(site, report));
    }
    for (TagId tag : obs.tags) {
      traffic.records.push_back(ServeRecord::Reading(site, {obs.time, tag}));
    }
  }
  return traffic;
}

ServeConfig SmallServeConfig(int num_shards, int num_threads) {
  ServeConfig config;
  config.num_shards = num_shards;
  config.num_threads = num_threads;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 2.0;
  config.engine.factored.num_reader_particles = 30;
  config.engine.factored.num_object_particles = 100;
  config.engine.factored.seed = 41;
  config.engine.emitter.delay_seconds = 5.0;
  return config;
}

WorldModel SiteModel(const SiteTraffic& traffic) {
  return MakeWorldModel(traffic.layout, std::make_unique<ConeSensorModel>());
}

/// Thread-safe per-site event log (callbacks fire on pump lanes).
struct EventLog {
  std::mutex mu;
  std::map<SiteId, std::vector<LocationEvent>> events;

  SubscriptionBus::EventCallback Callback() {
    return [this](SiteId site, const LocationEvent& event) {
      std::lock_guard<std::mutex> lock(mu);
      events[site].push_back(event);
    };
  }
};

void ExpectIdenticalEventStreams(
    const std::map<SiteId, std::vector<LocationEvent>>& a,
    const std::map<SiteId, std::vector<LocationEvent>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [site, events_a] : a) {
    const auto it = b.find(site);
    ASSERT_NE(it, b.end()) << "site " << site;
    const auto& events_b = it->second;
    ASSERT_EQ(events_a.size(), events_b.size()) << "site " << site;
    for (size_t i = 0; i < events_a.size(); ++i) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(events_a[i].time, events_b[i].time);
      EXPECT_EQ(events_a[i].tag, events_b[i].tag);
      EXPECT_EQ(events_a[i].location, events_b[i].location);
    }
  }
}

TEST(StreamingServerTest, InlineTwoSitesServeEventsAndStats) {
  const SiteTraffic site1 = MakeSiteTraffic(1, 301);
  const SiteTraffic site2 = MakeSiteTraffic(2, 302);
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(site1)});
  specs.push_back({2, SiteModel(site2)});
  auto server = StreamingServer::Create(std::move(specs),
                                        SmallServeConfig(2, 1));
  ASSERT_TRUE(server.ok());

  EventLog log;
  server.value()->bus().SubscribeEvents(log.Callback());

  size_t pushed = 0;
  for (const auto* traffic : {&site1, &site2}) {
    for (const ServeRecord& record : traffic->records) {
      ASSERT_TRUE(server.value()->Ingest(record));
      ++pushed;
    }
  }
  server.value()->Pump();
  server.value()->Flush();

  EXPECT_GT(log.events[1].size(), 0u);
  EXPECT_GT(log.events[2].size(), 0u);

  const ServerStatsSnapshot stats = server.value()->Stats();
  EXPECT_EQ(stats.TotalRecordsProcessed(), pushed);
  EXPECT_EQ(stats.TotalDroppedLate(), 0u);
  EXPECT_EQ(stats.TotalEventsDispatched(),
            log.events[1].size() + log.events[2].size());
  const std::string json = server.value()->StatsJson();
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\""), std::string::npos);

  // Estimates are reachable through the site pipeline.
  const SitePipeline* pipeline = server.value()->FindSite(1);
  ASSERT_NE(pipeline, nullptr);
  EXPECT_TRUE(pipeline->engine()
                  .EstimateObject(site1.first_object_tag)
                  .has_value());
  EXPECT_EQ(server.value()->FindSite(99), nullptr);
}

/// The integer following `key` in `text` (a JSON field or a Prometheus
/// sample line), or -1 when `key` is absent.
long long ValueAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size()));
}

TEST(StreamingServerTest, ScanCompleteSubscriptionsEmitOnFlush) {
  // Regression: the serving path never called NotifyScanComplete, so a
  // kOnScanComplete emitter policy produced zero events through the bus —
  // every epoch deferred to a scan boundary that never came. Flush() is
  // that boundary now.
  const SiteTraffic site1 = MakeSiteTraffic(1, 321);
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(site1)});
  ServeConfig config = SmallServeConfig(1, 1);
  config.engine.emitter.policy = EmitPolicy::kOnScanComplete;
  auto server = StreamingServer::Create(std::move(specs), config);
  ASSERT_TRUE(server.ok());

  EventLog log;
  server.value()->bus().SubscribeEvents(log.Callback());
  for (const ServeRecord& record : site1.records) {
    ASSERT_TRUE(server.value()->Ingest(record));
  }
  server.value()->Pump();
  // Mid-stream the policy holds everything back by design.
  EXPECT_EQ(log.events[1].size(), 0u);

  server.value()->Flush();
  EXPECT_GT(log.events[1].size(), 0u);

  // A second Flush with no new epochs is a no-op, not a duplicate scan.
  const size_t after_first_flush = log.events[1].size();
  server.value()->Flush();
  EXPECT_EQ(log.events[1].size(), after_first_flush);

  // The dispatch is counted like any other, and the scan boundary stamps
  // every event with the final epoch's time.
  const ServerStatsSnapshot stats = server.value()->Stats();
  EXPECT_EQ(stats.TotalEventsDispatched(), log.events[1].size());
  ASSERT_EQ(stats.shards.size(), 1u);
  ASSERT_EQ(stats.shards[0].sites.size(), 1u);
  EXPECT_EQ(stats.shards[0].sites[0].scan_completes, 1u);
  const double last_time = site1.records.back().kind ==
                                   ServeRecord::Kind::kReading
                               ? site1.records.back().reading.time
                               : site1.records.back().location.time;
  for (const LocationEvent& event : log.events[1]) {
    EXPECT_GE(event.time + 1e-9, std::floor(last_time));
  }
  // Every one of those events left through the scan-complete flush, and
  // the stats surface and the Prometheus counter count them alike.
  const long long dispatched =
      ValueAfter(server.value()->StatsJson(), "\"events_dispatched\": ");
  EXPECT_EQ(dispatched, static_cast<long long>(log.events[1].size()));
  EXPECT_EQ(ValueAfter(server.value()->MetricsPrometheus(),
                       "\nrfid_events_dispatched_total "),
            dispatched);

  // Under the after-delay policy the stream end is no scan boundary.
  std::vector<SiteSpec> delay_specs;
  delay_specs.push_back({1, SiteModel(site1)});
  auto delay_server =
      StreamingServer::Create(std::move(delay_specs), SmallServeConfig(1, 1));
  ASSERT_TRUE(delay_server.ok());
  for (const ServeRecord& record : site1.records) {
    ASSERT_TRUE(delay_server.value()->Ingest(record));
  }
  delay_server.value()->Pump();
  delay_server.value()->Flush();
  EXPECT_EQ(delay_server.value()->FindSite(1)->Stats().scan_completes, 0u);
  EXPECT_GT(delay_server.value()->Stats().TotalEventsDispatched(), 0u);
}

TEST(StreamingServerTest, ThreadedRunMatchesInlineRunBitwise) {
  const SiteTraffic site1 = MakeSiteTraffic(1, 311);
  const SiteTraffic site2 = MakeSiteTraffic(2, 312);

  // Inline reference run: single thread, pump after every ingest to get the
  // earliest possible processing schedule.
  EventLog inline_log;
  {
    std::vector<SiteSpec> specs;
    specs.push_back({1, SiteModel(site1)});
    specs.push_back({2, SiteModel(site2)});
    auto server = StreamingServer::Create(std::move(specs),
                                          SmallServeConfig(2, 1));
    ASSERT_TRUE(server.ok());
    server.value()->bus().SubscribeEvents(inline_log.Callback());
    for (const auto* traffic : {&site1, &site2}) {
      for (const ServeRecord& record : traffic->records) {
        ASSERT_TRUE(server.value()->Ingest(record));
      }
      server.value()->Pump();
    }
    server.value()->Flush();
  }

  // Threaded run: driver thread + pool lanes + two concurrent producers.
  // Each site's records keep their relative order (one producer per site),
  // so every site's event stream must be bit-identical to the inline run
  // no matter how the shards interleave.
  EventLog threaded_log;
  {
    std::vector<SiteSpec> specs;
    specs.push_back({1, SiteModel(site1)});
    specs.push_back({2, SiteModel(site2)});
    auto server = StreamingServer::Create(std::move(specs),
                                          SmallServeConfig(2, 3));
    ASSERT_TRUE(server.ok());
    server.value()->bus().SubscribeEvents(threaded_log.Callback());
    server.value()->Start();
    std::vector<std::thread> producers;
    for (const auto* traffic : {&site1, &site2}) {
      producers.emplace_back([&server, traffic] {
        for (const ServeRecord& record : traffic->records) {
          ASSERT_TRUE(server.value()->Ingest(record));
        }
      });
    }
    for (auto& producer : producers) producer.join();
    server.value()->Stop();
    server.value()->Flush();
  }

  ExpectIdenticalEventStreams(inline_log.events, threaded_log.events);
}

/// Sites of uneven size (2 to 8 objects per shelf) and their records
/// interleaved round-robin, keeping each site's own order: the ingest order
/// of every one-shard run below.
struct UnevenFleet {
  std::vector<SiteTraffic> sites;
  std::vector<ServeRecord> interleaved;
};

UnevenFleet MakeUnevenFleet() {
  UnevenFleet fleet;
  const int objects_per_shelf[] = {2, 8, 3, 6};
  size_t longest = 0;
  for (size_t i = 0; i < 4; ++i) {
    fleet.sites.push_back(MakeSiteTraffic(static_cast<SiteId>(i + 1), 500 + i,
                                          objects_per_shelf[i]));
    longest = std::max(longest, fleet.sites.back().records.size());
  }
  for (size_t r = 0; r < longest; ++r) {
    for (const SiteTraffic& site : fleet.sites) {
      if (r < site.records.size()) fleet.interleaved.push_back(site.records[r]);
    }
  }
  return fleet;
}

/// What one site's run leaves observable: its event stream, the estimate
/// of every object tag, its engine counters and its health.
struct SiteOutcome {
  std::vector<LocationEvent> events;
  std::vector<std::optional<LocationEstimate>> estimates;
  size_t epochs = 0;
  size_t readings = 0;
  size_t events_emitted = 0;
  uint64_t particle_updates = 0;
  uint64_t remap_resolves = 0;
  uint64_t failures = 0;
  uint64_t recoveries = 0;
  uint64_t records_dropped_parked = 0;
  bool parked = false;
};

std::map<SiteId, SiteOutcome> Outcomes(const StreamingServer& server,
                                       const UnevenFleet& fleet,
                                       EventLog& log) {
  std::map<SiteId, SiteOutcome> out;
  const ServerStatsSnapshot stats = server.Stats();
  for (const ShardStatsSnapshot& shard : stats.shards) {
    for (const SitePipelineStats& site : shard.sites) {
      SiteOutcome& o = out[site.site];
      o.events = log.events[site.site];
      o.epochs = site.engine.epochs_processed;
      o.readings = site.engine.readings_processed;
      o.events_emitted = site.engine.events_emitted;
      o.failures = site.pipeline_failures;
      o.recoveries = site.recoveries;
      o.records_dropped_parked = site.records_dropped_parked;
      o.parked = site.parked;
      const SitePipeline* pipeline = server.FindSite(site.site);
      const auto& filter = dynamic_cast<const FactoredParticleFilter&>(
          pipeline->engine().filter());
      o.particle_updates = filter.particle_updates();
      o.remap_resolves = filter.remap_resolves();
      const SiteTraffic& traffic = fleet.sites[site.site - 1];
      for (const ObjectPlacement& object : traffic.layout.objects) {
        o.estimates.push_back(pipeline->engine().EstimateObject(object.tag));
      }
    }
  }
  return out;
}

void ExpectSameOutcome(const SiteOutcome& a, const SiteOutcome& b,
                       SiteId site) {
  ExpectIdenticalEventStreams({{site, a.events}}, {{site, b.events}});
  ASSERT_EQ(a.estimates.size(), b.estimates.size()) << "site " << site;
  for (size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value())
        << "site " << site << " object " << i;
    if (!a.estimates[i].has_value()) continue;
    EXPECT_EQ(a.estimates[i]->mean, b.estimates[i]->mean)
        << "site " << site << " object " << i;
    EXPECT_EQ(a.estimates[i]->variance, b.estimates[i]->variance)
        << "site " << site << " object " << i;
    EXPECT_EQ(a.estimates[i]->support, b.estimates[i]->support)
        << "site " << site << " object " << i;
  }
  EXPECT_EQ(a.epochs, b.epochs) << "site " << site;
  EXPECT_EQ(a.readings, b.readings) << "site " << site;
  EXPECT_EQ(a.events_emitted, b.events_emitted) << "site " << site;
  EXPECT_EQ(a.particle_updates, b.particle_updates) << "site " << site;
  EXPECT_EQ(a.remap_resolves, b.remap_resolves) << "site " << site;
  EXPECT_EQ(a.failures, b.failures) << "site " << site;
  EXPECT_EQ(a.recoveries, b.recoveries) << "site " << site;
  EXPECT_EQ(a.records_dropped_parked, b.records_dropped_parked)
      << "site " << site;
  EXPECT_EQ(a.parked, b.parked) << "site " << site;
}

std::unique_ptr<StreamingServer> MakeUnevenServer(const UnevenFleet& fleet,
                                                  int num_threads) {
  std::vector<SiteSpec> specs;
  for (const SiteTraffic& traffic : fleet.sites) {
    specs.push_back({traffic.records.front().site, SiteModel(traffic)});
  }
  ServeConfig config = SmallServeConfig(1, num_threads);
  config.queue_capacity = 8192;
  config.recovery.max_restarts = 1;
  config.recovery.checkpoint_backoff_ms = 0.0;
  auto server = StreamingServer::Create(std::move(specs), config);
  EXPECT_TRUE(server.ok());
  return std::move(server).value();
}

/// Inline drive: a pump after every block of 48 records, so each sweep pops
/// records of several sites at once. A checkpoint into `ckpt_dir` (when
/// set) a third of the way in gives site recovery something to restore.
std::map<SiteId, SiteOutcome> RunInline(const UnevenFleet& fleet,
                                        int num_threads,
                                        const std::string& ckpt_dir = "") {
  auto server = MakeUnevenServer(fleet, num_threads);
  EventLog log;
  server->bus().SubscribeEvents(log.Callback());
  const std::vector<ServeRecord>& records = fleet.interleaved;
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(server->Ingest(records[i]));
    if (i % 48 == 47) server->Pump();
    if (!ckpt_dir.empty() && i == records.size() / 3) {
      EXPECT_TRUE(server->Checkpoint(ckpt_dir).ok());
    }
  }
  server->Pump();
  server->Flush();
  return Outcomes(*server, fleet, log);
}

/// Driver-thread drive: one producer per site racing the driver's sweeps.
std::map<SiteId, SiteOutcome> RunDriven(const UnevenFleet& fleet,
                                        int num_threads) {
  auto server = MakeUnevenServer(fleet, num_threads);
  EventLog log;
  server->bus().SubscribeEvents(log.Callback());
  server->Start();
  std::vector<std::thread> producers;
  for (const SiteTraffic& traffic : fleet.sites) {
    producers.emplace_back([&server, &traffic] {
      for (const ServeRecord& record : traffic.records) {
        EXPECT_TRUE(server->Ingest(record));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  server->Stop();
  server->Flush();
  return Outcomes(*server, fleet, log);
}

TEST(StreamingServerTest, OneShardSitesMatchInlineAtAnyWidth) {
  // One shard holds every site, so only the sweep's site fan-out spreads
  // work across lanes: each site's output must not depend on how many lanes
  // there are, which lane ran it, or how driver sweeps cut the stream.
  const UnevenFleet fleet = MakeUnevenFleet();
  const std::map<SiteId, SiteOutcome> reference = RunInline(fleet, 1);
  ASSERT_EQ(reference.size(), fleet.sites.size());
  for (const auto& [site, outcome] : reference) {
    ASSERT_FALSE(outcome.events.empty()) << "site " << site;
  }
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    const auto inline_run = RunInline(fleet, threads);
    const auto driven_run = RunDriven(fleet, threads);
    for (const auto& [site, outcome] : reference) {
      ExpectSameOutcome(outcome, inline_run.at(site), site);
      ExpectSameOutcome(outcome, driven_run.at(site), site);
    }
  }
}

TEST(StreamingServerTest, ShardMateFailureIsContainedUnderThreads) {
  // Site 2 throws through kPipelineStep while its shard-mates run on other
  // lanes of the same sweep: the first failure restores it from the
  // checkpoint, the next parks it (one restart allowed). Its shard-mates
  // must match the fault-free run, and the victim must end exactly as it
  // does on one lane.
  constexpr SiteId kVictim = 2;
  const UnevenFleet fleet = MakeUnevenFleet();
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("serve_shard_mate_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  const auto fault_free = RunInline(fleet, 2, (root / "clean").string());

  std::map<SiteId, SiteOutcome> faulty[2];
  const int widths[2] = {1, 2};
  for (int w = 0; w < 2; ++w) {
    FaultInjector injector(7);
    FaultRule crash;
    crash.probability = 0.04;
    crash.scopes = {kVictim};
    injector.Arm(FaultPoint::kPipelineStep, crash);
    ScopedFaultInjector installed(&injector);
    faulty[w] = RunInline(fleet, widths[w],
                          (root / ("faulty" + std::to_string(w))).string());
    EXPECT_GE(injector.fires(FaultPoint::kPipelineStep), 2u);
  }
  std::filesystem::remove_all(root);

  const SiteOutcome& victim = faulty[1].at(kVictim);
  EXPECT_EQ(victim.failures, 2u);
  EXPECT_EQ(victim.recoveries, 1u);
  EXPECT_TRUE(victim.parked);
  EXPECT_GT(victim.records_dropped_parked, 0u);
  ExpectSameOutcome(faulty[0].at(kVictim), victim, kVictim);
  for (const auto& [site, outcome] : fault_free) {
    if (site == kVictim) continue;
    ExpectSameOutcome(outcome, faulty[1].at(site), site);
  }
}

TEST(StreamingServerTest, UnknownSiteAndBadConfigRejected) {
  const SiteTraffic site1 = MakeSiteTraffic(1, 321);
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(site1)});
  auto server =
      StreamingServer::Create(std::move(specs), SmallServeConfig(2, 1));
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value()->Ingest(ServeRecord::Reading(99, {0.0, 1})));

  ServeConfig bad = SmallServeConfig(0, 1);
  std::vector<SiteSpec> specs2;
  specs2.push_back({1, SiteModel(site1)});
  EXPECT_FALSE(StreamingServer::Create(std::move(specs2), bad).ok());

  ServeConfig basic = SmallServeConfig(1, 1);
  basic.engine.filter = EngineConfig::FilterKind::kBasic;
  std::vector<SiteSpec> specs3;
  specs3.push_back({1, SiteModel(site1)});
  EXPECT_FALSE(StreamingServer::Create(std::move(specs3), basic).ok());

  // Epoch length and lateness bound, checked once, by the site pipeline,
  // whose status the server returns. A NaN epoch length drops every record
  // as late; an infinite one or a NaN bound closes no epoch before Flush().
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> kBadTiming[] = {
      {0.0, 2.0}, {-1.0, 2.0}, {nan, 2.0}, {inf, 2.0},
      {1.0, -1.0}, {1.0, nan}, {1.0, inf}};
  for (const auto& [epoch_seconds, lateness] : kBadTiming) {
    SCOPED_TRACE("epoch_seconds " + std::to_string(epoch_seconds) +
                 ", max_lateness_seconds " + std::to_string(lateness));
    SitePipelineConfig site_config;
    site_config.epoch_seconds = epoch_seconds;
    site_config.max_lateness_seconds = lateness;
    site_config.engine = SmallServeConfig(1, 1).engine;
    const auto pipeline =
        SitePipeline::Create(1, SiteModel(site1), site_config);
    ASSERT_FALSE(pipeline.ok());
    EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);

    ServeConfig timing = SmallServeConfig(1, 1);
    timing.epoch_seconds = epoch_seconds;
    timing.max_lateness_seconds = lateness;
    std::vector<SiteSpec> timing_specs;
    timing_specs.push_back({1, SiteModel(site1)});
    const auto server_status =
        StreamingServer::Create(std::move(timing_specs), timing).status();
    EXPECT_EQ(server_status.code(), StatusCode::kInvalidArgument);
  }

  std::vector<SiteSpec> dup;
  dup.push_back({1, SiteModel(site1)});
  dup.push_back({1, SiteModel(site1)});
  EXPECT_FALSE(
      StreamingServer::Create(std::move(dup), SmallServeConfig(2, 1)).ok());
}

TEST(StreamingServerTest, DropModeCountsRejections) {
  const SiteTraffic site1 = MakeSiteTraffic(1, 331);
  ServeConfig config = SmallServeConfig(1, 1);
  config.queue_capacity = 4;
  config.block_when_full = false;
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(site1)});
  auto server = StreamingServer::Create(std::move(specs), config);
  ASSERT_TRUE(server.ok());

  size_t accepted = 0, rejected = 0;
  for (size_t i = 0; i < 10 && i < site1.records.size(); ++i) {
    server.value()->Ingest(site1.records[i]) ? ++accepted : ++rejected;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 6u);
  server.value()->Pump();
  const ServerStatsSnapshot stats = server.value()->Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].queue.rejected_full, 6u);
  EXPECT_EQ(stats.shards[0].queue.high_water, 4u);
  // A full drop-mode queue loses only the records TryPush refused.
  EXPECT_EQ(stats.TotalRecordsProcessed(), accepted);
}

/// Three small sites' records interleaved round-robin (each site's own
/// order kept), with one malformed reading for site 2 a third of the way in.
std::vector<ServeRecord> ThreeSiteStream(
    const std::vector<SiteTraffic>& sites) {
  std::vector<ServeRecord> stream;
  size_t longest = 0;
  for (const SiteTraffic& site : sites) {
    longest = std::max(longest, site.records.size());
  }
  for (size_t r = 0; r < longest; ++r) {
    for (const SiteTraffic& site : sites) {
      if (r < site.records.size()) stream.push_back(site.records[r]);
    }
  }
  stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(stream.size() / 3),
                ServeRecord::Reading(2, {std::nan(""), 7}));
  return stream;
}

std::unique_ptr<StreamingServer> MakeThreeSiteServer(
    const std::vector<SiteTraffic>& sites, int num_threads) {
  std::vector<SiteSpec> specs;
  for (const SiteTraffic& traffic : sites) {
    specs.push_back({traffic.records.front().site, SiteModel(traffic)});
  }
  ServeConfig config = SmallServeConfig(2, num_threads);
  config.queue_capacity = 8192;
  auto server = StreamingServer::Create(std::move(specs), config);
  EXPECT_TRUE(server.ok());
  return std::move(server).value();
}

/// Each per-site count StatsJson sums beside the registry counter that
/// counts the same thing.
struct CounterPairs {
  uint64_t processed_stats = 0, processed_metric = 0;
  uint64_t events_stats = 0, events_metric = 0;
  uint64_t quarantined_stats = 0, quarantined_metric = 0;
};

CounterPairs ReadCounterPairs(const StreamingServer& server) {
  const ServerStatsSnapshot stats = server.Stats();
  obs::MetricsRegistry& registry = server.metrics();
  CounterPairs pairs;
  pairs.processed_stats = stats.TotalRecordsProcessed();
  pairs.processed_metric =
      registry.GetCounter("rfid_records_processed_total")->Value();
  pairs.events_stats = stats.TotalEventsDispatched();
  pairs.events_metric =
      registry.GetCounter("rfid_events_dispatched_total")->Value();
  for (const ShardStatsSnapshot& shard : stats.shards) {
    for (const SitePipelineStats& site : shard.sites) {
      pairs.quarantined_stats += site.records_quarantined;
    }
  }
  pairs.quarantined_metric =
      registry.GetCounter("rfid_records_quarantined_total")->Value();
  return pairs;
}

TEST(StreamingServerTest, SiteCountersMatchTheRegistryUntilARestore) {
  std::vector<SiteTraffic> sites;
  for (SiteId site = 1; site <= 3; ++site) {
    sites.push_back(MakeSiteTraffic(site, 360 + site));
  }
  const std::vector<ServeRecord> stream = ThreeSiteStream(sites);

  // One uninterrupted server: the snapshot's per-site sums and the
  // registry's counters count the same records and events at any width.
  CounterPairs uninterrupted;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    auto server = MakeThreeSiteServer(sites, threads);
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(server->Ingest(stream[i]));
      if (i % 64 == 63) server->Pump();
    }
    server->Pump();
    server->Flush();
    uninterrupted = ReadCounterPairs(*server);
    EXPECT_GT(uninterrupted.processed_stats, 0u);
    EXPECT_GT(uninterrupted.events_stats, 0u);
    EXPECT_EQ(uninterrupted.processed_stats, uninterrupted.processed_metric);
    EXPECT_EQ(uninterrupted.events_stats, uninterrupted.events_metric);
    EXPECT_EQ(uninterrupted.quarantined_stats, 1u);
    EXPECT_EQ(uninterrupted.quarantined_metric, 1u);
  }

  // Checkpoint mid-stream, restore into a fresh server and feed the rest.
  // The per-site counts come back from the checkpoint, while the new
  // server's registry counts only what that process did: StatsJson reads
  // checkpointed + new, the registry reads new.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("serve_counter_pairs_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const size_t cut = stream.size() / 2;
  CounterPairs at_checkpoint;
  {
    auto server = MakeThreeSiteServer(sites, 1);
    for (size_t i = 0; i < cut; ++i) ASSERT_TRUE(server->Ingest(stream[i]));
    ASSERT_TRUE(server->Checkpoint(dir.string()).ok());
    at_checkpoint = ReadCounterPairs(*server);
  }
  auto restored = MakeThreeSiteServer(sites, 1);
  ASSERT_TRUE(restored->Restore(dir.string()).ok());
  for (size_t i = cut; i < stream.size(); ++i) {
    ASSERT_TRUE(restored->Ingest(stream[i]));
  }
  restored->Pump();
  restored->Flush();
  const CounterPairs after = ReadCounterPairs(*restored);
  std::filesystem::remove_all(dir);

  EXPECT_GT(at_checkpoint.processed_stats, 0u);
  EXPECT_GT(after.processed_metric, 0u);
  EXPECT_EQ(after.processed_stats,
            at_checkpoint.processed_stats + after.processed_metric);
  EXPECT_EQ(after.events_stats,
            at_checkpoint.events_stats + after.events_metric);
  EXPECT_EQ(after.quarantined_stats, 1u);  // Before the cut, checkpointed.
  EXPECT_EQ(after.quarantined_metric, 0u);
  // The restored totals are the uninterrupted run's.
  EXPECT_EQ(after.processed_stats, uninterrupted.processed_stats);
  EXPECT_EQ(after.events_stats, uninterrupted.events_stats);
}

TEST(StreamingServerTest, RecordsIngestedBeforeStartAreProcessed) {
  // Ingest() does not signal the driver until running_ is set, so Start()
  // must prime the wakeup itself or pre-staged records would sit unpumped.
  const SiteTraffic site1 = MakeSiteTraffic(1, 341);
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(site1)});
  auto server =
      StreamingServer::Create(std::move(specs), SmallServeConfig(1, 2));
  ASSERT_TRUE(server.ok());
  for (const ServeRecord& record : site1.records) {
    ASSERT_TRUE(server.value()->Ingest(record));
  }
  server.value()->Start();
  // No further ingests: the primed driver alone must drain the queue.
  for (int i = 0; i < 200; ++i) {
    if (server.value()->Stats().TotalRecordsProcessed() ==
        site1.records.size()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.value()->Stop();
  EXPECT_EQ(server.value()->Stats().TotalRecordsProcessed(),
            site1.records.size());
}

TEST(StreamingServerTest, StopClosesQueuesAndShardPinsRoute) {
  const SiteTraffic site1 = MakeSiteTraffic(1, 351);
  ServeConfig config = SmallServeConfig(4, 1);
  // Pin the site away from its hash route.
  const int hashed = ShardRouter(4).ShardOf(1);
  const int pinned = (hashed + 1) % 4;
  config.shard_pins.push_back({1, pinned});
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(site1)});
  auto server = StreamingServer::Create(std::move(specs), config);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server.value()->router().ShardOf(1), pinned);

  ASSERT_TRUE(server.value()->Ingest(site1.records[0]));
  server.value()->Pump();
  const ServerStatsSnapshot stats = server.value()->Stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  EXPECT_EQ(stats.shards[static_cast<size_t>(pinned)].queue.pushed, 1u);

  // After Stop the ingest path fails fast instead of queueing into a
  // server nobody will pump.
  server.value()->Stop();
  EXPECT_FALSE(server.value()->Ingest(site1.records[1]));

  // Restart reopens the queues: the server serves again.
  server.value()->Start();
  EXPECT_TRUE(server.value()->Ingest(site1.records[1]));
  server.value()->Stop();
  EXPECT_EQ(server.value()->Stats().TotalRecordsProcessed(), 2u);

  // An out-of-range pin is a config error.
  ServeConfig bad = SmallServeConfig(2, 1);
  bad.shard_pins.push_back({1, 2});
  std::vector<SiteSpec> specs2;
  specs2.push_back({1, SiteModel(site1)});
  EXPECT_FALSE(StreamingServer::Create(std::move(specs2), bad).ok());
}

TEST(StreamingServerTest, ConcurrentIngestStressWithStatsPolling) {
  // Aimed at the TSan CI job: concurrent producers, a running driver, the
  // pool fanning shards, stats polled mid-flight, subscriptions firing.
  const int kSites = 4;
  std::vector<SiteTraffic> traffic;
  std::vector<SiteSpec> specs;
  for (int s = 0; s < kSites; ++s) {
    traffic.push_back(MakeSiteTraffic(static_cast<SiteId>(s + 1),
                                      400 + static_cast<uint64_t>(s)));
    specs.push_back({static_cast<SiteId>(s + 1), SiteModel(traffic.back())});
  }
  ServeConfig config = SmallServeConfig(3, 2);
  config.queue_capacity = 64;  // Small enough to exercise backpressure.
  auto server = StreamingServer::Create(std::move(specs), config);
  ASSERT_TRUE(server.ok());

  EventLog log;
  server.value()->bus().SubscribeEvents(log.Callback());
  server.value()->Start();

  std::vector<std::thread> producers;
  for (int s = 0; s < kSites; ++s) {
    producers.emplace_back([&server, &traffic, s] {
      for (const ServeRecord& record : traffic[static_cast<size_t>(s)].records) {
        ASSERT_TRUE(server.value()->Ingest(record));
      }
    });
  }
  for (int i = 0; i < 5; ++i) {
    (void)server.value()->StatsJson();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& producer : producers) producer.join();
  server.value()->Stop();
  server.value()->Flush();

  size_t total_records = 0;
  for (const auto& t : traffic) total_records += t.records.size();
  const ServerStatsSnapshot stats = server.value()->Stats();
  EXPECT_EQ(stats.TotalRecordsProcessed(), total_records);
  for (int s = 0; s < kSites; ++s) {
    EXPECT_GT(log.events[static_cast<SiteId>(s + 1)].size(), 0u);
  }
}

TEST(StreamingServerTest, ConcurrentStartStopIsSerialized) {
  // Start() and Stop() both touch the driver_ thread handle; before the
  // lifecycle lock, a start racing a stop could assign the handle while the
  // stop joined it (a data race TSan flags and a potential
  // std::terminate from assigning over a joinable thread). Hammer the
  // transitions from several threads with traffic flowing — the TSan CI
  // job runs this test.
  const SiteTraffic traffic = MakeSiteTraffic(1, 77);
  auto server = StreamingServer::Create({{1, SiteModel(traffic)}},
                                        SmallServeConfig(1, 2));
  ASSERT_TRUE(server.ok());
  StreamingServer& srv = *server.value();

  std::atomic<bool> stop_flag{false};
  std::vector<std::thread> cyclers;
  for (int t = 0; t < 3; ++t) {
    cyclers.emplace_back([&srv, &stop_flag] {
      while (!stop_flag.load()) {
        srv.Start();
        std::this_thread::yield();
        srv.Stop();
      }
    });
  }
  std::thread producer([&srv, &traffic, &stop_flag] {
    size_t i = 0;
    while (!stop_flag.load()) {
      // Drops are expected while stopped (queues closed); the point is
      // that ingest never crashes or wedges across restarts.
      (void)srv.Ingest(traffic.records[i % traffic.records.size()]);
      ++i;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop_flag.store(true);
  for (auto& cycler : cyclers) cycler.join();
  producer.join();

  srv.Stop();
  srv.Flush();
  // The server is still coherent: a final inline pump accepts nothing new
  // (queues closed) and stats assemble without tripping assertions.
  EXPECT_EQ(srv.Pump(), 0u);
  (void)srv.Stats();
}

}  // namespace
}  // namespace rfid
