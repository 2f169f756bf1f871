// Kill-and-restore determinism of the serving layer's checkpoints.
//
// The load-bearing property: a server killed after a checkpoint and rebuilt
// from it produces, on the remaining records of a 200-epoch lab trace,
// exactly the events the uninterrupted run produced — bit-identical times,
// tags and coordinates. This requires the full resume state to round-trip:
// factored-filter belief + RNG (pf/snapshot.h), emitter scopes/work list,
// synchronizer pending epochs and watermark.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "core/experiment.h"
#include "model/spherical_sensor.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "sim/lab.h"
#include "util/crc32.h"

namespace rfid {
namespace {

constexpr SiteId kSite = 7;

/// The first `max_epochs` lab epochs flattened to raw serve records.
std::vector<ServeRecord> LabRecords(const LabDeployment& lab,
                                    size_t max_epochs) {
  std::vector<ServeRecord> records;
  size_t fed = 0;
  for (const SimEpoch& epoch : lab.trace.epochs) {
    if (fed++ >= max_epochs) break;
    const SyncedEpoch& obs = epoch.observations;
    if (obs.has_location) {
      ReaderLocationReport report;
      report.time = obs.time;
      report.location = obs.reported_location;
      report.has_heading = obs.has_heading;
      report.heading = obs.reported_heading;
      records.push_back(ServeRecord::Location(kSite, report));
    }
    for (TagId tag : obs.tags) {
      records.push_back(ServeRecord::Reading(kSite, {obs.time, tag}));
    }
  }
  return records;
}

ServeConfig LabServeConfig() {
  ServeConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 2.0;
  config.engine.factored.num_reader_particles = 30;
  config.engine.factored.num_object_particles = 120;
  config.engine.factored.seed = 97;
  config.engine.emitter.delay_seconds = 8.0;
  return config;
}

WorldModel LabModel(const LabDeployment& lab) {
  ExperimentModelOptions options;
  options.motion.delta = {};
  options.motion.sigma = {0.05, 0.15, 0.0};
  options.sensing.sigma = {0.3, 0.3, 0.0};
  return MakeWorldModel(lab.shelf_boxes, lab.shelf_tags,
                        std::make_unique<SphericalSensorModel>(lab.sensor),
                        options);
}

Result<std::unique_ptr<StreamingServer>> MakeLabServer(
    const LabDeployment& lab) {
  std::vector<SiteSpec> specs;
  specs.push_back({kSite, LabModel(lab)});
  return StreamingServer::Create(std::move(specs), LabServeConfig());
}

struct CollectedEvents {
  std::vector<LocationEvent> events;
  SubscriptionBus::EventCallback Callback() {
    return [this](SiteId, const LocationEvent& event) {
      events.push_back(event);
    };
  }
};

void ExpectBitIdentical(const std::vector<LocationEvent>& a,
                        const std::vector<LocationEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "event " << i;
    EXPECT_EQ(a[i].tag, b[i].tag) << "event " << i;
    EXPECT_EQ(a[i].location, b[i].location) << "event " << i;
    ASSERT_EQ(a[i].stats.has_value(), b[i].stats.has_value()) << "event " << i;
    if (a[i].stats) {
      EXPECT_EQ(a[i].stats->variance, b[i].stats->variance) << "event " << i;
      EXPECT_EQ(a[i].stats->rmse_radius, b[i].stats->rmse_radius);
      EXPECT_EQ(a[i].stats->support, b[i].stats->support);
    }
  }
}

class ServeCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("serve_ckpt_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Dir() const { return dir_.string(); }
  std::filesystem::path dir_;
};

TEST_F(ServeCheckpointTest, KillAndRestoreIsBitIdenticalOn200EpochLabTrace) {
  LabConfig lc;
  lc.seed = 501;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  ASSERT_GE(lab.value().trace.epochs.size(), 200u);
  const std::vector<ServeRecord> records = LabRecords(lab.value(), 200);
  // Cut roughly mid-trace, at a record boundary.
  const size_t cut = records.size() / 2;

  // Uninterrupted run, with a checkpoint taken mid-stream (the checkpoint
  // itself must not perturb the survivor's subsequent output).
  CollectedEvents full;
  size_t events_at_cut = 0;
  {
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    server.value()->bus().SubscribeEvents(full.Callback());
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(server.value()->Ingest(records[i]));
    }
    server.value()->Pump();
    ASSERT_TRUE(server.value()->Checkpoint(Dir()).ok());
    events_at_cut = full.events.size();
    for (size_t i = cut; i < records.size(); ++i) {
      ASSERT_TRUE(server.value()->Ingest(records[i]));
    }
    server.value()->Pump();
    server.value()->Flush();
  }
  ASSERT_GT(full.events.size(), events_at_cut);

  // "Kill": a brand-new server restores the checkpoint and replays only the
  // remaining records.
  CollectedEvents resumed;
  {
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(server.value()->Restore(Dir()).ok());
    server.value()->bus().SubscribeEvents(resumed.Callback());
    for (size_t i = cut; i < records.size(); ++i) {
      ASSERT_TRUE(server.value()->Ingest(records[i]));
    }
    server.value()->Pump();
    server.value()->Flush();

    const std::vector<LocationEvent> tail(full.events.begin() +
                                              static_cast<long>(events_at_cut),
                                          full.events.end());
    ExpectBitIdentical(tail, resumed.events);

    const SitePipeline* restored_site = server.value()->FindSite(kSite);
    ASSERT_NE(restored_site, nullptr);
    EXPECT_GT(restored_site->Stats().engine.epochs_processed, 0u);
  }
}

TEST_F(ServeCheckpointTest, RestoreRejectsWrongSiteAndMissingFiles) {
  LabConfig lc;
  lc.seed = 502;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());

  auto server = MakeLabServer(lab.value());
  ASSERT_TRUE(server.ok());
  // No checkpoint written yet: restore must fail cleanly.
  EXPECT_FALSE(server.value()->Restore(Dir()).ok());

  const std::vector<ServeRecord> records = LabRecords(lab.value(), 40);
  for (const ServeRecord& record : records) {
    ASSERT_TRUE(server.value()->Ingest(record));
  }
  server.value()->Pump();
  ASSERT_TRUE(server.value()->Checkpoint(Dir()).ok());

  // A truncated checkpoint file is rejected, not crashed on. The first
  // checkpoint into a fresh dir writes generation 1 with no previous
  // generation to fall back to, so the restore must fail outright.
  const std::string path = SiteGenerationPath(Dir(), kSite, 1);
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string bytes = buffer.str();
  ASSERT_FALSE(bytes.empty());
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<long>(bytes.size() / 2));
  }
  auto fresh = MakeLabServer(lab.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value()->Restore(Dir()).ok());
}

/// Reads a whole file into a string.
std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// Converts current-format (v4) site-checkpoint bytes into the legacy v3
/// layout: removes the scan-boundary detector section (the second CRC-framed
/// section, which v4 inserted) and patches the version. The other sections
/// are byte-identical between the two versions, so this is what real v3
/// files on disk look like.
std::string DownconvertToV3(const std::string& v4_bytes) {
  const std::string magic = v4_bytes.substr(0, 8);
  std::string out = magic;
  const uint32_t version = 3;
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  size_t pos = 8 + sizeof(uint32_t);
  size_t section = 0;
  while (pos < v4_bytes.size()) {
    uint64_t length = 0;
    std::memcpy(&length, v4_bytes.data() + pos, sizeof(length));
    const size_t frame_size =
        sizeof(uint64_t) + sizeof(uint32_t) + static_cast<size_t>(length);
    if (section != 1) {  // Section 1 is the v4 detector — drop it whole.
      out += v4_bytes.substr(pos, frame_size);
    }
    pos += frame_size;
    ++section;
  }
  return out;
}

TEST_F(ServeCheckpointTest, LoadsLegacyV3Checkpoints) {
  // v3 site checkpoints (the previous release's layout, no detector
  // section) must restore into today's pipeline — upgrading the binary
  // cannot force a cold start. The v3 file is placed as a bare legacy
  // `site_<id>.ckpt` with no manifest, exercising the legacy discovery
  // path too.
  LabConfig lc;
  lc.seed = 505;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  const std::vector<ServeRecord> records = LabRecords(lab.value(), 60);

  auto server = MakeLabServer(lab.value());
  ASSERT_TRUE(server.ok());
  for (const ServeRecord& record : records) {
    ASSERT_TRUE(server.value()->Ingest(record));
  }
  server.value()->Pump();
  ASSERT_TRUE(server.value()->Checkpoint(Dir()).ok());

  const std::string v4_bytes =
      Slurp(SiteGenerationPath(Dir(), kSite, 1));
  ASSERT_FALSE(v4_bytes.empty());
  const std::string legacy_dir = Dir() + "_legacy";
  std::filesystem::create_directories(legacy_dir);
  {
    std::ofstream os(SiteCheckpointPath(legacy_dir, kSite),
                     std::ios::binary | std::ios::trunc);
    const std::string v3_bytes = DownconvertToV3(v4_bytes);
    os.write(v3_bytes.data(), static_cast<long>(v3_bytes.size()));
  }

  auto fresh = MakeLabServer(lab.value());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.value()->Restore(legacy_dir).ok());
  const SitePipeline* restored = fresh.value()->FindSite(kSite);
  ASSERT_NE(restored, nullptr);
  const SitePipelineStats stats = restored->Stats();
  EXPECT_GT(stats.engine.epochs_processed, 0u);
  EXPECT_EQ(stats.records_quarantined, 0u);
  std::filesystem::remove_all(legacy_dir);
}

/// Checkpoint bytes with the one wall-clock field — the engine's
/// processing_seconds, the last 8 bytes of the stats section (the fifth
/// framed section) — zeroed and that section's CRC re-sealed, so the rest
/// can be compared across runs.
std::string WithoutWallClock(std::string bytes) {
  size_t pos = 8 + sizeof(uint32_t);
  for (int section = 0; section < 5; ++section) {
    uint64_t length = 0;
    std::memcpy(&length, bytes.data() + pos, sizeof(length));
    const size_t payload = pos + sizeof(uint64_t) + sizeof(uint32_t);
    if (section == 4) {
      std::memset(&bytes[payload + length - sizeof(double)], 0,
                  sizeof(double));
      const uint32_t crc = Crc32(bytes.data() + payload, length);
      std::memcpy(&bytes[pos + sizeof(uint64_t)], &crc, sizeof(crc));
    }
    pos = payload + length;
  }
  return bytes;
}

TEST_F(ServeCheckpointTest, StreamingWriterReproducesPinnedBytes) {
  // Size and CRC-32 of this scenario's site checkpoint, with the filter
  // snapshot nested in its last section at v5. The same checkpoint with a
  // v4 snapshot was 91,766 B (tests/fixtures/site_checkpoint_v4.bin).
  LabConfig lc;
  lc.seed = 505;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  auto server = MakeLabServer(lab.value());
  ASSERT_TRUE(server.ok());
  for (const ServeRecord& record : LabRecords(lab.value(), 60)) {
    ASSERT_TRUE(server.value()->Ingest(record));
  }
  server.value()->Pump();
  std::stringstream ss;
  ASSERT_TRUE(server.value()->FindSite(kSite)->SaveCheckpoint(ss).ok());
  const std::string bytes = WithoutWallClock(ss.str());
  EXPECT_EQ(bytes.size(), 57916u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x2F553AFAu);
}

TEST_F(ServeCheckpointTest, LoadsCheckpointsWithV4Snapshots) {
  // The site checkpoint carries no version of its own for the snapshot it
  // nests, so the previous release's files hold a v4 snapshot. This
  // scenario's checkpoint as that release wrote it (wall clock zeroed,
  // pinned below) must restore exactly like the live v5 round trip: same
  // estimates, the same events on the replayed tail, and a re-save that
  // writes today's bytes.
  const std::string v4 =
      Slurp(std::string(RFID_TEST_FIXTURE_DIR) + "/site_checkpoint_v4.bin");
  ASSERT_EQ(v4.size(), 91766u);
  ASSERT_EQ(Crc32(v4.data(), v4.size()), 0xE94AA9E5u);

  LabConfig lc;
  lc.seed = 505;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  const std::vector<ServeRecord> head = LabRecords(lab.value(), 60);
  const std::vector<ServeRecord> all = LabRecords(lab.value(), 120);
  ASSERT_GT(all.size(), head.size());
  {
    auto live = MakeLabServer(lab.value());
    ASSERT_TRUE(live.ok());
    for (const ServeRecord& record : head) {
      ASSERT_TRUE(live.value()->Ingest(record));
    }
    live.value()->Pump();
    ASSERT_TRUE(live.value()->Checkpoint(Dir()).ok());
  }
  const std::string v4_dir = Dir() + "_v4";
  std::filesystem::create_directories(v4_dir);
  {
    std::ofstream os(SiteCheckpointPath(v4_dir, kSite),
                     std::ios::binary | std::ios::trunc);
    os.write(v4.data(), static_cast<long>(v4.size()));
  }

  CollectedEvents from_v5_events, from_v4_events;
  auto from_v5 = MakeLabServer(lab.value());
  auto from_v4 = MakeLabServer(lab.value());
  ASSERT_TRUE(from_v5.ok());
  ASSERT_TRUE(from_v4.ok());
  ASSERT_TRUE(from_v5.value()->Restore(Dir()).ok());
  ASSERT_TRUE(from_v4.value()->Restore(v4_dir).ok());
  std::filesystem::remove_all(v4_dir);

  const SitePipeline* site_v5 = from_v5.value()->FindSite(kSite);
  const SitePipeline* site_v4 = from_v4.value()->FindSite(kSite);
  ASSERT_NE(site_v5, nullptr);
  ASSERT_NE(site_v4, nullptr);
  std::stringstream resaved_v5, resaved_v4;
  ASSERT_TRUE(site_v5->SaveCheckpoint(resaved_v5).ok());
  ASSERT_TRUE(site_v4->SaveCheckpoint(resaved_v4).ok());
  EXPECT_EQ(WithoutWallClock(resaved_v4.str()),
            WithoutWallClock(resaved_v5.str()));
  EXPECT_EQ(WithoutWallClock(resaved_v4.str()).size(), 57916u);

  size_t estimated = 0;
  for (const ServeRecord& record : head) {
    if (record.kind != ServeRecord::Kind::kReading) continue;
    const TagId tag = record.reading.tag;
    const auto a = site_v5->engine().EstimateObject(tag);
    const auto b = site_v4->engine().EstimateObject(tag);
    ASSERT_EQ(a.has_value(), b.has_value()) << "tag " << tag;
    if (!a) continue;
    ++estimated;
    EXPECT_EQ(a->mean, b->mean) << "tag " << tag;
    EXPECT_EQ(a->variance, b->variance) << "tag " << tag;
    EXPECT_EQ(a->support, b->support) << "tag " << tag;
  }
  EXPECT_GT(estimated, 0u);
  EXPECT_EQ(site_v5->engine().EstimateReader().mean,
            site_v4->engine().EstimateReader().mean);

  from_v5.value()->bus().SubscribeEvents(from_v5_events.Callback());
  from_v4.value()->bus().SubscribeEvents(from_v4_events.Callback());
  for (size_t i = head.size(); i < all.size(); ++i) {
    ASSERT_TRUE(from_v5.value()->Ingest(all[i]));
    ASSERT_TRUE(from_v4.value()->Ingest(all[i]));
  }
  for (auto* server : {&from_v5, &from_v4}) {
    server->value()->Pump();
    server->value()->Flush();
  }
  ASSERT_GT(from_v5_events.events.size(), 0u);
  ExpectBitIdentical(from_v5_events.events, from_v4_events.events);
}

TEST_F(ServeCheckpointTest, RejectsV2CheckpointsOutsideTheWindow) {
  // v2 fell out of the one-back load window when v4 became the writer. The
  // rejection must name the oldest loadable version — deprecation, not
  // corruption.
  LabConfig lc;
  lc.seed = 506;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());

  std::filesystem::create_directories(Dir());
  {
    std::ofstream os(SiteCheckpointPath(Dir(), kSite),
                     std::ios::binary | std::ios::trunc);
    os.write("RFIDSITE", 8);
    const uint32_t version = 2;
    os.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  auto server = MakeLabServer(lab.value());
  ASSERT_TRUE(server.ok());
  const Status status = server.value()->Restore(Dir());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported site checkpoint version 2"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("oldest loadable is v3"), std::string::npos)
      << status.message();
}

TEST_F(ServeCheckpointTest, FailedRestoreLeavesPipelineReplayable) {
  // Regression: LoadCheckpoint used to mutate the synchronizer and emitter
  // in place before later reads could still fail, so a truncated checkpoint
  // left a half-restored pipeline behind. After a failed Restore the server
  // must behave exactly like a fresh one — replaying the full stream on it
  // has to reproduce the clean run's events bit for bit.
  LabConfig lc;
  lc.seed = 504;
  lc.tags_per_row = 12;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  const std::vector<ServeRecord> records = LabRecords(lab.value(), 120);

  // Write a checkpoint mid-stream, then truncate it on disk. The cut lands
  // past the synchronizer/emitter sections (they sit near the front), so
  // the load fails only at the filter snapshot — the deepest point.
  {
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    for (size_t i = 0; i < records.size() / 2; ++i) {
      ASSERT_TRUE(server.value()->Ingest(records[i]));
    }
    server.value()->Pump();
    ASSERT_TRUE(server.value()->Checkpoint(Dir()).ok());
  }
  const std::string path = SiteGenerationPath(Dir(), kSite, 1);
  const std::string bytes = Slurp(path);
  ASSERT_FALSE(bytes.empty());
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<long>(bytes.size() - 16));
  }

  // Clean reference run over the full stream.
  CollectedEvents clean;
  {
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    server.value()->bus().SubscribeEvents(clean.Callback());
    for (const ServeRecord& record : records) {
      ASSERT_TRUE(server.value()->Ingest(record));
    }
    server.value()->Pump();
    server.value()->Flush();
  }
  ASSERT_GT(clean.events.size(), 0u);

  // Failed restore, then the same full stream on the same server.
  CollectedEvents after_failure;
  {
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    ASSERT_FALSE(server.value()->Restore(Dir()).ok());
    server.value()->bus().SubscribeEvents(after_failure.Callback());
    for (const ServeRecord& record : records) {
      ASSERT_TRUE(server.value()->Ingest(record));
    }
    server.value()->Pump();
    server.value()->Flush();
  }
  ExpectBitIdentical(clean.events, after_failure.events);
}

TEST_F(ServeCheckpointTest, CheckpointSurvivesContinuedServing) {
  // Checkpoint, keep serving, checkpoint again into a second dir, restore
  // the *second* checkpoint: the tail after it must match as well (the
  // checkpoint machinery composes over a server's lifetime).
  LabConfig lc;
  lc.seed = 503;
  lc.tags_per_row = 12;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  const std::vector<ServeRecord> records = LabRecords(lab.value(), 120);
  const size_t cut1 = records.size() / 3;
  const size_t cut2 = 2 * records.size() / 3;
  const std::string dir2 = Dir() + "_second";

  CollectedEvents full;
  size_t events_at_cut2 = 0;
  {
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    server.value()->bus().SubscribeEvents(full.Callback());
    for (size_t i = 0; i < cut1; ++i) {
      ASSERT_TRUE(server.value()->Ingest(records[i]));
    }
    server.value()->Pump();
    ASSERT_TRUE(server.value()->Checkpoint(Dir()).ok());
    for (size_t i = cut1; i < cut2; ++i) {
      ASSERT_TRUE(server.value()->Ingest(records[i]));
    }
    server.value()->Pump();
    ASSERT_TRUE(server.value()->Checkpoint(dir2).ok());
    events_at_cut2 = full.events.size();
    for (size_t i = cut2; i < records.size(); ++i) {
      ASSERT_TRUE(server.value()->Ingest(records[i]));
    }
    server.value()->Pump();
    server.value()->Flush();
  }

  CollectedEvents resumed;
  {
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(server.value()->Restore(dir2).ok());
    server.value()->bus().SubscribeEvents(resumed.Callback());
    for (size_t i = cut2; i < records.size(); ++i) {
      ASSERT_TRUE(server.value()->Ingest(records[i]));
    }
    server.value()->Pump();
    server.value()->Flush();
  }
  const std::vector<LocationEvent> tail(
      full.events.begin() + static_cast<long>(events_at_cut2),
      full.events.end());
  ExpectBitIdentical(tail, resumed.events);
  std::filesystem::remove_all(dir2);
}

TEST_F(ServeCheckpointTest, RestoreWithLiveSubscriptionsResetsOperatorState) {
  // Restore() on a live server must re-register per-site operator state
  // cleanly: the stale instances built from the pre-restore stream are
  // dropped, the restored stream rebuilds exactly one instance per
  // (subscription, site), and the rebuilt operator's output matches a
  // server whose subscription never saw the stale stream at all.
  LabConfig lc;
  lc.seed = 505;
  lc.tags_per_row = 12;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  const std::vector<ServeRecord> records = LabRecords(lab.value(), 120);
  const size_t cut = records.size() / 2;

  auto server = MakeLabServer(lab.value());
  ASSERT_TRUE(server.ok());
  CollectedEvents live_updates;
  const auto sub_id = server.value()->bus().SubscribeLocationUpdates(
      0.1, live_updates.Callback());

  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(server.value()->Ingest(records[i]));
  }
  server.value()->Pump();
  ASSERT_TRUE(server.value()->Checkpoint(Dir()).ok());
  // Keep serving past the checkpoint so the operator accumulates state the
  // restore must throw away.
  for (size_t i = cut; i < records.size(); ++i) {
    ASSERT_TRUE(server.value()->Ingest(records[i]));
  }
  server.value()->Pump();
  {
    const auto rows = server.value()->bus().OperatorStatsSnapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].subscription, sub_id);
    EXPECT_EQ(rows[0].site, kSite);
  }

  // Rewind the live server. The subscription survives; its operator state
  // must not.
  ASSERT_TRUE(server.value()->Restore(Dir()).ok());
  EXPECT_TRUE(server.value()->bus().OperatorStatsSnapshot().empty());

  // Replay the tail. Exactly one operator instance re-materializes — no
  // duplicate rows, no leaked instance from before the restore.
  const size_t updates_before_replay = live_updates.events.size();
  for (size_t i = cut; i < records.size(); ++i) {
    ASSERT_TRUE(server.value()->Ingest(records[i]));
  }
  server.value()->Pump();
  server.value()->Flush();
  const auto rows = server.value()->bus().OperatorStatsSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].subscription, sub_id);
  EXPECT_EQ(rows[0].site, kSite);

  // The rebuilt operator behaves as if freshly registered: a control
  // server restored from the same checkpoint with a brand-new subscription
  // produces the identical update stream over the tail.
  CollectedEvents control_updates;
  {
    auto control = MakeLabServer(lab.value());
    ASSERT_TRUE(control.ok());
    ASSERT_TRUE(control.value()->Restore(Dir()).ok());
    control.value()->bus().SubscribeLocationUpdates(
        0.1, control_updates.Callback());
    for (size_t i = cut; i < records.size(); ++i) {
      ASSERT_TRUE(control.value()->Ingest(records[i]));
    }
    control.value()->Pump();
    control.value()->Flush();
  }
  const std::vector<LocationEvent> replayed(
      live_updates.events.begin() +
          static_cast<long>(updates_before_replay),
      live_updates.events.end());
  ExpectBitIdentical(replayed, control_updates.events);
}

}  // namespace
}  // namespace rfid
