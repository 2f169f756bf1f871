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

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "model/spherical_sensor.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "sim/lab.h"
#include "test_util.h"
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

/// Replaces a file's contents with `bytes`.
void Overwrite(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<long>(bytes.size()));
}

/// Checkpoints the first `epochs` lab epochs into `dir` through a real
/// server (manifest plus generation 1).
void CheckpointLabPrefix(const LabDeployment& lab, size_t epochs,
                         const std::string& dir) {
  auto server = MakeLabServer(lab);
  ASSERT_TRUE(server.ok());
  for (const ServeRecord& record : LabRecords(lab, epochs)) {
    ASSERT_TRUE(server.value()->Ingest(record));
  }
  server.value()->Pump();
  ASSERT_TRUE(server.value()->Checkpoint(dir).ok());
}

/// `bytes` with the site-checkpoint version field (after the 8-byte magic)
/// set to `version`; the framed sections that follow stay valid.
std::string WithVersion(std::string bytes, uint32_t version) {
  std::memcpy(&bytes[8], &version, sizeof(version));
  return bytes;
}

/// Converts current-format (v4) site-checkpoint bytes into the legacy v3
/// layout: removes the reserved section (the second CRC-framed section,
/// which v4 inserted for a scan-boundary detector) and patches the version. The other sections
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
    if (section != 1) {  // Section 1 is v4's reserved one — drop it whole.
      out += v4_bytes.substr(pos, frame_size);
    }
    pos += frame_size;
    ++section;
  }
  return out;
}

TEST_F(ServeCheckpointTest, LoadsLegacyV3Checkpoints) {
  // v3 site checkpoints (the previous release's layout, no reserved
  // section) must restore into today's pipeline — upgrading the binary
  // cannot force a cold start. The v3 bytes replace the generation a real
  // Checkpoint() wrote, so they load through the manifest like any other.
  LabConfig lc;
  lc.seed = 505;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  CheckpointLabPrefix(lab.value(), 60, Dir());

  const std::string gen1 = SiteGenerationPath(Dir(), kSite, 1);
  const std::string v4_bytes = Slurp(gen1);
  ASSERT_FALSE(v4_bytes.empty());
  Overwrite(gen1, DownconvertToV3(v4_bytes));

  auto fresh = MakeLabServer(lab.value());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.value()->Restore(Dir()).ok());
  const SitePipeline* restored = fresh.value()->FindSite(kSite);
  ASSERT_NE(restored, nullptr);
  const SitePipelineStats stats = restored->Stats();
  EXPECT_GT(stats.engine.epochs_processed, 0u);
  EXPECT_EQ(stats.records_quarantined, 0u);
}

/// `bytes` with `edit(payload, length)` applied to framed section
/// `section`'s payload and that section's CRC re-sealed, so only the
/// loader's own checks can refuse the result.
template <typename Edit>
std::string WithEditedSection(std::string bytes, int section, Edit edit) {
  size_t pos = 8 + sizeof(uint32_t);
  uint64_t length = 0;
  for (int i = 0;; ++i) {
    std::memcpy(&length, bytes.data() + pos, sizeof(length));
    if (i == section) break;
    pos += sizeof(uint64_t) + sizeof(uint32_t) + length;
  }
  const size_t payload = pos + sizeof(uint64_t) + sizeof(uint32_t);
  edit(&bytes[payload], length);
  const uint32_t crc = Crc32(bytes.data() + payload, length);
  std::memcpy(&bytes[pos + sizeof(uint64_t)], &crc, sizeof(crc));
  return bytes;
}

/// Checkpoint bytes with the one wall-clock field — the engine's
/// processing_seconds, the last 8 bytes of the stats section (the fifth
/// framed section) — zeroed and that section's CRC re-sealed, so the rest
/// can be compared across runs.
std::string WithoutWallClock(std::string bytes) {
  return WithEditedSection(std::move(bytes), 4,
                           [](char* payload, uint64_t length) {
                             std::memset(payload + length - sizeof(double), 0,
                                         sizeof(double));
                           });
}

TEST_F(ServeCheckpointTest, StreamingWriterReproducesPinnedBytes) {
  // Size and CRC-32 of this scenario's site checkpoint, with the filter
  // snapshot nested in its last section at v7. The fixtures
  // (tests/fixtures/site_checkpoint_v{4,5}.bin, 91,766 and 57,916 B) hold
  // the same scenario as releases that still drew initial particles by
  // plain cone rejection wrote it; the thinned draw puts other bits in
  // every shelf-clipped particle. site_checkpoint_v6.bin (58,734 B) is the
  // release before f32 positions.
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
  EXPECT_EQ(bytes.size(), 43542u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0xAF73EBCBu);
}

TEST_F(ServeCheckpointTest, LoadsCheckpointsWithV6Snapshots) {
  // The site checkpoint carries no version of its own for the snapshot it
  // nests, so the previous release's files hold a v6 snapshot. This
  // scenario's checkpoint as that release wrote it (wall clock zeroed,
  // pinned below) restores with its particle positions rounded to f32 and
  // re-saves with a v7 snapshot, smaller by 12 bytes a particle run. A
  // server restored from that re-save serves the tail exactly like the one
  // restored from the v6 file.
  const std::string v6 =
      Slurp(std::string(RFID_TEST_FIXTURE_DIR) + "/site_checkpoint_v6.bin");
  ASSERT_EQ(v6.size(), 58734u);
  ASSERT_EQ(Crc32(v6.data(), v6.size()), 0x53B8847Fu);

  LabConfig lc;
  lc.seed = 505;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  const std::vector<ServeRecord> head = LabRecords(lab.value(), 60);
  const std::vector<ServeRecord> all = LabRecords(lab.value(), 120);
  ASSERT_GT(all.size(), head.size());
  // Each fixture replaces the generation a real Checkpoint() wrote, so
  // both restores go through the manifest.
  CheckpointLabPrefix(lab.value(), 60, Dir());
  Overwrite(SiteGenerationPath(Dir(), kSite, 1), v6);
  auto from_v6 = MakeLabServer(lab.value());
  ASSERT_TRUE(from_v6.ok());
  ASSERT_TRUE(from_v6.value()->Restore(Dir()).ok());
  const SitePipeline* site_v6 = from_v6.value()->FindSite(kSite);
  ASSERT_NE(site_v6, nullptr);

  std::stringstream resaved;
  ASSERT_TRUE(site_v6->SaveCheckpoint(resaved).ok());
  const std::string v7 = WithoutWallClock(resaved.str());
  EXPECT_LT(v7.size(), v6.size());
  const std::string v7_dir = Dir() + "_v7";
  CheckpointLabPrefix(lab.value(), 60, v7_dir);
  Overwrite(SiteGenerationPath(v7_dir, kSite, 1), v7);
  auto from_v7 = MakeLabServer(lab.value());
  ASSERT_TRUE(from_v7.ok());
  ASSERT_TRUE(from_v7.value()->Restore(v7_dir).ok());
  std::filesystem::remove_all(v7_dir);
  const SitePipeline* site_v7 = from_v7.value()->FindSite(kSite);
  ASSERT_NE(site_v7, nullptr);
  std::stringstream resaved_v7;
  ASSERT_TRUE(site_v7->SaveCheckpoint(resaved_v7).ok());
  EXPECT_EQ(WithoutWallClock(resaved_v7.str()), v7);

  size_t estimated = 0;
  for (const ServeRecord& record : head) {
    if (record.kind != ServeRecord::Kind::kReading) continue;
    const TagId tag = record.reading.tag;
    const auto a = site_v6->engine().EstimateObject(tag);
    const auto b = site_v7->engine().EstimateObject(tag);
    ASSERT_EQ(a.has_value(), b.has_value()) << "tag " << tag;
    if (!a) continue;
    ++estimated;
    EXPECT_EQ(a->mean, b->mean) << "tag " << tag;
    EXPECT_EQ(a->variance, b->variance) << "tag " << tag;
    EXPECT_EQ(a->support, b->support) << "tag " << tag;
  }
  EXPECT_GT(estimated, 0u);

  CollectedEvents from_v6_events, from_v7_events;
  from_v6.value()->bus().SubscribeEvents(from_v6_events.Callback());
  from_v7.value()->bus().SubscribeEvents(from_v7_events.Callback());
  for (size_t i = head.size(); i < all.size(); ++i) {
    ASSERT_TRUE(from_v6.value()->Ingest(all[i]));
    ASSERT_TRUE(from_v7.value()->Ingest(all[i]));
  }
  for (auto* server : {&from_v6, &from_v7}) {
    server->value()->Pump();
    server->value()->Flush();
  }
  ASSERT_GT(from_v6_events.events.size(), 0u);
  ExpectBitIdentical(from_v6_events.events, from_v7_events.events);
}

TEST_F(ServeCheckpointTest, RejectsNonzeroReservedBytes) {
  // The v4 layout keeps two reserved areas, written as zeros: the header
  // section's 8-byte slot after events_dispatched (a shed count once) and
  // the whole 35-byte second section (a scan-boundary detector's state
  // once). A nonzero byte in either, under a valid CRC, fails the restore
  // as invalid, naming the area, at its first and its last byte.
  LabConfig lc;
  lc.seed = 505;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  CheckpointLabPrefix(lab.value(), 60, Dir());
  const std::string gen1 = SiteGenerationPath(Dir(), kSite, 1);
  const std::string bytes = Slurp(gen1);
  ASSERT_FALSE(bytes.empty());
  constexpr size_t kSlot = sizeof(SiteId) + 2 * sizeof(uint64_t);
  const struct {
    int section;
    size_t offset;
    const char* name;
  } kReserved[] = {{0, kSlot, "header's reserved slot"},
                   {0, kSlot + sizeof(uint64_t) - 1, "header's reserved slot"},
                   {1, 0, "reserved section"},
                   {1, 34, "reserved section"}};
  for (const auto& r : kReserved) {
    SCOPED_TRACE(std::string(r.name) + " byte " + std::to_string(r.offset));
    Overwrite(gen1, WithEditedSection(bytes, r.section,
                                      [&r](char* payload, uint64_t) {
                                        payload[r.offset] = 1;
                                      }));
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    const Status status = server.value()->Restore(Dir());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
    EXPECT_NE(status.message().find(r.name), std::string::npos)
        << status.message();
  }
  // Re-sealing unchanged bytes changes nothing: they restore.
  Overwrite(gen1, WithEditedSection(bytes, 1, [](char*, uint64_t) {}));
  auto server = MakeLabServer(lab.value());
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(server.value()->Restore(Dir()).ok());
}

TEST_F(ServeCheckpointTest, RejectsCheckpointsWithSnapshotsBeforeV6) {
  // The v4 site checkpoints of the two releases before last are still inside
  // their own v3–v4 window, but the v4 and v5 snapshots nested in them are
  // outside the snapshot's one-back window: the restore fails naming the
  // snapshot version and the oldest loadable one.
  LabConfig lc;
  lc.seed = 505;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  const struct {
    const char* fixture;
    size_t size;
    uint32_t crc;
    int snapshot_version;
  } kFixtures[] = {{"site_checkpoint_v4.bin", 91766, 0xE94AA9E5u, 4},
                   {"site_checkpoint_v5.bin", 57916, 0x2F553AFAu, 5}};
  for (const auto& f : kFixtures) {
    SCOPED_TRACE(f.fixture);
    const std::string bytes =
        Slurp(std::string(RFID_TEST_FIXTURE_DIR) + "/" + f.fixture);
    ASSERT_EQ(bytes.size(), f.size);
    ASSERT_EQ(Crc32(bytes.data(), bytes.size()), f.crc);
    // A fresh directory per fixture, so generation 1 is the one restored.
    const std::string dir =
        Dir() + "_snapshot_v" + std::to_string(f.snapshot_version);
    CheckpointLabPrefix(lab.value(), 60, dir);
    Overwrite(SiteGenerationPath(dir, kSite, 1), bytes);
    auto server = MakeLabServer(lab.value());
    ASSERT_TRUE(server.ok());
    const Status status = server.value()->Restore(dir);
    std::filesystem::remove_all(dir);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("unsupported snapshot version " +
                                    std::to_string(f.snapshot_version)),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("oldest loadable is v6"),
              std::string::npos)
        << status.message();
  }
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

  CheckpointLabPrefix(lab.value(), 20, Dir());
  {
    std::string v2_header = "RFIDSITE";
    const uint32_t version = 2;
    v2_header.append(reinterpret_cast<const char*>(&version), sizeof(version));
    Overwrite(SiteGenerationPath(Dir(), kSite, 1), v2_header);
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

TEST_F(ServeCheckpointTest, VerifyRejectsVersionsOutsideTheLoadWindow) {
  // The post-write verifier and the loader share one header check: a file
  // whose version the loader would refuse cannot pass verification, even
  // when every framed section after the header checks out.
  LabConfig lc;
  lc.seed = 507;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  CheckpointLabPrefix(lab.value(), 20, Dir());
  const std::string gen1 = SiteGenerationPath(Dir(), kSite, 1);
  const std::string v4_bytes = Slurp(gen1);
  ASSERT_TRUE(VerifySiteCheckpointFile(gen1).ok());
  for (uint32_t version : {2u, 5u}) {
    Overwrite(gen1, WithVersion(v4_bytes, version));
    const Status status = VerifySiteCheckpointFile(gen1);
    EXPECT_FALSE(status.ok()) << "version " << version;
    EXPECT_NE(status.message().find("unsupported site checkpoint version " +
                                    std::to_string(version)),
              std::string::npos)
        << status.message();
  }
}

TEST_F(ServeCheckpointTest, CorruptManifestFailsNamingTheManifest) {
  // The manifest is the only way to a site's generations; when it is
  // corrupt the restore fails with an error that names it.
  LabConfig lc;
  lc.seed = 508;
  lc.tags_per_row = 10;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  CheckpointLabPrefix(lab.value(), 20, Dir());
  const std::string manifest_path = SiteManifestPath(Dir(), kSite);
  std::string manifest = Slurp(manifest_path);
  ASSERT_FALSE(manifest.empty());
  manifest.back() ^= 0x5A;  // Inside the CRC-framed body.
  Overwrite(manifest_path, manifest);

  auto server = MakeLabServer(lab.value());
  ASSERT_TRUE(server.ok());
  const Status status = server.value()->Restore(Dir());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(manifest_path), std::string::npos)
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

/// A reader walking the line world's aisle (x = 0) at the motion model's
/// 0.1 ft per 1-s epoch, as one site's raw serve records: each epoch's
/// location report, then a reading of every shelf tag and of every object
/// (tagged 1000, 1001, ... on the shelf at x = 2 and the given y) within
/// 1.5 ft of the reader along the aisle.
std::vector<ServeRecord> LineScanRecords(SiteId site, int epochs,
                                         const std::vector<double>& object_ys) {
  std::vector<std::pair<TagId, double>> tags = {{1, 2.5}, {2, 7.5}};
  for (size_t i = 0; i < object_ys.size(); ++i) {
    tags.emplace_back(static_cast<TagId>(1000 + i), object_ys[i]);
  }
  std::vector<ServeRecord> records;
  for (int t = 0; t < epochs; ++t) {
    const double time = t;
    const double y = 0.1 * t;
    ReaderLocationReport report;
    report.time = time;
    report.location = {0.0, y, 0.0};
    records.push_back(ServeRecord::Location(site, report));
    for (const auto& [tag, tag_y] : tags) {
      if (std::abs(tag_y - y) <= 1.5) {
        records.push_back(ServeRecord::Reading(site, {time, tag}));
      }
    }
  }
  return records;
}

Result<std::unique_ptr<StreamingServer>> MakeLineServer(
    const std::vector<SiteId>& sites, int num_threads) {
  ServeConfig config;
  config.num_shards = 2;
  config.num_threads = num_threads;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 2.0;
  config.engine.factored.num_reader_particles = 30;
  config.engine.factored.num_object_particles = 100;
  config.engine.factored.seed = 23;
  // Every tracked tag each epoch: an event stream compares every epoch's
  // estimates, not one report per tag.
  config.engine.emitter.policy = EmitPolicy::kEveryEpoch;
  std::vector<SiteSpec> specs;
  for (SiteId site : sites) {
    specs.push_back({site, testing_util::MakeLineWorld()});
  }
  return StreamingServer::Create(std::move(specs), config);
}

/// Ingests `records` in order, pumping often enough that no shard queue
/// fills (inline mode: a full queue would block the only thread).
void Feed(StreamingServer* server, const std::vector<ServeRecord>& records) {
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(server->Ingest(records[i]));
    if (i % 128 == 127) server->Pump();
  }
  server->Pump();
}

/// Thread-safe per-site event log (callbacks fire on pump lanes).
struct SiteEventLog {
  std::mutex mu;
  std::map<SiteId, std::vector<LocationEvent>> events;

  SubscriptionBus::EventCallback Callback() {
    return [this](SiteId site, const LocationEvent& event) {
      std::lock_guard<std::mutex> lock(mu);
      events[site].push_back(event);
    };
  }
};

void ExpectBitIdenticalPerSite(
    const std::map<SiteId, std::vector<LocationEvent>>& a,
    const std::map<SiteId, std::vector<LocationEvent>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [site, events] : a) {
    const auto it = b.find(site);
    ASSERT_NE(it, b.end()) << "site " << site;
    SCOPED_TRACE("site " + std::to_string(site));
    ExpectBitIdentical(events, it->second);
  }
}

/// A site's observable state, compared bit for bit.
struct SiteState {
  uint64_t records_processed = 0;
  uint64_t events_dispatched = 0;
  uint64_t epochs_processed = 0;
  double watermark = 0.0;
  std::vector<Vec3> means;  ///< Objects 1000.. in tag order.

  bool operator==(const SiteState& o) const {
    return records_processed == o.records_processed &&
           events_dispatched == o.events_dispatched &&
           epochs_processed == o.epochs_processed &&
           watermark == o.watermark && means == o.means;
  }
};

SiteState StateOf(const StreamingServer& server, SiteId site,
                  size_t num_objects) {
  const SitePipeline* pipeline = server.FindSite(site);
  EXPECT_NE(pipeline, nullptr);
  SiteState state;
  if (pipeline == nullptr) return state;
  const SitePipelineStats stats = pipeline->Stats();
  state.records_processed = stats.records_processed;
  state.events_dispatched = stats.events_dispatched;
  state.epochs_processed = stats.engine.epochs_processed;
  state.watermark = stats.watermark;
  for (size_t i = 0; i < num_objects; ++i) {
    const auto estimate =
        pipeline->engine().EstimateObject(static_cast<TagId>(1000 + i));
    state.means.push_back(estimate ? estimate->mean : Vec3{});
  }
  return state;
}

std::set<SiteId> OperatorSites(StreamingServer& server) {
  std::set<SiteId> sites;
  for (const BusOperatorStats& row : server.bus().OperatorStatsSnapshot()) {
    sites.insert(row.site);
  }
  return sites;
}

/// Everything the Restore contract run observes at one pool width.
struct RestoreContractRun {
  std::map<SiteId, std::vector<LocationEvent>> reference_tail;
  std::map<SiteId, std::vector<LocationEvent>> restored_tail;
  std::map<SiteId, std::vector<LocationEvent>> partial_tail;
  std::string partial_error;
  std::string two_failures_error;
  SiteState corrupt_site_before;
  SiteState corrupt_site_after;
  std::set<SiteId> operators_after_partial;
};

constexpr int kScanEpochs = 40;
constexpr double kScanCutTime = 20.0;
constexpr size_t kScanObjects = 4;
const std::vector<SiteId> kContractSites = {11, 12, 13, 14};
constexpr SiteId kCorruptSite = 12;   ///< Second in pipeline order.
constexpr SiteId kCorruptLater = 14;  ///< Last in pipeline order.

void FlipByteNearEnd(const std::string& path) {
  std::string bytes = Slurp(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() - 32] ^= 0x5A;  // Inside the filter snapshot section.
  Overwrite(path, bytes);
}

void RunRestoreContract(int num_threads, const std::string& dir,
                        RestoreContractRun* out) {
  std::vector<ServeRecord> prefix, suffix;
  for (SiteId site : kContractSites) {
    std::vector<double> ys;
    for (size_t k = 0; k < kScanObjects; ++k) {
      ys.push_back(1.0 + 0.6 * static_cast<double>(k) +
                   0.1 * static_cast<double>(site % 3));
    }
    for (const ServeRecord& r : LineScanRecords(site, kScanEpochs, ys)) {
      (r.Time() < kScanCutTime ? prefix : suffix).push_back(r);
    }
  }

  // Never restored: checkpoint mid-stream, keep serving.
  {
    auto server = MakeLineServer(kContractSites, num_threads);
    ASSERT_TRUE(server.ok());
    SiteEventLog log;
    server.value()->bus().SubscribeEvents(log.Callback());
    Feed(server.value().get(), prefix);
    ASSERT_TRUE(server.value()->Checkpoint(dir).ok());
    std::map<SiteId, size_t> at_cut;
    for (const auto& [site, events] : log.events) at_cut[site] = events.size();
    Feed(server.value().get(), suffix);
    server.value()->Flush();
    for (const auto& [site, events] : log.events) {
      out->reference_tail[site].assign(
          events.begin() + static_cast<long>(at_cut[site]), events.end());
      ASSERT_FALSE(out->reference_tail[site].empty()) << "site " << site;
    }
    ASSERT_EQ(out->reference_tail.size(), kContractSites.size());
  }

  auto server = MakeLineServer(kContractSites, num_threads);
  ASSERT_TRUE(server.ok());
  StreamingServer& live = *server.value();
  live.bus().SubscribeColocation(ColocationConfig{});
  {
    SiteEventLog log;
    const auto sub = live.bus().SubscribeEvents(log.Callback());
    ASSERT_TRUE(live.Restore(dir).ok());
    Feed(&live, suffix);
    live.Flush();
    live.bus().Unsubscribe(sub);
    out->restored_tail = log.events;
  }
  ASSERT_EQ(OperatorSites(live),
            std::set<SiteId>(kContractSites.begin(), kContractSites.end()));

  // The corrupt site's only generation: no fallback.
  FlipByteNearEnd(SiteGenerationPath(dir, kCorruptSite, 1));
  out->corrupt_site_before = StateOf(live, kCorruptSite, kScanObjects);
  const Status partial = live.Restore(dir);
  EXPECT_FALSE(partial.ok());
  out->partial_error = partial.message();
  out->corrupt_site_after = StateOf(live, kCorruptSite, kScanObjects);
  out->operators_after_partial = OperatorSites(live);

  // The sites that loaded replay the tail exactly as the reference did.
  {
    SiteEventLog log;
    const auto sub = live.bus().SubscribeEvents(log.Callback());
    Feed(&live, suffix);
    live.Flush();
    live.bus().Unsubscribe(sub);
    out->partial_tail = log.events;
    out->partial_tail.erase(kCorruptSite);
  }

  // Two failures: the first in pipeline order is returned, whichever lane
  // finished first.
  FlipByteNearEnd(SiteGenerationPath(dir, kCorruptLater, 1));
  const Status two = live.Restore(dir);
  EXPECT_FALSE(two.ok());
  out->two_failures_error = two.message();
}

TEST_F(ServeCheckpointTest, RestoreLoadsOnThePumpLanesAndAttemptsEverySite) {
  std::map<int, RestoreContractRun> runs;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    const std::string dir = Dir() + "_w" + std::to_string(threads);
    std::filesystem::remove_all(dir);  // Generation 1 must be the only one.
    RestoreContractRun& run = runs[threads];
    RunRestoreContract(threads, dir, &run);
    std::filesystem::remove_all(dir);
    if (HasFatalFailure()) return;

    ExpectBitIdenticalPerSite(run.reference_tail, run.restored_tail);

    const std::string corrupt_path =
        SiteGenerationPath(dir, kCorruptSite, 1);
    EXPECT_NE(run.partial_error.find(corrupt_path), std::string::npos)
        << run.partial_error;
    EXPECT_TRUE(run.corrupt_site_before == run.corrupt_site_after)
        << "the site whose load failed must keep its pre-call state";
    EXPECT_GT(run.corrupt_site_before.epochs_processed, 0u);
    // Every site that loaded had its bus operator state reset; the failed
    // one kept its instance.
    EXPECT_EQ(run.operators_after_partial, std::set<SiteId>{kCorruptSite});
    std::map<SiteId, std::vector<LocationEvent>> reference_others =
        run.reference_tail;
    reference_others.erase(kCorruptSite);
    ExpectBitIdenticalPerSite(reference_others, run.partial_tail);
    EXPECT_NE(run.two_failures_error.find(corrupt_path), std::string::npos)
        << run.two_failures_error;
  }

  // Identical at both widths (paths differ only in the directory suffix).
  const RestoreContractRun& one = runs[1];
  const RestoreContractRun& four = runs[4];
  ExpectBitIdenticalPerSite(one.reference_tail, four.reference_tail);
  ExpectBitIdenticalPerSite(one.partial_tail, four.partial_tail);
  EXPECT_TRUE(one.corrupt_site_before == four.corrupt_site_before);
  EXPECT_TRUE(one.corrupt_site_after == four.corrupt_site_after);
  EXPECT_EQ(one.operators_after_partial, four.operators_after_partial);
  const auto without_dir = [](std::string message, const std::string& dir) {
    for (size_t at; (at = message.find(dir)) != std::string::npos;) {
      message.erase(at, dir.size());
    }
    return message;
  };
  EXPECT_EQ(without_dir(one.partial_error, Dir() + "_w1"),
            without_dir(four.partial_error, Dir() + "_w4"));
  EXPECT_EQ(without_dir(one.two_failures_error, Dir() + "_w1"),
            without_dir(four.two_failures_error, Dir() + "_w4"));
}

/// A line-world scan with `bad` slipped in after the location report of the
/// epoch it falls in: the record is quarantined with `reason`, the
/// estimates stay finite and the site still checkpoints and restores.
void ExpectQuarantinedAndCheckpointable(const ReaderLocationReport& bad,
                                        const char* reason,
                                        const std::string& dir) {
  std::vector<ServeRecord> records =
      LineScanRecords(kSite, kScanEpochs, {1.0, 1.6, 2.2});
  const auto at = std::find_if(
      records.begin(), records.end(), [&bad](const ServeRecord& r) {
        return r.Time() > bad.time;
      });
  records.insert(at, ServeRecord::Location(kSite, bad));

  auto server = MakeLineServer({kSite}, 1);
  ASSERT_TRUE(server.ok());
  Feed(server.value().get(), records);
  const SitePipeline* site = server.value()->FindSite(kSite);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->Stats().records_quarantined, 1u);
  ASSERT_EQ(site->DeadLetters().size(), 1u);
  EXPECT_STREQ(site->DeadLetters().front().reason, reason);
  for (TagId tag : {1000u, 1001u, 1002u}) {
    const auto estimate = site->engine().EstimateObject(tag);
    ASSERT_TRUE(estimate.has_value()) << "tag " << tag;
    EXPECT_TRUE(std::isfinite(estimate->mean.x) &&
                std::isfinite(estimate->mean.y) &&
                std::isfinite(estimate->mean.z))
        << "tag " << tag;
  }

  ASSERT_TRUE(server.value()->Checkpoint(dir).ok());
  auto restored = MakeLineServer({kSite}, 1);
  ASSERT_TRUE(restored.ok());
  const Status status = restored.value()->Restore(dir);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(restored.value()->FindSite(kSite)->Stats().records_quarantined,
            1u);
}

TEST_F(ServeCheckpointTest, QuarantinesNonFiniteLocations) {
  // Mid-stream, so an admitted NaN would reach the reader particles.
  ReaderLocationReport bad;
  bad.time = 10.5;
  bad.location = {0.0, std::nan(""), 0.0};
  ExpectQuarantinedAndCheckpointable(bad, "non-finite location", Dir());
}

TEST_F(ServeCheckpointTest, QuarantinesNonFiniteHeadings) {
  // In the last epochs, so an admitted NaN would still be pending in the
  // synchronizer when the checkpoint is taken.
  ReaderLocationReport bad;
  bad.time = kScanEpochs - 1.5;
  bad.location = {0.0, 0.1 * (kScanEpochs - 2), 0.0};
  bad.has_heading = true;
  bad.heading = std::numeric_limits<double>::infinity();
  ExpectQuarantinedAndCheckpointable(bad, "non-finite heading", Dir());
}

}  // namespace
}  // namespace rfid
