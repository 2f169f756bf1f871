// Tests for filter checkpoint / restore.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <streambuf>

#include "pf/snapshot.h"
#include "test_util.h"
#include "util/crc32.h"

namespace rfid {
namespace {

using testing_util::MakeEpoch;
using testing_util::MakeLineWorld;

FactoredFilterConfig Config() {
  FactoredFilterConfig c;
  c.num_reader_particles = 40;
  c.num_object_particles = 150;
  c.compression.mode = CompressionMode::kUnseenEpochs;
  c.compression.compress_after_epochs = 5;
  c.seed = 9;
  return c;
}

/// Scan that leaves one object compressed and one active.
void Drive(FactoredParticleFilter* filter) {
  ConeSensorModel sensor;
  Rng rng(10);
  const Vec3 obj_a{1.5, 1.0, 0.0}, obj_b{1.5, 9.0, 0.0};
  for (int t = 0; t < 110; ++t) {
    const double y = 0.1 * t;
    const Pose pose({0.0, y, 0.0}, 0.0);
    std::vector<TagId> tags;
    if (rng.Bernoulli(sensor.ProbReadAt(pose, obj_a))) tags.push_back(1000);
    if (rng.Bernoulli(sensor.ProbReadAt(pose, obj_b))) tags.push_back(1001);
    filter->ObserveEpoch(MakeEpoch(t, y, tags));
  }
}

/// A snapshot of Drive()'s filter in a legacy layout, as the release that
/// still wrote it recorded it (tests/fixtures/).
std::string Fixture(const char* name) {
  std::ifstream is(std::string(RFID_TEST_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

TEST(SnapshotTest, RoundTripPreservesBeliefState) {
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  ASSERT_GE(original.NumTrackedObjects(), 2u);

  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());

  FactoredParticleFilter restored(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(ss, &restored).ok());

  EXPECT_EQ(restored.current_step(), original.current_step());
  EXPECT_EQ(restored.NumTrackedObjects(), original.NumTrackedObjects());
  EXPECT_EQ(restored.NumActiveObjects(), original.NumActiveObjects());
  EXPECT_EQ(restored.NumCompressedObjects(), original.NumCompressedObjects());

  for (TagId tag : {1000u, 1001u}) {
    const auto a = original.EstimateObject(tag);
    const auto b = restored.EstimateObject(tag);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->mean, b->mean);
    EXPECT_EQ(a->support, b->support);
  }
  EXPECT_EQ(original.EstimateReader().mean, restored.EstimateReader().mean);
}

TEST(SnapshotTest, RestoredFilterKeepsProcessingCorrectly) {
  // Run half a scan, snapshot, restore into a fresh filter, run the second
  // half on the restored instance: estimates must land near truth.
  const Vec3 truth{1.5, 5.0, 0.0};
  ConeSensorModel sensor;

  FactoredParticleFilter first(MakeLineWorld(), Config());
  Rng rng(11);
  int t = 0;
  for (; t < 50; ++t) {
    const double y = 0.1 * t;
    const Pose pose({0.0, y, 0.0}, 0.0);
    std::vector<TagId> tags;
    if (rng.Bernoulli(sensor.ProbReadAt(pose, truth))) tags.push_back(1000);
    first.ObserveEpoch(MakeEpoch(t, y, tags));
  }
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(first, ss).ok());

  FactoredParticleFilter second(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(ss, &second).ok());
  for (; t < 90; ++t) {
    const double y = 0.1 * t;
    const Pose pose({0.0, y, 0.0}, 0.0);
    std::vector<TagId> tags;
    if (rng.Bernoulli(sensor.ProbReadAt(pose, truth))) tags.push_back(1000);
    second.ObserveEpoch(MakeEpoch(t, y, tags));
  }
  const auto est = second.EstimateObject(1000);
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->mean.DistanceXYTo(truth), 1.0);
}

TEST(SnapshotTest, RestoredFilterReplaysBitIdentically) {
  // v2 serializes the shared RNG state, so an identical tail of the stream
  // produces identical estimates — the serving layer's checkpoint contract.
  const Vec3 obj_a{1.5, 1.0, 0.0}, obj_b{1.5, 9.0, 0.0};
  ConeSensorModel sensor;
  auto feed = [&](FactoredParticleFilter* filter, Rng* rng, int from,
                  int to) {
    for (int t = from; t < to; ++t) {
      const double y = 0.1 * t;
      const Pose pose({0.0, y, 0.0}, 0.0);
      std::vector<TagId> tags;
      if (rng->Bernoulli(sensor.ProbReadAt(pose, obj_a))) tags.push_back(1000);
      if (rng->Bernoulli(sensor.ProbReadAt(pose, obj_b))) tags.push_back(1001);
      filter->ObserveEpoch(MakeEpoch(t, y, tags));
    }
  };

  FactoredParticleFilter uninterrupted(MakeLineWorld(), Config());
  Rng trace_rng_a(21);
  feed(&uninterrupted, &trace_rng_a, 0, 60);

  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(uninterrupted, ss).ok());
  FactoredParticleFilter restored(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(ss, &restored).ok());

  // Same tail on both: advance a second trace RNG through the first 60
  // epochs' draws, then regenerate identical readings for the tail.
  Rng trace_rng_b(21);
  for (int t = 0; t < 60; ++t) {
    const double y = 0.1 * t;
    const Pose pose({0.0, y, 0.0}, 0.0);
    (void)trace_rng_b.Bernoulli(sensor.ProbReadAt(pose, obj_a));
    (void)trace_rng_b.Bernoulli(sensor.ProbReadAt(pose, obj_b));
  }
  feed(&uninterrupted, &trace_rng_a, 60, 110);
  feed(&restored, &trace_rng_b, 60, 110);

  for (TagId tag : {1000u, 1001u}) {
    const auto a = uninterrupted.EstimateObject(tag);
    const auto b = restored.EstimateObject(tag);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) continue;
    EXPECT_EQ(a->mean, b->mean) << "tag " << tag;
    EXPECT_EQ(a->variance, b->variance) << "tag " << tag;
    EXPECT_EQ(a->support, b->support) << "tag " << tag;
  }
  EXPECT_EQ(uninterrupted.EstimateReader().mean,
            restored.EstimateReader().mean);
  EXPECT_EQ(uninterrupted.particle_updates(), restored.particle_updates());
}

FactoredFilterConfig HibernatingConfig() {
  FactoredFilterConfig c = Config();
  c.min_object_particles = 30;
  c.compression.hibernate_after_epochs = 20;
  return c;
}

TEST(SnapshotTest, V3RoundTripsHibernatedObjects) {
  // Drive() walks away from object A for ~90 epochs, far past the
  // hibernation horizon, so A ends up in the hibernated tier.
  FactoredParticleFilter original(MakeLineWorld(), HibernatingConfig());
  Drive(&original);
  ASSERT_GT(original.NumHibernatedObjects(), 0u);

  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  FactoredParticleFilter restored(MakeLineWorld(), HibernatingConfig());
  ASSERT_TRUE(LoadFilterSnapshot(ss, &restored).ok());

  EXPECT_EQ(restored.NumHibernatedObjects(), original.NumHibernatedObjects());
  EXPECT_EQ(restored.NumActiveObjects(), original.NumActiveObjects());
  EXPECT_EQ(restored.NumCompressedObjects(), original.NumCompressedObjects());
  for (TagId tag : {1000u, 1001u}) {
    const auto a = original.EstimateObject(tag);
    const auto b = restored.EstimateObject(tag);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->mean, b->mean);
    EXPECT_EQ(a->variance, b->variance);
  }
}

TEST(SnapshotTest, LoadsLegacyV3Snapshots) {
  // The one-back window: unframed v3 bytes must load into today's filter
  // exactly as the framed v4 bytes do — that is the upgrade path for
  // snapshots on disk written by the previous release.
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);

  std::stringstream v3(Fixture("snapshot_v3.bin")), v4;
  ASSERT_GT(v3.str().size(), 12u);
  ASSERT_TRUE(SaveFilterSnapshot(original, v4).ok());

  FactoredParticleFilter from_v3(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(v3, &from_v3).ok());
  FactoredParticleFilter from_v4(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(v4, &from_v4).ok());

  EXPECT_EQ(from_v3.current_step(), original.current_step());
  EXPECT_EQ(from_v3.NumTrackedObjects(), original.NumTrackedObjects());
  for (TagId tag : {1000u, 1001u}) {
    const auto a = from_v3.EstimateObject(tag);
    const auto b = from_v4.EstimateObject(tag);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->mean, b->mean);
    EXPECT_EQ(a->variance, b->variance);
    EXPECT_EQ(a->support, b->support);
  }
  EXPECT_EQ(from_v3.EstimateReader().mean, from_v4.EstimateReader().mean);

  // Re-saving the upgraded belief writes exactly today's v4 bytes.
  std::stringstream resaved;
  ASSERT_TRUE(SaveFilterSnapshot(from_v3, resaved).ok());
  EXPECT_EQ(resaved.str(), v4.str());
}

TEST(SnapshotTest, RejectsV2SnapshotsOutsideTheWindow) {
  // v2 fell out of the one-back load window when v4 became the writer. The
  // rejection must be explicit and name the oldest loadable version — a
  // generic "bad file" error would read as corruption, not deprecation.
  std::stringstream v2(Fixture("snapshot_v2.bin"));
  ASSERT_GT(v2.str().size(), 12u);

  FactoredParticleFilter filter(MakeLineWorld(), Config());
  const Status status = LoadFilterSnapshot(v2, &filter);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unsupported snapshot version 2"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("oldest loadable is v3"), std::string::npos)
      << status.message();
  // The filter must be untouched by the rejected load.
  EXPECT_EQ(filter.current_step(), 0);
}

TEST(SnapshotTest, StreamingWriterReproducesPinnedBytes) {
  // Size and CRC-32 of Drive()'s v4 snapshot as the staging writer (which
  // serialized into a string before framing it) wrote them: streaming the
  // payload straight into the sink must not move a byte.
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  const std::string bytes = ss.str();
  EXPECT_EQ(bytes.size(), 8506u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0xC6533784u);
}

/// Accepts writes but cannot seek, like a pipe or a socket.
class AppendOnlyBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

TEST(SnapshotTest, NonSeekableSinkIsRejected) {
  // The header of a framed section is patched after its payload streams
  // out; there is no buffered fallback for a sink that cannot seek back.
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  AppendOnlyBuf buf;
  std::ostream os(&buf);
  const Status status = SaveFilterSnapshot(original, os);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::stringstream ss("definitely not a snapshot");
  FactoredParticleFilter filter(MakeLineWorld(), Config());
  const Status status = LoadFilterSnapshot(ss, &filter);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, RejectsTruncation) {
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  const std::string full = ss.str();

  // Cut at several points; every prefix must be rejected without crashing.
  for (size_t cut : {size_t{9}, size_t{20}, full.size() / 2,
                     full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    FactoredParticleFilter filter(MakeLineWorld(), Config());
    EXPECT_FALSE(LoadFilterSnapshot(truncated, &filter).ok())
        << "cut at " << cut;
  }
}

TEST(SnapshotTest, FailedLoadLeavesFilterUsable) {
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  const std::string full = ss.str();

  FactoredParticleFilter filter(MakeLineWorld(), Config());
  Drive(&filter);
  const auto before = filter.EstimateObject(1000);
  std::stringstream truncated(full.substr(0, full.size() / 2));
  ASSERT_FALSE(LoadFilterSnapshot(truncated, &filter).ok());
  // State committed atomically: the failed load must not have clobbered it.
  const auto after = filter.EstimateObject(1000);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(before->mean, after->mean);
}

TEST(SnapshotTest, EmptyFilterRoundTrips) {
  FactoredParticleFilter original(MakeLineWorld(), Config());
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  FactoredParticleFilter restored(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(ss, &restored).ok());
  EXPECT_EQ(restored.NumTrackedObjects(), 0u);
  EXPECT_EQ(restored.current_step(), 0);
}

TEST(SnapshotTest, RejectsInvalidReaderReference) {
  // Hand-corrupt a valid snapshot: bump a particle's reader index beyond the
  // reader count. Parsing must fail cleanly. Easiest reliable corruption:
  // claim zero readers but keep object particles.
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  std::string bytes = ss.str();
  // Reader count is the first u64 after magic(8) + version(4) + step(8) +
  // initialized flag(1) = offset 21.
  uint64_t zero = 0;
  bytes.replace(21, sizeof(zero), reinterpret_cast<const char*>(&zero),
                sizeof(zero));
  std::stringstream corrupted(bytes);
  FactoredParticleFilter filter(MakeLineWorld(), Config());
  EXPECT_FALSE(LoadFilterSnapshot(corrupted, &filter).ok());
}

}  // namespace
}  // namespace rfid
