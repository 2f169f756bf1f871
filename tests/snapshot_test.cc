// Tests for filter checkpoint / restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
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

/// A snapshot in a legacy layout, as the release that still wrote it
/// recorded it (tests/fixtures/).
std::string Fixture(const std::string& name) {
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

/// Loads `bytes` into a fresh filter and expects the one-back window's
/// rejection, naming the version and the oldest loadable one.
void ExpectOutsideTheWindow(const std::string& bytes, int version) {
  ASSERT_GT(bytes.size(), 12u);
  std::stringstream ss(bytes);
  FactoredParticleFilter filter(MakeLineWorld(), Config());
  const Status status = LoadFilterSnapshot(ss, &filter);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unsupported snapshot version " +
                                  std::to_string(version)),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("oldest loadable is v4"), std::string::npos)
      << status.message();
  // The filter must be untouched by the rejected load.
  EXPECT_EQ(filter.current_step(), 0);
  EXPECT_EQ(filter.NumTrackedObjects(), 0u);
}

TEST(SnapshotTest, RejectsV3SnapshotsOutsideTheWindow) {
  // v3 fell out of the one-back load window when v5 became the writer (its
  // unframed body path is gone). The rejection must be explicit and name
  // the oldest loadable version — a generic "bad file" error would read as
  // corruption, not deprecation.
  ExpectOutsideTheWindow(Fixture("snapshot_v3.bin"), 3);
}

TEST(SnapshotTest, RejectsV2SnapshotsOutsideTheWindow) {
  ExpectOutsideTheWindow(Fixture("snapshot_v2.bin"), 2);
}

/// Expects two filters to answer every query identically.
void ExpectSameEstimates(const FactoredParticleFilter& a,
                         const FactoredParticleFilter& b) {
  EXPECT_EQ(a.current_step(), b.current_step());
  EXPECT_EQ(a.NumTrackedObjects(), b.NumTrackedObjects());
  EXPECT_EQ(a.NumCompressedObjects(), b.NumCompressedObjects());
  EXPECT_EQ(a.particle_updates(), b.particle_updates());
  for (const auto& state : a.object_states()) {
    const auto ea = a.EstimateObject(state.tag);
    const auto eb = b.EstimateObject(state.tag);
    ASSERT_TRUE(ea.has_value());
    ASSERT_TRUE(eb.has_value()) << "tag " << state.tag;
    EXPECT_EQ(ea->mean, eb->mean) << "tag " << state.tag;
    EXPECT_EQ(ea->variance, eb->variance) << "tag " << state.tag;
    EXPECT_EQ(ea->support, eb->support) << "tag " << state.tag;
  }
  EXPECT_EQ(a.EstimateReader().mean, b.EstimateReader().mean);
}

TEST(SnapshotTest, LoadsV4Snapshots) {
  // The one-back window: the previous release's v4 bytes of Drive()'s
  // filter (recorded by it, pinned below) must load into today's filter
  // exactly as the live v5 round trip does, and re-save as today's bytes.
  const std::string v4 = Fixture("snapshot_v4.bin");
  ASSERT_EQ(v4.size(), 8506u);
  ASSERT_EQ(Crc32(v4.data(), v4.size()), 0xC6533784u);

  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream v5;
  ASSERT_TRUE(SaveFilterSnapshot(original, v5).ok());

  std::stringstream v4_in(v4);
  FactoredParticleFilter from_v4(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(v4_in, &from_v4).ok());
  FactoredParticleFilter from_v5(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(v5, &from_v5).ok());
  ExpectSameEstimates(from_v5, from_v4);
  ExpectSameEstimates(original, from_v4);

  std::stringstream resaved;
  ASSERT_TRUE(SaveFilterSnapshot(from_v4, resaved).ok());
  EXPECT_EQ(resaved.str(), v5.str());
}

TEST(SnapshotTest, StreamingWriterReproducesPinnedBytes) {
  // Size and CRC-32 of Drive()'s v5 snapshot. The v4 bytes of the same
  // filter (tests/fixtures/snapshot_v4.bin) were 8,506 B: its 150 active
  // particles fall into 13 runs of bit-equal positions, so their block
  // shrinks from 5,400 B to 1,675 B.
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  const std::string bytes = ss.str();
  EXPECT_EQ(bytes.size(), 4781u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x6256A763u);
}

bool SameBits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

/// Expects `a` and `b` to hold bit-identical particles.
void ExpectSameParticles(const FactoredParticleFilter& a,
                         const FactoredParticleFilter& b) {
  ASSERT_EQ(a.object_states().size(), b.object_states().size());
  for (size_t slot = 0; slot < a.object_states().size(); ++slot) {
    const ParticleSoa& pa = a.object_states()[slot].particles;
    const ParticleSoa& pb = b.object_states()[slot].particles;
    ASSERT_EQ(pa.size(), pb.size()) << "slot " << slot;
    for (size_t k = 0; k < pa.size(); ++k) {
      ASSERT_TRUE(SameBits(pa.PositionAt(k), pb.PositionAt(k)));
      ASSERT_EQ(pa.ReaderIdxAt(k), pb.ReaderIdxAt(k));
      ASSERT_EQ(pa.WeightAt(k), pb.WeightAt(k));
    }
  }
}

TEST(SnapshotTest, AllDistinctPositionsNeverGrowPastV4) {
  // Worst case for the run coding: no two particles share a position, so
  // every run holds one particle and costs 1 B of run length + 24 B of
  // position + the reader index + 8 B of weight — 34 B (u8 index) or 35 B
  // (u16) against v4's 36 B. The v4 bytes were recorded by the previous
  // release from filters that never resample objects (threshold 0, 50
  // particles per object), run for twenty epochs past two tags a foot
  // apart.
  struct Case {
    int readers;
    const char* fixture;
    size_t v4_size;
    uint32_t v4_crc;
    size_t saved_per_particle;
  };
  for (const Case& c : {Case{40, "snapshot_v4_distinct_40.bin", 5770,
                             0xAF830213u, 2},
                        Case{257, "snapshot_v4_distinct_257.bin", 14450,
                             0xF6A1D388u, 1}}) {
    SCOPED_TRACE(c.readers);
    const std::string v4 = Fixture(c.fixture);
    ASSERT_EQ(v4.size(), c.v4_size);
    ASSERT_EQ(Crc32(v4.data(), v4.size()), c.v4_crc);

    FactoredFilterConfig config;
    config.num_reader_particles = c.readers;
    std::stringstream v4_in(v4);
    FactoredParticleFilter from_v4(MakeLineWorld(), config);
    ASSERT_TRUE(LoadFilterSnapshot(v4_in, &from_v4).ok());
    size_t particles = 0;
    for (const auto& state : from_v4.object_states()) {
      for (size_t k = 1; k < state.particles.size(); ++k) {
        for (size_t j = 0; j < k; ++j) {
          ASSERT_FALSE(SameBits(state.particles.PositionAt(j),
                                state.particles.PositionAt(k)));
        }
      }
      particles += state.particles.size();
    }
    ASSERT_EQ(particles, 100u);

    std::stringstream v5;
    ASSERT_TRUE(SaveFilterSnapshot(from_v4, v5).ok());
    const std::string v5_bytes = v5.str();
    EXPECT_LE(v5_bytes.size(), v4.size());
    EXPECT_EQ(v4.size() - v5_bytes.size(), c.saved_per_particle * particles);

    FactoredParticleFilter from_v5(MakeLineWorld(), config);
    ASSERT_TRUE(LoadFilterSnapshot(v5, &from_v5).ok());
    ExpectSameParticles(from_v4, from_v5);
    std::stringstream resaved;
    ASSERT_TRUE(SaveFilterSnapshot(from_v5, resaved).ok());
    EXPECT_EQ(resaved.str(), v5_bytes);
  }
}

TEST(SnapshotTest, RoundTripsAtReaderIndexWidthBoundaries) {
  // v5 writes reader indices as u8 up to 256 readers, u16 up to 65,536 and
  // u32 beyond. Each object draws two particles per reader, so its
  // attachments reach the top of the index range on either side of every
  // boundary.
  for (int readers : {256, 257, 65536, 65537}) {
    SCOPED_TRACE(readers);
    FactoredFilterConfig config;
    config.num_reader_particles = readers;
    config.num_object_particles = 2 * readers;
    config.seed = 9;
    FactoredParticleFilter original(MakeLineWorld(), config);
    for (int t = 0; t < 3; ++t) {
      original.ObserveEpoch(MakeEpoch(t, 0.1 * t, {1000, 1001}));
    }
    uint32_t top = 0;
    for (const auto& state : original.object_states()) {
      for (size_t k = 0; k < state.particles.size(); ++k) {
        top = std::max(top, state.particles.ReaderIdxAt(k));
      }
    }
    ASSERT_EQ(top, static_cast<uint32_t>(readers - 1));

    std::stringstream ss;
    ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
    const std::string bytes = ss.str();
    FactoredParticleFilter restored(MakeLineWorld(), config);
    ASSERT_TRUE(LoadFilterSnapshot(ss, &restored).ok());
    ExpectSameParticles(original, restored);
    ExpectSameEstimates(original, restored);
    std::stringstream resaved;
    ASSERT_TRUE(SaveFilterSnapshot(restored, resaved).ok());
    EXPECT_EQ(resaved.str(), bytes);
  }
}

/// Overwrites the f64 at `at` and re-seals the snapshot's CRC frame
/// ([u64 length][u32 crc] after the 12-byte header), so only the decoder's
/// own validation can reject the value.
std::string PoisonDouble(std::string bytes, size_t at, double value) {
  std::memcpy(&bytes[at], &value, sizeof(value));
  uint64_t length = 0;
  std::memcpy(&length, bytes.data() + 12, sizeof(length));
  const uint32_t crc = Crc32(bytes.data() + 24, length);
  std::memcpy(&bytes[20], &crc, sizeof(crc));
  return bytes;
}

/// Offset of the first occurrence of `value`'s bytes at or after `from`.
template <typename T>
size_t FindBytes(const std::string& bytes, const T& value, size_t from = 0) {
  return bytes.find(
      std::string(reinterpret_cast<const char*>(&value), sizeof(value)), from);
}

TEST(SnapshotTest, RejectsNonFiniteValues) {
  // A snapshot whose CRC was re-sealed over a NaN must not inject it into
  // the filter: reader poses and weights, particle positions and particle
  // weights are validated, in both loadable layouts (v5 as written today,
  // v4 as the previous release wrote Drive()'s filter).
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  for (const std::string& bytes : {ss.str(), Fixture("snapshot_v4.bin")}) {
    // Locate the fields by the values they decode to.
    std::stringstream in(bytes);
    FactoredParticleFilter loaded(MakeLineWorld(), Config());
    ASSERT_TRUE(LoadFilterSnapshot(in, &loaded).ok());
    const auto active = std::find_if(
        loaded.object_states().begin(), loaded.object_states().end(),
        [](const auto& state) { return !state.particles.empty(); });
    ASSERT_NE(active, loaded.object_states().end());
    const size_t reader_at =
        FindBytes(bytes, loaded.reader_particles()[0].pose.position);
    ASSERT_NE(reader_at, std::string::npos);
    const size_t particle_at =
        FindBytes(bytes, active->particles.PositionAt(0));
    ASSERT_NE(particle_at, std::string::npos);
    // The weight follows the position and the reader index.
    const size_t weight_at = FindBytes(bytes, active->particles.WeightAt(0),
                                       particle_at + sizeof(Vec3));
    ASSERT_NE(weight_at, std::string::npos);

    const struct {
      const char* what;
      size_t at;
      double value;
    } kCases[] = {
        {"reader x", reader_at, nan},
        {"reader heading", reader_at + 3 * sizeof(double), inf},
        {"reader weight", reader_at + 4 * sizeof(double), -inf},
        {"particle x", particle_at, nan},
        {"particle z", particle_at + 2 * sizeof(double), -inf},
        {"particle weight", weight_at, nan},
        {"negative particle weight", weight_at, -0.5},
        {"infinite particle weight", weight_at, inf},
    };
    // Re-sealing an unchanged value must still load: the harness itself is
    // not what rejects the cases below.
    {
      std::stringstream resealed(
          PoisonDouble(bytes, weight_at, active->particles.WeightAt(0)));
      FactoredParticleFilter filter(MakeLineWorld(), Config());
      ASSERT_TRUE(LoadFilterSnapshot(resealed, &filter).ok());
    }
    for (const auto& c : kCases) {
      std::stringstream poisoned(PoisonDouble(bytes, c.at, c.value));
      FactoredParticleFilter filter(MakeLineWorld(), Config());
      const Status status = LoadFilterSnapshot(poisoned, &filter);
      EXPECT_FALSE(status.ok()) << c.what;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.what;
      EXPECT_EQ(filter.NumTrackedObjects(), 0u) << c.what;
    }
  }
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
