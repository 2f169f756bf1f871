// Tests for filter checkpoint / restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

  // Cut after the first epoch from 60 on that leaves a reader remap some
  // slot has not resolved yet.
  FactoredParticleFilter uninterrupted(MakeLineWorld(), Config());
  Rng trace_rng_a(21);
  feed(&uninterrupted, &trace_rng_a, 0, 60);
  int cut = 60;
  do {
    ASSERT_LT(cut, 100) << "no epoch left a remap pending";
    feed(&uninterrupted, &trace_rng_a, cut, cut + 1);
    ++cut;
  } while (uninterrupted.pending_remaps() == 0);

  // The snapshot carries reader remaps some slots have not resolved yet;
  // the restored filter must resolve them exactly where the uninterrupted
  // one does.
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(uninterrupted, ss).ok());
  FactoredParticleFilter restored(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(ss, &restored).ok());
  EXPECT_EQ(restored.pending_remaps(), uninterrupted.pending_remaps());

  // Same tail on both: advance a second trace RNG through the head's
  // draws, then regenerate identical readings for the tail.
  Rng trace_rng_b(21);
  for (int t = 0; t < cut; ++t) {
    const double y = 0.1 * t;
    const Pose pose({0.0, y, 0.0}, 0.0);
    (void)trace_rng_b.Bernoulli(sensor.ProbReadAt(pose, obj_a));
    (void)trace_rng_b.Bernoulli(sensor.ProbReadAt(pose, obj_b));
  }
  feed(&uninterrupted, &trace_rng_a, cut, 110);
  feed(&restored, &trace_rng_b, cut, 110);

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
  EXPECT_EQ(uninterrupted.remap_resolves(), restored.remap_resolves());
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
  EXPECT_NE(status.message().find("oldest loadable is v6"), std::string::npos)
      << status.message();
  // The filter must be untouched by the rejected load.
  EXPECT_EQ(filter.current_step(), 0);
  EXPECT_EQ(filter.NumTrackedObjects(), 0u);
}

TEST(SnapshotTest, RejectsV5SnapshotsOutsideTheWindow) {
  // v5 fell out of the one-back load window when v7 became the writer: the
  // previous release's v5 bytes of Drive()'s filter are refused, naming v6.
  ExpectOutsideTheWindow(Fixture("snapshot_v5.bin"), 5);
}

TEST(SnapshotTest, RejectsV4SnapshotsOutsideTheWindow) {
  // v4 fell out of the one-back load window when v6 became the writer (its
  // 36-byte particle layout is gone). The rejection must be explicit and
  // name the oldest loadable version — a generic "bad file" error would
  // read as corruption, not deprecation.
  for (const char* fixture : {"snapshot_v4.bin", "snapshot_v4_distinct_40.bin",
                              "snapshot_v4_distinct_257.bin"}) {
    SCOPED_TRACE(fixture);
    ExpectOutsideTheWindow(Fixture(fixture), 4);
  }
}

TEST(SnapshotTest, RejectsV3SnapshotsOutsideTheWindow) {
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
  EXPECT_EQ(a.remap_resolves(), b.remap_resolves());
  EXPECT_EQ(a.pending_remaps(), b.pending_remaps());
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

/// Re-saves a loaded filter.
std::string Resave(const FactoredParticleFilter& filter) {
  std::stringstream ss;
  EXPECT_TRUE(SaveFilterSnapshot(filter, ss).ok());
  return ss.str();
}

uint32_t VersionOf(const std::string& bytes) {
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  return version;
}

TEST(SnapshotTest, LoadsV6Snapshots) {
  // The one-back window: the previous release's v6 bytes of Drive()'s
  // filter (recorded by it, pinned below) load with their f64 positions
  // rounded to f32, and re-save as v7. The v7 bytes reload bit for bit, and
  // the filter loaded from them runs on exactly like the one migrated from
  // v6.
  const std::string v6 = Fixture("snapshot_v6.bin");
  ASSERT_EQ(v6.size(), 4755u);
  ASSERT_EQ(Crc32(v6.data(), v6.size()), 0x385664BBu);
  ASSERT_EQ(VersionOf(v6), 6u);

  std::stringstream v6_in(v6);
  FactoredParticleFilter from_v6(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(v6_in, &from_v6).ok());
  EXPECT_EQ(from_v6.current_step(), 110);
  ASSERT_EQ(from_v6.NumTrackedObjects(), 2u);
  ASSERT_EQ(from_v6.NumActiveObjects(), 1u);
  // Bounds are recomputed from the rounded positions.
  for (const auto& state : from_v6.object_states()) {
    if (state.particles.empty()) continue;
    const Aabb box = state.particles.ComputeBounds();
    EXPECT_TRUE(SameBits(state.particle_bounds.min, box.min));
    EXPECT_TRUE(SameBits(state.particle_bounds.max, box.max));
  }

  const std::string v7 = Resave(from_v6);
  EXPECT_EQ(VersionOf(v7), 7u);
  // Each run's position shrinks from 24 to 12 bytes.
  EXPECT_LT(v7.size(), v6.size());
  std::stringstream v7_in(v7);
  FactoredParticleFilter from_v7(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(v7_in, &from_v7).ok());
  EXPECT_EQ(Resave(from_v7), v7);
  ExpectSameParticles(from_v6, from_v7);
  ExpectSameEstimates(from_v6, from_v7);
  for (int t = 110; t < 130; ++t) {
    const SyncedEpoch epoch = MakeEpoch(t, 0.1 * t, {1001});
    from_v6.ObserveEpoch(epoch);
    from_v7.ObserveEpoch(epoch);
  }
  ExpectSameEstimates(from_v6, from_v7);
}

TEST(SnapshotTest, RestoresARevisitingFilterVerbatim) {
  // Recorded by the release whose index merged a box only into its newest
  // entry, from Config()'s filter over 80 epochs: the reader scans 4 ft up
  // the aisle at 0.1 ft an epoch and comes back over the same ground, tags
  // 1000 and 1001 (at y = 1 and 3 ft) read through the cone with Rng(10)
  // as in Drive(). The return leg's entries lie within merge reach of the
  // first leg's: re-inserting them would fold them together. They are restored as
  // saved instead, so the filter re-saves byte for byte, and boxes that come
  // after the restore merge into the restored entries.
  const std::string bytes = Fixture("snapshot_v7_revisit.bin");
  ASSERT_EQ(bytes.size(), 5772u);
  ASSERT_EQ(Crc32(bytes.data(), bytes.size()), 0x7CDE79D2u);
  ASSERT_EQ(VersionOf(bytes), 7u);

  std::stringstream in(bytes);
  FactoredParticleFilter restored(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(in, &restored).ok());
  EXPECT_EQ(restored.current_step(), 80);
  EXPECT_EQ(Resave(restored), bytes);

  const SensingRegionIndex& index = restored.sensing_index();
  SensingRegionIndex reinserted;
  index.ForEachEntry(
      [&reinserted](const Aabb& box, const std::vector<uint32_t>& slots) {
        reinserted.Insert(box, slots);
      });
  const size_t entries = index.num_entries();
  EXPECT_LT(reinserted.num_entries(), entries);

  // A third leg over the same ground adds no entry.
  for (int t = 80; t < 110; ++t) {
    restored.ObserveEpoch(MakeEpoch(t, 0.1 * (t - 80), {1000}));
  }
  EXPECT_EQ(index.num_entries(), entries);
}

/// Where the first particle block with particles starts in a v6 or v7
/// snapshot: the offset of its first run's length varint, found by walking
/// the readers and the object states before it.
size_t FirstParticleRun(const std::string& bytes) {
  const auto load_u64 = [&bytes](size_t at) {
    uint64_t value = 0;
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    return value;
  };
  // Header, frame header, step, readers-initialized flag.
  size_t at = 12 + 12 + sizeof(int64_t) + sizeof(uint8_t);
  const uint64_t readers = load_u64(at);
  at += sizeof(uint64_t) + readers * (sizeof(Vec3) + 2 * sizeof(double));
  const uint64_t states = load_u64(at);
  at += sizeof(uint64_t);
  for (uint64_t s = 0; s < states; ++s) {
    // Tag, two steps, reader position and bounds, then the flags.
    at += sizeof(TagId) + 2 * sizeof(int64_t) + 3 * sizeof(Vec3);
    const bool compressed = bytes[at] != 0;
    at += 2 * sizeof(uint8_t) + sizeof(int64_t);
    if (compressed) at += sizeof(Vec3) + 6 * sizeof(double);
    const uint64_t count = load_u64(at);
    at += sizeof(uint64_t);
    if (count > 0) return at;
  }
  ADD_FAILURE() << "no object holds particles";
  return std::string::npos;
}

/// Overwrites the `T` at `at` and re-seals the snapshot's CRC frame
/// ([u64 length][u32 crc] after the 12-byte header), so only the decoder's
/// own validation can reject the value.
template <typename T>
std::string Poison(std::string bytes, size_t at, T value) {
  std::memcpy(&bytes[at], &value, sizeof(value));
  uint64_t length = 0;
  std::memcpy(&length, bytes.data() + 12, sizeof(length));
  const uint32_t crc = Crc32(bytes.data() + 24, length);
  std::memcpy(&bytes[20], &crc, sizeof(crc));
  return bytes;
}

TEST(SnapshotTest, V6RunsRoundToF32OnLoad) {
  // Drive()'s filter reads 40 readers (u8 indices): a run is its one-byte
  // length, three f64 and, per particle, an index and an f64 weight.
  const std::string v6 = Fixture("snapshot_v6.bin");
  const size_t first = FirstParticleRun(v6);
  ASSERT_NE(first, std::string::npos);
  const auto run_length = static_cast<uint8_t>(v6[first]);
  ASSERT_LT(run_length, 0x80);
  const size_t first_position = first + 1;
  const size_t second = first_position + 3 * sizeof(double) +
                        run_length * (sizeof(uint8_t) + sizeof(double));
  ASSERT_LT(static_cast<uint8_t>(v6[second]), 0x80);
  const size_t second_position = second + 1;
  Vec3 p;
  std::memcpy(&p, v6.data() + first_position, sizeof(p));

  // Runs are maximal in the file's own f64 values: a second run equal to
  // the first is refused.
  {
    std::stringstream in(Poison(v6, second_position, p));
    FactoredParticleFilter filter(MakeLineWorld(), Config());
    const Status status = LoadFilterSnapshot(in, &filter);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("not maximal"), std::string::npos)
        << status.message();
  }

  // One f64 ulp apart, the two runs are distinct in the file and the same
  // once rounded: they load as adjacent equal positions and re-save as one
  // v7 run, a length byte and three f32 shorter.
  Vec3 nudged = p;
  nudged.x = std::nextafter(p.x, std::numeric_limits<double>::infinity());
  ASSERT_EQ(static_cast<ParticleCoord>(nudged.x),
            static_cast<ParticleCoord>(p.x));
  std::stringstream merged_in(Poison(v6, second_position, nudged));
  FactoredParticleFilter merged(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(merged_in, &merged).ok());
  std::stringstream plain_in(v6);
  FactoredParticleFilter plain(MakeLineWorld(), Config());
  ASSERT_TRUE(LoadFilterSnapshot(plain_in, &plain).ok());
  const auto active = [](const FactoredParticleFilter& filter) {
    for (const auto& state : filter.object_states()) {
      if (!state.particles.empty()) return &state.particles;
    }
    return static_cast<const ParticleSoa*>(nullptr);
  };
  ASSERT_NE(active(merged), nullptr);
  EXPECT_TRUE(SameBits(active(merged)->PositionAt(run_length),
                       active(merged)->PositionAt(0)));
  EXPECT_FALSE(SameBits(active(plain)->PositionAt(run_length),
                        active(plain)->PositionAt(0)));
  EXPECT_EQ(Resave(merged).size(),
            Resave(plain).size() - 1 - 3 * sizeof(ParticleCoord));

  // A finite f64 past f32's range has no stored form: refused.
  for (double past : {1e300, -3.5e38}) {
    Vec3 far = p;
    far.y = past;
    std::stringstream in(Poison(v6, first_position, far));
    FactoredParticleFilter filter(MakeLineWorld(), Config());
    const Status status = LoadFilterSnapshot(in, &filter);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << past;
    EXPECT_NE(status.message().find("past f32 range"), std::string::npos)
        << status.message();
    EXPECT_EQ(filter.NumTrackedObjects(), 0u);
  }
}

TEST(SnapshotTest, LoadsASingleAncestorRecordBehindOlderOnes) {
  // The filter cuts its remap history at a resample whose readers all copy
  // one ancestor, so it never saves a single-ancestor record behind an
  // older one. A release before the cut did; such a state (built here by
  // rewriting the newest of two or more pending records to copy one
  // reader) must load, re-save to the same bytes and resolve.
  FactoredFilterConfig config = Config();
  config.compression.compress_after_epochs = 0;
  FactoredParticleFilter original(MakeLineWorld(), config);
  ConeSensorModel sensor;
  Rng rng(10);
  int t = 0;
  for (; t < 200 && original.pending_remaps() < 2; ++t) {
    const Pose pose({0.0, 0.1 * t, 0.0}, 0.0);
    std::vector<TagId> tags;
    if (rng.Bernoulli(sensor.ProbReadAt(pose, {1.5, 1.0, 0.0}))) {
      tags.push_back(1000);
    }
    if (t < 20) tags.push_back(1001);
    original.ObserveEpoch(MakeEpoch(t, 0.1 * t, tags));
  }
  const size_t records = original.pending_remaps();
  ASSERT_GE(records, 2u) << "no epoch left two remaps pending";
  std::stringstream saved;
  ASSERT_TRUE(SaveFilterSnapshot(original, saved).ok());

  // The remap block at the end (since v6): [u64 count][count x (i64 step,
  // one u8 ancestor per reader)][u32 lag per slot][u64 resolves]. Every new
  // reader of the newest record becomes a copy of reader 3.
  std::string bytes = saved.str();
  const size_t readers = original.reader_particles().size();
  ASSERT_LE(readers, 256u);
  const size_t newest_ancestors =
      bytes.size() - sizeof(uint64_t) -
      original.object_states().size() * sizeof(uint32_t) - readers;
  std::fill(bytes.begin() + static_cast<long>(newest_ancestors),
            bytes.begin() + static_cast<long>(newest_ancestors + readers), 3);
  const uint32_t crc = Crc32(bytes.data() + 24, bytes.size() - 24);
  std::memcpy(&bytes[20], &crc, sizeof(crc));

  std::stringstream parent_state(bytes);
  FactoredParticleFilter restored(MakeLineWorld(), config);
  ASSERT_TRUE(LoadFilterSnapshot(parent_state, &restored).ok());
  EXPECT_EQ(restored.pending_remaps(), records);
  std::stringstream resaved;
  ASSERT_TRUE(SaveFilterSnapshot(restored, resaved).ok());
  EXPECT_EQ(resaved.str(), bytes);

  // Reading both tags syncs every slot through the pending records.
  const uint64_t resolves = restored.remap_resolves();
  restored.ObserveEpoch(MakeEpoch(t, 0.1 * t, {1000, 1001}));
  EXPECT_GT(restored.remap_resolves(), resolves);
  for (const auto& state : restored.object_states()) {
    EXPECT_EQ(restored.RemapLag(state), 0u) << "tag " << state.tag;
    for (size_t k = 0; k < state.particles.size(); ++k) {
      ASSERT_LT(state.particles.ReaderIdxAt(k), readers) << "tag " << state.tag;
    }
    const auto est = restored.EstimateObject(state.tag);
    ASSERT_TRUE(est.has_value());
    EXPECT_TRUE(std::isfinite(est->mean.x) && std::isfinite(est->mean.y));
  }
}

TEST(SnapshotTest, StreamingWriterReproducesPinnedBytes) {
  // Size and CRC-32 of Drive()'s v7 snapshot, ending in the remap block:
  // no record pending at the last epoch (an 8 B count and two 4 B lags)
  // and the 8 B resolve counter.
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());
  const std::string bytes = ss.str();
  EXPECT_EQ(bytes.size(), 4623u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0xBFE76F05u);
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

TEST(SnapshotTest, RejectsNonFiniteValues) {
  // A snapshot whose CRC was re-sealed over a NaN must not inject it into
  // the filter: reader poses and weights, particle positions and particle
  // weights are validated, in both loadable layouts (v7 as written today,
  // with f32 positions, and v6 as the previous release wrote Drive()'s
  // filter, with f64 ones).
  FactoredParticleFilter original(MakeLineWorld(), Config());
  Drive(&original);
  std::stringstream ss;
  ASSERT_TRUE(SaveFilterSnapshot(original, ss).ok());

  for (const std::string& bytes : {ss.str(), Fixture("snapshot_v6.bin")}) {
    const bool f32 = VersionOf(bytes) == 7;
    SCOPED_TRACE(f32 ? "v7" : "v6");
    // The first reader follows the header, frame, step, flag and count;
    // the first run's position follows its one-byte length, and the first
    // particle's weight follows the position and its u8 reader index.
    const size_t reader_at = 12 + 12 + sizeof(int64_t) + sizeof(uint8_t) +
                             sizeof(uint64_t);
    const size_t run_at = FirstParticleRun(bytes);
    ASSERT_NE(run_at, std::string::npos);
    ASSERT_LT(static_cast<uint8_t>(bytes[run_at]), 0x80);
    const size_t particle_at = run_at + 1;
    const size_t coord = f32 ? sizeof(ParticleCoord) : sizeof(double);
    const size_t weight_at = particle_at + 3 * coord + sizeof(uint8_t);

    // Re-sealing an unchanged value must still load: the harness itself is
    // not what rejects the cases below.
    double weight = 0.0;
    std::memcpy(&weight, bytes.data() + weight_at, sizeof(weight));
    ASSERT_TRUE(weight > 0.0 && weight <= 1.0) << weight;
    {
      std::stringstream resealed(Poison(bytes, weight_at, weight));
      FactoredParticleFilter filter(MakeLineWorld(), Config());
      ASSERT_TRUE(LoadFilterSnapshot(resealed, &filter).ok());
    }

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    /// A position coordinate at the file's width.
    const auto position = [&](size_t axis, double value) {
      const size_t at = particle_at + axis * coord;
      return f32 ? Poison(bytes, at, static_cast<ParticleCoord>(value))
                 : Poison(bytes, at, value);
    };
    const struct {
      const char* what;
      std::string poisoned;
    } kCases[] = {
        {"reader x", Poison(bytes, reader_at, nan)},
        {"reader heading", Poison(bytes, reader_at + 3 * sizeof(double), inf)},
        {"reader weight", Poison(bytes, reader_at + 4 * sizeof(double), -inf)},
        {"particle x", position(0, nan)},
        {"particle y", position(1, inf)},
        {"particle z", position(2, -inf)},
        {"particle weight", Poison(bytes, weight_at, nan)},
        {"negative particle weight", Poison(bytes, weight_at, -0.5)},
        {"infinite particle weight", Poison(bytes, weight_at, inf)},
    };
    for (const auto& c : kCases) {
      std::stringstream poisoned(c.poisoned);
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

TEST(SnapshotTest, SaveRefusesPositionsItsLoaderRejects) {
  // A filter built directly (the engine rejects such configs) with an
  // infinite or NaN initialization depth seeds non-finite particles on the
  // first read. The loader rejects those bytes, so the save must fail too,
  // before a checkpoint that can never be restored replaces a good one.
  for (double depth : {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    FactoredFilterConfig config = Config();
    config.init.range_overestimate = depth;
    FactoredParticleFilter filter(MakeLineWorld(), config);
    filter.ObserveEpoch(MakeEpoch(0, 1.0, {1000}));
    ASSERT_EQ(filter.NumTrackedObjects(), 1u);
    std::stringstream ss;
    const Status status = SaveFilterSnapshot(filter, ss);
    EXPECT_FALSE(status.ok()) << "depth " << depth;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("not finite"), std::string::npos)
        << status.message();
  }
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
