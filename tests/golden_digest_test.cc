// Golden digests of the factored filter's observable output.
//
// Each scenario runs the engine over a fixed trace with compression and
// hibernation on, then folds everything a caller can observe into one
// FNV-1a 64 value: the emitted event stream, the reader estimate, every
// tag's EstimateObject (mean, variance, support), particle_updates(),
// remap_resolves() and the compressed / hibernated object counts. The
// expected constants are pinned bit for bit. They hold at one thread and at
// four, so this is also the reference for the determinism contract: every
// per-object update draws from its (seed, slot, step) stream, whichever
// lane runs it. Because remap_resolves() is folded in, a change in how much
// remap work the filter does fails here by equality.
//
// Attachments advance only at the filter's own sync points, so reading the
// filter must not change what it computes: the same constants hold when
// every epoch is followed by estimates of every tag, FindObject,
// object_states() and a snapshot save/load round trip of the running
// filter.
//
// A change that moves a constant changes what the filter computes. Re-pin
// only when that is the intent, and say why in the change description.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <ios>
#include <memory>
#include <sstream>
#include <type_traits>
#include <vector>

#include "core/engine.h"
#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "model/spherical_sensor.h"
#include "pf/factored_filter.h"
#include "pf/snapshot.h"
#include "sim/lab.h"
#include "sim/trace.h"
#include "sim/warehouse.h"

namespace rfid {
namespace {

/// FNV-1a 64 over raw bytes: doubles hash by bit pattern, so any change in
/// the last ulp (or the sign of a zero) changes the digest.
class Fnv1a64 {
 public:
  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable<T>::value, "hash raw bytes");
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ULL;
    }
  }
  void Add(const Vec3& v) {
    Pod(v.x);
    Pod(v.y);
    Pod(v.z);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// A trace, the world model to run it against and the filter settings.
struct Scenario {
  std::vector<SyncedEpoch> epochs;
  std::vector<TagId> tags;
  std::function<WorldModel()> make_model;
  FactoredFilterConfig config;
  /// What the run must reach to cover what it pins: the compressed and
  /// hibernated tiers, or (with compression off) the remap history cap.
  bool sweeps_history_cap = false;
  /// First epoch of a pass over ground the reader has covered (0: none).
  /// From there on, sensing boxes merge into the index entries the earlier
  /// pass made, so the pass adds none.
  size_t revisit_from = 0;
};

/// Settings shared by the scenarios: compression of objects unprocessed for
/// a few epochs, and hibernation of tags unread for 120, so the traces pass
/// through both tiers (and reader resampling fires on ~1 epoch in 5).
FactoredFilterConfig BaseConfig(uint64_t seed) {
  FactoredFilterConfig config;
  config.num_reader_particles = 40;
  config.num_object_particles = 200;
  config.seed = seed;
  config.init.half_angle = M_PI;
  config.compression.compress_after_epochs = 6;
  config.compression.hibernate_after_epochs = 120;
  return config;
}

/// The first 200 epochs of the lab deployment (80 tags, spherical antenna,
/// drifting dead reckoning).
Scenario LabScenario() {
  LabConfig lc;
  lc.seed = 906;
  auto lab = BuildLabDeployment(lc);
  EXPECT_TRUE(lab.ok());
  Scenario s;
  for (const SimEpoch& e : lab.value().trace.epochs) {
    if (s.epochs.size() == 200) break;
    s.epochs.push_back(e.observations);
  }
  EXPECT_EQ(s.epochs.size(), 200u);
  for (const ObjectPlacement& o : lab.value().objects) s.tags.push_back(o.tag);
  s.make_model = [deployment = lab.value()] {
    ExperimentModelOptions options;
    options.motion.delta = {};
    options.motion.sigma = {0.05, 0.15, 0.0};
    options.sensing.sigma = {0.3, 0.3, 0.0};
    return MakeWorldModel(
        deployment.shelf_boxes, deployment.shelf_tags,
        std::make_unique<SphericalSensorModel>(deployment.sensor), options);
  };
  s.config = BaseConfig(77);
  return s;
}

/// A small generated warehouse: two shelves of 15 objects scanned once by
/// the robot through the cone antenna.
Scenario WarehouseScenario() {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.objects_per_shelf = 15;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  EXPECT_TRUE(layout.ok());
  TraceGenerator gen(layout.value(), RobotConfig{}, {}, ConeSensorModel(), 8);
  const SimulatedTrace trace = gen.Generate();
  Scenario s;
  s.epochs = trace.ObservationsOnly();
  for (const ObjectPlacement& o : layout.value().objects) {
    s.tags.push_back(o.tag);
  }
  s.make_model = [layout = layout.value()] {
    ExperimentModelOptions options;
    options.motion.delta = {0.0, 0.1, 0.0};
    options.motion.sigma = {0.02, 0.02, 0.0};
    return MakeWorldModel(layout, std::make_unique<ConeSensorModel>(),
                          options);
  };
  s.config = BaseConfig(21);
  return s;
}

/// WarehouseScenario's layout scanned in two rounds: the robot comes back
/// down the aisle over the ground of its first pass (its motion model
/// predicts no drift, so it serves both directions). The return pass's
/// sensing boxes merge into the first pass's index entries, not only into
/// the newest one, and it reads again tags that hibernated in between.
Scenario RevisitScenario() {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.objects_per_shelf = 15;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  EXPECT_TRUE(layout.ok());
  RobotConfig robot;
  robot.rounds = 2;
  TraceGenerator gen(layout.value(), robot, {}, ConeSensorModel(), 8);
  const SimulatedTrace trace = gen.Generate();
  Scenario s;
  s.epochs = trace.ObservationsOnly();
  for (const ObjectPlacement& o : layout.value().objects) {
    s.tags.push_back(o.tag);
  }
  s.make_model = [layout = layout.value()] {
    ExperimentModelOptions options;
    options.motion.delta = {};
    options.motion.sigma = {0.02, 0.05, 0.0};
    return MakeWorldModel(layout, std::make_unique<ConeSensorModel>(),
                          options);
  };
  s.config = BaseConfig(21);
  s.revisit_from = s.epochs.size() / 2;
  return s;
}

/// A smaller generated warehouse with compression off: two 8 ft shelves of
/// 8 objects scanned once through the cone antenna. Without compression's
/// syncs, the tags the robot has passed lag while reader resampling keeps
/// firing, until the history cap syncs every slot from 31 pending records
/// (once on this trace, at epoch 164 of 210): the deepest replay the filter
/// makes, which the other scenarios never reach (their lags stay <= 5).
Scenario HistoryCapScenario() {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 8.0;
  wc.objects_per_shelf = 8;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  EXPECT_TRUE(layout.ok());
  TraceGenerator gen(layout.value(), RobotConfig{}, {}, ConeSensorModel(), 1);
  const SimulatedTrace trace = gen.Generate();
  Scenario s;
  s.epochs = trace.ObservationsOnly();
  for (const ObjectPlacement& o : layout.value().objects) {
    s.tags.push_back(o.tag);
  }
  s.make_model = [layout = layout.value()] {
    return MakeWorldModel(layout, std::make_unique<ConeSensorModel>());
  };
  s.config = BaseConfig(21);
  s.config.compression = {};
  s.sweeps_history_cap = true;
  return s;
}

/// Every read a caller can make of the running filter, then a snapshot
/// round trip that replaces it with its own restored copy. Returns the
/// remap records the snapshot carried.
size_t ReadEverything(const Scenario& s, FactoredParticleFilter* filter) {
  Fnv1a64 sink;
  for (TagId tag : s.tags) {
    if (const auto est = filter->EstimateObject(tag)) sink.Add(est->mean);
    if (const auto* state = filter->FindObject(tag)) {
      sink.Pod(state->particles.size());
    }
  }
  for (const auto& state : filter->object_states()) {
    sink.Pod(filter->RemapLag(state));
  }
  std::stringstream snapshot;
  EXPECT_TRUE(SaveFilterSnapshot(*filter, snapshot).ok());
  const size_t pending = filter->pending_remaps();
  EXPECT_TRUE(LoadFilterSnapshot(snapshot, filter).ok());
  EXPECT_EQ(filter->pending_remaps(), pending);
  return pending;
}

/// Runs the engine over the scenario and digests its observable output;
/// with `read_every_epoch`, ReadEverything() runs after every epoch.
uint64_t RunDigest(const Scenario& s, int num_threads,
                   bool read_every_epoch = false) {
  EngineConfig c;
  c.factored = s.config;
  c.factored.num_threads = num_threads;
  c.emitter.delay_seconds = 2.0;
  auto engine = RfidInferenceEngine::Create(s.make_model(), c);
  EXPECT_TRUE(engine.ok());
  auto& filter =
      dynamic_cast<FactoredParticleFilter&>(engine.value()->mutable_filter());
  Fnv1a64 h;
  size_t events = 0;
  bool reached_compressed = false;
  // The cap syncs every slot when a record would make the history
  // kMaxRemapHistory long, which empties a history one record short of it
  // within one epoch; on these traces nothing else does.
  constexpr size_t kFullHistory = FactoredParticleFilter::kMaxRemapHistory;
  size_t pending = 0;
  size_t cap_sweeps = 0;
  size_t restored_with_pending = 0;
  size_t most_restored = 0;
  size_t first_pass_entries = 0;
  for (size_t e = 0; e < s.epochs.size(); ++e) {
    const SyncedEpoch& epoch = s.epochs[e];
    if (e == s.revisit_from) {
      first_pass_entries = filter.sensing_index().num_entries();
    }
    engine.value()->ProcessEpoch(epoch);
    reached_compressed |= filter.NumCompressedObjects() > 0;
    const size_t now = filter.pending_remaps();
    if (pending + 1 == kFullHistory && now == 0) ++cap_sweeps;
    pending = now;
    if (read_every_epoch) {
      const size_t carried = ReadEverything(s, &filter);
      restored_with_pending += carried > 0 ? 1 : 0;
      most_restored = std::max(most_restored, carried);
    }
    for (const LocationEvent& ev : engine.value()->TakeEvents()) {
      h.Pod(ev.time);
      h.Pod(ev.tag);
      h.Add(ev.location);
      h.Pod(ev.stats.has_value());
      if (ev.stats.has_value()) {
        h.Add(ev.stats->variance);
        h.Pod(ev.stats->rmse_radius);
        h.Pod(ev.stats->support);
      }
      ++events;
    }
  }
  // The scenario must reach what it claims to cover.
  EXPECT_GT(events, 0u);
  if (s.sweeps_history_cap) {
    EXPECT_GT(cap_sweeps, 0u);
    // Some restore carried the longest history a snapshot can hold.
    if (read_every_epoch) {
      EXPECT_EQ(most_restored, kFullHistory - 1);
    }
  } else {
    EXPECT_TRUE(reached_compressed);
    EXPECT_GT(filter.NumHibernatedObjects(), 0u);
  }
  EXPECT_GT(filter.remap_resolves(), 0u);
  if (s.revisit_from > 0) {
    // The pass over covered ground adds no index entry.
    EXPECT_GT(first_pass_entries, 0u);
    EXPECT_EQ(filter.sensing_index().num_entries(), first_pass_entries);
  }
  // A good share of the restores must carry pending remaps, or the round
  // trip proves little about them.
  if (read_every_epoch) {
    EXPECT_GT(restored_with_pending * 4, s.epochs.size());
  }

  const ReaderEstimate reader = filter.EstimateReader();
  h.Add(reader.mean);
  h.Add(reader.variance);
  h.Pod(reader.heading);
  for (TagId tag : s.tags) {
    const auto est = filter.EstimateObject(tag);
    h.Pod(est.has_value());
    if (!est.has_value()) continue;
    h.Add(est->mean);
    h.Add(est->variance);
    h.Pod(est->support);
  }
  h.Pod(filter.particle_updates());
  h.Pod(filter.remap_resolves());
  h.Pod(filter.NumCompressedObjects());
  h.Pod(filter.NumHibernatedObjects());
  return h.value();
}

// Re-pinned when object-particle positions began to be stored as float
// (0x03b70179560b49c4 and 0xeeefbe8afbae7097 before): every draw rounds once
// when stored, so every later weight sees a slightly different position.
constexpr uint64_t kLabGolden = 0xca35487c3928ae02ULL;
constexpr uint64_t kWarehouseGolden = 0x85a8174d88f4ed0aULL;

TEST(GoldenDigestTest, LabTrace200Epochs) {
  const Scenario s = LabScenario();
  for (int threads : {1, 4}) {
    const uint64_t digest = RunDigest(s, threads);
    EXPECT_EQ(digest, kLabGolden)
        << "threads=" << threads << " digest=0x" << std::hex << digest;
  }
}

TEST(GoldenDigestTest, GeneratedWarehouseTrace) {
  const Scenario s = WarehouseScenario();
  for (int threads : {1, 4}) {
    const uint64_t digest = RunDigest(s, threads);
    EXPECT_EQ(digest, kWarehouseGolden)
        << "threads=" << threads << " digest=0x" << std::hex << digest;
  }
}

// Both scenarios with shelf clipping off. An unclipped initial particle is
// one plain cone draw, which the thinned shelf sampler must not touch:
// these constants were recorded with the plain-rejection sampler it
// replaced. The unclipped lab run is the one scenario whose readers
// collapse onto a single ancestor while some slot lags further back; its
// constant was re-pinned when such a resample began to cut the remap
// history (0x5eeff61642960fd9 before), so its lagging slots now resolve
// from that record. It is also the one of these runs whose syncs resolve
// more than one record, and was re-pinned again when a lagging slot began
// to replay its records one by one instead of drawing once from their
// composite (0x11061fb77543822d before); lag-one syncs draw as they did.
// Both were re-pinned when positions began to be stored as float
// (0x4fb4e888bb4e673c and 0x9bb8143789407580 before).
constexpr uint64_t kLabUnclippedGolden = 0xaa2fe7b3818b56a0ULL;
constexpr uint64_t kWarehouseUnclippedGolden = 0xcc9a416c11e9fbb4ULL;

TEST(GoldenDigestTest, UnclippedInitializationIsUnchanged) {
  Scenario lab = LabScenario();
  lab.config.init.clip_to_shelves = false;
  Scenario warehouse = WarehouseScenario();
  warehouse.config.init.clip_to_shelves = false;
  for (int threads : {1, 4}) {
    const uint64_t lab_digest = RunDigest(lab, threads);
    EXPECT_EQ(lab_digest, kLabUnclippedGolden)
        << "threads=" << threads << " digest=0x" << std::hex << lab_digest;
    const uint64_t warehouse_digest = RunDigest(warehouse, threads);
    EXPECT_EQ(warehouse_digest, kWarehouseUnclippedGolden)
        << "threads=" << threads << " digest=0x" << std::hex
        << warehouse_digest;
  }
}

TEST(GoldenDigestTest, ReadsAndSnapshotRoundTripsDoNotPerturb) {
  // Estimates, FindObject, object_states() and a save/load round trip of
  // the running filter after every epoch: reads never advance attachments,
  // and a filter restored from a snapshot holding pending remaps continues
  // bit-identically, so the constants hold unchanged — the unclipped lab
  // one too, whose single-ancestor resamples cut the remap history.
  const Scenario lab = LabScenario();
  const Scenario warehouse = WarehouseScenario();
  Scenario lab_unclipped = LabScenario();
  lab_unclipped.config.init.clip_to_shelves = false;
  for (int threads : {1, 4}) {
    const uint64_t lab_digest = RunDigest(lab, threads, true);
    EXPECT_EQ(lab_digest, kLabGolden)
        << "threads=" << threads << " digest=0x" << std::hex << lab_digest;
    const uint64_t warehouse_digest = RunDigest(warehouse, threads, true);
    EXPECT_EQ(warehouse_digest, kWarehouseGolden)
        << "threads=" << threads << " digest=0x" << std::hex
        << warehouse_digest;
    const uint64_t unclipped_digest = RunDigest(lab_unclipped, threads, true);
    EXPECT_EQ(unclipped_digest, kLabUnclippedGolden)
        << "threads=" << threads << " digest=0x" << std::hex
        << unclipped_digest;
  }
}

// Recorded when a sensing box began to merge into the nearest index entry
// within reach, not only into the newest one (the previous rule reads
// 0xcd67ecea045316db here: its return pass makes a second entry for every
// stretch of the aisle, and Case-2 probes meet those boxes instead).
constexpr uint64_t kRevisitGolden = 0xaee316f66c782de1ULL;

TEST(GoldenDigestTest, RevisitedAisle) {
  // The return pass merges into the first pass's entries; the digest holds
  // at one thread and at four, and with a save/load after every epoch, so
  // restored entries take later merges exactly as the running index does.
  const Scenario s = RevisitScenario();
  for (int threads : {1, 4}) {
    for (bool read_every_epoch : {false, true}) {
      const uint64_t digest = RunDigest(s, threads, read_every_epoch);
      EXPECT_EQ(digest, kRevisitGolden)
          << "threads=" << threads << " read_every_epoch=" << read_every_epoch
          << " digest=0x" << std::hex << digest;
    }
  }
}

// The history cap's sync-all: every slot lagging up to 31 records replays
// them at once. Recorded when lagging slots began to replay their records
// one by one; no digest covered this path before. Re-pinned when positions
// began to be stored as float (0xa477ede05c3d4063 before).
constexpr uint64_t kHistoryCapGolden = 0xb1caa311d5c13094ULL;

TEST(GoldenDigestTest, HistoryCapSweep) {
  // The cap fires, the digest holds at one thread and at four, and a
  // save/load after every epoch (v7 snapshots carrying up to 31 pending
  // records) reproduces it.
  const Scenario s = HistoryCapScenario();
  for (int threads : {1, 4}) {
    for (bool read_every_epoch : {false, true}) {
      const uint64_t digest = RunDigest(s, threads, read_every_epoch);
      EXPECT_EQ(digest, kHistoryCapGolden)
          << "threads=" << threads << " read_every_epoch=" << read_every_epoch
          << " digest=0x" << std::hex << digest;
    }
  }
}

}  // namespace
}  // namespace rfid
