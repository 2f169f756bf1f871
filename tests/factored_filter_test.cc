// Tests for the factored particle filter (§IV-B..D): factored weighting,
// spatial-index gating, re-initialization rules, belief compression and the
// decompression cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "model/reader_frame.h"
#include "obs/metrics.h"
#include "pf/factored_filter.h"
#include "test_util.h"
#include "util/stopwatch.h"

namespace rfid {
namespace {

using testing_util::MakeEpoch;
using testing_util::MakeLineWorld;

FactoredFilterConfig SmallConfig() {
  FactoredFilterConfig c;
  c.num_reader_particles = 50;
  c.num_object_particles = 400;
  c.seed = 23;
  return c;
}

/// Scripted pass of the reader from y=0 to y=0.1*(epochs-1), reading the
/// given object when the true cone would plausibly see it.
void RunPass(FactoredParticleFilter* filter, const Vec3& object_pos,
             TagId tag, int epochs, uint64_t seed, double y0 = 0.0,
             int64_t step0 = 0) {
  ConeSensorModel sensor;
  Rng rng(seed);
  for (int t = 0; t < epochs; ++t) {
    const double y = y0 + 0.1 * t;
    std::vector<TagId> tags;
    const Pose pose({0.0, y, 0.0}, 0.0);
    if (rng.Bernoulli(sensor.ProbReadAt(pose, object_pos))) {
      tags.push_back(tag);
    }
    filter->ObserveEpoch(MakeEpoch(step0 + t, y, tags));
  }
}

TEST(FactoredFilterTest, UnknownTagHasNoEstimate) {
  FactoredParticleFilter filter(MakeLineWorld(), SmallConfig());
  filter.ObserveEpoch(MakeEpoch(0, 0.0, {}));
  EXPECT_FALSE(filter.EstimateObject(1000).has_value());
  EXPECT_EQ(filter.FindObject(1000), nullptr);
}

TEST(FactoredFilterTest, ReaderWeightsAreNormalized) {
  FactoredParticleFilter filter(MakeLineWorld(), SmallConfig());
  for (int t = 0; t < 10; ++t) {
    filter.ObserveEpoch(MakeEpoch(t, 0.1 * t, {}));
  }
  double sum = 0.0;
  for (const auto& r : filter.reader_particles()) sum += r.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(FactoredFilterTest, ObjectWeightsAreNormalized) {
  FactoredParticleFilter filter(MakeLineWorld(), SmallConfig());
  filter.ObserveEpoch(MakeEpoch(0, 2.0, {1000}));
  const auto* state = filter.FindObject(1000);
  ASSERT_NE(state, nullptr);
  double sum = 0.0;
  for (const auto& p : state->particles) sum += p.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(FactoredFilterTest, ParticlePointersReferenceValidReaders) {
  FactoredParticleFilter filter(MakeLineWorld(), SmallConfig());
  RunPass(&filter, {1.5, 2.0, 0.0}, 1000, 60, 31);
  const auto* state = filter.FindObject(1000);
  ASSERT_NE(state, nullptr);
  for (const auto& p : state->particles) {
    EXPECT_LT(p.reader_idx, filter.reader_particles().size());
  }
}

TEST(FactoredFilterTest, ConvergesNearTruth) {
  FactoredParticleFilter filter(MakeLineWorld(), SmallConfig());
  const Vec3 truth{1.5, 2.0, 0.0};
  RunPass(&filter, truth, 1000, 60, 37);
  const auto est = filter.EstimateObject(1000);
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->mean.DistanceXYTo(truth), 1.0);
}

TEST(FactoredFilterTest, TracksReaderAlongPath) {
  FactoredParticleFilter filter(MakeLineWorld(), SmallConfig());
  for (int t = 0; t < 50; ++t) {
    filter.ObserveEpoch(MakeEpoch(t, 0.1 * t, {}));
  }
  EXPECT_NEAR(filter.EstimateReader().mean.y, 4.9, 0.3);
}

TEST(FactoredFilterTest, NegativeEvidencePrunesCloseHypotheses) {
  // The object is read once, then repeatedly missed while the reader is
  // nearby: particles right in front of the reader must lose weight, so the
  // variance along the aisle shrinks slower than the mean drifts away from
  // the reader's subsequent positions.
  FactoredParticleFilter filter(MakeLineWorld(), SmallConfig());
  filter.ObserveEpoch(MakeEpoch(0, 2.0, {1000}));
  const auto first = filter.EstimateObject(1000);
  ASSERT_TRUE(first.has_value());
  // Reader moves on without ever reading the object again.
  for (int t = 1; t < 15; ++t) {
    filter.ObserveEpoch(MakeEpoch(t, 2.0 + 0.1 * t, {}));
  }
  const auto later = filter.EstimateObject(1000);
  ASSERT_TRUE(later.has_value());
  const double var0 = first->variance.x + first->variance.y;
  const double var1 = later->variance.x + later->variance.y;
  EXPECT_LT(var1, var0 * 1.5);  // Does not blow up.
}

TEST(FactoredFilterTest, DeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    FactoredFilterConfig c = SmallConfig();
    c.seed = seed;
    FactoredParticleFilter filter(MakeLineWorld(), c);
    RunPass(&filter, {1.5, 3.0, 0.0}, 1000, 50, 41);
    return filter.EstimateObject(1000)->mean;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_FALSE(run(5) == run(6));
}

TEST(FactoredFilterTest, StagesSplitTheEpochWithoutChangingIt) {
  // The stage clocks (the index probe charged to `compress`, remap replay
  // taken out of the stage it ran in) give non-negative stages that fit in
  // the epoch's wall time; with telemetry off they read zero, and the
  // estimates are the same either way.
  const auto run = [](bool telemetry) {
    obs::SetTelemetryEnabled(telemetry);
    FactoredFilterConfig c = SmallConfig();
    c.compression.compress_after_epochs = 5;
    FactoredParticleFilter filter(MakeLineWorld(), c);
    ConeSensorModel sensor;
    Rng rng(41);
    const Vec3 object{1.5, 3.0, 0.0};
    for (int t = 0; t < 60; ++t) {
      // Up the aisle and back, so probes meet entries of both legs.
      const double y = t < 30 ? 0.1 * t : 0.1 * (60 - t);
      std::vector<TagId> tags;
      if (rng.Bernoulli(sensor.ProbReadAt(Pose({0.0, y, 0.0}, 0.0), object))) {
        tags.push_back(1000);
      }
      const uint64_t start = MonotonicNanos();
      filter.ObserveEpoch(MakeEpoch(t, y, tags));
      const double wall = static_cast<double>(MonotonicNanos() - start) * 1e-9;
      const auto& stages = filter.last_epoch_stages();
      const double parts[] = {stages.weight, stages.reader_resample,
                              stages.remap_replay, stages.compress};
      double sum = 0.0;
      for (double part : parts) {
        if (telemetry) {
          EXPECT_GE(part, 0.0) << "epoch " << t;
        } else {
          EXPECT_EQ(part, 0.0) << "epoch " << t;
        }
        sum += part;
      }
      EXPECT_LE(sum, wall + 1e-9) << "epoch " << t;
    }
    obs::SetTelemetryEnabled(true);
    return filter.EstimateObject(1000)->mean;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(FactoredFilterTest, SpatialIndexVariantTracksLikeFullProcessing) {
  auto run = [](bool use_index) {
    FactoredFilterConfig c = SmallConfig();
    c.use_spatial_index = use_index;
    FactoredParticleFilter filter(MakeLineWorld(), c);
    RunPass(&filter, {1.5, 2.0, 0.0}, 1000, 70, 43);
    return filter.EstimateObject(1000)->mean;
  };
  const Vec3 with_index = run(true);
  const Vec3 without = run(false);
  // Both must land near the true object; the index is an approximation, not
  // a different answer.
  EXPECT_LT(with_index.DistanceXYTo({1.5, 2.0, 0}), 1.0);
  EXPECT_LT(without.DistanceXYTo({1.5, 2.0, 0}), 1.0);
}

// --------------------------------------------------------- Reinit rules ---

/// How the kernel calls of a run met the far-field reach box (the union of
/// the frames' zero-region cubes), counted by UnitDiskSensor.
struct ReachCounts {
  int calls = 0;
  int bounds_far = 0;  ///< Particle bounds miss the box.
  int straddle = 0;    ///< Bounds meet the box, yet no particle is in it.
};

/// Isotropic test sensor: reads at 0.8 nearer than one foot, exactly 0 at
/// and past it. With `far_field` false it reports no zero radius, so the
/// filter never takes a far-field path and weights every particle through
/// the kernel: the reference the per-particle scan must reproduce. With
/// `counts` set, each kernel call is classified against the reach box of
/// `num_frames` frames.
class UnitDiskSensor final : public SensorModel {
 public:
  UnitDiskSensor(bool far_field, int num_frames,
                 std::shared_ptr<ReachCounts> counts = nullptr)
      : far_field_(far_field), num_frames_(num_frames),
        counts_(std::move(counts)) {}

  double ProbRead(double distance, double /*angle*/) const override {
    return distance < 1.0 ? 0.8 : 0.0;
  }
  double MaxRange() const override { return 1.0; }
  double BatchZeroRadius() const override {
    return far_field_ ? 1.0 : std::numeric_limits<double>::infinity();
  }
  std::unique_ptr<SensorModel> Clone() const override {
    return std::make_unique<UnitDiskSensor>(*this);
  }
  void ProbReadBatchGather(const ReaderFrame* frames,
                           const uint32_t* frame_idx, const ParticleCoord* xs,
                           const ParticleCoord* ys, const ParticleCoord* zs,
                           size_t n, double* out) const override {
    if (counts_ != nullptr) {
      Aabb reach = Aabb::Empty();
      for (int j = 0; j < num_frames_; ++j) {
        reach.Extend(batch_detail::ZeroRegionBounds(
            frames[j], 1.0, std::numeric_limits<double>::infinity()));
      }
      Aabb bounds = Aabb::Empty();
      bool inside = false;
      for (size_t k = 0; k < n; ++k) {
        bounds.Extend(Vec3{xs[k], ys[k], zs[k]});
        inside = inside || reach.Contains(Vec3{xs[k], ys[k], zs[k]});
      }
      ++counts_->calls;
      if (!bounds.Intersects(reach)) {
        ++counts_->bounds_far;
      } else if (!inside) {
        ++counts_->straddle;
      }
    }
    SensorModel::ProbReadBatchGather(frames, frame_idx, xs, ys, zs, n, out);
  }

 private:
  bool far_field_;
  int num_frames_;
  std::shared_ptr<ReachCounts> counts_;
};

/// Two shelves in an L around the origin, leaving the quadrant x, y > -0.3
/// empty, and the reader motion of the walk below: (0.1, 0.1) per epoch.
WorldModel LShelfWorld(std::unique_ptr<SensorModel> sensor) {
  MotionModelParams motion;
  motion.delta = {0.1, 0.1, 0.0};
  motion.sigma = {0.02, 0.02, 0.0};
  LocationSensingParams sensing;
  sensing.sigma = {0.01, 0.01, 0.0};
  ObjectModelParams om;
  om.move_probability = 1e-4;
  return WorldModel(
      std::move(sensor), MotionModel(motion), LocationSensingModel(sensing),
      ObjectLocationModel(
          om, ShelfRegions({Aabb({-1.2, -1.2, 0}, {-0.3, 1.2, 0}),
                            Aabb({-0.3, -1.2, 0}, {1.2, -0.3, 0})})),
      {});
}

TEST(FactoredFilterTest, FarFieldScanMatchesTheKernelPerParticle) {
  // Tag 7 is read once at the origin, so its particles fill the L of
  // shelves around it; the reader then walks diagonally into the empty
  // quadrant without reading it again. Once its reach box clears the
  // shelves, the object's bounds meet the box and no particle lies in it.
  // Under fixed budgets the scan sends such an update down the far-field
  // path; elastic budgets are not scanned and run the kernel as before.
  // Against a run that never skips the kernel, weights, ESS and particle
  // counts must agree bit for bit.
  for (const bool elastic : {false, true}) {
    SCOPED_TRACE(elastic ? "elastic budgets" : "fixed budgets");
    FactoredFilterConfig c;
    c.num_reader_particles = 20;
    c.num_object_particles = 200;
    c.min_object_particles = elastic ? 40 : 0;
    c.use_spatial_index = false;  // Every tracked object is processed.
    c.init.half_angle = M_PI;
    c.seed = 17;
    auto counts = std::make_shared<ReachCounts>();
    auto scanned_counts = std::make_shared<ReachCounts>();
    FactoredParticleFilter scanned(
        LShelfWorld(std::make_unique<UnitDiskSensor>(true, 20,
                                                        scanned_counts)),
        c);
    FactoredParticleFilter reference(
        LShelfWorld(std::make_unique<UnitDiskSensor>(false, 20, counts)), c);
    // Nineteen epochs: the twentieth box clears the object's bounds, and
    // the bounds test takes over.
    for (int t = 0; t < 19; ++t) {
      SyncedEpoch epoch = MakeEpoch(t, 0.1 * t, t == 0 ? std::vector<TagId>{7}
                                                       : std::vector<TagId>{});
      epoch.reported_location.x = 0.1 * t;
      scanned.ObserveEpoch(epoch);
      reference.ObserveEpoch(epoch);
      const auto* a = scanned.FindObject(7);
      const auto* b = reference.FindObject(7);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      ASSERT_EQ(a->particles.size(), b->particles.size()) << "epoch " << t;
      double sum_sq_a = 0.0, sum_sq_b = 0.0;
      for (size_t k = 0; k < a->particles.size(); ++k) {
        EXPECT_EQ(a->particles.weights()[k], b->particles.weights()[k]);
        EXPECT_EQ(a->particles.PositionAt(k), b->particles.PositionAt(k));
        sum_sq_a += a->particles.weights()[k] * a->particles.weights()[k];
        sum_sq_b += b->particles.weights()[k] * b->particles.weights()[k];
      }
      EXPECT_EQ(1.0 / sum_sq_a, 1.0 / sum_sq_b) << "ESS, epoch " << t;
    }
    EXPECT_EQ(scanned.particle_updates(), reference.particle_updates());
    // The walk reached the case under test (counted in the reference run,
    // whose states equal the scanned run's), and never the bounds test.
    EXPECT_GE(counts->straddle, 8);
    EXPECT_EQ(counts->bounds_far, 0);
    // Under fixed budgets each of those updates skipped the kernel and
    // every other one ran it; under elastic budgets none skipped it.
    EXPECT_EQ(scanned_counts->calls,
              counts->calls - (elastic ? 0 : counts->straddle));
  }
}

TEST(FactoredFilterTest, FullReinitWhenSeenFarAway) {
  FactoredFilterConfig c = SmallConfig();
  FactoredParticleFilter filter(MakeLineWorld(), c);
  // Seen around y=2 first, then the reader travels (without reading the
  // object) to y=14, far beyond the full re-initialization band (2 x 4.5 ft).
  RunPass(&filter, {1.5, 2.0, 0.0}, 1000, 30, 47);
  int64_t step = filter.current_step();
  for (double y = 3.0; y < 14.0; y += 0.1) {
    filter.ObserveEpoch(MakeEpoch(step++, y, {}));
  }
  // The object reappears under the reader at y=14: full re-initialization.
  filter.ObserveEpoch(MakeEpoch(step, 14.0, {1000}));
  const auto est = filter.EstimateObject(1000);
  ASSERT_TRUE(est.has_value());
  // Estimate must have jumped to the new neighbourhood.
  EXPECT_GT(est->mean.y, 8.0);
}

/// Reads every tag with the same probability wherever it sits: a read
/// cannot tell one neighbourhood from another, so an update leaves uniform
/// weights uniform and never resamples. MaxRange() still sets the §IV-A
/// re-initialization bands (4.5 ft, as the cone).
class FlatSensorModel final : public SensorModel {
 public:
  double ProbRead(double, double) const override { return 0.5; }
  double MaxRange() const override { return 4.5; }
  std::unique_ptr<SensorModel> Clone() const override {
    return std::make_unique<FlatSensorModel>(*this);
  }
};

struct ReinitOutcome {
  std::vector<Vec3> before;  ///< Particle positions before the second read.
  std::vector<Vec3> after;   ///< ...and after it.
};

/// Reads tag 1000 with the reader at y = 0, walks the reader to `y1`
/// without reading it, then reads it once more there. Objects never move
/// and reads are uninformative, so only the re-initialization rule can
/// change a particle's position.
ReinitOutcome ReadAgainAt(double y1) {
  FactoredParticleFilter filter(
      MakeLineWorld(/*move_probability=*/0.0, {}, {0.01, 0.01, 0.0},
                    std::make_unique<FlatSensorModel>()),
      SmallConfig());
  int64_t step = 0;
  filter.ObserveEpoch(MakeEpoch(step++, 0.0, {1000}));
  for (int i = 1; i < static_cast<int>(std::lround(y1 * 10)); ++i) {
    filter.ObserveEpoch(MakeEpoch(step++, 0.1 * i, {}));
  }
  const auto positions = [&filter] {
    std::vector<Vec3> out;
    for (const auto& p : filter.FindObject(1000)->particles) {
      out.push_back(p.position);
    }
    return out;
  };
  ReinitOutcome outcome;
  outcome.before = positions();
  filter.ObserveEpoch(MakeEpoch(step, y1, {1000}));
  outcome.after = positions();
  return outcome;
}

/// Initialization samples lie within 1.2 max ranges of the reader
/// particle that drew them; the slack covers the reader cloud's spread.
bool DrawnAtReader(const Vec3& p, double reader_y) {
  return p.DistanceXYTo({0.0, reader_y, 0.0}) <= 1.2 * 4.5 + 0.2;
}

TEST(FactoredFilterTest, HalfReinitKeepsBothHypotheses) {
  // 6 ft from the first read: in [0.75, 2) max ranges, the half band.
  const ReinitOutcome o = ReadAgainAt(6.0);
  ASSERT_EQ(o.before.size(), 400u);
  ASSERT_EQ(o.after.size(), o.before.size());
  for (size_t k = 0; k < o.after.size(); ++k) {
    SCOPED_TRACE(k);
    if (k % 2 == 0) {
      // Kept: the old neighbourhood's hypothesis survives untouched.
      EXPECT_EQ(o.after[k], o.before[k]);
    } else {
      // Redrawn at the new reader.
      EXPECT_FALSE(o.after[k] == o.before[k]);
      EXPECT_TRUE(DrawnAtReader(o.after[k], 6.0));
    }
  }
}

TEST(FactoredFilterTest, ReinitBandsAroundTheHalfBand) {
  // 2 ft away (under 0.75 max ranges): every particle is kept.
  const ReinitOutcome keep = ReadAgainAt(2.0);
  ASSERT_FALSE(keep.before.empty());
  EXPECT_EQ(keep.after, keep.before);
  // 10 ft away (2 max ranges or more): every particle is redrawn at the new
  // reader, out of reach of the old neighbourhood.
  const ReinitOutcome full = ReadAgainAt(10.0);
  ASSERT_EQ(full.after.size(), 400u);
  for (size_t k = 0; k < full.after.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_TRUE(DrawnAtReader(full.after[k], 10.0));
    EXPECT_FALSE(DrawnAtReader(full.before[k], 10.0));
  }
}

// ---------------------------------------------------------- Compression ---

FactoredFilterConfig CompressionConfig() {
  FactoredFilterConfig c = SmallConfig();
  c.use_spatial_index = true;
  c.compression.compress_after_epochs = 5;
  return c;
}

TEST(FactoredFilterTest, ObjectCompressesAfterLeavingScope) {
  // Each tier collapses the object in the epoch that finds it idle for
  // exactly the tier's threshold — unprocessed for compression, unread for
  // hibernation — and not one epoch sooner; a threshold of 0 never does.
  for (const bool hibernate : {false, true}) {
    for (const int64_t after : {int64_t{5}, int64_t{0}}) {
      SCOPED_TRACE(std::string(hibernate ? "hibernate" : "compress") +
                   " after " + std::to_string(after));
      FactoredFilterConfig c = CompressionConfig();
      c.compression.compress_after_epochs = hibernate ? 0 : after;
      c.compression.hibernate_after_epochs = hibernate ? after : 0;
      FactoredParticleFilter filter(MakeLineWorld(), c);
      // RunPass's 40 epochs, then scanning on far past the object so it
      // goes unprocessed (sensing boxes stop overlapping the recorded ones
      // once the reader is ~2 ranges away).
      ConeSensorModel sensor;
      Rng rng(59);
      const Vec3 object{1.5, 2.0, 0.0};
      int64_t longest_idle = 0;
      int collapses = 0;
      bool one_short = false, collapsed = false;
      for (int t = 0; t < 160; ++t) {
        const double y = 0.1 * t;
        std::vector<TagId> tags;
        if (t < 40 && rng.Bernoulli(sensor.ProbReadAt(
                          Pose({0.0, y, 0.0}, 0.0), object))) {
          tags.push_back(1000);
        }
        filter.ObserveEpoch(MakeEpoch(t, y, tags));
        const auto* state = filter.FindObject(1000);
        if (state == nullptr) continue;
        const int64_t idle =
            t - (hibernate ? std::max(state->last_observed_step,
                                      state->last_revived_step)
                           : state->last_processed_step);
        if (state->IsCompressed() && !collapsed) {
          ++collapses;
          EXPECT_EQ(idle, after) << "epoch " << t;
        } else if (!state->IsCompressed()) {
          if (after > 0) {
            EXPECT_LT(idle, after) << "epoch " << t;
          }
          one_short |= idle == after - 1;
          longest_idle = std::max(longest_idle, idle);
        }
        collapsed = state->IsCompressed();
      }
      if (after == 0) {
        EXPECT_EQ(collapses, 0);
        EXPECT_GT(longest_idle, 50);
        EXPECT_EQ(filter.NumActiveObjects(), 1u);
        continue;
      }
      EXPECT_GT(collapses, 0);
      EXPECT_TRUE(one_short);
      const auto* state = filter.FindObject(1000);
      EXPECT_TRUE(state->IsCompressed());
      EXPECT_EQ(state->hibernated, hibernate);
      EXPECT_EQ(filter.NumCompressedObjects(), hibernate ? 0u : 1u);
      EXPECT_EQ(filter.NumHibernatedObjects(), hibernate ? 1u : 0u);
      EXPECT_EQ(filter.NumActiveObjects(), 0u);
    }
  }
}

TEST(FactoredFilterTest, CompressedEstimateStaysNearTruth) {
  FactoredParticleFilter filter(MakeLineWorld(), CompressionConfig());
  const Vec3 truth{1.5, 2.0, 0.0};
  RunPass(&filter, truth, 1000, 40, 61);
  const Vec3 before = filter.EstimateObject(1000)->mean;
  for (int t = 40; t < 160; ++t) {
    filter.ObserveEpoch(MakeEpoch(t, 0.1 * t, {}));
  }
  const auto est = filter.EstimateObject(1000);
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->support, 0);  // Compressed representation.
  EXPECT_LT(est->mean.DistanceXYTo(before), 0.2);
}

TEST(FactoredFilterTest, DecompressionRevivesParticles) {
  FactoredFilterConfig c = CompressionConfig();
  c.num_decompress_particles = 10;
  FactoredParticleFilter filter(MakeLineWorld(), c);
  const Vec3 truth{1.5, 2.0, 0.0};
  RunPass(&filter, truth, 1000, 40, 67);
  for (int t = 40; t < 160; ++t) {
    filter.ObserveEpoch(MakeEpoch(t, 0.1 * t, {}));
  }
  ASSERT_TRUE(filter.FindObject(1000)->IsCompressed());
  // Second scan pass: travel back (reading nothing) and read the object
  // again -> decompression with few particles.
  int64_t step = filter.current_step();
  for (double y = 15.9; y > 2.0; y -= 0.1) {
    filter.ObserveEpoch(MakeEpoch(step++, y, {}));
  }
  filter.ObserveEpoch(MakeEpoch(step, 2.0, {1000}));
  const auto* state = filter.FindObject(1000);
  EXPECT_FALSE(state->IsCompressed());
  EXPECT_EQ(state->particles.size(), 10u);
  const auto est = filter.EstimateObject(1000);
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->mean.DistanceXYTo(truth), 1.2);
}

TEST(FactoredFilterTest, MemoryShrinksWithCompression) {
  FactoredParticleFilter with(MakeLineWorld(), CompressionConfig());
  FactoredFilterConfig no_comp = SmallConfig();
  FactoredParticleFilter without(MakeLineWorld(), no_comp);
  for (auto* f : {&with, &without}) {
    RunPass(f, {1.5, 2.0, 0.0}, 1000, 40, 71);
    for (int t = 40; t < 160; ++t) {
      f->ObserveEpoch(MakeEpoch(t, 0.1 * t, {}));
    }
  }
  EXPECT_LT(with.ApproxMemoryBytes(), without.ApproxMemoryBytes());
}

TEST(FactoredFilterTest, ElasticStorageHoldsExactlyTheParticles) {
  // Elastic budgets shrink as a posterior settles and regrow on a full
  // re-initialization. After every epoch, each object's particle storage
  // must hold exactly its particles, at one lane and at two: no resample
  // leaves the lane scratch's old capacity behind.
  ConeSensorModel sensor;
  const TagId kMover = 1000;
  const Vec3 kStill{1.5, 8.0, 0.0};
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    FactoredFilterConfig c = SmallConfig();
    c.min_object_particles = 40;
    c.num_threads = threads;
    FactoredParticleFilter filter(MakeLineWorld(), c);
    Rng rng(17);
    int64_t step = 0;
    size_t last = 0;
    size_t shrinks = 0;
    size_t regrowths = 0;
    // The mover sits at y = 2, moves to y = 14 while the reader is away,
    // and moves back; a second tag stays at y = 8.
    auto sweep = [&](double from, double to, const Vec3& mover) {
      const double dy = from < to ? 0.25 : -0.25;
      for (double y = from; dy > 0 ? y <= to : y >= to; y += dy) {
        const Pose pose({0.0, y, 0.0}, 0.0);
        std::vector<TagId> tags;
        if (rng.Bernoulli(sensor.ProbReadAt(pose, mover))) {
          tags.push_back(kMover);
        }
        if (rng.Bernoulli(sensor.ProbReadAt(pose, kStill))) {
          tags.push_back(1001);
        }
        filter.ObserveEpoch(MakeEpoch(step++, y, tags));
        for (const auto& state : filter.object_states()) {
          ASSERT_EQ(state.particles.CapacityParticles(),
                    state.particles.size())
              << "tag " << state.tag << " at step " << step - 1;
        }
        const auto* mover_state = filter.FindObject(kMover);
        if (mover_state == nullptr) continue;
        const size_t n = mover_state->particles.size();
        if (last > 0 && n < last) ++shrinks;
        if (last > 0 && n > last) ++regrowths;
        last = n;
      }
    };
    sweep(0.0, 4.0, {1.5, 2.0, 0.0});
    sweep(4.0, 16.0, {1.5, 14.0, 0.0});
    sweep(16.0, 0.0, {1.5, 2.0, 0.0});
    EXPECT_GT(shrinks, 0u);
    EXPECT_GT(regrowths, 0u);
  }
}

TEST(FactoredFilterTest, ShelfTagEvidenceCorrectsSystematicBias) {
  WorldModel model = MakeLineWorld(1e-4, {0.0, 0.8, 0.0}, {0.05, 0.05, 0.0});
  FactoredFilterConfig c = SmallConfig();
  c.num_reader_particles = 200;
  FactoredParticleFilter filter(std::move(model), c);
  ConeSensorModel sensor;
  Rng rng(73);
  for (int t = 0; t < 50; ++t) {
    const double y = 0.1 * t;
    std::vector<TagId> tags;
    const Pose pose({0.0, y, 0.0}, 0.0);
    for (TagId shelf_tag : {1u, 2u}) {
      const Vec3 loc = shelf_tag == 1 ? Vec3{1.5, 2.5, 0} : Vec3{1.5, 7.5, 0};
      if (rng.Bernoulli(sensor.ProbReadAt(pose, loc))) tags.push_back(shelf_tag);
    }
    filter.ObserveEpoch(MakeEpoch(t, y, tags, /*reported_offset_y=*/0.8));
  }
  EXPECT_NEAR(filter.EstimateReader().mean.y, 4.9, 0.4);
}

TEST(FactoredFilterTest, ManyObjectsAllTracked) {
  FactoredFilterConfig c = SmallConfig();
  c.num_object_particles = 100;
  FactoredParticleFilter filter(MakeLineWorld(), c);
  // 20 objects spaced along the shelf; read when near.
  std::vector<Vec3> objects;
  for (int i = 0; i < 20; ++i) objects.push_back({1.5, 0.25 + 0.5 * i, 0.0});
  ConeSensorModel sensor;
  Rng rng(79);
  for (int t = 0; t < 120; ++t) {
    const double y = 0.1 * t;
    const Pose pose({0.0, y, 0.0}, 0.0);
    std::vector<TagId> tags;
    for (int i = 0; i < 20; ++i) {
      if (rng.Bernoulli(sensor.ProbReadAt(pose, objects[i]))) {
        tags.push_back(2000 + i);
      }
    }
    filter.ObserveEpoch(MakeEpoch(t, y, tags));
  }
  EXPECT_EQ(filter.NumTrackedObjects(), 20u);
  double total_err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto est = filter.EstimateObject(2000 + i);
    ASSERT_TRUE(est.has_value()) << "object " << i;
    total_err += est->mean.DistanceXYTo(objects[i]);
  }
  EXPECT_LT(total_err / 20.0, 1.0);
}

}  // namespace
}  // namespace rfid
