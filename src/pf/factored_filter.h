// Factored particle filter — the paper's core contribution (§IV-B..D).
//
// Instead of joint particles over (reader, all objects), the filter keeps
//  * a list of reader particles (pose + weight), and
//  * per-object particle lists whose particles each hold a position, a weight
//    and a pointer (index) to the reader particle they are conditioned on,
// representing an exponentially large set of unfactored particles in space
// linear in the number of objects (Fig. 3). Weights factor per Eq. (5), so
// every weighting step runs on the factored representation directly.
//
// Optional extensions, each switched by one config field (their tuning
// constants are fixed in factored_filter.cc):
//  * spatial indexing (use_spatial_index, §IV-C): only objects read now
//    (Case 1) or recorded near the current reader location before (Case 2)
//    are processed;
//  * belief compression (compression.compress_after_epochs, §IV-D): objects
//    no epoch has processed for that many epochs collapse to a Gaussian and
//    are revived with a small particle count when read again;
//  * elastic budgets (min_object_particles): per-object particle counts
//    resize with posterior spread, in storage sized to the count, so a
//    settled tag costs a fraction of an ambiguous one;
//  * hibernation (compression.hibernate_after_epochs): tags unread for long
//    enough collapse to a Gaussian summary and leave the epoch sweep
//    entirely, reviving on the next read or strong negative evidence —
//    per-site cost tracks *active* tags, not tags ever seen.
//
// Performance architecture (see PERF.md): per-object particles live in a
// structure-of-arrays store (ParticleSoa, 24 bytes a particle: positions at
// float width, weights in double) and are weighted through the sensor
// models' batched kernels against per-epoch precomputed reader frames. An
// unread object whose particles all lie outside every reader frame's
// zero-region box (for the cone, the box of its wedge) would weight every
// particle by exactly 1 and skips the kernel; an update normalizes
// its weights and sums their squares for the effective sample size in one
// pass. Per-object updates are conditionally independent given the reader
// particles, so they fan out across a fixed worker pool; every update draws
// its randomness from a private stream keyed by (config.seed, slot, step),
// which makes results bit-identical at any thread count. Reader resamples
// repoint attachments lazily: each is recorded with its copy table, and a
// slot replays the records it missed at its next sync, on the calling
// thread (composite_remap.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/sensing_index.h"
#include "model/reader_frame.h"
#include "model/world_model.h"
#include "pf/belief.h"
#include "pf/composite_remap.h"
#include "pf/filter.h"
#include "pf/initializer.h"
#include "pf/particle_soa.h"
#include "pf/resample.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rfid {

class FactoredParticleFilter;
Status SaveFilterSnapshot(const FactoredParticleFilter& filter,
                          std::ostream& os);
Status LoadFilterSnapshot(std::istream& is, FactoredParticleFilter* filter);

/// The belief tiers below a particle set. Each threshold counts epochs of
/// the filter's step; 0 (the default) turns its tier off.
struct CompressionPolicyConfig {
  /// §IV-D compression, the paper's unseen-epochs policy: an object no
  /// epoch has processed (Case 1 or Case 2) for this many epochs collapses
  /// to its KL-optimal Gaussian. Needs the spatial index, without which
  /// every object is processed every epoch.
  int64_t compress_after_epochs = 0;
  /// Idle-tag hibernation: an object whose tag has not been *read* for this
  /// many epochs collapses to a Gaussian summary and leaves the epoch sweep
  /// entirely — no negative-evidence updates, no compression re-fits —
  /// until it is read again or negative evidence at its summary mean is
  /// strong. Works with compression off (an active object fits its
  /// Gaussian at collapse time). Compression trades accuracy for memory,
  /// hibernation responsiveness for epoch cost, so this horizon should lie
  /// well above the compression threshold.
  int64_t hibernate_after_epochs = 0;
};

struct FactoredFilterConfig {
  int num_reader_particles = 100;
  int num_object_particles = 1000;
  /// Particle count used when reviving a compressed object (§IV-D notes many
  /// fewer particles suffice after decompression; the paper uses 10).
  int num_decompress_particles = 10;

  /// Elastic per-object budgets (adaptive inference scheduling). When set to
  /// a positive value, each object's particle count resizes between
  /// [min_object_particles, num_object_particles] in proportion to its
  /// posterior spread, relative to the sensor's max range: a tag whose
  /// belief has collapsed to a shelf slot keeps min_object_particles, one in
  /// a fresh/ambiguous state keeps the full budget. Resizing rides the
  /// existing resample machinery (a systematic resample to the target count
  /// from the slot's private RNG stream), so estimates stay deterministic at
  /// a fixed seed and at any thread count; its gather allocates exactly the
  /// new count, so memory follows the budget at once. 0 disables elastic
  /// budgets (every object keeps num_object_particles, the seed behavior).
  int min_object_particles = 0;

  ResampleScheme resample_scheme = ResampleScheme::kSystematic;

  InitializerConfig init;

  bool use_spatial_index = true;

  CompressionPolicyConfig compression;  ///< Both tiers off by default.

  /// Exponent on the object-support term in reader resampling (§IV-B).
  /// 1.0 reproduces the paper's "favor reader particles associated with good
  /// object particles"; smaller values damp the feedback of stale object
  /// posteriors onto the reader estimate (useful under systematic
  /// dead-reckoning drift); 0 resamples readers by their own weights only.
  double reader_support_weight = 1.0;

  /// Worker-pool width for per-object updates (1 = fully serial). Estimates
  /// are bit-identical across thread counts at a fixed seed.
  int num_threads = 1;

  uint64_t seed = 1;
};

class FactoredParticleFilter final : public InferenceFilter {
 public:
  /// Most reader-resample remap records retained before slots that never
  /// get touched force a deterministic sync-all (bounds the deferred-remap
  /// memory). A backstop: a resample whose readers all copy one ancestor
  /// already cuts the history to that record (see ResampleReaders), so
  /// only a run of 32 resamples without one reaches the cap.
  static constexpr size_t kMaxRemapHistory = 32;

  /// A reader-location hypothesis (Fig. 3(b), left table).
  struct ReaderParticle {
    Pose pose;
    double weight = 0.0;
  };

  /// An object-location hypothesis tied to a reader hypothesis
  /// (Fig. 3(b), right table). Storage is the SoA ParticleSoa; this value
  /// view keeps the historical field shape for iteration.
  using ObjectParticle = ParticleSoa::View;

  /// Per-object belief: a particle list, a compressed Gaussian, or a
  /// hibernated summary (the Gaussian plus an "out of the sweep" mark).
  struct ObjectState {
    TagId tag = 0;
    ParticleSoa particles;                        ///< Empty when compressed.
    std::optional<GaussianBelief> compressed;
    /// Hibernation tier below compression (implies IsCompressed()): the
    /// epoch sweep skips this object entirely — no negative-evidence
    /// updates, no compression re-fits — until its tag is read again or
    /// negative evidence at the summary mean is strong (a stricter revive
    /// gate than a compressed tag's).
    bool hibernated = false;
    int64_t last_observed_step = -1;
    int64_t last_processed_step = -1;
    /// Step of the last decompression (read or negative-evidence revival).
    /// Hibernation keys on max(last_observed_step, last_revived_step):
    /// without it, a tag revived by negative evidence — whose
    /// last_observed_step stays old — would be re-collapsed the very next
    /// epoch, thrashing between tiers instead of absorbing the evidence.
    int64_t last_revived_step = -1;
    Vec3 last_observed_reader_position;
    /// Bounding box of the current (stored) particle positions; consulted
    /// by the far-field test and when recording sensing-index entries
    /// ("objects that have at least one particle within the bounding box",
    /// Fig. 4(b)).
    Aabb particle_bounds;
    /// Reader-resample generation this slot's particle attachments are
    /// synced to. While it lags the filter's reader_gen_, the attachments
    /// index the reader numbering of the slot's last sync; the filter
    /// resolves the pending remaps at its own sync points in ObserveEpoch.
    /// A single-ancestor resample advances it to just before itself without
    /// a sync: that record resolves every index alike.
    uint64_t reader_gen = 0;

    bool IsCompressed() const { return compressed.has_value(); }
  };

  FactoredParticleFilter(WorldModel model, const FactoredFilterConfig& config);

  void ObserveEpoch(const SyncedEpoch& epoch) override;
  std::optional<LocationEstimate> EstimateObject(TagId tag) const override;
  ReaderEstimate EstimateReader() const override;
  size_t NumTrackedObjects() const override { return states_.size(); }

  // --- Introspection (tests, EM calibration, memory accounting) ---
  const std::vector<ReaderParticle>& reader_particles() const {
    return readers_;
  }
  /// The tag's state, or null. A lagging slot's attachments index the
  /// reader numbering of its last sync, not reader_particles(): read them
  /// through AttachedReaderWeights().
  const ObjectState* FindObject(TagId tag) const;
  /// All per-object states, indexed by slot (EM E-step iterates these).
  /// Reading never advances attachments, so a lagging slot's reader indices
  /// refer to the reader numbering of its last sync (RemapLag() > 0).
  const std::vector<ObjectState>& object_states() const { return states_; }
  /// The sensing-region index (§IV-C), empty when use_spatial_index is off.
  const SensingRegionIndex& sensing_index() const { return index_; }
  /// Reader resamples `state`'s attachments have not been resolved through,
  /// counted from the newest single-ancestor one at most (the records
  /// before it do not change the resolution).
  uint64_t RemapLag(const ObjectState& state) const {
    return reader_gen_ - state.reader_gen;
  }
  /// Weight of the reader hypothesis each attachment of `state` stands for,
  /// indexed by reader index: the reader weights for a synced slot; for one
  /// lagging L remaps, E[w | a] = (P·w)(a) over their composite P (L sparse
  /// mat-vecs, O(L·N)). A particle's marginal weight is its own weight
  /// times this. Draws nothing and advances nothing.
  void AttachedReaderWeights(const ObjectState& state,
                             std::vector<double>* weights) const;
  /// Remap records still pending for some lagging slot.
  size_t pending_remaps() const { return remap_history_.size(); }
  size_t NumActiveObjects() const;
  size_t NumCompressedObjects() const;
  size_t NumHibernatedObjects() const;
  /// Bytes used by particle and belief storage (excludes index internals).
  size_t ApproxMemoryBytes() const;

  int64_t current_step() const { return step_; }
  const WorldModel& model() const { return model_; }
  /// Cumulative count of particle weightings performed (throughput metric).
  uint64_t particle_updates() const {
    return particle_updates_.load(std::memory_order_relaxed);
  }
  /// Cumulative count of particle attachments resolved through pending
  /// reader remaps: one per particle per sync, whatever its lag. Exact and
  /// identical at any thread count.
  uint64_t remap_resolves() const { return remap_resolves_; }

  /// Stage breakdown of the most recent ObserveEpoch, for the serving
  /// layer's stage histograms and flight recorder. Pure telemetry: all
  /// zeros while obs::TelemetryEnabled() is false (no clocks are read),
  /// and never consulted by inference itself.
  struct EpochStageSeconds {
    /// Reader update + object weighting (the index probe excluded).
    double weight = 0.0;
    /// ResampleReaders, triggered by the reader ESS (on ~60% of epochs of
    /// a dense site).
    double reader_resample = 0.0;
    /// Remap resolution (the replayed draws), taken out of the stage it
    /// ran in.
    double remap_replay = 0.0;
    /// Index (the Case-2 probe and the insert) + compression +
    /// hibernation.
    double compress = 0.0;
  };
  const EpochStageSeconds& last_epoch_stages() const { return stages_; }

 private:
  friend Status SaveFilterSnapshot(const FactoredParticleFilter&,
                                   std::ostream&);
  friend Status LoadFilterSnapshot(std::istream&, FactoredParticleFilter*);

  /// Reusable per-lane buffers for the parallel object updates; lane 0's
  /// scratch also serves the serial Case-1 path.
  struct UpdateScratch {
    std::vector<double> probs;        ///< Batched likelihoods.
    std::vector<uint32_t> ancestors;  ///< Resampling output.
    /// Resampling gather target; between gathers it holds the arrays the
    /// last gather swapped out of an object.
    ParticleSoa gathered;
  };

  void InitializeReaders(const SyncedEpoch& epoch);
  void PropagateReaders(const SyncedEpoch& epoch);
  /// Applies reported-location and shelf-tag evidence to reader weights.
  void WeightReaders(const SyncedEpoch& epoch,
                     const std::vector<const ShelfTag*>& observed_shelves);
  /// Hoists each reader particle's position + heading trig into
  /// reader_frames_, once per epoch, for the batched kernels.
  void BuildReaderFrames();

  uint32_t GetOrCreateSlot(TagId tag);
  /// Draws `count` reader attachments from the shared stream, spread across
  /// the readers in proportion to their weights. The result lives in
  /// scratch_ancestors_ until the next draw.
  const std::vector<uint32_t>& SampleAttachments(size_t count);
  /// Builds a fresh particle set of `count` particles for a slot, sampling
  /// reader attachments proportionally to reader weights.
  void InitializeObjectParticles(ObjectState* state, int count);
  /// `slot` lets a hibernation revival clear the slot's bit in the sensing
  /// index (the all-hibernated entry skip).
  void DecompressObject(ObjectState* state, uint32_t slot);
  /// §IV-A re-initialization rules for a re-observed active object.
  void MaybeReinitialize(ObjectState* state, const Vec3& reader_ref);
  /// Keeps half of the particles and re-initializes the other half from the
  /// current reader hypotheses (the paper's ambiguous-move handling).
  void HalfReinitialize(ObjectState* state);

  /// Deterministic RNG stream for one object update: a pure function of
  /// (config.seed, slot, step, salt), independent of thread count and of the
  /// shared rng_ consumption order. `salt` separates multiple updates of the
  /// same slot within one step (the conflict retry).
  uint64_t SlotStreamSeed(uint32_t slot, uint64_t salt) const;
  /// Same stream keyed at an explicit step instead of the current step_ —
  /// a remap resolution draws from the stream keyed at the step of the
  /// newest record it replays, unique per sync of a slot.
  uint64_t SlotStreamSeedAt(uint32_t slot, uint64_t salt, int64_t step) const;

  /// Propagates, weights and (if needed) resamples one processed object.
  /// Draws only from the slot's private RNG stream and writes only the
  /// slot's state plus `scratch`, so processed slots update in parallel.
  /// Returns false on likelihood conflict: the object was observed but every
  /// particle sat at the probability floor (the belief contradicts the
  /// reading — the object has been "detected in a new location", §IV-A).
  bool UpdateObject(ObjectState* state, bool observed, uint32_t slot,
                    uint64_t salt, UpdateScratch* scratch);

  /// Resamples reader particles, scoring each by its own weight times the
  /// support it receives from the processed objects' particles (§IV-B).
  /// Records the repoint map (the ancestor array); slots resolve it at
  /// their next sync. A single-ancestor record moves every slot lagging
  /// from before it to lag from it, and the older records are dropped.
  void ResampleReaders(const std::vector<uint32_t>& processed_slots);

  /// Resolves the pending remaps of every lagging slot in `slots`, slot by
  /// slot on the calling thread: the records it missed replay in turn, one
  /// draw per particle per record (ReplayRemaps), from the stream keyed at
  /// (slot, kRepointSalt, step of the newest record). Called only at
  /// ObserveEpoch's deterministic sync points (Case-1/Case-2 touches,
  /// compression and hibernation fits, the history cap): the draws depend
  /// on how many records a sync replays.
  void SyncReaderAttachments(const std::vector<uint32_t>& slots);
  /// Syncs every slot and prunes the remap history (the history cap).
  void SyncAllReaderAttachments();
  /// Drops remap records no lagging slot still needs.
  void PruneRemapHistory();

  /// Fans UpdateObject over the Case-2 slots in cost-balanced chunks
  /// claimed by work stealing.
  void DispatchObjectUpdates(const std::vector<uint32_t>& slots);

  /// Fits the current Gaussian to an object's particles (weights combined
  /// with reader weights, i.e. the true marginal), through scratch_points_.
  GaussianBelief FitBelief(const ObjectState& state);

  /// Collapses active objects unprocessed for compress_after_epochs epochs
  /// into their Gaussian fits.
  void RunCompression();
  /// Collapses tags unread for hibernate_after_epochs epochs into the
  /// hibernation tier (from the active tier through a fresh Gaussian fit,
  /// from the compressed tier by marking the existing summary).
  void RunHibernation();

  /// Spread-implied elastic particle count in
  /// [min_object_particles, num_object_particles].
  int ElasticTarget(double spread) const;
  /// Same, computed from a particle set with normalized weights (the
  /// far-field resample path; the in-field path fuses the spread pass into
  /// its likelihood loop instead). Returns size() when elastic is off.
  size_t ElasticTargetForParticles(const ParticleSoa& particles) const;

  WorldModel model_;
  FactoredFilterConfig config_;
  ParticleInitializer initializer_;
  Rng rng_;

  /// Posterior spread at which an object earns the full elastic budget: the
  /// sensor's max range (1 for a sensor without a finite one).
  double elastic_spread_full_ = 0.0;

  std::vector<ReaderParticle> readers_;
  bool readers_initialized_ = false;

  std::vector<ObjectState> states_;
  std::unordered_map<TagId, uint32_t> slot_of_tag_;

  /// Pending remaps, oldest first; record i is generation
  /// remap_base_gen_ + i + 1. Cut at each single-ancestor record; bounded:
  /// slots that fall behind by kMaxRemapHistory force a sync-all
  /// (deterministic — count-based).
  std::vector<ReaderRemapRecord> remap_history_;
  /// Generation of the newest reader resample (0 = none yet).
  uint64_t reader_gen_ = 0;
  /// Generation of the oldest retained record minus the records before it;
  /// remap_history_.front() is generation remap_base_gen_ + 1.
  uint64_t remap_base_gen_ = 0;

  SensingRegionIndex index_;
  SensingRegionIndex::ProbeScratch probe_scratch_;
  int64_t step_ = 0;

  /// Worker pool for per-object fan-out (width config.num_threads; no
  /// workers are spawned when it is 1).
  ThreadPool pool_;
  std::vector<UpdateScratch> lane_scratch_;  ///< One per pool lane.

  /// Per-epoch reader frames (parallel to readers_).
  std::vector<ReaderFrame> reader_frames_;
  /// Union of the reader frames' zero-region boxes
  /// (batch_detail::ZeroRegionBounds: the cone's wedge box, or the cube of
  /// the sensor's BatchZeroRadius): an unread object with no particle in it
  /// gets all batched likelihoods exactly 0, so UpdateObject can skip the
  /// kernel for it (see the far-field note there).
  Aabb reader_reach_;

  std::atomic<uint64_t> particle_updates_{0};
  uint64_t remap_resolves_ = 0;

  /// Telemetry only (see EpochStageSeconds); remap_sync_ns_ is the wall
  /// time of this epoch's sync sweeps so far.
  EpochStageSeconds stages_;
  uint64_t remap_sync_ns_ = 0;

  // Scratch buffers reused across epochs to avoid per-epoch allocation.
  std::vector<double> scratch_weights_;
  std::vector<double> scratch_log_weights_;
  std::vector<double> scratch_support_;
  std::vector<uint32_t> scratch_ancestors_;
  std::vector<uint32_t> scratch_case2_;
  std::vector<uint32_t> scratch_case2_updates_;
  std::vector<size_t> scratch_chunk_starts_;  ///< DispatchObjectUpdates.
  std::vector<ReaderParticle> scratch_readers_;  ///< ResampleReaders.
  std::vector<const ShelfTag*> scratch_silent_shelves_;  ///< WeightReaders.
  // ObserveEpoch's per-epoch sets: the tags read, split into shelf tags and
  // objects; the Case-1 slots; every slot processed; the processed slots
  // recorded in the sensing index.
  std::vector<const ShelfTag*> scratch_observed_shelves_;
  std::vector<TagId> scratch_observed_objects_;
  std::vector<uint32_t> scratch_case1_;
  std::vector<uint32_t> scratch_processed_;
  std::vector<uint32_t> scratch_in_box_;
  /// The slots RunCompression or RunHibernation collapses this epoch, and
  /// the weighted points of the fit FitBelief is making.
  std::vector<uint32_t> scratch_collapse_;
  std::vector<WeightedPoint> scratch_points_;
  /// Case-1 membership mask, epoch-stamped as in
  /// SensingRegionIndex::ProbeScratch: slot s was read this epoch iff
  /// case1_stamp_[s] == case1_epoch_, so no per-epoch set is built.
  std::vector<uint32_t> case1_stamp_;
  uint32_t case1_epoch_ = 0;
};

}  // namespace rfid
