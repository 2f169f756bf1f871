#include "pf/factored_filter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace rfid {

namespace {
constexpr double kProbFloor = 1e-9;
constexpr double kSupportFloor = 1e-12;

/// Objects and readers resample once their effective sample size falls
/// below this fraction of their particle count.
constexpr double kObjectResampleThreshold = 0.5;
constexpr double kReaderResampleThreshold = 0.5;

/// Elastic hysteresis band: outside an ESS-triggered resample, an object is
/// only resized when the spread-implied target deviates from the current
/// count by more than this fraction. Resizing costs a resample, so drift
/// within the band is left alone; when the ESS threshold forces a resample
/// anyway, the resize is free and snaps straight to the target.
constexpr double kElasticResizeTolerance = 0.25;

/// Compressed Case-2 objects are revived for negative evidence only when the
/// read probability at their mean exceeds this (otherwise the miss is
/// uninformative and decompression would thrash).
constexpr double kDecompressNegEvidenceProb = 0.1;
/// The same gate for a hibernated tag, deliberately stricter: hibernation
/// means "stop paying for this tag", so only a reading or a strong
/// contradiction (the reader is parked where the tag supposedly sits, yet
/// it stays silent) may wake it.
constexpr double kHibernateNegEvidenceProb = 0.5;

/// Re-initialization rules of §IV-A, as fractions of the sensor max range:
/// observing an object from a reader position closer than
/// kReinitKeepFraction * range to the previous observation position keeps
/// the particles; at kReinitFullFraction * range or farther recreates them;
/// in between, half are kept and half re-initialized.
constexpr double kReinitKeepFraction = 0.75;
constexpr double kReinitFullFraction = 2.0;

/// Salt separating the reader-repoint streams from the update streams.
constexpr uint64_t kRepointSalt = 0x5bd1e995u;

double SafeLog(double p) { return std::log(std::max(p, kProbFloor)); }

/// Divides the particles' weights by their `total` — or resets them to
/// uniform when it is not a positive finite number — and returns their
/// EffectiveSampleSize, the squares summed in index order inside the
/// dividing loop instead of a second pass over the weights: the same values
/// in the same order, so the same result bit for bit.
double NormalizeForEss(ParticleSoa* particles, double total) {
  const size_t n = particles->size();
  if (total <= 0.0 || !std::isfinite(total)) {
    particles->SetUniformWeights();
    return EffectiveSampleSize(particles->weights(), n);
  }
  double* weights = particles->mutable_weights();
  double sum_sq = 0.0;
  for (size_t k = 0; k < n; ++k) {
    weights[k] /= total;
    sum_sq += weights[k] * weights[k];
  }
  return EffectiveSampleSizeFromSumSq(sum_sq);
}

/// True when some particle lies in `box` (closed on every side, as
/// Aabb::Contains); stops at the first one. Each stored coordinate widens
/// to double for the comparison, exactly as the gather kernel widens it, so
/// the scan judges the very position the kernel would weight.
bool AnyParticleIn(const ParticleSoa& particles, const Aabb& box) {
  const ParticleCoord* xs = particles.xs();
  const ParticleCoord* ys = particles.ys();
  const ParticleCoord* zs = particles.zs();
  for (size_t k = 0; k < particles.size(); ++k) {
    const double x = xs[k];
    const double y = ys[k];
    const double z = zs[k];
    if (x >= box.min.x && x <= box.max.x && y >= box.min.y &&
        y <= box.max.y && z >= box.min.z && z <= box.max.z) {
      return true;
    }
  }
  return false;
}
}  // namespace

FactoredParticleFilter::FactoredParticleFilter(
    WorldModel model, const FactoredFilterConfig& config)
    : model_(std::move(model)),
      config_(config),
      initializer_(config.init, &model_.sensor(),
                   &model_.object_model().shelves()),
      rng_(config.seed),
      pool_(config.num_threads) {
  // A belief as wide as the read range is maximally uncertain for this
  // sensor.
  elastic_spread_full_ = model_.sensor().MaxRange();
  if (!(elastic_spread_full_ > 0.0) || !std::isfinite(elastic_spread_full_)) {
    elastic_spread_full_ = 1.0;  // Unbounded sensor: any finite scale works.
  }
  readers_.resize(config_.num_reader_particles);
  reader_frames_.resize(config_.num_reader_particles);
  lane_scratch_.resize(pool_.num_threads());
  // Reader-sized temporaries are needed every epoch; size them once.
  scratch_weights_.reserve(config_.num_reader_particles);
  scratch_log_weights_.reserve(config_.num_reader_particles);
  scratch_support_.reserve(config_.num_reader_particles);
}

void FactoredParticleFilter::InitializeReaders(const SyncedEpoch& epoch) {
  const Vec3 base = epoch.has_location ? epoch.reported_location : Vec3{};
  const LocationSensingParams& sp = model_.location_sensing().params();
  const double uniform = 1.0 / readers_.size();
  for (ReaderParticle& r : readers_) {
    r.pose.position = {
        base.x - sp.mu.x + rng_.Gaussian(0.0, std::max(sp.sigma.x, 0.05)),
        base.y - sp.mu.y + rng_.Gaussian(0.0, std::max(sp.sigma.y, 0.05)),
        base.z - sp.mu.z + rng_.Gaussian(0.0, std::max(sp.sigma.z, 0.0))};
    r.pose.heading = epoch.has_heading ? epoch.reported_heading : 0.0;
    r.weight = uniform;
  }
  readers_initialized_ = true;
}

namespace {

/// One axis of the conjugate (locally optimal) reader proposal
/// p(R_t | R_{t-1}, R_hat_t): combines the Gaussian motion prior
/// N(prev + delta, sigma_m^2) with the observation N(obs - mu_s, sigma_s^2).
/// Returns the sampled value and adds the marginal-likelihood log term
/// log N(obs; prev + delta + mu_s, sigma_m^2 + sigma_s^2) to *log_weight.
double ProposeAxis(double prev, double delta, double sigma_m, double obs,
                   double mu_s, double sigma_s, Rng& rng, double* log_weight) {
  const double prior_mean = prev + delta;
  if (sigma_s <= 0.0) {
    // Uninformative observation on this axis: propose from the motion model.
    return prior_mean + rng.Gaussian(0.0, sigma_m);
  }
  const double obs_mean = obs - mu_s;
  if (sigma_m <= 0.0) {
    // Deterministic motion: the proposal is the prior; the observation only
    // contributes its likelihood.
    *log_weight += GaussianLogPdf(obs, prior_mean + mu_s, sigma_s);
    return prior_mean;
  }
  const double var_m = sigma_m * sigma_m;
  const double var_s = sigma_s * sigma_s;
  const double post_var = var_m * var_s / (var_m + var_s);
  const double post_mean =
      (prior_mean * var_s + obs_mean * var_m) / (var_m + var_s);
  *log_weight +=
      GaussianLogPdf(obs, prior_mean + mu_s, std::sqrt(var_m + var_s));
  return post_mean + rng.Gaussian(0.0, std::sqrt(post_var));
}

}  // namespace

void FactoredParticleFilter::PropagateReaders(const SyncedEpoch& epoch) {
  // Locally optimal proposal: sample R_t from p(R_t | R_{t-1}, R_hat_t)
  // instead of the bare motion model. With a tight location report, the
  // bare-motion proposal would scatter particles far wider than the
  // observation noise, collapsing the ESS and forcing a (costly) reader
  // resampling every epoch; the conjugate proposal keeps weights nearly
  // uniform so resampling stays rare (§IV-B's goal).
  const MotionModelParams& mp = model_.motion().params();
  const LocationSensingParams& sp = model_.location_sensing().params();
  scratch_log_weights_.resize(readers_.size());
  for (size_t j = 0; j < readers_.size(); ++j) {
    ReaderParticle& r = readers_[j];
    double lw = std::log(std::max(r.weight, kProbFloor));
    if (epoch.has_location) {
      r.pose.position.x =
          ProposeAxis(r.pose.position.x, mp.delta.x, mp.sigma.x,
                      epoch.reported_location.x, sp.mu.x, sp.sigma.x, rng_,
                      &lw);
      r.pose.position.y =
          ProposeAxis(r.pose.position.y, mp.delta.y, mp.sigma.y,
                      epoch.reported_location.y, sp.mu.y, sp.sigma.y, rng_,
                      &lw);
      r.pose.position.z =
          ProposeAxis(r.pose.position.z, mp.delta.z, mp.sigma.z,
                      epoch.reported_location.z, sp.mu.z, sp.sigma.z, rng_,
                      &lw);
    } else {
      r.pose.position.x =
          r.pose.position.x + mp.delta.x + rng_.Gaussian(0.0, mp.sigma.x);
      r.pose.position.y =
          r.pose.position.y + mp.delta.y + rng_.Gaussian(0.0, mp.sigma.y);
      r.pose.position.z =
          r.pose.position.z + mp.delta.z + rng_.Gaussian(0.0, mp.sigma.z);
    }
    if (epoch.has_heading && sp.heading_sigma > 0.0) {
      // Conjugate on the wrapped angle around the current heading.
      const double obs_rel =
          r.pose.heading +
          WrapAngle(epoch.reported_heading - r.pose.heading);
      r.pose.heading = WrapAngle(
          ProposeAxis(r.pose.heading, mp.heading_delta, mp.heading_sigma,
                      obs_rel, 0.0, sp.heading_sigma, rng_, &lw));
    } else {
      r.pose.heading = WrapAngle(r.pose.heading + mp.heading_delta +
                                 rng_.Gaussian(0.0, mp.heading_sigma));
    }
    scratch_log_weights_[j] = lw;
  }
  // Weights carry the marginal observation likelihood; shelf evidence is
  // applied in WeightReaders on top.
  NormalizeLogWeights(scratch_log_weights_, &scratch_weights_);
  for (size_t j = 0; j < readers_.size(); ++j) {
    readers_[j].weight = scratch_weights_[j];
  }
}

void FactoredParticleFilter::WeightReaders(
    const SyncedEpoch& epoch,
    const std::vector<const ShelfTag*>& observed_shelves) {
  // Negative shelf evidence only matters for shelf tags the reader could
  // plausibly see; gather them once around a reference position.
  const Vec3 ref = epoch.has_location ? epoch.reported_location
                                      : EstimateReader().mean;
  // The nearby shelf tags that stayed silent, in the model's order.
  std::vector<const ShelfTag*>& silent = scratch_silent_shelves_;
  model_.ShelfTagsNear(ref, &silent);
  silent.erase(std::remove_if(silent.begin(), silent.end(),
                              [&observed_shelves](const ShelfTag* s) {
                                for (const ShelfTag* o : observed_shelves) {
                                  if (o->tag == s->tag) return true;
                                }
                                return false;
                              }),
               silent.end());
  if (observed_shelves.empty() && silent.empty()) return;

  scratch_log_weights_.resize(readers_.size());
  for (size_t j = 0; j < readers_.size(); ++j) {
    const Pose& pose = readers_[j].pose;
    double lw = std::log(std::max(readers_[j].weight, kProbFloor));
    for (const ShelfTag* s : observed_shelves) {
      lw += SafeLog(model_.sensor().ProbReadAt(pose, s->location));
    }
    for (const ShelfTag* s : silent) {
      lw += SafeLog(1.0 - model_.sensor().ProbReadAt(pose, s->location));
    }
    scratch_log_weights_[j] = lw;
  }
  NormalizeLogWeights(scratch_log_weights_, &scratch_weights_);
  for (size_t j = 0; j < readers_.size(); ++j) {
    readers_[j].weight = scratch_weights_[j];
  }
}

void FactoredParticleFilter::BuildReaderFrames() {
  reader_frames_.resize(readers_.size());
  Aabb cloud = Aabb::Empty();
  for (size_t j = 0; j < readers_.size(); ++j) {
    reader_frames_[j] = ReaderFrame::From(readers_[j].pose);
    cloud.Extend(readers_[j].pose.position);
  }
  // Every §IV-A draw this epoch starts from one of these readers.
  initializer_.Prepare(cloud);
  // Each frame's box holds every position its kernel can read nonzero
  // (ZeroRegionBounds: the cone's wedge, or the cube of the zero radius),
  // so a particle outside their union evaluates to exactly 0 against
  // whichever reader it is attached to — the far-field fast path is exactly
  // equivalent, not just approximately. The union of the cubes is bit for
  // bit the reader cloud's box expanded by the padded radius, since
  // subtracting or adding one constant preserves the order of the
  // coordinates.
  const double radius = model_.sensor().BatchZeroRadius();
  const double zero_angle = model_.sensor().BatchZeroAngle();
  if (std::isfinite(radius) && !readers_.empty()) {
    reader_reach_ = Aabb::Empty();
    for (const ReaderFrame& frame : reader_frames_) {
      reader_reach_.Extend(
          batch_detail::ZeroRegionBounds(frame, radius, zero_angle));
    }
  } else {
    reader_reach_ = Aabb({-std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()},
                         {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity()});
  }
}

uint32_t FactoredParticleFilter::GetOrCreateSlot(TagId tag) {
  auto it = slot_of_tag_.find(tag);
  if (it != slot_of_tag_.end()) return it->second;
  const auto slot = static_cast<uint32_t>(states_.size());
  states_.emplace_back();
  states_.back().tag = tag;
  // A brand-new slot has nothing to replay from older reader resamples.
  states_.back().reader_gen = reader_gen_;
  slot_of_tag_[tag] = slot;
  return slot;
}

const std::vector<uint32_t>& FactoredParticleFilter::SampleAttachments(
    size_t count) {
  scratch_weights_.resize(readers_.size());
  for (size_t j = 0; j < readers_.size(); ++j) {
    scratch_weights_[j] = readers_[j].weight;
  }
  // Systematic assignment spreads attachments across readers proportionally
  // to reader weight, so the implied joint matches the reader posterior.
  ResampleAncestors(scratch_weights_.data(), scratch_weights_.size(), count,
                    ResampleScheme::kSystematic, rng_, &scratch_ancestors_);
  return scratch_ancestors_;
}

void FactoredParticleFilter::InitializeObjectParticles(ObjectState* state,
                                                       int count) {
  const std::vector<uint32_t>& attachments = SampleAttachments(count);
  state->particles.Reset(count);
  const double uniform = 1.0 / count;
  for (int k = 0; k < count; ++k) {
    const uint32_t reader_idx = attachments[k];
    state->particles.PushBack(
        initializer_.Sample(readers_[reader_idx].pose,
                            reader_frames_[reader_idx], rng_),
        reader_idx, uniform);
  }
  // The bounds of the stored (rounded) positions, which the far-field test
  // compares against the reach box.
  state->particle_bounds = state->particles.ComputeBounds();
  state->compressed.reset();
  // Fresh attachments reference the *current* readers: synced by definition.
  state->reader_gen = reader_gen_;
}

int FactoredParticleFilter::ElasticTarget(double spread) const {
  const int full = config_.num_object_particles;
  const int low = std::min(config_.min_object_particles, full);
  const double frac =
      std::min(1.0, std::max(0.0, spread / elastic_spread_full_));
  const int target =
      low + static_cast<int>(std::lround(frac * static_cast<double>(full - low)));
  return std::min(full, std::max(low, target));
}

size_t FactoredParticleFilter::ElasticTargetForParticles(
    const ParticleSoa& particles) const {
  const size_t n = particles.size();
  if (config_.min_object_particles <= 0) return n;
  const double* w = particles.weights();  // Normalized by the caller.
  double mx = 0.0, my = 0.0, mz = 0.0;
  double sx = 0.0, sy = 0.0, sz = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const Vec3 p = particles.PositionAt(k);
    mx += w[k] * p.x;
    my += w[k] * p.y;
    mz += w[k] * p.z;
    sx += w[k] * p.x * p.x;
    sy += w[k] * p.y * p.y;
    sz += w[k] * p.z * p.z;
  }
  const double var = std::max(0.0, sx - mx * mx) +
                     std::max(0.0, sy - my * my) +
                     std::max(0.0, sz - mz * mz);
  return static_cast<size_t>(ElasticTarget(std::sqrt(var)));
}

void FactoredParticleFilter::DecompressObject(ObjectState* state,
                                              uint32_t slot) {
  assert(state->IsCompressed());
  if (state->hibernated && config_.use_spatial_index) {
    // Revival: the slot re-enters the probe sweep, so index entries holding
    // it can no longer be skipped as all-hibernated.
    index_.SetSlotHibernated(slot, false);
  }
  const GaussianBelief belief = *state->compressed;
  const int count = config_.num_decompress_particles;
  const std::vector<uint32_t>& attachments = SampleAttachments(count);
  state->particles.Reset(count);
  const double uniform = 1.0 / count;
  for (int k = 0; k < count; ++k) {
    state->particles.PushBack(belief.Sample(rng_), attachments[k], uniform);
  }
  state->particle_bounds = state->particles.ComputeBounds();
  state->compressed.reset();
  state->hibernated = false;
  state->last_revived_step = step_;
  // Fresh attachments reference the *current* readers: synced by definition.
  state->reader_gen = reader_gen_;
}

void FactoredParticleFilter::MaybeReinitialize(ObjectState* state,
                                               const Vec3& reader_ref) {
  const double range = model_.sensor().MaxRange();
  const double d = (reader_ref - state->last_observed_reader_position).Norm();
  if (d < kReinitKeepFraction * range) {
    return;  // Same neighbourhood: existing particles remain valid.
  }
  if (d >= kReinitFullFraction * range) {
    // Far away: the object clearly moved; discard all old particles
    // ("we create new particles ... at a location far away"). A full
    // re-initialization is maximal uncertainty, so it always gets the full
    // budget; the elastic resize shrinks it back as the posterior
    // re-concentrates.
    InitializeObjectParticles(state, config_.num_object_particles);
    return;
  }
  // Intermediate distance: ambiguous between local shuffling and a short
  // move; hedge with the half re-initialization.
  HalfReinitialize(state);
}

void FactoredParticleFilter::HalfReinitialize(ObjectState* state) {
  // Keep half of the particles and re-initialize the other half at the new
  // location; weighting/resampling will pick the winning hypothesis.
  ParticleSoa& particles = state->particles;
  const size_t n = particles.size();
  const std::vector<uint32_t>& attachments = SampleAttachments((n + 1) / 2);
  size_t a = 0;
  for (size_t k = 1; k < n; k += 2) {  // Every other particle moves.
    const uint32_t reader_idx = attachments[a++];
    particles.SetReaderIdx(k, reader_idx);
    particles.SetPosition(
        k, initializer_.Sample(readers_[reader_idx].pose,
                               reader_frames_[reader_idx], rng_));
  }
  particles.SetUniformWeights();
  state->particle_bounds = particles.ComputeBounds();
}

uint64_t FactoredParticleFilter::SlotStreamSeedAt(uint32_t slot, uint64_t salt,
                                                  int64_t step) const {
  // splitmix64 chain over (seed, slot, step, salt): cheap, and decorrelated
  // enough that neighbouring slots / steps give independent xoshiro states
  // (which re-expand the 64-bit value through splitmix64 again).
  uint64_t state = config_.seed;
  uint64_t h = SplitMix64(state);
  state ^= slot;
  h ^= SplitMix64(state);
  state ^= static_cast<uint64_t>(step);
  h ^= SplitMix64(state);
  state ^= salt;
  h ^= SplitMix64(state);
  return h;
}

uint64_t FactoredParticleFilter::SlotStreamSeed(uint32_t slot,
                                                uint64_t salt) const {
  return SlotStreamSeedAt(slot, salt, step_);
}

bool FactoredParticleFilter::UpdateObject(ObjectState* state, bool observed,
                                          uint32_t slot, uint64_t salt,
                                          UpdateScratch* scratch) {
  ParticleSoa& particles = state->particles;
  const size_t n = particles.size();
  if (n == 0) return true;

  // All randomness below comes from this private stream: the update is a
  // pure function of (slot state, readers, seed, slot, step), so slots can
  // run on any lane in any order and still produce identical results.
  Rng rng(SlotStreamSeed(slot, salt));

  // Far field (negative evidence only): a particle outside every reader's
  // zero-region box (reader_reach_) reads exactly 0 against whichever reader
  // it is attached to, so when no particle lies inside the box, every
  // likelihood is exactly 1.0. Particle bounds that miss the box settle it
  // at once; under fixed budgets, bounds that meet it are settled by a scan
  // that stops at the first particle inside. Positions are untouched here
  // (unread objects do not propagate), so the cached particle_bounds stays
  // valid.
  //
  // The fast path below skips the kernel, the likelihood loop and (absent a
  // resample) the bounds recomputation; with elastic budgets off it is
  // bit-identical to the full update. With elastic budgets on it also skips
  // the spread pass unless a resample fires anyway: weights and positions
  // are unchanged, so the spread (and hence the target) is what the last
  // in-field update left it at, and recomputing it every epoch would cost
  // the O(n) sweep this path exists to avoid. A resample *does* recompute
  // the target, so an ESS-collapsed object entering the far field snaps to
  // the same count the full path would give it. That is also why elastic
  // objects whose bounds meet the box are not scanned: the full update may
  // resize them where this path would keep the last budget.
  const bool elastic = config_.min_object_particles > 0;
  const bool unread_far =
      !observed && (!state->particle_bounds.Intersects(reader_reach_) ||
                    (!elastic && !AnyParticleIn(particles, reader_reach_)));
  if (unread_far) {
    const double* weights = particles.weights();
    double total = 0.0;
    for (size_t k = 0; k < n; ++k) total += weights[k];
    if (NormalizeForEss(&particles, total) <
        kObjectResampleThreshold * static_cast<double>(n)) {
      const size_t count = ElasticTargetForParticles(particles);
      ResampleAncestors(particles.weights(), n, count, config_.resample_scheme,
                        rng, &scratch->ancestors);
      scratch->gathered.GatherFrom(particles, scratch->ancestors,
                                   1.0 / static_cast<double>(count));
      std::swap(particles, scratch->gathered);
      state->particle_bounds = particles.ComputeBounds();
    }
    particle_updates_.fetch_add(n, std::memory_order_relaxed);
    return true;
  }

  // Proposal: object dynamics (stationary w.p. 1 - alpha, jump otherwise).
  // The jump branch is sampled only while the object is being *read*: a
  // jumped particle is then immediately confirmed or killed by the read
  // likelihood. For unread (Case-2) objects the jump would inject
  // unfalsifiable mass — nothing near the destination can ever weight it —
  // which both biases the estimate and, by stretching the particle bounds,
  // keeps the object inside every future sensing region (defeating §IV-C).
  // The paper recovers movements of unread objects through the §IV-A
  // re-initialization rules instead, as do we.
  if (observed) {
    const ObjectLocationModel& om = model_.object_model();
    for (size_t k = 0; k < n; ++k) {
      particles.SetPosition(k, om.Propagate(particles.PositionAt(k), rng));
    }
  }

  // Factored weighting, Eq. (5): each particle is weighted against the
  // current pose of the reader particle it is conditioned on, fetched per
  // element from the frame table by the sensor's devirtualized kernel.
  scratch->probs.resize(n);
  model_.sensor().ProbReadBatchGather(
      reader_frames_.data(), particles.reader_indices(), particles.xs(),
      particles.ys(), particles.zs(), n, scratch->probs.data());

  // Adaptive budget (elastic scheduling): the spread of the weighted cloud
  // sets a target particle count; the effective sample size decides when the
  // resize happens. An ESS collapse forces a resample anyway, making the
  // resize free (the gather just draws `target` ancestors instead of n);
  // otherwise the count only moves once the target leaves the hysteresis
  // band, so budgets do not thrash on spread noise. Everything here draws
  // from the slot's private stream, so elastic runs are bit-identical at any
  // thread count; with min_object_particles == 0 the target is always n and
  // the resample below reduces exactly to the fixed-budget one. The weighted
  // moments ride the likelihood loop (same pass, unnormalized weights, one
  // divide by the total afterwards) so the spread costs no extra sweep.
  double* weights = particles.mutable_weights();
  double total = 0.0;
  double best_likelihood = 0.0;
  double mx = 0.0, my = 0.0, mz = 0.0;
  double sx = 0.0, sy = 0.0, sz = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double pr = scratch->probs[k];
    const double like = observed ? std::max(pr, kProbFloor)
                                 : std::max(1.0 - pr, kProbFloor);
    best_likelihood = std::max(best_likelihood, like);
    weights[k] *= like;
    total += weights[k];
    if (elastic) {
      const Vec3 p = particles.PositionAt(k);
      mx += weights[k] * p.x;
      my += weights[k] * p.y;
      mz += weights[k] * p.z;
      sx += weights[k] * p.x * p.x;
      sy += weights[k] * p.y * p.y;
      sz += weights[k] * p.z * p.z;
    }
  }
  // Likelihood conflict: the tag responded but no particle could plausibly
  // have been read. The belief is stale (e.g. the object moved parallel to
  // the reader path, which the reader-distance rule cannot detect).
  const bool conflict = observed && best_likelihood <= kProbFloor * 1.01;
  const double ess = NormalizeForEss(&particles, total);
  size_t target = n;
  // Degenerate weights (reset to uniform above) leave no spread to trust,
  // so the budget holds still.
  if (elastic && total > 0.0 && std::isfinite(total)) {
    mx /= total;
    my /= total;
    mz /= total;
    const double var = std::max(0.0, sx / total - mx * mx) +
                       std::max(0.0, sy / total - my * my) +
                       std::max(0.0, sz / total - mz * mz);
    target = static_cast<size_t>(ElasticTarget(std::sqrt(var)));
  }

  bool resampled = false;
  const bool ess_collapsed =
      ess < kObjectResampleThreshold * static_cast<double>(n);
  const bool resize =
      target != n &&
      (ess_collapsed ||
       static_cast<double>(target) <
           static_cast<double>(n) * (1.0 - kElasticResizeTolerance) ||
       static_cast<double>(target) >
           static_cast<double>(n) * (1.0 + kElasticResizeTolerance));
  if (ess_collapsed || resize) {
    const size_t count = resize ? target : n;
    ResampleAncestors(particles.weights(), n, count, config_.resample_scheme,
                      rng, &scratch->ancestors);
    // Gather into the lane's scratch set, sized exactly to the count, then
    // swap the storage in: the object's old arrays become the scratch, which
    // the next gather reuses when its count matches (every gather under a
    // fixed budget). reader_idx pointers are preserved by the gather.
    scratch->gathered.GatherFrom(particles, scratch->ancestors,
                                 1.0 / static_cast<double>(count));
    std::swap(particles, scratch->gathered);
    resampled = true;
  }

  // Positions change only through the dynamics proposal (observed) or a
  // resample gather; otherwise the cached bounds are already exactly what
  // ComputeBounds would return.
  if (observed || resampled) {
    state->particle_bounds = particles.ComputeBounds();
  }
  particle_updates_.fetch_add(n, std::memory_order_relaxed);
  return !conflict;
}

void FactoredParticleFilter::ResampleReaders(
    const std::vector<uint32_t>& processed_slots) {
  const size_t num_readers = readers_.size();

  // Score each reader by its own weight times the support it receives from
  // the processed objects (§IV-B: favor reader particles associated with
  // good object particles). Support of object i for reader j is the summed
  // weight of i's particles attached to j.
  scratch_log_weights_.assign(num_readers, 0.0);
  for (size_t j = 0; j < num_readers; ++j) {
    scratch_log_weights_[j] = std::log(std::max(readers_[j].weight, kProbFloor));
  }
  scratch_support_.resize(num_readers);
  for (uint32_t slot : processed_slots) {
    if (config_.reader_support_weight <= 0.0) break;
    const ObjectState& state = states_[slot];
    if (state.IsCompressed() || state.particles.empty()) continue;
    std::fill(scratch_support_.begin(), scratch_support_.end(), 0.0);
    const uint32_t* reader_idx = state.particles.reader_indices();
    const double* weights = state.particles.weights();
    for (size_t k = 0; k < state.particles.size(); ++k) {
      scratch_support_[reader_idx[k]] += weights[k];
    }
    for (size_t j = 0; j < num_readers; ++j) {
      scratch_log_weights_[j] +=
          config_.reader_support_weight *
          std::log(std::max(scratch_support_[j], kSupportFloor));
    }
  }
  NormalizeLogWeights(scratch_log_weights_, &scratch_weights_);

  ResampleAncestors(scratch_weights_.data(), scratch_weights_.size(),
                    num_readers, config_.resample_scheme, rng_,
                    &scratch_ancestors_);

  std::vector<ReaderParticle>& next = scratch_readers_;
  next.resize(num_readers);
  const double uniform = 1.0 / static_cast<double>(num_readers);
  for (size_t j = 0; j < num_readers; ++j) {
    next[j].pose = readers_[scratch_ancestors_[j]].pose;
    next[j].weight = uniform;
  }
  readers_.swap(next);

  // Every active object particle must be remapped to a surviving copy of its
  // reader. Particles whose reader died are re-pointed to a random survivor:
  // an approximation (their conditioning hypothesis changes), but those
  // particles belonged to down-weighted readers, so the bias is bounded by
  // the resampling threshold. Only the repoint map is recorded here; each
  // slot resolves it, together with any later records, at its next sync.
  remap_history_.emplace_back(step_, scratch_ancestors_);
  ++reader_gen_;
  // Slots with no particles have nothing to remap and draw nothing (the
  // remap always skipped n == 0): fast-forward them so a population of
  // compressed/hibernated tags never pins the history. When every new
  // reader copies one old reader, this record sends any attachment to a
  // uniform reader, so a slot lagging from an older record resolves exactly
  // as one lagging from this one (IsSingleAncestor): clamp it here, and the
  // prune drops every older record.
  const uint64_t cut_gen =
      IsSingleAncestor(remap_history_.back()) ? reader_gen_ - 1 : 0;
  for (ObjectState& state : states_) {
    if (state.particles.empty()) {
      state.reader_gen = reader_gen_;
    } else if (state.reader_gen < cut_gen) {
      state.reader_gen = cut_gen;
    }
  }
  PruneRemapHistory();
  // Bounded deferral, the backstop for runs of resamples without a
  // single-ancestor record: slots that are never touched again while
  // resamples keep firing must not grow the history without bound. The cap
  // is count-based, hence identical across thread counts and schedules.
  if (remap_history_.size() >= kMaxRemapHistory) SyncAllReaderAttachments();
}

void FactoredParticleFilter::SyncReaderAttachments(
    const std::vector<uint32_t>& slots) {
  if (remap_history_.empty()) return;
  const uint64_t sync_start = obs::TelemetryEnabled() ? MonotonicNanos() : 0;
  // Every draw of a slot comes from its stream keyed at the newest
  // record's step, unique per sync of the slot. Marking a slot synced as
  // it resolves makes a repeated slot resolve once.
  const int64_t key_step = remap_history_.back().step();
  for (uint32_t slot : slots) {
    ObjectState& state = states_[slot];
    if (state.reader_gen == reader_gen_) continue;
    const auto first = static_cast<size_t>(state.reader_gen - remap_base_gen_);
    state.reader_gen = reader_gen_;
    ParticleSoa& particles = state.particles;
    if (particles.empty()) continue;  // Nothing to resolve.
    Rng rng(SlotStreamSeedAt(slot, kRepointSalt, key_step));
    ReplayRemaps(remap_history_, first, particles.mutable_reader_indices(),
                 particles.size(), rng);
    remap_resolves_ += particles.size();
  }
  if (sync_start != 0) remap_sync_ns_ += MonotonicNanos() - sync_start;
}

void FactoredParticleFilter::SyncAllReaderAttachments() {
  if (remap_history_.empty()) return;
  std::vector<uint32_t> all(states_.size());
  for (uint32_t slot = 0; slot < all.size(); ++slot) all[slot] = slot;
  SyncReaderAttachments(all);
  PruneRemapHistory();
}

void FactoredParticleFilter::PruneRemapHistory() {
  if (remap_history_.empty()) return;
  uint64_t min_gen = reader_gen_;
  for (const ObjectState& s : states_) {
    min_gen = std::min(min_gen, s.reader_gen);
  }
  const auto drop = static_cast<size_t>(min_gen - remap_base_gen_);
  if (drop == 0) return;
  remap_history_.erase(remap_history_.begin(),
                       remap_history_.begin() + static_cast<long>(drop));
  remap_base_gen_ = min_gen;
}

void FactoredParticleFilter::DispatchObjectUpdates(
    const std::vector<uint32_t>& slots) {
  const size_t m = slots.size();
  if (m == 0) return;
  auto run_one = [this, &slots](size_t i, int lane) {
    const uint32_t slot = slots[i];
    UpdateObject(&states_[slot], /*observed=*/false, slot, /*salt=*/0,
                 &lane_scratch_[lane]);
  };
  if (pool_.num_threads() == 1 || m == 1) {
    for (size_t i = 0; i < m; ++i) run_one(i, 0);
    return;
  }
  // Cost-balanced chunked stealing: pack slots greedily into chunks of
  // roughly `target` particles (about 8 chunks per lane, with a 512-particle
  // floor on the target), so a handful of full-budget objects cannot serialize one
  // lane while hundreds of tiny revived/near-floor slots are batched
  // instead of dispatched one by one.
  // The chunking depends only on slot sizes (state), never on timing, and
  // every update still draws from its slot-keyed stream — which lane runs a
  // chunk cannot affect the result.
  size_t total = 0;
  for (uint32_t slot : slots) {
    total += std::max<size_t>(1, states_[slot].particles.size());
  }
  const auto lanes = static_cast<size_t>(pool_.num_threads());
  const size_t target = std::max<size_t>(512, total / (lanes * 8));
  std::vector<size_t>& starts = scratch_chunk_starts_;
  starts.clear();
  starts.push_back(0);
  size_t acc = 0;
  for (size_t i = 0; i < m; ++i) {
    acc += std::max<size_t>(1, states_[slots[i]].particles.size());
    if (acc >= target && i + 1 < m) {
      starts.push_back(i + 1);
      acc = 0;
    }
  }
  starts.push_back(m);
  const size_t num_chunks = starts.size() - 1;
  pool_.ParallelForDynamic(num_chunks, /*chunk_size=*/1,
                           [&run_one, &starts](size_t c, int lane) {
                             for (size_t i = starts[c]; i < starts[c + 1]; ++i) {
                               run_one(i, lane);
                             }
                           });
}

GaussianBelief FactoredParticleFilter::FitBelief(const ObjectState& state) {
  // Each weight is an object weight times a reader weight, both finite:
  // NormalizeForEss and NormalizeLogWeights leave weights in [0, 1]
  // (uniform unless their total, or largest log weight, is finite),
  // resamples reset them to uniform, and the snapshot loader admits only
  // finite non-negative ones, which its writer saves normalized. So the fit
  // of finite positions is finite, and every slot a tier selects collapses.
  std::vector<WeightedPoint>& points = scratch_points_;
  points.clear();
  points.reserve(state.particles.size());
  for (size_t k = 0; k < state.particles.size(); ++k) {
    points.push_back(
        {state.particles.PositionAt(k),
         state.particles.WeightAt(k) *
             readers_[state.particles.ReaderIdxAt(k)].weight});
  }
  return GaussianBelief::Fit(points);
}

void FactoredParticleFilter::RunCompression() {
  const int64_t after = config_.compression.compress_after_epochs;
  if (after <= 0) return;
  std::vector<uint32_t>& slots = scratch_collapse_;
  slots.clear();
  for (uint32_t slot = 0; slot < states_.size(); ++slot) {
    const ObjectState& state = states_[slot];
    if (!state.IsCompressed() && state.particles.size() >= 2 &&
        step_ - state.last_processed_step >= after) {
      slots.push_back(slot);
    }
  }
  // The fits marginalize over reader weights through the attachments, so
  // pending remaps are resolved first. Compression targets exactly the
  // slots the epoch sweep has not touched — the ones most likely to lag.
  SyncReaderAttachments(slots);
  for (uint32_t slot : slots) {
    ObjectState& state = states_[slot];
    state.compressed = FitBelief(state);
    state.particles.Reset(0);
  }
}

void FactoredParticleFilter::RunHibernation() {
  const int64_t after = config_.compression.hibernate_after_epochs;
  if (after <= 0) return;
  std::vector<uint32_t>& slots = scratch_collapse_;
  slots.clear();
  for (uint32_t slot = 0; slot < states_.size(); ++slot) {
    const ObjectState& state = states_[slot];
    // An active object with no particles yet (created but never initialized)
    // has nothing to summarize; it stays where it is until its first read.
    if (state.hibernated ||
        (!state.IsCompressed() && state.particles.empty())) {
      continue;
    }
    // Hibernation keys on the last read or revival, not the last
    // processing: negative-evidence touches keep an object processed but
    // say nothing about whether anyone still cares where it is.
    const int64_t last_seen =
        std::max(state.last_observed_step, state.last_revived_step);
    if (last_seen >= 0 && step_ - last_seen >= after) slots.push_back(slot);
  }
  SyncReaderAttachments(slots);  // The fits read the attachments.
  for (uint32_t slot : slots) {
    ObjectState& state = states_[slot];
    if (!state.IsCompressed()) {
      state.compressed = FitBelief(state);
      state.particles.Reset(0);
    }
    state.hibernated = true;
    if (config_.use_spatial_index) {
      // Entries whose slots are now all hibernated drop out of the probe
      // sweep entirely (the index skips them until a revival).
      index_.SetSlotHibernated(slot, true);
    }
  }
}

void FactoredParticleFilter::ObserveEpoch(const SyncedEpoch& epoch) {
  // Stage clocks are telemetry only: clock reads happen between stages,
  // never inside the sampled loops, and nothing below branches on them —
  // estimates stay bit-identical with telemetry on or off.
  const bool telemetry = obs::TelemetryEnabled();
  remap_sync_ns_ = 0;
  const uint64_t t_start = telemetry ? MonotonicNanos() : 0;

  // --- Reader update -------------------------------------------------------
  if (!readers_initialized_) {
    InitializeReaders(epoch);
  } else {
    PropagateReaders(epoch);
  }

  std::vector<const ShelfTag*>& observed_shelves = scratch_observed_shelves_;
  std::vector<TagId>& observed_objects = scratch_observed_objects_;
  observed_shelves.clear();
  observed_objects.clear();
  for (TagId tag : epoch.tags) {
    if (const ShelfTag* shelf = model_.FindShelfTag(tag)) {
      observed_shelves.push_back(shelf);
    } else {
      observed_objects.push_back(tag);
    }
  }

  WeightReaders(epoch, observed_shelves);
  // Readers keep these poses until the post-update resampling, so the frames
  // are valid for every object update this epoch.
  BuildReaderFrames();
  const ReaderEstimate reader_est = EstimateReader();
  const Vec3 reader_ref = reader_est.mean;
  const Aabb sensing_box =
      model_.sensor().SensingBounds(Pose(reader_ref, reader_est.heading));

  // --- Determine the processed object set (Fig. 4) -------------------------
  // Case 1: objects read this epoch, stamped in the per-slot mask that the
  // Case-2 sweep tests membership against.
  std::vector<uint32_t>& case1 = scratch_case1_;
  case1.clear();
  if (++case1_epoch_ == 0) {
    // Stamp wrap-around: old stamps could alias the new id; reset them.
    std::fill(case1_stamp_.begin(), case1_stamp_.end(), 0u);
    case1_epoch_ = 1;
  }
  for (TagId tag : observed_objects) case1.push_back(GetOrCreateSlot(tag));
  case1_stamp_.resize(states_.size(), 0u);
  for (uint32_t slot : case1) case1_stamp_[slot] = case1_epoch_;

  // Case 2: objects not read now but recorded near the current location.
  // Probed through the filter-owned scratch (epoch-stamped seen mask + hit
  // buffer) so the per-epoch probe allocates nothing. The probe's time is
  // index work: it is charged to the index's stage, not to the weighting.
  std::vector<uint32_t>& case2 = scratch_case2_;
  case2.clear();
  uint64_t probe_ns = 0;
  if (config_.use_spatial_index) {
    const uint64_t probe_start = telemetry ? MonotonicNanos() : 0;
    index_.Probe(sensing_box, &probe_scratch_, &case2);
    if (telemetry) probe_ns = MonotonicNanos() - probe_start;
  } else {
    // Without the index the filter must touch every tracked object.
    case2.reserve(states_.size());
    for (uint32_t slot = 0; slot < states_.size(); ++slot) case2.push_back(slot);
  }

  // --- Case 1: initialize / revive / re-initialize, then update ------------
  // Resolve pending remaps before anything reads or keeps the attachments
  // (re-init keeps half, the update weights against them).
  SyncReaderAttachments(case1);
  // Serial: initialization and re-initialization sample from the shared
  // stream, and the set is small (bounded by the tags read in one epoch).
  for (uint32_t slot : case1) {
    ObjectState& state = states_[slot];
    const bool brand_new =
        state.particles.empty() && !state.IsCompressed();
    if (brand_new) {
      InitializeObjectParticles(&state, config_.num_object_particles);
    } else if (state.IsCompressed()) {
      DecompressObject(&state, slot);
    } else if (state.last_observed_step >= 0) {
      MaybeReinitialize(&state, reader_ref);
    }
    if (!UpdateObject(&state, /*observed=*/true, slot, /*salt=*/0,
                      &lane_scratch_[0])) {
      // Every particle sat at the likelihood floor for this reading. That
      // happens both for marginal geometry (correct particles just outside
      // the cone edge) and for genuinely stale beliefs (the object moved
      // parallel to the reader path, which the reader-distance rule cannot
      // see). Only the latter warrants re-initialization: hedge with the
      // half re-init when the believed location is entirely out of sensing
      // range of the reader that produced the reading.
      Vec3 cloud_mean;
      for (size_t k = 0; k < state.particles.size(); ++k) {
        cloud_mean += state.particles.PositionAt(k);
      }
      cloud_mean = cloud_mean / static_cast<double>(state.particles.size());
      const double explain = model_.sensor().ProbReadAt(
          Pose(reader_ref, reader_est.heading), cloud_mean);
      if (explain < kDecompressNegEvidenceProb) {
        HalfReinitialize(&state);
        UpdateObject(&state, /*observed=*/true, slot, /*salt=*/1,
                     &lane_scratch_[0]);
      }
    }
    state.last_observed_step = step_;
    state.last_processed_step = step_;
    state.last_observed_reader_position = reader_ref;
  }

  // --- Case 2: negative evidence for nearby unread objects -----------------
  // First a serial sweep for the decompression decisions (they sample from
  // the shared stream), collecting the slots to update...
  std::vector<uint32_t>& case2_updates = scratch_case2_updates_;
  case2_updates.clear();
  for (uint32_t slot : case2) {
    if (case1_stamp_[slot] == case1_epoch_) continue;
    ObjectState& state = states_[slot];
    if (state.IsCompressed()) {
      // Revive only when the miss is informative at the object's belief.
      // Hibernated tags demand the stricter gate: stale index entries keep
      // pointing at them, and the whole point of the tier is that a passing
      // reader does not pull every parked tag back into the sweep.
      const double revive_prob = state.hibernated
                                     ? kHibernateNegEvidenceProb
                                     : kDecompressNegEvidenceProb;
      const double pr = model_.sensor().ProbReadAt(
          Pose(reader_ref, reader_est.heading), state.compressed->mean());
      if (pr < revive_prob) continue;
      DecompressObject(&state, slot);
    }
    if (state.particles.empty()) continue;
    case2_updates.push_back(slot);
  }
  // ...then the updates themselves fan out across the pool in cost-balanced
  // stolen chunks, once their pending remaps are resolved. Given the frozen
  // reader frames they are conditionally independent (§IV-B), and each
  // draws from its own (seed, slot, step) stream.
  SyncReaderAttachments(case2_updates);
  DispatchObjectUpdates(case2_updates);
  std::vector<uint32_t>& processed = scratch_processed_;
  processed.assign(case1.begin(), case1.end());
  for (uint32_t slot : case2_updates) {
    states_[slot].last_processed_step = step_;
    processed.push_back(slot);
  }

  const uint64_t t_weighted = telemetry ? MonotonicNanos() : 0;
  const uint64_t remap_weighted = remap_sync_ns_;

  // --- Reader resampling ---------------------------------------------------
  // Triggered by the reader ESS, not rare: factored weights persist across
  // epochs, yet on a dense site (the 2,000-object warehouse workload) it
  // fires on ~60% of epochs, and each firing queues a remap replay for
  // every object.
  scratch_weights_.resize(readers_.size());
  for (size_t j = 0; j < readers_.size(); ++j) {
    scratch_weights_[j] = readers_[j].weight;
  }
  if (EffectiveSampleSize(scratch_weights_) <
      kReaderResampleThreshold * static_cast<double>(readers_.size())) {
    ResampleReaders(processed);
  }

  const uint64_t t_resampled = telemetry ? MonotonicNanos() : 0;
  const uint64_t remap_resampled = remap_sync_ns_;

  // --- Spatial-index maintenance -------------------------------------------
  if (config_.use_spatial_index) {
    // Record only objects that actually have a particle within the sensing
    // box (Fig. 4(b)); otherwise Case-2 objects would be dragged along the
    // reader path forever and never leave scope.
    std::vector<uint32_t>& in_box = scratch_in_box_;
    in_box.clear();
    for (uint32_t slot : processed) {
      const ObjectState& state = states_[slot];
      if (!state.IsCompressed() &&
          state.particle_bounds.Intersects(sensing_box)) {
        in_box.push_back(slot);
      }
    }
    index_.Insert(sensing_box, in_box);
  }

  // --- Belief compression + hibernation -------------------------------------
  // Compression first (it needs the particles for its fits), then the
  // deeper tier collapses whatever has been unread long enough.
  RunCompression();
  RunHibernation();
  // Records this epoch's syncs left unneeded go now, so the filter never
  // holds (or saves) a remap no slot still needs.
  PruneRemapHistory();

  if (telemetry) {
    const uint64_t t_end = MonotonicNanos();
    // Syncs run inside the weighting (Case-1/Case-2 touches), the reader
    // resample (the history cap) and the compression stage (fits); report
    // them as their own stage and take each out of the stage it ran in. The
    // index probe runs inside the weighting too and moves to the stage that
    // holds the index insert. So the stages add up to the epoch.
    stages_.weight =
        static_cast<double>(t_weighted - t_start - remap_weighted - probe_ns) *
        1e-9;
    stages_.reader_resample =
        static_cast<double>(t_resampled - t_weighted -
                            (remap_resampled - remap_weighted)) *
        1e-9;
    stages_.remap_replay = static_cast<double>(remap_sync_ns_) * 1e-9;
    stages_.compress =
        static_cast<double>(t_end - t_resampled -
                            (remap_sync_ns_ - remap_resampled) + probe_ns) *
        1e-9;
  }

  ++step_;
}

std::optional<LocationEstimate> FactoredParticleFilter::EstimateObject(
    TagId tag) const {
  auto it = slot_of_tag_.find(tag);
  if (it == slot_of_tag_.end()) return std::nullopt;
  const ObjectState& state = states_[it->second];

  LocationEstimate est;
  if (state.IsCompressed()) {
    est.mean = state.compressed->mean();
    est.variance = state.compressed->DiagonalVariance();
    est.support = 0;
    return est;
  }
  const ParticleSoa& particles = state.particles;
  const size_t n = particles.size();
  if (n == 0) return std::nullopt;

  // Marginal weight of a particle is its factored weight times the weight of
  // the reader hypothesis it is conditioned on — for a lagging slot, the
  // expected weight of the reader its attachment resolves to.
  std::vector<double> reader_w;
  AttachedReaderWeights(state, &reader_w);
  const double* weights = particles.weights();
  const uint32_t* reader_idx = particles.reader_indices();
  double total = 0.0;
  Vec3 mean;
  for (size_t k = 0; k < n; ++k) {
    const double w = weights[k] * reader_w[reader_idx[k]];
    mean += particles.PositionAt(k) * w;
    total += w;
  }
  if (total <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(n);
    mean = {};
    for (size_t k = 0; k < n; ++k) {
      mean += particles.PositionAt(k) * uniform;
    }
    total = 1.0;
    est.mean = mean;
  } else {
    est.mean = mean / total;
  }
  Vec3 var;
  for (size_t k = 0; k < n; ++k) {
    const double w = weights[k] * reader_w[reader_idx[k]] / total;
    const Vec3 d = particles.PositionAt(k) - est.mean;
    var.x += w * d.x * d.x;
    var.y += w * d.y * d.y;
    var.z += w * d.z * d.z;
  }
  est.variance = var;
  est.support = static_cast<int>(n);
  return est;
}

ReaderEstimate FactoredParticleFilter::EstimateReader() const {
  ReaderEstimate est;
  double sin_sum = 0.0, cos_sum = 0.0;
  for (const ReaderParticle& r : readers_) {
    est.mean += r.pose.position * r.weight;
    sin_sum += r.weight * std::sin(r.pose.heading);
    cos_sum += r.weight * std::cos(r.pose.heading);
  }
  for (const ReaderParticle& r : readers_) {
    const Vec3 d = r.pose.position - est.mean;
    est.variance.x += r.weight * d.x * d.x;
    est.variance.y += r.weight * d.y * d.y;
    est.variance.z += r.weight * d.z * d.z;
  }
  est.heading = std::atan2(sin_sum, cos_sum);
  return est;
}

const FactoredParticleFilter::ObjectState* FactoredParticleFilter::FindObject(
    TagId tag) const {
  auto it = slot_of_tag_.find(tag);
  if (it == slot_of_tag_.end()) return nullptr;
  return &states_[it->second];
}

void FactoredParticleFilter::AttachedReaderWeights(
    const ObjectState& state, std::vector<double>* weights) const {
  weights->resize(readers_.size());
  for (size_t j = 0; j < readers_.size(); ++j) {
    (*weights)[j] = readers_[j].weight;
  }
  const uint64_t lag = RemapLag(state);
  if (lag == 0) return;
  ExpectedRemapWeights(remap_history_, remap_history_.size() - lag, weights);
}

size_t FactoredParticleFilter::NumActiveObjects() const {
  size_t n = 0;
  for (const ObjectState& s : states_) {
    if (!s.IsCompressed() && !s.particles.empty()) ++n;
  }
  return n;
}

size_t FactoredParticleFilter::NumCompressedObjects() const {
  size_t n = 0;
  for (const ObjectState& s : states_) {
    if (s.IsCompressed() && !s.hibernated) ++n;
  }
  return n;
}

size_t FactoredParticleFilter::NumHibernatedObjects() const {
  size_t n = 0;
  for (const ObjectState& s : states_) {
    if (s.hibernated) ++n;
  }
  return n;
}

size_t FactoredParticleFilter::ApproxMemoryBytes() const {
  size_t bytes = readers_.capacity() * sizeof(ReaderParticle);
  for (const ObjectState& s : states_) {
    bytes += sizeof(ObjectState);
    bytes += s.particles.ApproxMemoryBytes();
    if (s.IsCompressed()) bytes += sizeof(GaussianBelief);
  }
  return bytes;
}

}  // namespace rfid
