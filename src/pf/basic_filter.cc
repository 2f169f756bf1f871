#include "pf/basic_filter.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace rfid {

namespace {
// Probability floor preventing a single impossible observation from zeroing
// a particle outright; keeps log-weights finite.
constexpr double kProbFloor = 1e-9;

double SafeLog(double p) { return std::log(std::max(p, kProbFloor)); }
}  // namespace

BasicParticleFilter::BasicParticleFilter(WorldModel model,
                                         const BasicFilterConfig& config)
    : model_(std::move(model)),
      config_(config),
      initializer_(config.init, &model_.sensor(),
                   &model_.object_model().shelves()),
      rng_(config.seed) {
  particles_.resize(config_.num_particles);
  weights_.assign(config_.num_particles, 1.0 / config_.num_particles);
}

void BasicParticleFilter::InitializeReader(const SyncedEpoch& epoch) {
  // Prior: reported location (or origin) perturbed by the sensing noise,
  // heading facing +x unless the motion prior suggests otherwise.
  const Vec3 base = epoch.has_location ? epoch.reported_location : Vec3{};
  const LocationSensingParams& sp = model_.location_sensing().params();
  for (auto& particle : particles_) {
    particle.reader.position = {
        base.x - sp.mu.x + rng_.Gaussian(0.0, std::max(sp.sigma.x, 0.05)),
        base.y - sp.mu.y + rng_.Gaussian(0.0, std::max(sp.sigma.y, 0.05)),
        base.z - sp.mu.z + rng_.Gaussian(0.0, std::max(sp.sigma.z, 0.0))};
    particle.reader.heading = epoch.has_heading ? epoch.reported_heading : 0.0;
  }
  reader_initialized_ = true;
}

size_t BasicParticleFilter::AddObjectSlot(TagId tag) {
  const size_t slot = slot_tags_.size();
  slot_tags_.push_back(tag);
  object_slots_[tag] = slot;
  Aabb cloud = Aabb::Empty();
  for (const auto& particle : particles_) {
    cloud.Extend(particle.reader.position);
  }
  initializer_.Prepare(cloud);
  for (auto& particle : particles_) {
    particle.objects.push_back(initializer_.Sample(
        particle.reader, ReaderFrame::From(particle.reader), rng_));
  }
  return slot;
}

void BasicParticleFilter::ObserveEpoch(const SyncedEpoch& epoch) {
  if (!reader_initialized_) {
    InitializeReader(epoch);
  } else {
    for (auto& particle : particles_) {
      particle.reader = model_.motion().Propagate(particle.reader, rng_);
    }
  }

  // Split observed tags into shelf tags and object tags; create slots for
  // newly seen objects (after reader propagation so the cone is current).
  std::vector<const ShelfTag*> observed_shelves;
  std::unordered_set<size_t> observed_slots;
  for (TagId tag : epoch.tags) {
    if (const ShelfTag* shelf = model_.FindShelfTag(tag)) {
      observed_shelves.push_back(shelf);
      continue;
    }
    auto it = object_slots_.find(tag);
    const size_t slot =
        it != object_slots_.end() ? it->second : AddObjectSlot(tag);
    observed_slots.insert(slot);
  }
  scratch_observed_.assign(slot_tags_.size(), 0);
  for (size_t slot : observed_slots) scratch_observed_[slot] = 1;

  // Propagate object locations through the object dynamics.
  for (auto& particle : particles_) {
    for (Vec3& pos : particle.objects) {
      pos = model_.object_model().Propagate(pos, rng_);
    }
  }

  // Weight every joint particle against all evidence of this epoch
  // (paper Eq. 5 without factorization): reported reader location, shelf-tag
  // readings (positive and negative), and all object readings — observed or
  // missed. Processing *all* objects every epoch is exactly what makes the
  // basic filter unscalable.
  const ReaderEstimate reader_mean = EstimateReader();
  std::vector<const ShelfTag*> nearby_shelves;
  model_.ShelfTagsNear(reader_mean.mean, &nearby_shelves);
  std::unordered_set<TagId> observed_shelf_ids;
  for (const ShelfTag* s : observed_shelves) observed_shelf_ids.insert(s->tag);

  std::vector<double> log_weights(particles_.size());
  for (size_t j = 0; j < particles_.size(); ++j) {
    const Particle& particle = particles_[j];
    // Hoist the reader pose's heading trig once per particle; every sensor
    // evaluation below then goes through the batched kernels.
    const ReaderFrame frame = ReaderFrame::From(particle.reader);
    double lw = std::log(std::max(weights_[j], kProbFloor));
    if (epoch.has_location) {
      lw += model_.location_sensing().LogPdf(epoch.reported_location,
                                             particle.reader.position);
    }
    if (epoch.has_heading) {
      lw += model_.location_sensing().HeadingLogPdf(epoch.reported_heading,
                                                    particle.reader.heading);
    }
    for (const ShelfTag* s : observed_shelves) {
      lw += SafeLog(model_.sensor().ProbReadAt(particle.reader, s->location));
    }
    for (const ShelfTag* s : nearby_shelves) {
      if (observed_shelf_ids.count(s->tag)) continue;
      lw += SafeLog(1.0 -
                    model_.sensor().ProbReadAt(particle.reader, s->location));
    }
    const size_t num_slots = particle.objects.size();
    scratch_probs_.resize(num_slots);
    model_.sensor().ProbReadBatchPositions(frame, particle.objects.data(),
                                           num_slots, scratch_probs_.data());
    for (size_t slot = 0; slot < num_slots; ++slot) {
      const double p = scratch_probs_[slot];
      lw += scratch_observed_[slot] ? SafeLog(p) : SafeLog(1.0 - p);
    }
    log_weights[j] = lw;
  }
  NormalizeLogWeights(log_weights, &weights_);

  if (EffectiveSampleSize(weights_) <
      config_.resample_threshold * static_cast<double>(particles_.size())) {
    Resample();
  }
}

void BasicParticleFilter::Resample() {
  const auto ancestors = ResampleAncestors(
      weights_, particles_.size(), config_.resample_scheme, rng_);
  std::vector<Particle> next;
  next.reserve(particles_.size());
  for (uint32_t a : ancestors) next.push_back(particles_[a]);
  particles_ = std::move(next);
  weights_.assign(particles_.size(), 1.0 / particles_.size());
}

std::optional<LocationEstimate> BasicParticleFilter::EstimateObject(
    TagId tag) const {
  auto it = object_slots_.find(tag);
  if (it == object_slots_.end()) return std::nullopt;
  const size_t slot = it->second;

  LocationEstimate est;
  Vec3 mean;
  for (size_t j = 0; j < particles_.size(); ++j) {
    mean += particles_[j].objects[slot] * weights_[j];
  }
  Vec3 var;
  for (size_t j = 0; j < particles_.size(); ++j) {
    const Vec3 d = particles_[j].objects[slot] - mean;
    var.x += weights_[j] * d.x * d.x;
    var.y += weights_[j] * d.y * d.y;
    var.z += weights_[j] * d.z * d.z;
  }
  est.mean = mean;
  est.variance = var;
  est.support = static_cast<int>(particles_.size());
  return est;
}

ReaderEstimate BasicParticleFilter::EstimateReader() const {
  ReaderEstimate est;
  double sin_sum = 0.0, cos_sum = 0.0;
  for (size_t j = 0; j < particles_.size(); ++j) {
    est.mean += particles_[j].reader.position * weights_[j];
    sin_sum += weights_[j] * std::sin(particles_[j].reader.heading);
    cos_sum += weights_[j] * std::cos(particles_[j].reader.heading);
  }
  for (size_t j = 0; j < particles_.size(); ++j) {
    const Vec3 d = particles_[j].reader.position - est.mean;
    est.variance.x += weights_[j] * d.x * d.x;
    est.variance.y += weights_[j] * d.y * d.y;
    est.variance.z += weights_[j] * d.z * d.z;
  }
  est.heading = std::atan2(sin_sum, cos_sum);
  return est;
}

}  // namespace rfid
