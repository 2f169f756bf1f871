#include "pf/initializer.h"

#include <cmath>

namespace rfid {

namespace {
/// Cone samples tried for a shelf hit before the unclipped fallback.
constexpr int kMaxRejectionTries = 64;
}  // namespace

Vec3 ParticleInitializer::SampleCone(const Pose& reader, Rng& rng) const {
  const double range = sensor_->MaxRange() * config_.range_overestimate;
  // Area-uniform over the planar cone: radius ~ range * sqrt(u).
  const double r = range * std::sqrt(rng.NextDouble());
  const double phi =
      reader.heading + rng.Uniform(-config_.half_angle, config_.half_angle);
  Vec3 p = reader.position;
  p.x += r * std::cos(phi);
  p.y += r * std::sin(phi);
  return p;
}

Vec3 ParticleInitializer::Sample(const Pose& reader, Rng& rng) const {
  if (!config_.clip_to_shelves || shelves_ == nullptr || shelves_->empty()) {
    return SampleCone(reader, rng);
  }
  for (int attempt = 0; attempt < kMaxRejectionTries; ++attempt) {
    const Vec3 p = SampleCone(reader, rng);
    if (shelves_->Contains(p)) return p;
  }
  // The cone may barely overlap the shelves (or not at all, under a bad
  // reader hypothesis); fall back to an unclipped sample so the particle set
  // stays full-size and weighting can sort it out.
  return SampleCone(reader, rng);
}

}  // namespace rfid
