#include "pf/initializer.h"

#include <algorithm>
#include <cmath>

namespace rfid {

namespace {
/// Cone samples tried for a shelf hit before the unclipped fallback.
constexpr int kMaxRejectionTries = 64;
/// Relative slack on the reach of the proposal: a cone point the planar
/// arithmetic keeps may lie a few ulps past R, and a box it lands on must
/// still be in the proposal.
constexpr double kReachMargin = 1e-9;
}  // namespace

ParticleInitializer::ParticleInitializer(const InitializerConfig& config,
                                         const SensorModel* sensor,
                                         const ShelfRegions* shelves)
    : config_(config),
      sensor_(sensor),
      shelves_(shelves),
      cos_half_angle_(std::cos(config.half_angle)),
      sin_half_angle_(std::sin(config.half_angle)) {}

void ParticleInitializer::Prepare(const Aabb& cloud) {
  thinned_ = false;
  boxes_.clear();
  cumulative_area_.clear();
  earlier_.clear();
  // A half-angle past pi wraps the cone draw onto itself, so its density is
  // not 1/|C|; such a cone keeps drawing its own points.
  if (!Clips() || !(config_.half_angle <= M_PI)) return;
  const double range = sensor_->MaxRange() * config_.range_overestimate;
  range_sq_ = range * range;
  cone_area_ = config_.half_angle * range_sq_;
  // Every cone point lies within `range` of its reader in xy, at the
  // reader's height, so a box outside this reach holds none.
  const double reach = range * (1.0 + kReachMargin);
  double area = 0.0;
  for (const Aabb& shelf : shelves_->regions()) {
    ProposalBox b;
    b.box = Aabb({std::max(shelf.min.x, cloud.min.x - reach),
                  std::max(shelf.min.y, cloud.min.y - reach), shelf.min.z},
                 {std::min(shelf.max.x, cloud.max.x + reach),
                  std::min(shelf.max.y, cloud.max.y + reach), shelf.max.z});
    // Out of reach, at no reader's height, or holding no point at all
    // (inverted, or a NaN bound): no cone point lies on it.
    if (!(b.box.min.x <= b.box.max.x && b.box.min.y <= b.box.max.y &&
          b.box.min.z <= b.box.max.z && b.box.min.z <= cloud.max.z &&
          b.box.max.z >= cloud.min.z)) {
      continue;
    }
    // Within reach a clipped box holds exactly the points its shelf does,
    // so the clipped earlier boxes decide which box a point belongs to.
    b.earlier_begin = earlier_.size();
    for (const ProposalBox& prior : boxes_) {
      if (prior.box.Intersects(b.box)) earlier_.push_back(prior.box);
    }
    b.earlier_end = earlier_.size();
    area += (b.box.max.x - b.box.min.x) * (b.box.max.y - b.box.min.y);
    boxes_.push_back(b);
    cumulative_area_.push_back(area);
  }
  proposal_area_ = area;
  // NaN (a NaN depth or cloud) keeps the cone draws.
  thinned_ = area <= cone_area_;
}

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

bool ParticleInitializer::Keeps(const ProposalBox& b, const ReaderFrame& frame,
                                const Vec3& p) const {
  if (p.z < b.box.min.z || p.z > b.box.max.z) return false;
  // In the cone: nearer than R, and at a bearing within the half-angle θ,
  // i.e. cos θ · |across| <= sin θ · along in the reader's frame (for every
  // θ in (0, π], with no sqrt or trig).
  const double dx = p.x - frame.origin.x;
  const double dy = p.y - frame.origin.y;
  if (!(dx * dx + dy * dy < range_sq_)) return false;
  const double along = dx * frame.cos_heading + dy * frame.sin_heading;
  const double across = dy * frame.cos_heading - dx * frame.sin_heading;
  if (cos_half_angle_ * std::abs(across) > sin_half_angle_ * along) {
    return false;
  }
  for (size_t e = b.earlier_begin; e < b.earlier_end; ++e) {
    if (earlier_[e].Contains(p)) return false;
  }
  return true;
}

Vec3 ParticleInitializer::Sample(const Pose& reader, const ReaderFrame& frame,
                                 Rng& rng, InitSampleTrace* trace) const {
  if (!Clips()) return SampleCone(reader, rng);
  for (int attempt = 0; attempt < kMaxRejectionTries; ++attempt) {
    if (trace != nullptr) ++trace->tries;
    if (!thinned_) {
      if (trace != nullptr) ++trace->points;
      const Vec3 p = SampleCone(reader, rng);
      if (shelves_->Contains(p)) return p;
      continue;
    }
    const double u = rng.NextDouble() * cone_area_;
    // The cone point this try stands for lies on no box of the proposal (a
    // NaN u, from an unbounded cone, too).
    if (!(u < proposal_area_)) continue;
    if (trace != nullptr) ++trace->points;
    // The first box whose prefix sum exceeds u: u < |P| = the last sum, so
    // one does, and it has positive area.
    const size_t i = static_cast<size_t>(
        std::partition_point(cumulative_area_.begin(),
                             cumulative_area_.end() - 1,
                             [u](double sum) { return sum <= u; }) -
        cumulative_area_.begin());
    const ProposalBox& b = boxes_[i];
    const Vec3 p{rng.Uniform(b.box.min.x, b.box.max.x),
                 rng.Uniform(b.box.min.y, b.box.max.y), frame.origin.z};
    if (Keeps(b, frame, p)) return p;
  }
  if (trace != nullptr) trace->fallback = true;
  // The cone may barely overlap the shelves (or not at all, under a bad
  // reader hypothesis); fall back to an unclipped sample so the particle set
  // stays full-size and weighting can sort it out.
  return SampleCone(reader, rng);
}

}  // namespace rfid
