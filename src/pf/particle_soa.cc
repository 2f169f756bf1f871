#include "pf/particle_soa.h"

#include <algorithm>
#include <limits>

namespace rfid {

namespace {

/// Min/max over one component array in four independent accumulators (no
/// dependency chain across them), folded, then the sequential tail. Min and
/// max are associative and exact, and widening to double is exact and
/// monotone, so the split cannot change the value: it compares equal to the
/// sequential Extend loop's over the widened positions.
void MinMax(const std::vector<ParticleCoord>& v, double* out_min,
            double* out_max) {
  constexpr size_t kLanes = 4;
  const size_t n = v.size();
  ParticleCoord lo = std::numeric_limits<ParticleCoord>::infinity();
  ParticleCoord hi = -std::numeric_limits<ParticleCoord>::infinity();
  size_t k = 0;
  if (n >= kLanes) {
    ParticleCoord vlo[kLanes] = {lo, lo, lo, lo};
    ParticleCoord vhi[kLanes] = {hi, hi, hi, hi};
    for (; k + kLanes <= n; k += kLanes) {
      for (size_t i = 0; i < kLanes; ++i) {
        const ParticleCoord x = v[k + i];
        vlo[i] = vlo[i] < x ? vlo[i] : x;
        vhi[i] = vhi[i] > x ? vhi[i] : x;
      }
    }
    for (ParticleCoord t : vlo) lo = std::min(lo, t);
    for (ParticleCoord t : vhi) hi = std::max(hi, t);
  }
  for (; k < n; ++k) {
    lo = std::min(lo, v[k]);
    hi = std::max(hi, v[k]);
  }
  *out_min = lo;
  *out_max = hi;
}

/// Empties `v` with capacity exactly `n`: a vector with no storage reserves
/// exactly what it is asked for (libstdc++ and libc++ alike).
template <typename T>
void ResetExact(std::vector<T>* v, size_t n) {
  if (v->capacity() != n) std::vector<T>().swap(*v);
  v->clear();
  v->reserve(n);
}

}  // namespace

void ParticleSoa::Reset(size_t capacity) {
  ResetExact(&x_, capacity);
  ResetExact(&y_, capacity);
  ResetExact(&z_, capacity);
  ResetExact(&reader_idx_, capacity);
  ResetExact(&weight_, capacity);
}

void ParticleSoa::PushBack(const Vec3& position, uint32_t reader_idx,
                           double weight) {
  x_.push_back(static_cast<ParticleCoord>(position.x));
  y_.push_back(static_cast<ParticleCoord>(position.y));
  z_.push_back(static_cast<ParticleCoord>(position.z));
  reader_idx_.push_back(reader_idx);
  weight_.push_back(weight);
}

void ParticleSoa::SetUniformWeights() {
  if (weight_.empty()) return;
  const double uniform = 1.0 / static_cast<double>(weight_.size());
  for (double& w : weight_) w = uniform;
}

Aabb ParticleSoa::ComputeBounds() const {
  Aabb box = Aabb::Empty();
  if (empty()) return box;
  MinMax(x_, &box.min.x, &box.max.x);
  MinMax(y_, &box.min.y, &box.max.y);
  MinMax(z_, &box.min.z, &box.max.z);
  return box;
}

void ParticleSoa::GatherFrom(const ParticleSoa& src,
                             const std::vector<uint32_t>& ancestors,
                             double uniform_weight) {
  Reset(ancestors.size());
  for (uint32_t a : ancestors) {
    x_.push_back(src.x_[a]);
    y_.push_back(src.y_[a]);
    z_.push_back(src.z_[a]);
    reader_idx_.push_back(src.reader_idx_[a]);
    weight_.push_back(uniform_weight);
  }
}

size_t ParticleSoa::ApproxMemoryBytes() const {
  return (x_.capacity() + y_.capacity() + z_.capacity()) *
             sizeof(ParticleCoord) +
         weight_.capacity() * sizeof(double) +
         reader_idx_.capacity() * sizeof(uint32_t);
}

}  // namespace rfid
