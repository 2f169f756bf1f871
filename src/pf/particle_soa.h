// Structure-of-arrays particle storage for the factored filter's per-object
// particle lists.
//
// The per-object hot loop (batched likelihood evaluation, weight scaling,
// bounds maintenance) streams over positions and weights; keeping each
// component in its own contiguous array lets those loops run out of
// cache-resident streams instead of striding over array-of-structs records,
// and hands the sensor's gather kernels the raw x/y/z and reader-index
// arrays without a copy.
//
// A particle takes 24 bytes: x, y and z at ParticleCoord (float) width, the
// weight as a double and the reader index as a u32. A position is a draw
// the location model never perturbs (it stays put, jumps to a fresh draw,
// or is copied by resampling), so storing it rounds each draw once, by at
// most 3.1e-5 ft below 1,024 ft; every accessor and kernel widens it to
// double before computing with it. Weights stay double: they are
// renormalized every update, and float weights would drift an object's
// weight sum off 1 by ~2e-8.
//
// Code that needs a position's rounded value reads it back from the store
// (PositionAt) instead of casting to float and back in registers: GCC
// 12.2's SLP vectorizer can drop such a register round trip of two
// adjacent coordinates at -O2 (seen in a test; -fno-tree-slp-vectorize
// restores it). A store to the float arrays always rounds.
//
// Compatibility: tests, the EM E-step and the snapshot code historically
// iterated `std::vector<ObjectParticle>` reading `.position`, `.reader_idx`
// and `.weight`. `ParticleSoa` preserves that shape through a value-type
// `View` plus const iteration, so `for (const auto& p : state.particles)`
// keeps working unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec.h"

namespace rfid {

class ParticleSoa {
 public:
  /// Value view of one particle, shaped like the old ObjectParticle struct.
  struct View {
    Vec3 position;
    uint32_t reader_idx = 0;  ///< Pointer to the conditioning reader particle.
    double weight = 0.0;      ///< Normalized within the object.
  };

  class ConstIterator {
   public:
    ConstIterator(const ParticleSoa* soa, size_t i) : soa_(soa), i_(i) {}
    View operator*() const { return (*soa_)[i_]; }
    ConstIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const ConstIterator& o) const { return i_ != o.i_; }
    bool operator==(const ConstIterator& o) const { return i_ == o.i_; }

   private:
    const ParticleSoa* soa_;
    size_t i_;
  };

  size_t size() const { return x_.size(); }
  bool empty() const { return x_.empty(); }

  /// Empties the set and leaves its arrays room for exactly `capacity`
  /// particles: it reuses them when that is already their capacity, else
  /// releases them and reserves exactly. Reset(0) frees all storage.
  void Reset(size_t capacity);
  /// Particle capacity of the component arrays (what ApproxMemoryBytes is
  /// proportional to). The filter sizes every set through Reset, so an
  /// object's capacity equals its size() after every epoch.
  size_t CapacityParticles() const { return x_.capacity(); }

  /// Appends a particle; the position rounds to ParticleCoord width.
  void PushBack(const Vec3& position, uint32_t reader_idx, double weight);

  /// The stored position, widened to double (exactly).
  Vec3 PositionAt(size_t k) const { return {x_[k], y_[k], z_[k]}; }
  /// Stores `p` rounded to ParticleCoord width; a position read back with
  /// PositionAt stores back bit for bit.
  void SetPosition(size_t k, const Vec3& p) {
    x_[k] = static_cast<ParticleCoord>(p.x);
    y_[k] = static_cast<ParticleCoord>(p.y);
    z_[k] = static_cast<ParticleCoord>(p.z);
  }
  uint32_t ReaderIdxAt(size_t k) const { return reader_idx_[k]; }
  void SetReaderIdx(size_t k, uint32_t idx) { reader_idx_[k] = idx; }
  double WeightAt(size_t k) const { return weight_[k]; }
  void SetWeight(size_t k, double w) { weight_[k] = w; }

  View operator[](size_t k) const {
    return {PositionAt(k), reader_idx_[k], weight_[k]};
  }
  ConstIterator begin() const { return ConstIterator(this, 0); }
  ConstIterator end() const { return ConstIterator(this, size()); }

  // Raw component arrays for the batch kernels.
  const ParticleCoord* xs() const { return x_.data(); }
  const ParticleCoord* ys() const { return y_.data(); }
  const ParticleCoord* zs() const { return z_.data(); }
  const uint32_t* reader_indices() const { return reader_idx_.data(); }
  const double* weights() const { return weight_.data(); }
  double* mutable_weights() { return weight_.data(); }
  uint32_t* mutable_reader_indices() { return reader_idx_.data(); }

  /// Sets every weight to 1/size().
  void SetUniformWeights();

  /// Axis-aligned bounding box of the stored particle positions.
  Aabb ComputeBounds() const;

  /// Replaces this set with `src`'s particles at the given ancestor indices,
  /// all at weight `uniform_weight` (the resampling gather), in storage of
  /// exactly ancestors.size() (see Reset): a fixed-budget gather reuses the
  /// target's arrays, an elastic resize allocates the new count. `src` may
  /// not alias `this`.
  void GatherFrom(const ParticleSoa& src,
                  const std::vector<uint32_t>& ancestors,
                  double uniform_weight);

  /// Bytes held by the component arrays (capacity-based, like
  /// vector<ObjectParticle> accounting did).
  size_t ApproxMemoryBytes() const;

 private:
  std::vector<ParticleCoord> x_;
  std::vector<ParticleCoord> y_;
  std::vector<ParticleCoord> z_;
  std::vector<uint32_t> reader_idx_;
  std::vector<double> weight_;
};

}  // namespace rfid
