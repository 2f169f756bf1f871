// Sensor-model based particle initialization (paper §IV-A).
//
// When an object is first observed, its particles are drawn uniformly from a
// cone originating at the (hypothesized) reader pose whose width and range
// deliberately overestimate the true sensing region. Optionally, samples are
// clipped to the shelf regions, which the paper's lab experiments show to be
// a strong prior ("such shelf information helps restrict the area for
// location sampling").
//
// Clipping is rejection: up to 64 tries of a uniform cone point, the first
// one on a shelf kept, else one unclipped cone point. The sampler draws
// exactly that distribution without drawing most tries' points (thinning).
// Prepare() collects, once per set of reader poses, the shelf boxes within
// the cone depth R of the readers, clipped to that reach: the proposal P,
// of total xy area |P|. A try draws u uniform in [0, |C|), where
// |C| = half_angle · R² is the cone's area. u ≥ |P| is a miss: the cone
// point the try stands for lies on no box of P. Otherwise u picks a box by
// area, and a uniform point of it is kept iff it lies in this reader's cone,
// at a height the box holds, and in no earlier box of P. Each point of
// cone ∩ shelves is then kept with density 1/|C| through its first box, so
// a try hits with probability |cone ∩ shelves| / |C|, uniformly on
// cone ∩ shelves, exactly as a cone draw does; a miss costs one uniform.
// Where |P| > |C| (boxes denser than the cone) a try draws its own cone
// point instead.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec.h"
#include "model/object_model.h"
#include "model/reader_frame.h"
#include "model/sensor_model.h"
#include "util/rng.h"

namespace rfid {

struct InitializerConfig {
  /// Multiplier on SensorModel::MaxRange() for the initialization cone depth.
  /// Finite and > 0 (RfidInferenceEngine::Create checks).
  double range_overestimate = 1.2;
  /// Half-angle of the initialization cone (radians), in (0, pi]. Defaults
  /// to a wide 60-degree half-angle so even poorly calibrated sensor models
  /// are covered.
  double half_angle = M_PI / 3.0;
  /// When true and shelf regions exist, rejection-sample until the particle
  /// lies on a shelf (up to a fixed number of tries), then fall back to the
  /// plain cone sample.
  bool clip_to_shelves = true;
};

/// What one ParticleInitializer::Sample() call did (tests and benches).
struct InitSampleTrace {
  int tries = 0;          ///< Rejection tries made (at most 64).
  int points = 0;         ///< Tries that drew a point and tested it.
  bool fallback = false;  ///< Every try missed: an unclipped cone point.
};

/// Draws initial object-particle positions from the overestimated sensing
/// cone of a reader pose hypothesis.
class ParticleInitializer {
 public:
  ParticleInitializer(const InitializerConfig& config,
                      const SensorModel* sensor, const ShelfRegions* shelves);

  /// Prepares the shelf proposal for readers positioned inside `cloud`
  /// (the bounding box of their positions). Until the first call every
  /// clipped try draws its own cone point.
  void Prepare(const Aabb& cloud);

  /// One sample from the initialization cone at `reader`, whose frame is
  /// `frame` (ReaderFrame::From(reader)). When clipping to shelves, the last
  /// Prepare()'s cloud must hold reader.position.
  Vec3 Sample(const Pose& reader, const ReaderFrame& frame, Rng& rng,
              InitSampleTrace* trace = nullptr) const;

  const InitializerConfig& config() const { return config_; }

 private:
  /// A shelf box clipped to the prepared reach, with the run of earlier_
  /// (the clipped boxes before it that overlap it) that take precedence.
  struct ProposalBox {
    Aabb box;
    size_t earlier_begin = 0;
    size_t earlier_end = 0;
  };

  bool Clips() const {
    return config_.clip_to_shelves && shelves_ != nullptr && !shelves_->empty();
  }
  Vec3 SampleCone(const Pose& reader, Rng& rng) const;
  /// Whether the point drawn from `b` is kept: in the cone of `frame`, at a
  /// height `b` holds, and in no earlier box.
  bool Keeps(const ProposalBox& b, const ReaderFrame& frame,
             const Vec3& p) const;

  InitializerConfig config_;
  const SensorModel* sensor_;
  const ShelfRegions* shelves_;
  double cos_half_angle_;
  double sin_half_angle_;

  // The proposal of the last Prepare().
  bool thinned_ = false;  ///< |P| <= |C|: tries draw from the boxes.
  double range_sq_ = 0.0;
  double cone_area_ = 0.0;
  double proposal_area_ = 0.0;
  std::vector<ProposalBox> boxes_;
  std::vector<double> cumulative_area_;  ///< Prefix sums over boxes_.
  std::vector<Aabb> earlier_;
};

}  // namespace rfid
