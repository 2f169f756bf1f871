// Sensor-model based particle initialization (paper §IV-A).
//
// When an object is first observed, its particles are drawn uniformly from a
// cone originating at the (hypothesized) reader pose whose width and range
// deliberately overestimate the true sensing region. Optionally, samples are
// clipped to the shelf regions, which the paper's lab experiments show to be
// a strong prior ("such shelf information helps restrict the area for
// location sampling").
#pragma once

#include "geometry/vec.h"
#include "model/object_model.h"
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

/// Draws initial object-particle positions from the overestimated sensing
/// cone of a reader pose hypothesis.
class ParticleInitializer {
 public:
  ParticleInitializer(const InitializerConfig& config,
                      const SensorModel* sensor, const ShelfRegions* shelves)
      : config_(config), sensor_(sensor), shelves_(shelves) {}

  /// One sample from the initialization cone at `reader`.
  Vec3 Sample(const Pose& reader, Rng& rng) const;

  const InitializerConfig& config() const { return config_; }

 private:
  Vec3 SampleCone(const Pose& reader, Rng& rng) const;

  InitializerConfig config_;
  const SensorModel* sensor_;
  const ShelfRegions* shelves_;
};

}  // namespace rfid
