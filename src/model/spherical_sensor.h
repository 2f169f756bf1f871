// Spherical antenna pattern emulating the lab deployment's bi-static antenna
// (paper §V-C, Fig. 5(d)): "our antenna's read area is spherical with a wide
// minor range, whose read rate is inversely related to an object's angle from
// the center of the antenna".
//
// The ThingMagic reader's timeout setting (time a tag is given to respond)
// controls how many tags answer per interrogation: longer timeouts raise the
// peak read rate *and* widen the effective range, which is what makes longer
// timeouts slightly hurt localization precision in Fig. 6(b) — each reading
// carries less positional information.
#pragma once

#include "model/sensor_model.h"

namespace rfid {

/// Parameters of the emulated lab antenna.
struct SphericalSensorParams {
  double peak_read_rate = 0.8;  ///< Read rate at the antenna center.
  double range = 2.0;           ///< 1/e^2 distance-decay scale, feet.
  double angle_falloff = 0.75;  ///< Linear angular falloff strength in [0,1].
};

/// Smooth spherical sensing region with Gaussian distance decay and a mild
/// linear angular falloff (reads happen even behind the antenna, faintly).
class SphericalSensorModel final : public SensorModel {
 public:
  SphericalSensorModel() { RecomputeNegligibleRange(); }
  explicit SphericalSensorModel(const SphericalSensorParams& params)
      : params_(params) {
    RecomputeNegligibleRange();
  }

  /// Builds the emulated lab antenna for a given reader timeout in
  /// milliseconds (paper uses 250, 500, 750 ms).
  static SphericalSensorModel ForTimeoutMs(double timeout_ms);

  double ProbRead(double distance, double angle) const override;
  double MaxRange() const override;
  double BatchZeroRadius() const override { return negligible_range_; }
  std::unique_ptr<SensorModel> Clone() const override {
    return std::make_unique<SphericalSensorModel>(*this);
  }

  // Devirtualized batch kernels. The Gaussian decay never reaches exactly
  // zero, but past NegligibleRange() it provably stays under
  // kBatchNegligibleProb, so the kernels zero those elements and skip the
  // exp (invisible to the filters — see reader_frame.h).
  void ProbReadBatchPositions(const ReaderFrame& frame, const Vec3* positions,
                              size_t n, double* out) const override;
  void ProbReadBatchGather(const ReaderFrame* frames, const uint32_t* frame_idx,
                           const ParticleCoord* xs, const ParticleCoord* ys,
                           const ParticleCoord* zs, size_t n,
                           double* out) const override;

  const SphericalSensorParams& params() const { return params_; }

  /// Distance beyond which ProbRead provably stays under
  /// kBatchNegligibleProb for every angle (≈ 4.6x the decay scale).
  double NegligibleRange() const { return negligible_range_; }

 private:
  void RecomputeNegligibleRange();

  SphericalSensorParams params_;
  double negligible_range_ = 0.0;
};

}  // namespace rfid
