// Resampling schemes for particle filters (paper §IV-A step 2c).
//
// All schemes take normalized weights and return `count` ancestor indices:
// out[k] = index of the particle that the k-th offspring copies.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace rfid {

enum class ResampleScheme {
  kMultinomial,  ///< Independent categorical draws (paper's description).
  kSystematic,   ///< Single stratified sweep; lower variance, O(n).
  kResidual,     ///< Deterministic floor(n*w) copies + multinomial remainder.
};

/// Effective sample size 1 / sum(w^2) of normalized weights. Ranges from 1
/// (degenerate) to weights.size() (uniform).
double EffectiveSampleSize(const std::vector<double>& weights);

/// Same, over a raw contiguous weight array (the SoA hot path).
double EffectiveSampleSize(const double* weights, size_t n);

/// EffectiveSampleSize's last step, for a caller that sums the squared
/// normalized weights in index order inside its own loop: 1 / sum_sq, or 0
/// when sum_sq is not positive.
inline double EffectiveSampleSizeFromSumSq(double sum_sq) {
  return sum_sq <= 0.0 ? 0.0 : 1.0 / sum_sq;
}

/// Normalizes `weights` in place to sum to 1. Returns false (and resets to
/// uniform) when the total mass is zero or non-finite.
bool NormalizeWeights(std::vector<double>* weights);

/// Converts log weights to normalized linear weights with the max-log trick.
/// Returns false (uniform fallback) when all log weights are -inf.
bool NormalizeLogWeights(const std::vector<double>& log_weights,
                         std::vector<double>* weights);

/// Draws `count` ancestor indices according to `scheme`.
std::vector<uint32_t> ResampleAncestors(const std::vector<double>& weights,
                                        size_t count, ResampleScheme scheme,
                                        Rng& rng);

/// Allocation-free variant: writes the ancestors into `out` (capacity is
/// reused across epochs) and reads weights from a raw array.
void ResampleAncestors(const double* weights, size_t n, size_t count,
                       ResampleScheme scheme, Rng& rng,
                       std::vector<uint32_t>* out);

}  // namespace rfid
