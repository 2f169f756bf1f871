#include "pf/resample.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rfid {

double EffectiveSampleSize(const double* weights, size_t n) {
  double sum_sq = 0.0;
  for (size_t i = 0; i < n; ++i) sum_sq += weights[i] * weights[i];
  return EffectiveSampleSizeFromSumSq(sum_sq);
}

double EffectiveSampleSize(const std::vector<double>& weights) {
  return EffectiveSampleSize(weights.data(), weights.size());
}

bool NormalizeWeights(std::vector<double>* weights) {
  double total = 0.0;
  for (double w : *weights) total += w;
  if (!(total > 0.0) || !std::isfinite(total)) {
    const double uniform = weights->empty() ? 0.0 : 1.0 / weights->size();
    std::fill(weights->begin(), weights->end(), uniform);
    return false;
  }
  for (double& w : *weights) w /= total;
  return true;
}

bool NormalizeLogWeights(const std::vector<double>& log_weights,
                         std::vector<double>* weights) {
  weights->resize(log_weights.size());
  double max_lw = -std::numeric_limits<double>::infinity();
  for (double lw : log_weights) max_lw = std::max(max_lw, lw);
  if (!std::isfinite(max_lw)) {
    const double uniform = weights->empty() ? 0.0 : 1.0 / weights->size();
    std::fill(weights->begin(), weights->end(), uniform);
    return false;
  }
  double total = 0.0;
  for (size_t i = 0; i < log_weights.size(); ++i) {
    (*weights)[i] = std::exp(log_weights[i] - max_lw);
    total += (*weights)[i];
  }
  for (double& w : *weights) w /= total;
  return true;
}

namespace {

void MultinomialAncestors(const double* weights, size_t n, size_t count,
                          Rng& rng, std::vector<uint32_t>* out) {
  // Sample `count` sorted uniforms in one sweep using the exponential-spacing
  // trick, then merge against the CDF: O(n + count).
  std::vector<double> sorted_u(count);
  double acc = 0.0;
  for (size_t k = 0; k < count; ++k) {
    acc += -std::log(1.0 - rng.NextDouble());
    sorted_u[k] = acc;
  }
  acc += -std::log(1.0 - rng.NextDouble());
  for (double& u : sorted_u) u /= acc;

  out->resize(count);
  double cdf = n == 0 ? 0.0 : weights[0];
  size_t i = 0;
  for (size_t k = 0; k < count; ++k) {
    while (sorted_u[k] > cdf && i + 1 < n) {
      ++i;
      cdf += weights[i];
    }
    (*out)[k] = static_cast<uint32_t>(i);
  }
}

void SystematicAncestors(const double* weights, size_t n, size_t count,
                         Rng& rng, std::vector<uint32_t>* out) {
  out->resize(count);
  const double step = 1.0 / static_cast<double>(count);
  double u = rng.NextDouble() * step;
  double cdf = n == 0 ? 0.0 : weights[0];
  size_t i = 0;
  for (size_t k = 0; k < count; ++k) {
    while (u > cdf && i + 1 < n) {
      ++i;
      cdf += weights[i];
    }
    (*out)[k] = static_cast<uint32_t>(i);
    u += step;
  }
}

void ResidualAncestors(const double* weights, size_t n, size_t count, Rng& rng,
                       std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(count);
  std::vector<double> residual(n);
  size_t deterministic = 0;
  for (size_t i = 0; i < n; ++i) {
    const double scaled = weights[i] * static_cast<double>(count);
    const auto copies = static_cast<size_t>(std::floor(scaled));
    residual[i] = scaled - static_cast<double>(copies);
    for (size_t c = 0; c < copies; ++c) {
      out->push_back(static_cast<uint32_t>(i));
    }
    deterministic += copies;
  }
  const size_t remainder = count - deterministic;
  if (remainder > 0) {
    if (!NormalizeWeights(&residual)) {
      // All residual mass vanished; top up uniformly.
      for (size_t k = 0; k < remainder; ++k) {
        out->push_back(static_cast<uint32_t>(rng.UniformInt(n)));
      }
      return;
    }
    std::vector<uint32_t> extra;
    MultinomialAncestors(residual.data(), residual.size(), remainder, rng,
                         &extra);
    out->insert(out->end(), extra.begin(), extra.end());
  }
}

}  // namespace

void ResampleAncestors(const double* weights, size_t n, size_t count,
                       ResampleScheme scheme, Rng& rng,
                       std::vector<uint32_t>* out) {
  assert(n > 0);
  switch (scheme) {
    case ResampleScheme::kMultinomial:
      MultinomialAncestors(weights, n, count, rng, out);
      return;
    case ResampleScheme::kSystematic:
      SystematicAncestors(weights, n, count, rng, out);
      return;
    case ResampleScheme::kResidual:
      ResidualAncestors(weights, n, count, rng, out);
      return;
  }
  SystematicAncestors(weights, n, count, rng, out);
}

std::vector<uint32_t> ResampleAncestors(const std::vector<double>& weights,
                                        size_t count, ResampleScheme scheme,
                                        Rng& rng) {
  std::vector<uint32_t> out;
  ResampleAncestors(weights.data(), weights.size(), count, scheme, rng, &out);
  return out;
}

}  // namespace rfid
