#include "pf/compression_policy.h"

#include <algorithm>

namespace rfid {

std::vector<uint32_t> CompressionPolicy::SelectForCompression(
    int64_t now, const std::vector<CompressionCandidate>& candidates) const {
  std::vector<uint32_t> out;
  switch (config_.mode) {
    case CompressionMode::kDisabled:
      break;
    case CompressionMode::kUnseenEpochs:
      for (const auto& c : candidates) {
        if (now - c.last_processed_step >= config_.compress_after_epochs &&
            c.kl <= config_.kl_threshold) {
          out.push_back(c.slot);
        }
      }
      break;
    case CompressionMode::kKlRanked: {
      if (candidates.size() <= config_.max_active_objects) break;
      std::vector<CompressionCandidate> sorted = candidates;
      std::sort(sorted.begin(), sorted.end(),
                [](const CompressionCandidate& a, const CompressionCandidate& b) {
                  return a.kl < b.kl;
                });
      const size_t excess = candidates.size() - config_.max_active_objects;
      for (size_t i = 0; i < sorted.size() && out.size() < excess; ++i) {
        if (sorted[i].kl <= config_.kl_threshold) out.push_back(sorted[i].slot);
      }
      break;
    }
  }
  return out;
}

std::vector<uint32_t> CompressionPolicy::SelectForHibernation(
    int64_t now, const std::vector<HibernationCandidate>& candidates) const {
  std::vector<uint32_t> out;
  if (!hibernation_enabled()) return out;
  for (const auto& c : candidates) {
    if (c.last_observed_step < 0) continue;
    if (now - c.last_observed_step >= config_.hibernate_after_epochs) {
      out.push_back(c.slot);
    }
  }
  return out;
}

}  // namespace rfid
