// Policies for choosing which objects to compress (paper §IV-D).
//
// The paper offers two: (1) compress an object whenever its tag has not been
// read for several time steps (it has left the read range), and (2) rank
// uncompressed objects by the KL divergence of their compressed
// representation and compress those with the least compression error,
// optionally gated by a KL threshold. Both are provided.
//
// Below compression sits a third tier, hibernation: tags unseen for much
// longer collapse to the same Gaussian summary but are additionally removed
// from the per-epoch sweep — no negative-evidence updates, no compression
// re-fits — until their tag is read again or the negative evidence at their
// summary mean is strong (kHibernateNegEvidenceProb in factored_filter.cc).
// Compression trades accuracy for memory; hibernation trades
// responsiveness for epoch cost, making per-site cost proportional to
// *active* tags rather than tags ever seen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace rfid {

enum class CompressionMode {
  kDisabled,
  kUnseenEpochs,  ///< Compress after `compress_after_epochs` unprocessed epochs.
  kKlRanked,      ///< Keep at most `max_active_objects`; compress lowest-KL first.
};

struct CompressionPolicyConfig {
  CompressionMode mode = CompressionMode::kDisabled;
  /// kUnseenEpochs: epochs without processing before compression.
  int64_t compress_after_epochs = 8;
  /// Both modes: never compress when the compression error (the paper's KL
  /// in its expected-squared-error sense, sq feet) exceeds this.
  double kl_threshold = std::numeric_limits<double>::infinity();
  /// kKlRanked: active-object budget.
  size_t max_active_objects = 256;
  /// Idle-tag hibernation tier: objects whose tag has not been *read* for
  /// this many epochs collapse to a compact summary and leave the epoch
  /// sweep entirely. 0 disables hibernation. Works in every compression
  /// mode, including kDisabled (an active object hibernates directly,
  /// fitting its Gaussian at collapse time). Should be well above the
  /// compression threshold: compression is the cheap reversible tier,
  /// hibernation the deep one.
  int64_t hibernate_after_epochs = 0;
};

/// A compressible object as seen by the policy.
struct CompressionCandidate {
  uint32_t slot = 0;
  int64_t last_processed_step = -1;
  double kl = 0.0;  ///< Compression error (GaussianBelief::CompressionErrorFrom).
};

/// A hibernatable object as seen by the policy. Hibernation keys on the last
/// *read* (last_observed_step), not the last processing: negative-evidence
/// touches keep an object processed but say nothing about whether anyone
/// still cares where it is.
struct HibernationCandidate {
  uint32_t slot = 0;
  int64_t last_observed_step = -1;
};

/// Selects the slots to compress this epoch. Pure function of the candidate
/// list, so it is unit-testable in isolation from the filter.
class CompressionPolicy {
 public:
  explicit CompressionPolicy(const CompressionPolicyConfig& config)
      : config_(config) {}

  bool enabled() const { return config_.mode != CompressionMode::kDisabled; }
  bool hibernation_enabled() const {
    return config_.hibernate_after_epochs > 0;
  }
  const CompressionPolicyConfig& config() const { return config_; }

  /// `now` is the current epoch; `candidates` lists all active objects.
  std::vector<uint32_t> SelectForCompression(
      int64_t now, const std::vector<CompressionCandidate>& candidates) const;

  /// Slots whose tag has been unread for at least hibernate_after_epochs
  /// epochs at `now`; never-observed candidates (last_observed_step < 0) are
  /// skipped.
  std::vector<uint32_t> SelectForHibernation(
      int64_t now, const std::vector<HibernationCandidate>& candidates) const;

 private:
  CompressionPolicyConfig config_;
};

}  // namespace rfid
