// Epoch synchronization of the two raw streams (paper §II-A): RFID readings
// produced within one epoch share the epoch's time step, and multiple
// location reports within an epoch are averaged into a single update.
//
// Records are pushed one at a time and may arrive out of order as long as
// they are no more than max_lateness_seconds behind the newest record seen
// so far. The watermark (newest time - lateness bound) drives epoch
// completion: PollWatermark() closes every epoch that ends at or before the
// watermark, and a record targeting an already-closed epoch is dropped and
// counted instead of failing the stream. This is the contract of the
// serving runtime (src/serve/), where per-site streams from the network are
// only approximately ordered. Offline replay pushes both streams in time
// order and calls Finish() at the end.
#pragma once

#include <cmath>
#include <iosfwd>
#include <vector>

#include "stream/readings.h"
#include "util/status.h"

namespace rfid {

struct SynchronizerConfig {
  double epoch_seconds = 1.0;
  /// Bounded out-of-order admission: records more than this many seconds
  /// behind the newest seen are dropped (counted in dropped_late_records())
  /// instead of failing the stream. 0 admits records in time order only.
  double max_lateness_seconds = 0.0;
};

class StreamSynchronizer {
 public:
  /// A non-positive epoch length becomes 1 s, a negative lateness 0.
  explicit StreamSynchronizer(const SynchronizerConfig& config = {});

  /// Feeds one record; completed epochs become available via
  /// PollWatermark(). Returns false when the record was dropped: late, not
  /// finite, or so far from time 0 that its epoch index would leave the
  /// range the synchronizer can count in.
  bool Push(const TagReading& reading);
  bool Push(const ReaderLocationReport& report);
  /// Closes every epoch ending at or before the current watermark,
  /// synthesizing empty epochs for index gaps so the consumer sees a
  /// contiguous step sequence (the filter must advance time through quiet
  /// epochs). One quiet gap synthesizes at most 100,000 empty epochs: a
  /// single record with a corrupt far-future clock would otherwise make
  /// this materialize billions of them (and run the filter over each), so
  /// beyond that the synchronizer declares a discontinuity, skips ahead
  /// (counting the skipped epochs in skipped_gap_epochs()) and emits only
  /// the trailing window. Non-empty pending epochs are always emitted.
  std::vector<SyncedEpoch> PollWatermark();
  /// Flushes the remaining partial epochs (end of stream), filling gaps
  /// from the last closed epoch under the same discontinuity cap.
  std::vector<SyncedEpoch> Finish();

  double epoch_seconds() const { return config_.epoch_seconds; }
  /// Newest record time seen minus the lateness bound (-inf before the
  /// first record).
  double watermark() const;
  /// Records dropped because their epoch had already been closed, they were
  /// beyond the lateness bound, or their time was not admissible.
  uint64_t dropped_late_records() const { return dropped_late_records_; }
  /// Empty epochs skipped over discontinuities.
  uint64_t skipped_gap_epochs() const { return skipped_gap_epochs_; }

  // --- Checkpointing (serving runtime) ---
  /// Serializes the in-flight state (pending epochs, watermark bookkeeping,
  /// drop counter). The config is NOT serialized: the caller reconstructs
  /// the synchronizer with the same config before restoring.
  void SaveState(std::ostream& os) const;
  /// Restores a SaveState image, rejecting any state admission under this
  /// config could not have produced.
  Status LoadState(std::istream& is);

 private:
  struct PendingEpoch {
    int64_t index = 0;
    std::vector<TagId> tags;
    Vec3 location_sum;
    int location_count = 0;
    double heading_sin_sum = 0.0;
    double heading_cos_sum = 0.0;
    int heading_count = 0;
  };

  /// Defined for admitted times only (AdmissibleTime): their index fits
  /// int64_t with room for differences.
  int64_t EpochIndex(double time) const {
    return static_cast<int64_t>(std::floor(time / config_.epoch_seconds));
  }
  PendingEpoch& Pending(int64_t index);
  SyncedEpoch Close(PendingEpoch&& pending) const;
  SyncedEpoch EmptyEpoch(int64_t index) const;
  /// True when `time` is finite and its epoch index lies within the
  /// admission bound.
  bool AdmissibleTime(double time) const;
  /// Admission check; counts and reports drops.
  bool Admit(double time);

  SynchronizerConfig config_;
  std::vector<PendingEpoch> pending_;  ///< Sorted by epoch index.

  bool any_seen_ = false;
  double max_seen_time_ = 0.0;
  bool any_closed_ = false;
  int64_t highest_closed_ = 0;  ///< Valid when any_closed_.
  uint64_t dropped_late_records_ = 0;
  uint64_t skipped_gap_epochs_ = 0;
};

}  // namespace rfid
