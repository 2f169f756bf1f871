// Slow-epoch flight recorder: a bounded ring of recent per-epoch stage
// timing records plus a smaller ring of captured diagnostics.
//
// Each pipeline epoch appends one EpochStageTimings record. The recorder
// keeps an EWMA of total epoch time; an epoch slower than
// slow_multiple × EWMA (and above an absolute floor, so microsecond noise
// on idle sites doesn't trip it) captures a diagnostic: a snapshot of the
// recent-epoch ring with the trigger annotated. Quarantines and pipeline
// restarts capture the same way via CaptureDiagnostic(). DumpDiagnostics
// serializes everything as JSON into the post-mortem bundle.
//
// Single-writer: one recorder belongs to one SitePipeline and is fed only
// from the pipeline's consumer lane (same single-consumer contract as the
// pipeline itself). ToJson() runs only while the server is quiescent.
// Like SitePipeline, the recorder intentionally has no mutex and no
// thread-safety annotations — there is no lock discipline to check; the
// exclusion is the pump sweep's fork/join shard ownership.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rfid {
namespace obs {

/// Per-epoch stage breakdown, all durations in seconds.
struct EpochStageTimings {
  uint64_t step = 0;         // filter step index after this epoch
  double epoch_time = 0.0;   // stream time of the epoch boundary
  double total = 0.0;        // whole ProcessEpoch for this epoch
  double synchronize = 0.0;  // ingest-side Push/PollWatermark for the epoch
  double weight = 0.0;       // reader+object weighting phases
  double resample = 0.0;     // reader resampling
  double remap = 0.0;        // lazy-remap replay inside attachment sync
  double compress = 0.0;     // index + compression + hibernation
  double emit = 0.0;         // emitter OnEpoch
  double dispatch = 0.0;     // bus dispatch of the epoch's events
  uint32_t readings = 0;     // readings consumed by the epoch
  uint32_t events = 0;       // events emitted by the epoch
};

/// One captured post-mortem: the trigger plus the recent-epoch ring as it
/// stood at capture time (oldest first, the triggering epoch last when the
/// trigger was a slow epoch).
struct FlightDiagnostic {
  uint64_t sequence = 0;     // capture order within this recorder
  std::string trigger;       // "slow_epoch", "quarantine", "restart", ...
  double ewma_at_capture = 0.0;
  std::vector<EpochStageTimings> recent;
};

class FlightRecorder {
 public:
  struct Config {
    size_t ring_capacity = 128;      // recent-epoch ring
    size_t diagnostic_capacity = 16; // captured diagnostics ring
    double slow_multiple = 4.0;      // slow if total > multiple * EWMA
    double min_slow_seconds = 1e-3;  // absolute floor for the slow trigger
    double ewma_alpha = 0.1;
  };

  explicit FlightRecorder(const Config& config);

  /// Appends one epoch record; fires a "slow_epoch" capture if it trips
  /// the threshold. Returns true if a capture fired.
  bool RecordEpoch(const EpochStageTimings& timings);

  /// Snapshots the recent ring into a new diagnostic (for quarantine,
  /// restart, or any external trigger).
  void CaptureDiagnostic(const std::string& trigger);

  double Ewma() const { return ewma_; }
  uint64_t epochs_recorded() const { return epochs_recorded_; }
  uint64_t captures() const { return next_sequence_; }
  const std::vector<FlightDiagnostic>& diagnostics() const {
    return diagnostics_;
  }

  /// Recent ring, oldest first.
  std::vector<EpochStageTimings> RecentEpochs() const;

  /// {"ewma":..., "epochs":..., "recent":[...], "diagnostics":[...]}
  std::string ToJson() const;

 private:
  Config config_;
  std::vector<EpochStageTimings> ring_;  // ring_capacity slots
  uint64_t ring_head_ = 0;               // total epochs ever recorded
  uint64_t epochs_recorded_ = 0;
  double ewma_ = 0.0;
  bool ewma_seeded_ = false;
  uint64_t next_sequence_ = 0;
  std::vector<FlightDiagnostic> diagnostics_;  // bounded FIFO
};

}  // namespace obs
}  // namespace rfid
