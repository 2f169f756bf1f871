// One site's end-to-end inference pipeline inside the serving runtime:
// bounded-lateness StreamSynchronizer -> RfidInferenceEngine -> bus.
//
// A pipeline is single-consumer: exactly one lane feeds it per pump sweep
// (the ShardRouter lands a site's records on one shard, the sweep pops that
// shard on the pumping thread, and hands the site's records, in pop order,
// to one lane), so the pipeline itself needs no locking — and deliberately
// carries no thread-safety capabilities: the ownership handoff lives in the
// server's pump sweep (see the SAFETY notes on StreamingServer::RunSite), not
// in any mutex the analysis could check here. Epoch completion is
// watermark-driven: a record only advances the engine once the site's
// watermark (newest record time minus the lateness bound) passes the end of
// an epoch, and epochs close contiguously — quiet gaps synthesize empty
// epochs so the filter keeps aging beliefs through them.
//
// Checkpointing captures the complete resume state: synchronizer pending
// epochs and watermark bookkeeping, the filter belief + RNG (pf/snapshot.h),
// the emitter's scope/work-list state, and the engine counters. Restoring
// into a freshly built pipeline with the same config and feeding the same
// remaining records reproduces the uninterrupted run's events bit for bit.
// The v4 layout keeps two reserved areas, written as zeros and rejected on
// load when not: an 8-byte slot in the header section and the whole
// 35-byte second section, which held a mid-stream scan-boundary detector's
// state (see kVersion in site_pipeline.cc).
#pragma once

#include <deque>
#include <iosfwd>
#include <memory>

#include "core/engine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/record.h"
#include "serve/subscription_bus.h"
#include "stream/synchronizer.h"
#include "util/status.h"

namespace rfid {

struct SitePipelineConfig {
  double epoch_seconds = 1.0;
  /// Out-of-order admission slack; records older than the site's newest
  /// record by more than this are dropped and counted, never processed.
  /// Must be non-negative (a negative bound is rejected here rather than
  /// clamped to 0 by the synchronizer).
  double max_lateness_seconds = 2.0;
  /// Most recent quarantined records retained for inspection (the ring is
  /// diagnostic state: counted forever, contents bounded, not checkpointed).
  size_t dead_letter_capacity = 32;
  EngineConfig engine;
  /// Slow-epoch flight recorder tuning (ring sizes, EWMA slow threshold).
  obs::FlightRecorder::Config flight;
  /// Metrics registry the pipeline's stage histograms and counters register
  /// into; nullptr uses the process-wide obs::MetricsRegistry::Default().
  /// Must outlive the pipeline.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One quarantined record: kept out of the pipeline, never crashed on.
struct DeadLetterEntry {
  ServeRecord record;
  /// Static string naming why the record was rejected.
  const char* reason = "";
  /// 0-based index among the site's quarantined records (total order even
  /// after older entries rotate out of the ring).
  uint64_t sequence = 0;
};

/// Counters exported per site (see serve_stats.h for the aggregate form).
struct SitePipelineStats {
  SiteId site = 0;
  uint64_t records_processed = 0;
  uint64_t records_dropped_late = 0;
  uint64_t events_dispatched = 0;
  /// Scan-complete flushes dispatched (kOnScanComplete emitter policy).
  uint64_t scan_completes = 0;
  /// Malformed / fault-injected records diverted to the dead-letter ring.
  uint64_t records_quarantined = 0;
  /// Epochs the flight recorder flagged as slow (total > slow_multiple x
  /// EWMA). Telemetry: counts only while obs::TelemetryEnabled().
  uint64_t slow_epochs = 0;
  /// Dead-letter entries currently retained (<= dead_letter_capacity).
  size_t dead_letter_size = 0;
  // --- Site health, filled in by the StreamingServer (the pipeline itself
  // has no notion of failure handling; see server.h) ---
  uint64_t pipeline_failures = 0;
  uint64_t recoveries = 0;
  uint64_t records_dropped_parked = 0;
  bool parked = false;
  std::string park_reason;
  double watermark = 0.0;
  EngineStats engine;
  /// Factored-filter belief tiers, the signal behind adaptive scheduling.
  size_t active_objects = 0;
  size_t compressed_objects = 0;
  size_t hibernated_objects = 0;
  size_t filter_memory_bytes = 0;
};

class SitePipeline {
 public:
  /// Requires a factored-filter engine config (checkpointing serializes the
  /// factored filter's belief state).
  static Result<std::unique_ptr<SitePipeline>> Create(
      SiteId site, WorldModel model, const SitePipelineConfig& config);

  SiteId site() const { return site_; }

  /// Feeds one record; runs the engine over every epoch the watermark
  /// closed and dispatches fresh events to `bus`. Malformed records
  /// (unknown kinds; non-finite timestamps, locations or headings) and
  /// records hit by the kRecordDecode fault point are quarantined to the
  /// dead-letter ring — one bad record can never abort the pump sweep.
  /// May throw (engine faults, kPipelineStep injection); the server
  /// isolates that.
  void OnRecord(const ServeRecord& record, SubscriptionBus* bus);

  /// Most recent quarantined records, oldest first (bounded ring).
  const std::deque<DeadLetterEntry>& DeadLetters() const {
    return dead_letters_;
  }

  /// Slow-epoch flight recorder (recent per-epoch stage timings plus
  /// captured diagnostics). Single-writer like the pipeline itself.
  const obs::FlightRecorder& flight() const { return *flight_; }

  /// Captures a "restart" flight diagnostic; the server calls this after
  /// restoring the pipeline from a checkpoint mid-failure, so the bundle
  /// shows what the epochs before the crash looked like.
  void NotePipelineRestart() { flight_->CaptureDiagnostic("restart"); }

  /// End of stream: closes all pending epochs and processes them. With the
  /// kOnScanComplete emitter policy this is also the scan boundary — the
  /// engine's scan-complete events are dispatched to `bus` here (timed at
  /// the last closed epoch), which is what makes that policy observable
  /// through the serving path at all.
  void Flush(SubscriptionBus* bus);

  SitePipelineStats Stats() const;
  const RfidInferenceEngine& engine() const { return *engine_; }

  /// Serializes full resume state. The config and world model are NOT
  /// serialized — rebuild the pipeline with the same ones, then load.
  Status SaveCheckpoint(std::ostream& os) const;
  Status LoadCheckpoint(std::istream& is);

 private:
  SitePipeline(SiteId site, const SitePipelineConfig& config,
               std::unique_ptr<RfidInferenceEngine> engine);

  void ProcessEpochs(std::vector<SyncedEpoch> epochs, SubscriptionBus* bus);
  void Quarantine(const ServeRecord& record, const char* reason);
  /// Feeds one processed epoch's stage split into the histograms and the
  /// flight recorder (telemetry on only).
  void RecordEpochTelemetry(const SyncedEpoch& epoch, uint64_t start_ns,
                            uint64_t dispatch_ns, size_t events);

  SiteId site_;
  SitePipelineConfig config_;
  StreamSynchronizer sync_;
  std::unique_ptr<RfidInferenceEngine> engine_;
  /// The engine's filter, resolved once at construction: Create() admits
  /// only factored engines.
  FactoredParticleFilter* filter_;
  std::vector<LocationEvent> event_scratch_;
  uint64_t records_processed_ = 0;
  uint64_t events_dispatched_ = 0;
  uint64_t scan_completes_ = 0;
  uint64_t records_quarantined_ = 0;
  std::deque<DeadLetterEntry> dead_letters_;
  /// Time of the newest closed epoch — the timestamp scan-complete events
  /// carry. Part of the checkpoint (event times must replay identically).
  double last_epoch_time_ = 0.0;
  /// True once epochs closed since the last scan-complete flush, so a
  /// repeated Flush() cannot re-emit the same scan.
  bool epochs_since_scan_ = false;
  // --- Telemetry (handles resolved once in the ctor; all writes are
  // relaxed stores — see obs/metrics.h). None of it is checkpointed. ---
  std::unique_ptr<obs::FlightRecorder> flight_;
  uint64_t slow_epochs_ = 0;
  /// Synchronizer time (Push + PollWatermark) accumulated since the last
  /// closed epoch; attributed to the next epoch's `synchronize` stage.
  uint64_t pending_sync_ns_ = 0;
  obs::Histogram* epoch_h_ = nullptr;
  obs::Histogram* stage_sync_h_ = nullptr;
  obs::Histogram* stage_weight_h_ = nullptr;
  obs::Histogram* stage_resample_h_ = nullptr;
  obs::Histogram* stage_remap_h_ = nullptr;
  obs::Histogram* stage_compress_h_ = nullptr;
  obs::Histogram* stage_emit_h_ = nullptr;
  obs::Histogram* stage_dispatch_h_ = nullptr;
  obs::Counter* records_c_ = nullptr;
  obs::Counter* events_c_ = nullptr;
  obs::Counter* quarantined_c_ = nullptr;
  obs::Counter* slow_epochs_c_ = nullptr;
};

/// Reads a site checkpoint's magic and version from `is` and checks the
/// version lies in the load window (v3–v4), leaving `is` at the first
/// framed section. The one header check behind both
/// SitePipeline::LoadCheckpoint and VerifySiteCheckpointFile, so a file
/// the verifier passes is one the loader accepts.
Status ReadSiteCheckpointHeader(std::istream& is, uint32_t* version);

}  // namespace rfid
