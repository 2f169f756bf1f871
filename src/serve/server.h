// Sharded streaming server: the runtime that turns the single-stream
// inference engine into a multi-site serving system.
//
//               Ingest(site, record)            [any thread]
//                        |
//                   ShardRouter                  site -> shard, stable
//                        |
//        +---------------+---------------+
//   IngestQueue 0   IngestQueue 1   IngestQueue N-1    bounded MPSC,
//        |               |               |             backpressure
//        +---------------+---------------+
//                        |
//        pump, serial:   PopBatch per shard;
//                        each record joins its site's list
//                        |
//        pump, parallel: ThreadPool::ParallelForDynamic over the
//                        sites with records, one site per chunk
//                        |
//        SitePipeline (per site): StreamSynchronizer (watermark
//        admission) -> RfidInferenceEngine -> SubscriptionBus
//
// Threading model. Producers call Ingest() freely; records land in the
// target shard's bounded queue (blocking on overflow by default — the
// backpressure shows up in queue stats). Processing happens in "pumps": one
// sweep that first pops every shard's queue on the pumping thread, handing
// each record to its site in pop order, then fans the sites that received
// records across the existing ThreadPool — each site is one stolen chunk, so
// a lane that finishes a light site takes the next instead of idling behind
// a heavy one, whichever shards the two hash to. Exactly one pump runs at a
// time (pump_mu_), shard state is touched only in the serial phase, and
// within a sweep a site's records run in pop order on exactly one lane
// (which lane is timing-dependent; the per-site work is not), so pipelines
// need no locks and every site's event stream is deterministic regardless
// of thread count.
//
// Two driving modes:
//  * Start()/Stop(): a driver thread pumps whenever records arrive — the
//    serving deployment mode.
//  * Pump() called by the owner — the deterministic inline mode used by
//    replay tooling and the checkpoint tests.
//
// Checkpoint(dir) drains the queues, then writes one file per site with the
// complete resume state (belief + RNG + emitter + synchronizer). Restore(dir)
// into a freshly built server with the same configs and models resumes
// bit-identically: feeding the records not yet processed at checkpoint time
// yields exactly the events the uninterrupted run would have produced.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "serve/ingest_queue.h"
#include "serve/record.h"
#include "serve/serve_stats.h"
#include "serve/shard_router.h"
#include "serve/site_pipeline.h"
#include "serve/subscription_bus.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace rfid {

struct ServeConfig {
  int num_shards = 2;
  /// Worker-pool width for the pump sweep (1 = everything on the pumping
  /// thread). Sites with records are claimed dynamically, one per task;
  /// per-site results are identical at any width (a site's records run in
  /// pop order on exactly one lane per sweep).
  int num_threads = 1;
  size_t queue_capacity = 1024;   ///< Per-shard ingest queue bound.
  size_t pump_batch = 256;        ///< Max records drained per shard per pump.
  /// Full queue: true = Ingest blocks (backpressure), false = drop + count.
  bool block_when_full = true;

  double epoch_seconds = 1.0;
  /// Out-of-order admission slack per site stream (see synchronizer.h).
  double max_lateness_seconds = 2.0;

  /// Template for every site's engine. Seeds are decorrelated per site
  /// (seed ^ splitmix64(site)); the filter must be the factored one.
  EngineConfig engine;

  /// Per-site slow-epoch flight recorder tuning (ring sizes, EWMA slow
  /// threshold); applied to every site's pipeline.
  obs::FlightRecorder::Config flight;

  /// Explicit site-to-shard pins, applied before the hash route (e.g. to
  /// isolate one very hot site on its own shard). Out-of-range shards fail
  /// Create(). Pins must be part of the config — routing happens once at
  /// construction, so a pin added later could not take effect.
  struct SitePin {
    SiteId site = 0;
    int shard = 0;
  };
  std::vector<SitePin> shard_pins;

  /// Failure isolation and recovery policy (see "Failure model & recovery"
  /// in the README). A site pipeline that throws during a pump sweep is
  /// marked failed and auto-restored from the last-good checkpoint; after
  /// `max_restarts` recoveries it is parked (records dropped and counted)
  /// instead of crash-looping the server.
  struct RecoveryConfig {
    int max_restarts = 3;
    /// Checkpoint save attempts per site (transient IO failures retried
    /// with doubling backoff; see CheckpointWriteOptions).
    int checkpoint_max_attempts = 3;
    double checkpoint_backoff_ms = 1.0;
    /// Per-site dead-letter ring capacity (quarantined records retained).
    size_t dead_letter_capacity = 32;
  };
  RecoveryConfig recovery;
};

/// One site to serve: its id plus the world model its engine runs.
struct SiteSpec {
  SiteId site = 0;
  WorldModel model;
};

class StreamingServer {
 public:
  static Result<std::unique_ptr<StreamingServer>> Create(
      std::vector<SiteSpec> sites, const ServeConfig& config);
  ~StreamingServer();

  StreamingServer(const StreamingServer&) = delete;
  StreamingServer& operator=(const StreamingServer&) = delete;

  SubscriptionBus& bus() { return bus_; }
  const ShardRouter& router() const { return router_; }
  const ServeConfig& config() const { return config_; }

  /// Thread-safe ingest. Returns false when the record was dropped (unknown
  /// site, queue full in drop mode, or server shutting down).
  bool Ingest(const ServeRecord& record);
  bool Ingest(SiteId site, const TagReading& reading) {
    return Ingest(ServeRecord::Reading(site, reading));
  }
  bool Ingest(SiteId site, const ReaderLocationReport& report) {
    return Ingest(ServeRecord::Location(site, report));
  }

  /// Spawns the driver thread (reopening the ingest queues if a previous
  /// Stop() closed them). Idempotent while running; safe to race Stop()
  /// from another thread (lifecycle transitions are serialized).
  void Start();
  /// Drains outstanding records, stops the driver and closes the ingest
  /// queues so late producers fail fast instead of queueing into a server
  /// nobody pumps. Idempotent; the destructor calls it; Start() restarts.
  void Stop();

  /// Inline mode: drains every shard queue to empty on the calling thread
  /// (still fanning across the pool). Returns records processed. Must not
  /// race Start()/Stop(); used when the owner drives the server directly.
  size_t Pump();

  /// End of stream: closes every site's pending epochs and dispatches the
  /// tail events. Call after the queues are drained (Stop() or Pump()).
  void Flush();

  /// Drains the queues, then runs the generation-manifest save protocol
  /// (write -> verify -> advance, see serve/checkpoint.h) for every
  /// non-parked site into `dir` (created if missing). A site whose save
  /// fails keeps its last-good generation; the other sites still advance.
  /// For a clean cut, quiesce producers first.
  Status Checkpoint(const std::string& dir);
  /// Restores every site from `dir` (current generation, falling back one).
  /// Sites load on the pump lanes, one site per chunk as in a pump sweep.
  /// Every site is attempted even when one fails, and the first failure in
  /// site order is returned: a site whose load failed keeps its state, the
  /// others are restored, and `dir` becomes the auto-recovery source only
  /// when every site loaded. Safe on a freshly created server (same site
  /// specs and config) before any ingest, and on a live one: each restored
  /// site's operator state on the bus is reset so live subscriptions
  /// re-register cleanly against the restored stream.
  Status Restore(const std::string& dir);

  ServerStatsSnapshot Stats() const;
  std::string StatsJson() const { return Stats().ToJson(); }

  /// The server-owned metrics registry every queue, pipeline and checkpoint
  /// instrument registers into (isolated per server: two servers in one
  /// process never mix counters).
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Prometheus text-format scrape of the registry. Safe any time.
  std::string MetricsPrometheus() const { return metrics_->RenderPrometheus(); }
  /// JSON rendering of the registry. Safe any time.
  std::string MetricsJson() const { return metrics_->RenderJson(); }

  /// Writes a post-mortem bundle into `dir` (created if missing):
  ///   metrics.prom / metrics.json   registry scrape in both formats
  ///   trace.json                    Chrome/Perfetto trace of the span rings
  ///   stats.json                    full ServerStatsSnapshot
  ///   flight.json                   per-site flight-recorder rings and
  ///                                 captured slow/quarantine diagnostics
  ///   dead_letter_site_<id>.bin     CRC-framed spill of each non-empty
  ///                                 dead-letter ring (serve/diagnostics.h)
  /// Excludes a concurrent pump, so the bundle is a consistent cut.
  Status DumpDiagnostics(const std::string& dir);

  /// One site's pipeline (introspection: estimates, per-site stats);
  /// nullptr for unknown sites. Do not call while a pump may be running.
  const SitePipeline* FindSite(SiteId site) const;

  /// Un-parks a site and, when a checkpoint directory is known and holds
  /// data for the site, restores it from the last-good generation first (a
  /// site parked before its first successful save revives with its current
  /// state). Resets the restart budget — an operator reviving a site is
  /// declaring the underlying cause fixed.
  Status ReviveSite(SiteId site);

 private:
  /// Per-site failure-handling state, owned by the server (the pipeline
  /// itself has no notion of failure). Only the lane running the site
  /// mutates an entry during a pump; the map's shape is fixed at
  /// construction.
  struct SiteHealth {
    uint64_t failures = 0;
    uint64_t recoveries = 0;
    uint64_t records_dropped_parked = 0;
    bool parked = false;
    std::string park_reason;
  };

  /// One site's share of a pump sweep: the serial phase appends each popped
  /// record to its site's list, the parallel phase runs the list on one lane.
  struct SiteWork {
    SitePipeline* pipeline = nullptr;
    /// This sweep's records, in pop order. They point into the owning
    /// shard's batch, which nothing writes until the next sweep's pop.
    std::vector<const ServeRecord*> records;
  };

  struct Shard {
    std::unique_ptr<IngestQueue> queue;
    std::vector<SitePipeline*> sites;  ///< Pipelines routed to this shard.
    /// Sweep slots of the shard's sites (fixed at construction; Ingest reads
    /// it from any thread to reject unknown sites).
    std::unordered_map<SiteId, SiteWork*> site_lookup;
    std::vector<ServeRecord> batch;    ///< Pop scratch, reused per pump.
  };

  StreamingServer(std::vector<std::unique_ptr<SitePipeline>> pipelines,
                  const ServeConfig& config,
                  std::unique_ptr<obs::MetricsRegistry> metrics);

  /// One sweep over all shards; caller holds pump_mu_. Returns records
  /// popped.
  size_t PumpOnce() RFID_REQUIRES(pump_mu_);
  /// The sweep's serial phase for one shard: the pop, each record joining
  /// its site's list (and the site joining ready_ with its first record).
  /// Returns records popped.
  size_t PopShard(Shard& shard) RFID_REQUIRES(pump_mu_);
  /// Snapshot assembly; caller holds pump_mu_ (Stats() takes it, while
  /// DumpDiagnostics reuses this under its own hold — re-locking would
  /// deadlock).
  ServerStatsSnapshot StatsLocked() const RFID_REQUIRES(pump_mu_);
  void DriverLoop();
  void NotifyWork() RFID_EXCLUDES(wake_mu_);

  // SAFETY (no thread-safety analysis): RunSite runs on pool lanes while the
  // thread inside PumpOnce holds pump_mu_, which the analysis cannot see
  // from a lane's frame. The discipline is a fork/join ownership handoff:
  // shard state is touched only in the serial phase before the fan-out; a
  // site is one ParallelForDynamic chunk, so one lane runs its records; that
  // lane touches only the site's pipeline and health_ entry (the map's shape
  // is fixed at construction) and reads its records from a shard batch no
  // one writes until the next pop; the pool's barrier plus pump_mu_ order
  // every access across sweeps.
  /// The sweep's parallel phase for one site: its records in pop order, each
  /// through the parked check, OnRecord and failure containment.
  void RunSite(SiteWork& work) RFID_NO_THREAD_SAFETY_ANALYSIS;

  // SAFETY (no thread-safety analysis): called from RunSite on the lane
  // running the failed site, under the same fork/join handoff (or from
  // Flush on the thread holding pump_mu_) — it mutates only that site's
  // health_ entry and reads last_checkpoint_dir_, which is written only
  // under pump_mu_ while no sweep is in flight.
  /// Blast-radius containment for a pipeline that threw mid-sweep: restore
  /// it from the last-good checkpoint, or park it when the restart budget
  /// is exhausted (or there is nothing to restore from). Runs on the lane
  /// running the site; touches only that site's state.
  void HandleSiteFailure(SitePipeline* pipeline, const char* what)
      RFID_NO_THREAD_SAFETY_ANALYSIS;

  ServeConfig config_;
  /// Owned registry; created in Create() before the pipelines so their
  /// instruments can register into it, then moved here for lifetime.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  ShardRouter router_;
  std::vector<std::unique_ptr<SitePipeline>> pipelines_;
  std::vector<Shard> shards_;
  /// One per pipeline, index-aligned with pipelines_ and sized at
  /// construction (Shard::site_lookup points into it).
  std::vector<SiteWork> site_work_;
  /// Sites that received records in the current sweep's serial phase, in
  /// the order of their first record; the parallel phase's work list.
  std::vector<SiteWork*> ready_;
  SubscriptionBus bus_;
  ThreadPool pool_;

  /// Serializes pump sweeps vs checkpoint/flush/stats (mutable: Stats() is
  /// logically const but must exclude a concurrent pump). Lanes inside a
  /// sweep access the guarded members without holding it — see the SAFETY
  /// notes on RunSite/HandleSiteFailure.
  mutable Mutex pump_mu_;

  /// One entry per site, created at construction (each lane mutates only
  /// the entry of the site it runs; the map itself is never reshaped).
  std::unordered_map<SiteId, SiteHealth> health_ RFID_GUARDED_BY(pump_mu_);
  /// Last directory a checkpoint was written to or restored from — where
  /// auto-recovery looks for the last-good generation (written by
  /// Checkpoint/Restore, read during pump sweeps).
  std::string last_checkpoint_dir_ RFID_GUARDED_BY(pump_mu_);
  // --- Telemetry handles, resolved once at construction (see obs/metrics.h;
  // Counter::Add is a relaxed fetch_add, safe from concurrent pump lanes).
  // The checkpoint counters replace what used to be raw atomics here: same
  // semantics (monotonic since construction), now scrapeable. ---
  obs::Counter* checkpoints_saved_c_ = nullptr;
  obs::Counter* checkpoint_failures_c_ = nullptr;
  obs::Counter* checkpoint_retries_c_ = nullptr;
  obs::Counter* checkpoint_fallback_loads_c_ = nullptr;
  obs::Counter* checkpoint_skipped_parked_c_ = nullptr;
  obs::Counter* site_failures_c_ = nullptr;
  obs::Counter* site_recoveries_c_ = nullptr;
  obs::Counter* site_parked_c_ = nullptr;
  obs::Counter* pump_records_c_ = nullptr;
  obs::Histogram* pump_sweep_h_ = nullptr;
  obs::Histogram* checkpoint_load_h_ = nullptr;

  /// Serializes Start()/Stop() against each other: both touch driver_ (a
  /// plain std::thread member), so two threads racing a start against a
  /// stop could assign and join the handle concurrently. The lifecycle lock
  /// nests outside wake_mu_ and pump_mu_ and is never taken by the driver
  /// itself.
  Mutex lifecycle_mu_;
  std::thread driver_ RFID_GUARDED_BY(lifecycle_mu_);
  std::atomic<bool> running_{false};
  Mutex wake_mu_;
  CondVar wake_cv_;
  bool work_pending_ RFID_GUARDED_BY(wake_mu_) = false;
  /// Lock-free gate in front of the wakeup mutex: producers only take
  /// wake_mu_ on the false->true transition, so the hot ingest path costs
  /// one atomic exchange per record instead of a mutex round-trip. The
  /// driver clears it before draining; a record pushed after the clear
  /// re-arms the notification.
  std::atomic<bool> wake_hint_{false};
};

}  // namespace rfid
