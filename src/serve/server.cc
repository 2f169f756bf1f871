#include "serve/server.h"

#include <filesystem>
#include <fstream>

#include "obs/trace.h"
#include "serve/checkpoint.h"
#include "serve/diagnostics.h"
#include "util/fault.h"
#include "util/rng.h"

namespace rfid {

namespace {

/// The server's own settings. The per-site ones (epoch length, lateness,
/// engine) are SitePipeline::Create's to check; Create returns its status.
Status ValidateConfig(const ServeConfig& config, size_t num_sites) {
  if (num_sites == 0) return Status::Invalid("server needs at least one site");
  if (config.num_shards < 1) {
    return Status::Invalid("num_shards must be >= 1");
  }
  if (config.num_threads < 1) {
    return Status::Invalid("num_threads must be >= 1");
  }
  if (config.queue_capacity == 0) {
    return Status::Invalid("queue_capacity must be positive");
  }
  if (config.pump_batch == 0) {
    return Status::Invalid("pump_batch must be positive");
  }
  for (const auto& pin : config.shard_pins) {
    if (pin.shard < 0 || pin.shard >= config.num_shards) {
      return Status::Invalid("shard pin for site " +
                             std::to_string(pin.site) +
                             " targets out-of-range shard " +
                             std::to_string(pin.shard));
    }
  }
  if (config.recovery.max_restarts < 0) {
    return Status::Invalid("recovery.max_restarts must be non-negative");
  }
  if (config.recovery.checkpoint_max_attempts < 1) {
    return Status::Invalid("recovery.checkpoint_max_attempts must be >= 1");
  }
  if (config.recovery.checkpoint_backoff_ms < 0) {
    return Status::Invalid("recovery.checkpoint_backoff_ms must be >= 0");
  }
  return Status::OK();
}

}  // namespace

StreamingServer::StreamingServer(
    std::vector<std::unique_ptr<SitePipeline>> pipelines,
    const ServeConfig& config, std::unique_ptr<obs::MetricsRegistry> metrics)
    : config_(config),
      metrics_(std::move(metrics)),
      router_(config.num_shards),
      pipelines_(std::move(pipelines)),
      pool_(config.num_threads) {
  checkpoints_saved_c_ = metrics_->GetCounter("rfid_checkpoint_saved_total");
  checkpoint_failures_c_ =
      metrics_->GetCounter("rfid_checkpoint_failures_total");
  checkpoint_retries_c_ = metrics_->GetCounter("rfid_checkpoint_retries_total");
  checkpoint_fallback_loads_c_ =
      metrics_->GetCounter("rfid_checkpoint_fallback_loads_total");
  checkpoint_skipped_parked_c_ =
      metrics_->GetCounter("rfid_checkpoint_skipped_parked_total");
  site_failures_c_ = metrics_->GetCounter("rfid_site_failures_total");
  site_recoveries_c_ = metrics_->GetCounter("rfid_site_recoveries_total");
  site_parked_c_ = metrics_->GetCounter("rfid_site_parked_total");
  pump_records_c_ = metrics_->GetCounter("rfid_pump_records_total");
  pump_sweep_h_ = metrics_->GetHistogram("rfid_pump_sweep_seconds");
  checkpoint_load_h_ =
      metrics_->GetHistogram("rfid_checkpoint_seconds", "op=\"load\"");
  // Pins must land before pipelines are bucketed into shards: routing is
  // resolved exactly once, here.
  for (const auto& pin : config_.shard_pins) router_.Pin(pin.site, pin.shard);
  shards_.resize(static_cast<size_t>(config_.num_shards));
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    shard.queue = std::make_unique<IngestQueue>(config_.queue_capacity);
    shard.queue->BindMetrics(metrics_.get(), static_cast<int>(s));
  }
  site_work_.resize(pipelines_.size());
  ready_.reserve(pipelines_.size());
  for (size_t i = 0; i < pipelines_.size(); ++i) {
    SitePipeline* pipeline = pipelines_[i].get();
    Shard& shard =
        shards_[static_cast<size_t>(router_.ShardOf(pipeline->site()))];
    site_work_[i].pipeline = pipeline;
    shard.sites.push_back(pipeline);
    shard.site_lookup[pipeline->site()] = &site_work_[i];
    // The health map's shape is fixed here; pump lanes mutate the entries
    // of the sites they run only, so no further synchronization is needed.
    health_.emplace(pipeline->site(), SiteHealth{});
  }
}

Result<std::unique_ptr<StreamingServer>> StreamingServer::Create(
    std::vector<SiteSpec> sites, const ServeConfig& config) {
  RFID_RETURN_NOT_OK(ValidateConfig(config, sites.size()));

  // The registry must exist before the pipelines: each pipeline resolves
  // its stage-histogram handles at construction.
  auto metrics = std::make_unique<obs::MetricsRegistry>();

  SitePipelineConfig pipeline_config;
  pipeline_config.epoch_seconds = config.epoch_seconds;
  pipeline_config.max_lateness_seconds = config.max_lateness_seconds;
  pipeline_config.dead_letter_capacity = config.recovery.dead_letter_capacity;
  pipeline_config.engine = config.engine;
  pipeline_config.flight = config.flight;
  pipeline_config.metrics = metrics.get();

  std::vector<std::unique_ptr<SitePipeline>> pipelines;
  pipelines.reserve(sites.size());
  for (auto& spec : sites) {
    for (const auto& existing : pipelines) {
      if (existing->site() == spec.site) {
        return Status::Invalid("duplicate site id " +
                               std::to_string(spec.site));
      }
    }
    // Decorrelate the per-site filter seeds so shards do not replay the
    // same particle noise; the mix is a pure function of (seed, site), so
    // a rebuilt server restores onto identical streams.
    SitePipelineConfig site_config = pipeline_config;
    uint64_t mix = spec.site;
    site_config.engine.factored.seed =
        config.engine.factored.seed ^ SplitMix64(mix);
    auto pipeline =
        SitePipeline::Create(spec.site, std::move(spec.model), site_config);
    if (!pipeline.ok()) return pipeline.status();
    pipelines.push_back(std::move(pipeline).value());
  }
  return std::unique_ptr<StreamingServer>(new StreamingServer(
      std::move(pipelines), config, std::move(metrics)));
}

StreamingServer::~StreamingServer() { Stop(); }

bool StreamingServer::Ingest(const ServeRecord& record) {
  Shard& shard = shards_[static_cast<size_t>(router_.ShardOf(record.site))];
  if (shard.site_lookup.find(record.site) == shard.site_lookup.end()) {
    return false;  // Unknown site.
  }
  const bool accepted = config_.block_when_full
                            ? shard.queue->Push(record)
                            : shard.queue->TryPush(record);
  // Only the producer that flips the hint pays the mutex+notify; everyone
  // else rides the wakeup already in flight.
  if (accepted && running_.load(std::memory_order_acquire) &&
      !wake_hint_.exchange(true, std::memory_order_acq_rel)) {
    NotifyWork();
  }
  return accepted;
}

void StreamingServer::NotifyWork() {
  {
    MutexLock lock(wake_mu_);
    work_pending_ = true;
  }
  wake_cv_.NotifyOne();
}

size_t StreamingServer::PumpOnce() {
  obs::LatencyTimer sweep_timer(pump_sweep_h_);
  obs::TraceSpan sweep_span("pump_sweep", "server");
  // Serial phase, on this thread, shard by shard: what a shard owns — its
  // queue and its pop scratch — never leaves the pumping thread.
  ready_.clear();
  size_t total = 0;
  for (Shard& shard : shards_) total += PopShard(shard);
  // Parallel phase: dynamic site claiming (chunk = one site), so a lane that
  // finishes a light site claims the next instead of idling behind a heavy
  // one, wherever the hash routed the two. A site's records run in pop order
  // on exactly one lane, so per-site output is unchanged at any width. A
  // sweep with no records hands the pool nothing; one site runs inline.
  pool_.ParallelForDynamic(ready_.size(), /*chunk_size=*/1,
                           [this](size_t i, int) { RunSite(*ready_[i]); });
  if (total > 0) pump_records_c_->Add(total);
  return total;
}

size_t StreamingServer::PopShard(Shard& shard) {
  const size_t n = shard.queue->PopBatch(&shard.batch, config_.pump_batch);
  for (size_t i = 0; i < n; ++i) {
    const ServeRecord& record = shard.batch[i];
    const auto it = shard.site_lookup.find(record.site);
    if (it == shard.site_lookup.end()) continue;
    SiteWork& work = *it->second;
    if (work.records.empty()) ready_.push_back(&work);
    work.records.push_back(&record);
  }
  return n;
}

// Thread-safety analysis is off here — see the SAFETY note on the
// declaration in server.h (fork/join site ownership under the sweep
// holder's pump_mu_).
void StreamingServer::RunSite(SiteWork& work) {
  SitePipeline* pipeline = work.pipeline;
  SiteHealth& health = health_.find(pipeline->site())->second;
  for (const ServeRecord* record : work.records) {
    if (health.parked) {
      ++health.records_dropped_parked;
      continue;
    }
    // Blast-radius boundary: one site's pipeline throwing (engine fault,
    // injected kPipelineStep) must not abort the sweep or touch any other
    // site. The failed site is restored from the last-good checkpoint or
    // parked; the loop continues with the next record either way.
    try {
      pipeline->OnRecord(*record, &bus_);
    } catch (const std::exception& e) {
      HandleSiteFailure(pipeline, e.what());
    }
  }
  work.records.clear();
}

void StreamingServer::HandleSiteFailure(SitePipeline* pipeline,
                                        const char* what) {
  const SiteId site = pipeline->site();
  SiteHealth& health = health_.find(site)->second;
  ++health.failures;
  site_failures_c_->Add();
  const auto park = [this, &health](std::string reason) {
    health.parked = true;
    health.park_reason = std::move(reason);
    site_parked_c_->Add();
  };
  if (health.recoveries >=
      static_cast<uint64_t>(config_.recovery.max_restarts)) {
    park("restart budget exhausted (" +
         std::to_string(config_.recovery.max_restarts) +
         " recoveries); last failure: " + what);
    return;
  }
  if (last_checkpoint_dir_.empty()) {
    park(std::string("no checkpoint to restore from; failure: ") + what);
    return;
  }
  CheckpointLoadReport report;
  Status restored;
  {
    obs::LatencyTimer load_timer(checkpoint_load_h_);
    restored = LoadSiteCheckpoint(last_checkpoint_dir_, site, pipeline, &report);
  }
  if (!restored.ok()) {
    park("restore after failure (" + std::string(what) +
         ") failed: " + restored.message());
    return;
  }
  if (report.used_fallback) checkpoint_fallback_loads_c_->Add();
  // The restored pipeline replays from the checkpoint cut; operator state
  // accumulated past that cut must go with it (see ResetSiteState).
  bus_.ResetSiteState(site);
  ++health.recoveries;
  site_recoveries_c_->Add();
  // Mark the restart in the site's flight recorder so a later diagnostics
  // bundle shows the epochs leading up to the crash.
  pipeline->NotePipelineRestart();
}

// RFID_VERIFY_ALLOW(lock-hold-io): site-failure recovery restores checkpoints inline in the pump sweep; pump_mu_ is held by design so the replacement state is a consistent cut
size_t StreamingServer::Pump() {
  MutexLock lock(pump_mu_);
  size_t total = 0;
  while (true) {
    const size_t n = PumpOnce();
    if (n == 0) break;
    total += n;
  }
  return total;
}

// RFID_VERIFY_ALLOW(lock-hold-io): the driver's pump sweep can hit site-failure recovery, which reloads checkpoints under pump_mu_ (blast-radius isolation)
void StreamingServer::DriverLoop() {
  while (running_.load(std::memory_order_acquire)) {
    {
      MutexLock lock(wake_mu_);
      while (!work_pending_ && running_.load(std::memory_order_acquire)) {
        wake_cv_.Wait(lock);
      }
      work_pending_ = false;
    }
    // Clear the hint before draining: a record pushed after this point
    // finds the hint false and re-notifies; one pushed before it is picked
    // up by the drain below.
    wake_hint_.store(false, std::memory_order_release);
    MutexLock lock(pump_mu_);
    while (PumpOnce() > 0) {
    }
  }
  // Final drain: records that raced shutdown.
  MutexLock lock(pump_mu_);
  while (PumpOnce() > 0) {
  }
}

// RFID_VERIFY_ALLOW(lock-hold-io): Start's inline drain shares the pump sweep, so it inherits the recovery path's deliberate checkpoint IO under pump_mu_
void StreamingServer::Start() {
  // Serialize against Stop(): both assign/join the driver_ handle, and an
  // unserialized start racing a stop could spawn into a handle the stop is
  // concurrently joining.
  MutexLock lifecycle(lifecycle_mu_);
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  // A previous Stop() closed the queues; a restarted server must accept
  // traffic again, not silently reject every record.
  for (auto& shard : shards_) shard.queue->Reopen();
  driver_ = std::thread([this] { DriverLoop(); });
  // Prime the driver: records ingested before (or racing) Start() did not
  // notify, because Ingest only signals while running_ is set.
  wake_hint_.store(true, std::memory_order_release);
  NotifyWork();
}

// RFID_VERIFY_ALLOW(lock-hold-io): the final drain shares the pump sweep, so it inherits the recovery path's deliberate checkpoint IO under pump_mu_
void StreamingServer::Stop() {
  MutexLock lifecycle(lifecycle_mu_);
  if (running_.exchange(false)) {
    // Signal under wake_mu_: notifying without the lock can slip between
    // the driver's predicate check and its wait (lost wakeup -> join hangs).
    NotifyWork();
    if (driver_.joinable()) driver_.join();
  }
  // Late producers fail fast instead of refilling drained queues; blocked
  // ones wake with failure.
  for (auto& shard : shards_) shard.queue->Close();
  // Catch anything ingested after the driver exited (or in inline mode).
  MutexLock lock(pump_mu_);
  while (PumpOnce() > 0) {
  }
}

// RFID_VERIFY_ALLOW(lock-hold-io): flush-triggered site failures run recovery (checkpoint reload) under pump_mu_, same consistent-cut design as the pump sweep
void StreamingServer::Flush() {
  MutexLock lock(pump_mu_);
  while (PumpOnce() > 0) {
  }
  for (auto& pipeline : pipelines_) {
    SiteHealth& health = health_.find(pipeline->site())->second;
    if (health.parked) continue;
    // Flush closes epochs, so the kPipelineStep fault point (and real
    // engine faults) can surface here exactly as in the pump sweep.
    try {
      pipeline->Flush(&bus_);
    } catch (const std::exception& e) {
      HandleSiteFailure(pipeline.get(), e.what());
    }
  }
}

// RFID_VERIFY_ALLOW(lock-hold-io): quiescent-cut checkpoint — pump_mu_ is held across the save so no records move while state is serialized
Status StreamingServer::Checkpoint(const std::string& dir) {
  MutexLock lock(pump_mu_);
  while (PumpOnce() > 0) {
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint dir " + dir + ": " +
                           ec.message());
  }
  CheckpointWriteOptions options;
  options.max_attempts = config_.recovery.checkpoint_max_attempts;
  options.backoff_initial_ms = config_.recovery.checkpoint_backoff_ms;
  options.metrics = metrics_.get();
  // Every site is attempted even when one fails: a failed save leaves that
  // site's manifest on its last-good generation (stale checkpoint + longer
  // replay), and aborting the loop would deny the remaining sites a fresh
  // generation for no reason.
  Status first_error = Status::OK();
  for (const auto& pipeline : pipelines_) {
    const SiteHealth& health = health_.find(pipeline->site())->second;
    if (health.parked) {
      // A parked pipeline's in-memory state is mid-failure; checkpointing
      // it would overwrite a good generation with a suspect one.
      checkpoint_skipped_parked_c_->Add();
      continue;
    }
    CheckpointWriteReport report;
    const Status saved = SaveSiteCheckpoint(*pipeline, dir, options, &report);
    if (report.attempts > 1) {
      checkpoint_retries_c_->Add(static_cast<uint64_t>(report.attempts - 1));
    }
    if (saved.ok()) {
      checkpoints_saved_c_->Add();
    } else {
      checkpoint_failures_c_->Add();
      if (first_error.ok()) first_error = saved;
    }
  }
  // Remember the directory even on partial failure: the sites that did save
  // (and earlier generations of those that did not) are restorable here.
  last_checkpoint_dir_ = dir;
  return first_error;
}

// RFID_VERIFY_ALLOW(lock-hold-io): quiescent-cut restore — pump_mu_ is held across the load so the replayed state is not raced by the pump
Status StreamingServer::Restore(const std::string& dir) {
  MutexLock lock(pump_mu_);
  // Each site decodes on a pump lane, one site per chunk as in PumpOnce, so
  // the decoded beliefs spread over the lanes' malloc arenas, which the
  // sweeps reuse, instead of all landing in this thread's. A lane touches
  // only its site's pipeline and its own slot; what the bus and health_
  // need happens below, on this thread, in pipeline order.
  struct SiteLoad {
    Status status;
    CheckpointLoadReport report;
  };
  std::vector<SiteLoad> loads(pipelines_.size());
  pool_.ParallelForDynamic(
      pipelines_.size(), /*chunk_size=*/1, [&](size_t i, int) {
        SitePipeline* pipeline = pipelines_[i].get();
        obs::LatencyTimer load_timer(checkpoint_load_h_);
        // An exception must not leave a pool lane (it would end the
        // process); it fails this site's load instead.
        try {
          loads[i].status = LoadSiteCheckpoint(dir, pipeline->site(),
                                               pipeline, &loads[i].report);
        } catch (const std::exception& e) {
          loads[i].status = Status::Internal(
              "restoring site " + std::to_string(pipeline->site()) +
              " threw: " + e.what());
        }
      });
  // Every site is attempted even when one fails, as in Checkpoint; a site
  // whose load failed keeps its state (LoadCheckpoint commits only on
  // success).
  Status first_error = Status::OK();
  for (size_t i = 0; i < pipelines_.size(); ++i) {
    if (!loads[i].status.ok()) {
      if (first_error.ok()) first_error = loads[i].status;
      continue;
    }
    if (loads[i].report.used_fallback) checkpoint_fallback_loads_c_->Add();
    const SiteId site = pipelines_[i]->site();
    // Drop operator state the bus accumulated for this site (live
    // subscriptions survive a restore; their per-site operators must not —
    // they reflect events past or divergent from the checkpoint cut).
    bus_.ResetSiteState(site);
    SiteHealth& health = health_.find(site)->second;
    health.parked = false;
    health.park_reason.clear();
  }
  if (first_error.ok()) last_checkpoint_dir_ = dir;
  return first_error;
}

// RFID_VERIFY_ALLOW(lock-hold-io): revival replays the site checkpoint under pump_mu_ so the revived pipeline rejoins at a consistent cut
Status StreamingServer::ReviveSite(SiteId site) {
  MutexLock lock(pump_mu_);
  const auto health_it = health_.find(site);
  if (health_it == health_.end()) {
    return Status::NotFound("unknown site " + std::to_string(site));
  }
  SitePipeline* pipeline = nullptr;
  for (auto& candidate : pipelines_) {
    if (candidate->site() == site) pipeline = candidate.get();
  }
  // Only attempt a restore when the site has a readable manifest — a site
  // parked before its first successful save (every Checkpoint() skipped
  // it) must still be revivable, with whatever state it has. A load that
  // fails with a manifest present is still an error: the operator asked
  // for the last-good state and it is unreadable.
  CheckpointManifest manifest;
  const bool has_data =
      !last_checkpoint_dir_.empty() &&
      ReadSiteManifest(last_checkpoint_dir_, site, &manifest).ok();
  if (has_data) {
    CheckpointLoadReport report;
    {
      obs::LatencyTimer load_timer(checkpoint_load_h_);
      RFID_RETURN_NOT_OK(
          LoadSiteCheckpoint(last_checkpoint_dir_, site, pipeline, &report));
    }
    if (report.used_fallback) checkpoint_fallback_loads_c_->Add();
    bus_.ResetSiteState(site);
  }
  SiteHealth& health = health_it->second;
  health.parked = false;
  health.park_reason.clear();
  health.recoveries = 0;
  return Status::OK();
}

const SitePipeline* StreamingServer::FindSite(SiteId site) const {
  for (const auto& pipeline : pipelines_) {
    if (pipeline->site() == site) return pipeline.get();
  }
  return nullptr;
}

ServerStatsSnapshot StreamingServer::Stats() const {
  // Exclude a concurrent pump so pipeline counters are read quiescent.
  MutexLock lock(pump_mu_);
  return StatsLocked();
}

ServerStatsSnapshot StreamingServer::StatsLocked() const {
  ServerStatsSnapshot snapshot;
  snapshot.shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardStatsSnapshot shard_stats;
    shard_stats.shard = static_cast<int>(s);
    shard_stats.queue = shards_[s].queue->Stats();
    for (const SitePipeline* pipeline : shards_[s].sites) {
      SitePipelineStats site_stats = pipeline->Stats();
      const SiteHealth& health = health_.find(pipeline->site())->second;
      site_stats.pipeline_failures = health.failures;
      site_stats.recoveries = health.recoveries;
      site_stats.records_dropped_parked = health.records_dropped_parked;
      site_stats.parked = health.parked;
      site_stats.park_reason = health.park_reason;
      shard_stats.sites.push_back(std::move(site_stats));
    }
    snapshot.shards.push_back(std::move(shard_stats));
  }
  snapshot.subscription_dispatches = bus_.dispatched_events();
  snapshot.operators = bus_.OperatorStatsSnapshot();
  snapshot.checkpoint.saved = checkpoints_saved_c_->Value();
  snapshot.checkpoint.failures = checkpoint_failures_c_->Value();
  snapshot.checkpoint.retries = checkpoint_retries_c_->Value();
  snapshot.checkpoint.fallback_loads = checkpoint_fallback_loads_c_->Value();
  snapshot.checkpoint.skipped_parked = checkpoint_skipped_parked_c_->Value();
  if (FaultInjector* injector = FaultInjector::Installed()) {
    snapshot.faults = injector->Snapshot();
  }
  return snapshot;
}

// RFID_VERIFY_ALLOW(lock-hold-io): the diagnostics bundle is written under pump_mu_ on purpose so recorders, dead-letter rings and stats form one cut
Status StreamingServer::DumpDiagnostics(const std::string& dir) {
  // Under pump_mu_ the pipelines are quiescent, so the flight recorders,
  // dead-letter rings and stats snapshot form one consistent cut. (Metrics
  // and trace rings are safe to read any time; holding the lock just keeps
  // all the bundle's views aligned.)
  MutexLock lock(pump_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create diagnostics dir " + dir + ": " +
                           ec.message());
  }
  const auto write_file = [](const std::string& path,
                             const std::string& body) -> Status {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) return Status::IOError("cannot open " + path + " for writing");
    os << body;
    os.flush();
    if (!os.good()) return Status::IOError("failed writing " + path);
    return Status::OK();
  };
  RFID_RETURN_NOT_OK(
      write_file(dir + "/metrics.prom", metrics_->RenderPrometheus()));
  RFID_RETURN_NOT_OK(write_file(dir + "/metrics.json", metrics_->RenderJson()));
  RFID_RETURN_NOT_OK(
      write_file(dir + "/trace.json", obs::Tracer::Default().DumpChromeJson()));
  RFID_RETURN_NOT_OK(write_file(dir + "/stats.json", StatsLocked().ToJson()));
  std::string flight = "{\"sites\": [";
  for (size_t i = 0; i < pipelines_.size(); ++i) {
    if (i > 0) flight += ", ";
    flight += "{\"site\": " + std::to_string(pipelines_[i]->site()) +
              ", \"flight\": " + pipelines_[i]->flight().ToJson() + "}";
  }
  flight += "]}";
  RFID_RETURN_NOT_OK(write_file(dir + "/flight.json", flight));
  for (const auto& pipeline : pipelines_) {
    const std::deque<DeadLetterEntry>& dead = pipeline->DeadLetters();
    if (dead.empty()) continue;
    RFID_RETURN_NOT_OK(WriteDeadLetterSpill(
        pipeline->site(), dead,
        dir + "/dead_letter_site_" + std::to_string(pipeline->site()) +
            ".bin"));
  }
  return Status::OK();
}

}  // namespace rfid
