#include "serve/site_pipeline.h"

#include <array>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "obs/trace.h"
#include "pf/snapshot.h"
#include "util/fault.h"
#include "util/serialize.h"
#include "util/stopwatch.h"

namespace rfid {

namespace {

using serialize::ReadBool;
using serialize::ReadFramedSection;
using serialize::ReadPod;
using serialize::WriteFramedSection;
using serialize::WritePod;

constexpr char kMagic[8] = {'R', 'F', 'I', 'D', 'S', 'I', 'T', 'E'};
// v2 adds a shed counter and the scan-boundary bookkeeping
// (scan_completes_, last_epoch_time_/epochs_since_scan_) so a restored
// pipeline stamps scan-complete events with the same time the
// uninterrupted run would have. Nothing sheds records any more; the shed
// counter's 8-byte header slot stays, reserved: written as 0, and a
// nonzero value is rejected on load, so every accepted checkpoint re-saves
// to the same bytes.
// v3 reframes the checkpoint as CRC32-checked sections (header,
// synchronizer, emitter, engine stats, filter snapshot — see
// util/serialize.h) and adds the quarantine counter to the header. Torn or
// bit-rotted checkpoints now fail section verification before any state is
// parsed, which is what the generation manifest's save-verify-advance
// protocol (serve/checkpoint.cc) relies on.
// v4 inserts a section between the header and the synchronizer that held
// a mid-stream scan-boundary detector's state. The detector is gone (the
// end of the stream is the one scan boundary); its section stays,
// reserved: kReservedSectionBytes zeros, the bytes the detector wrote
// whenever it was off. A nonzero byte is rejected on load, so every
// accepted checkpoint re-saves to the same bytes.
//
// Version window: one back. v3 still loads (it has no reserved section);
// v2 and older are rejected with an error naming the oldest loadable
// version.
constexpr uint32_t kVersion = 4;
constexpr uint32_t kMinVersion = 3;
constexpr size_t kReservedSectionBytes = 35;

SynchronizerConfig MakeSyncConfig(const SitePipelineConfig& config) {
  SynchronizerConfig sc;
  sc.epoch_seconds = config.epoch_seconds;
  sc.max_lateness_seconds = config.max_lateness_seconds;
  return sc;
}

}  // namespace

SitePipeline::SitePipeline(SiteId site, const SitePipelineConfig& config,
                           std::unique_ptr<RfidInferenceEngine> engine)
    : site_(site),
      config_(config),
      sync_(MakeSyncConfig(config)),
      engine_(std::move(engine)),
      filter_(&dynamic_cast<FactoredParticleFilter&>(
          engine_->mutable_filter())),
      flight_(new obs::FlightRecorder(config.flight)) {
  // Metric handles are resolved once here and written lock-free forever.
  // Stage series are labeled by stage only (not site) so cardinality stays
  // bounded at any fleet size; per-site introspection goes through the
  // flight recorder instead.
  obs::MetricsRegistry& reg = config_.metrics != nullptr
                                  ? *config_.metrics
                                  : obs::MetricsRegistry::Default();
  epoch_h_ = reg.GetHistogram("rfid_epoch_seconds");
  stage_sync_h_ = reg.GetHistogram("rfid_stage_seconds", "stage=\"synchronize\"");
  stage_weight_h_ = reg.GetHistogram("rfid_stage_seconds", "stage=\"weight\"");
  stage_resample_h_ =
      reg.GetHistogram("rfid_stage_seconds", "stage=\"reader_resample\"");
  stage_remap_h_ =
      reg.GetHistogram("rfid_stage_seconds", "stage=\"remap_replay\"");
  stage_compress_h_ =
      reg.GetHistogram("rfid_stage_seconds", "stage=\"compress\"");
  stage_emit_h_ = reg.GetHistogram("rfid_stage_seconds", "stage=\"emit\"");
  stage_dispatch_h_ =
      reg.GetHistogram("rfid_stage_seconds", "stage=\"dispatch\"");
  records_c_ = reg.GetCounter("rfid_records_processed_total");
  events_c_ = reg.GetCounter("rfid_events_dispatched_total");
  quarantined_c_ = reg.GetCounter("rfid_records_quarantined_total");
  slow_epochs_c_ = reg.GetCounter("rfid_slow_epochs_total");
}

Result<std::unique_ptr<SitePipeline>> SitePipeline::Create(
    SiteId site, WorldModel model, const SitePipelineConfig& config) {
  // A NaN epoch length drops every record as late; an infinite one, or a
  // NaN lateness bound, admits records but closes no epoch before Flush(),
  // so an endless stream's pending epochs grow without bound.
  if (!(std::isfinite(config.epoch_seconds) && config.epoch_seconds > 0)) {
    return Status::Invalid("epoch_seconds must be finite and positive");
  }
  if (!(std::isfinite(config.max_lateness_seconds) &&
        config.max_lateness_seconds >= 0)) {
    // The synchronizer would clamp a negative bound to 0, silently giving
    // zero-tolerance dropping instead of the bound the operator asked for.
    return Status::Invalid(
        "max_lateness_seconds must be finite and non-negative");
  }
  if (config.engine.filter != EngineConfig::FilterKind::kFactored) {
    return Status::Invalid(
        "serving pipelines require the factored filter (checkpointing "
        "serializes factored belief state)");
  }
  auto engine = RfidInferenceEngine::Create(std::move(model), config.engine);
  if (!engine.ok()) return engine.status();
  return std::unique_ptr<SitePipeline>(
      new SitePipeline(site, config, std::move(engine).value()));
}

void SitePipeline::ProcessEpochs(std::vector<SyncedEpoch> epochs,
                                 SubscriptionBus* bus) {
  for (const SyncedEpoch& epoch : epochs) {
    if (MaybeInjectFault(FaultPoint::kPipelineStep, site_)) {
      throw FaultInjectedError("injected pipeline fault at site " +
                               std::to_string(site_));
    }
    // Telemetry reads clocks between stages and stores the results; it
    // never touches RNG streams or event ordering, so the per-site event
    // stream is bit-identical with telemetry/tracing on or off.
    const bool telemetry = obs::TelemetryEnabled();
    obs::TraceSpan span("epoch", "pipeline", "site", site_);
    const uint64_t start_ns = telemetry ? MonotonicNanos() : 0;
    engine_->ProcessEpoch(epoch);
    last_epoch_time_ = epoch.time;
    epochs_since_scan_ = true;
    engine_->TakeEvents(&event_scratch_);
    uint64_t dispatch_ns = 0;
    const size_t event_count = event_scratch_.size();
    if (!event_scratch_.empty()) {
      obs::TraceSpan dispatch_span("dispatch", "pipeline", "site", site_);
      const uint64_t d0 = telemetry ? MonotonicNanos() : 0;
      if (bus != nullptr) bus->Dispatch(site_, event_scratch_);
      if (d0 != 0) dispatch_ns = MonotonicNanos() - d0;
      events_dispatched_ += event_count;
      events_c_->Add(event_count);
    }
    if (telemetry) {
      RecordEpochTelemetry(epoch, start_ns, dispatch_ns, event_count);
    }
  }
}

void SitePipeline::RecordEpochTelemetry(const SyncedEpoch& epoch,
                                        uint64_t start_ns,
                                        uint64_t dispatch_ns, size_t events) {
  obs::EpochStageTimings t;
  t.step = engine_->stats().epochs_processed;
  t.epoch_time = epoch.time;
  t.total = static_cast<double>(MonotonicNanos() - start_ns) * 1e-9;
  t.synchronize = static_cast<double>(pending_sync_ns_) * 1e-9;
  pending_sync_ns_ = 0;
  const EngineEpochTimings& engine_t = engine_->last_epoch_timings();
  t.emit = engine_t.emit_seconds;
  t.dispatch = static_cast<double>(dispatch_ns) * 1e-9;
  const auto& stages = filter_->last_epoch_stages();
  t.weight = stages.weight;
  t.resample = stages.reader_resample;
  t.remap = stages.remap_replay;
  t.compress = stages.compress;
  t.readings = static_cast<uint32_t>(epoch.tags.size());
  t.events = static_cast<uint32_t>(events);

  epoch_h_->Observe(t.total);
  stage_sync_h_->Observe(t.synchronize);
  stage_weight_h_->Observe(t.weight);
  stage_resample_h_->Observe(t.resample);
  stage_remap_h_->Observe(t.remap);
  stage_compress_h_->Observe(t.compress);
  stage_emit_h_->Observe(t.emit);
  stage_dispatch_h_->Observe(t.dispatch);

  if (flight_->RecordEpoch(t)) {
    ++slow_epochs_;
    slow_epochs_c_->Add();
  }
}

void SitePipeline::Quarantine(const ServeRecord& record, const char* reason) {
  DeadLetterEntry entry;
  entry.record = record;
  entry.reason = reason;
  entry.sequence = records_quarantined_++;
  dead_letters_.push_back(std::move(entry));
  while (dead_letters_.size() > config_.dead_letter_capacity) {
    dead_letters_.pop_front();
  }
  quarantined_c_->Add();
  // A quarantine is a post-mortem trigger: snapshot the recent epochs so
  // the bundle shows what the site was doing when the bad record arrived.
  flight_->CaptureDiagnostic("quarantine");
}

void SitePipeline::OnRecord(const ServeRecord& record, SubscriptionBus* bus) {
  // Blast-radius rule: a malformed record is diverted, counted and kept for
  // inspection — it must never abort the sweep or poison the synchronizer.
  // (The synchronizer has its own non-finite guard; quarantining here keeps
  // the record and its reason visible instead of silently dropping it.)
  const char* reject = nullptr;
  if (record.kind != ServeRecord::Kind::kReading &&
      record.kind != ServeRecord::Kind::kLocation) {
    reject = "unknown record kind";
  } else if (!std::isfinite(record.Time())) {
    reject = "non-finite timestamp";
  } else if (record.kind == ServeRecord::Kind::kLocation &&
             !(std::isfinite(record.location.location.x) &&
               std::isfinite(record.location.location.y) &&
               std::isfinite(record.location.location.z))) {
    // It would reach the reader particles, and no checkpoint of the site
    // could be written again (the snapshot rejects a non-finite particle).
    reject = "non-finite location";
  } else if (record.kind == ServeRecord::Kind::kLocation &&
             record.location.has_heading &&
             !std::isfinite(record.location.heading)) {
    // Summed into the synchronizer's pending epoch, whose checkpoint
    // section would then fail to load.
    reject = "non-finite heading";
  } else if (MaybeInjectFault(FaultPoint::kRecordDecode, site_)) {
    reject = "fault injection: record decode";
  }
  if (reject != nullptr) {
    Quarantine(record, reject);
    return;
  }
  // Time the synchronizer work (admission + watermark poll) separately from
  // epoch processing; it accumulates until the next closed epoch, which
  // reports it as its `synchronize` stage.
  const uint64_t sync_start = obs::TelemetryEnabled() ? MonotonicNanos() : 0;
  bool admitted;
  if (record.kind == ServeRecord::Kind::kReading) {
    admitted = sync_.Push(record.reading);
  } else {
    admitted = sync_.Push(record.location);
  }
  if (!admitted) return;  // Dropped-late; counted by the synchronizer.
  ++records_processed_;
  records_c_->Add();
  std::vector<SyncedEpoch> epochs = sync_.PollWatermark();
  if (sync_start != 0) pending_sync_ns_ += MonotonicNanos() - sync_start;
  ProcessEpochs(std::move(epochs), bus);
}

void SitePipeline::Flush(SubscriptionBus* bus) {
  ProcessEpochs(sync_.Finish(), bus);
  // The stream end is the scan boundary. Without it the kOnScanComplete
  // policy was dead through the serving path: nothing ever told the engine
  // a scan finished, so subscriptions saw zero events while offline runs of
  // the same trace emitted.
  if (config_.engine.emitter.policy != EmitPolicy::kOnScanComplete ||
      !epochs_since_scan_) {
    return;
  }
  event_scratch_ = engine_->NotifyScanComplete(last_epoch_time_);
  if (!event_scratch_.empty()) {
    if (bus != nullptr) bus->Dispatch(site_, event_scratch_);
    events_dispatched_ += event_scratch_.size();
    events_c_->Add(event_scratch_.size());
  }
  ++scan_completes_;
  epochs_since_scan_ = false;
}

SitePipelineStats SitePipeline::Stats() const {
  SitePipelineStats stats;
  stats.site = site_;
  stats.records_processed = records_processed_;
  stats.records_dropped_late = sync_.dropped_late_records();
  stats.events_dispatched = events_dispatched_;
  stats.scan_completes = scan_completes_;
  stats.records_quarantined = records_quarantined_;
  stats.slow_epochs = slow_epochs_;
  stats.dead_letter_size = dead_letters_.size();
  stats.watermark = sync_.watermark();
  stats.engine = engine_->stats();
  stats.active_objects = filter_->NumActiveObjects();
  stats.compressed_objects = filter_->NumCompressedObjects();
  stats.hibernated_objects = filter_->NumHibernatedObjects();
  stats.filter_memory_bytes = filter_->ApproxMemoryBytes();
  return stats;
}

Status SitePipeline::SaveCheckpoint(std::ostream& os) const {
  // v4 layout: magic + version, then six CRC-framed sections in fixed
  // order — header/counters, reserved, synchronizer, emitter, engine
  // stats, filter snapshot. Each section is verifiable before it is
  // committed, and each streams straight into `os` (which must be seekable):
  // the filter snapshot, by far the largest, nests its own framed body
  // inside the last section without a staging copy.
  os.write(kMagic, sizeof(kMagic));
  WritePod(os, kVersion);
  RFID_RETURN_NOT_OK(WriteFramedSection(os, [this](std::ostream& header) {
    WritePod(header, site_);
    WritePod(header, records_processed_);
    WritePod(header, events_dispatched_);
    WritePod(header, uint64_t{0});  // Reserved slot (see kVersion).
    WritePod(header, scan_completes_);
    WritePod(header, records_quarantined_);
    WritePod(header, last_epoch_time_);
    WritePod(header, static_cast<uint8_t>(epochs_since_scan_ ? 1 : 0));
  }));
  RFID_RETURN_NOT_OK(WriteFramedSection(os, [](std::ostream& reserved) {
    WritePod(reserved, std::array<uint8_t, kReservedSectionBytes>{});
  }));
  RFID_RETURN_NOT_OK(WriteFramedSection(
      os, [this](std::ostream& sync) { sync_.SaveState(sync); }));
  RFID_RETURN_NOT_OK(WriteFramedSection(os, [this](std::ostream& emitter) {
    engine_->emitter().SaveState(emitter);
  }));
  RFID_RETURN_NOT_OK(WriteFramedSection(os, [this](std::ostream& section) {
    const EngineStats& stats = engine_->stats();
    WritePod(section, stats.epochs_processed);
    WritePod(section, stats.readings_processed);
    WritePod(section, stats.events_emitted);
    WritePod(section, stats.processing_seconds);
  }));
  RFID_RETURN_NOT_OK(WriteFramedSection(os, [this](std::ostream& snapshot) {
    return SaveFilterSnapshot(*filter_, snapshot);
  }));
  if (!os.good()) return Status::IOError("failed writing site checkpoint");
  return Status::OK();
}

Status ReadSiteCheckpointHeader(std::istream& is, uint32_t* version) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("not a site checkpoint (bad magic)");
  }
  if (!ReadPod(is, version)) {
    return Status::IOError("truncated site checkpoint");
  }
  if (*version < kMinVersion || *version > kVersion) {
    return Status::Invalid(
        "unsupported site checkpoint version " + std::to_string(*version) +
        " (oldest loadable is v" + std::to_string(kMinVersion) +
        "; load windows are one version back — migrate older checkpoints by "
        "re-saving them with the release that wrote them plus one)");
  }
  return Status::OK();
}

Status SitePipeline::LoadCheckpoint(std::istream& is) {
  // Everything is parsed into temporaries first and committed only after
  // the last read succeeded. The previous version restored sync_ and the
  // emitter in place as it went, so a checkpoint that failed halfway (e.g.
  // truncated on disk) left a half-restored pipeline: new synchronizer
  // state under the old filter belief, which then replayed garbage. A
  // failed load must leave the pipeline exactly as it was.
  uint32_t version = 0;
  RFID_RETURN_NOT_OK(ReadSiteCheckpointHeader(is, &version));
  SiteId site = 0;
  uint64_t records_processed = 0, events_dispatched = 0;
  uint64_t reserved = 0, scan_completes = 0;
  uint64_t records_quarantined = 0;
  double last_epoch_time = 0.0;
  bool epochs_since_scan = false;
  StreamSynchronizer sync(MakeSyncConfig(config_));
  EventEmitter emitter(config_.engine.emitter);
  EngineStats stats;
  // Framed path (every supported version): each section is parsed through
  // a CRC-checking view and its checksum verified before anything from it
  // is committed, so a torn or bit-rotted checkpoint fails cleanly here.
  RFID_RETURN_NOT_OK(ReadFramedSection(is, [&](std::istream& header) {
    if (!ReadPod(header, &site) || !ReadPod(header, &records_processed) ||
        !ReadPod(header, &events_dispatched) ||
        !ReadPod(header, &reserved) ||
        !ReadPod(header, &scan_completes) ||
        !ReadPod(header, &records_quarantined) ||
        !ReadPod(header, &last_epoch_time) ||
        !ReadBool(header, &epochs_since_scan)) {
      return Status::IOError("truncated site checkpoint header section");
    }
    if (reserved != 0) {
      return Status::Invalid(
          "site checkpoint header's reserved slot (the former shed count, "
          "after events_dispatched) must be 0, read " +
          std::to_string(reserved));
    }
    return Status::OK();
  }));
  if (site != site_) {
    return Status::Invalid("site checkpoint is for site " +
                           std::to_string(site) + ", pipeline is site " +
                           std::to_string(site_));
  }
  if (version >= 4) {
    RFID_RETURN_NOT_OK(ReadFramedSection(is, [](std::istream& section) {
      std::array<uint8_t, kReservedSectionBytes> bytes{};
      if (!ReadPod(section, &bytes)) {
        return Status::IOError("truncated site checkpoint reserved section");
      }
      for (size_t i = 0; i < bytes.size(); ++i) {
        if (bytes[i] != 0) {
          return Status::Invalid(
              "site checkpoint's reserved section (the former scan-boundary "
              "detector state, after the header) must be all zeros, read " +
              std::to_string(bytes[i]) + " at byte " + std::to_string(i));
        }
      }
      return Status::OK();
    }));
  }
  RFID_RETURN_NOT_OK(ReadFramedSection(
      is, [&sync](std::istream& section) { return sync.LoadState(section); }));
  RFID_RETURN_NOT_OK(ReadFramedSection(is, [&emitter](std::istream& section) {
    return emitter.LoadState(section);
  }));
  RFID_RETURN_NOT_OK(ReadFramedSection(is, [&stats](std::istream& section) {
    if (!ReadPod(section, &stats.epochs_processed) ||
        !ReadPod(section, &stats.readings_processed) ||
        !ReadPod(section, &stats.events_emitted) ||
        !ReadPod(section, &stats.processing_seconds)) {
      return Status::IOError("truncated site checkpoint stats section");
    }
    return Status::OK();
  }));
  // The filter snapshot is the final section and the commit point: it
  // parses fully and checks its own checksum and then this section's
  // before mutating the filter — after it succeeds, nothing can fail.
  RFID_RETURN_NOT_OK(ReadFramedSection(is, [this](std::istream& section) {
    return LoadFilterSnapshot(section, filter_);
  }));
  sync_ = std::move(sync);
  engine_->emitter() = std::move(emitter);
  engine_->RestoreStats(stats);
  records_processed_ = records_processed;
  events_dispatched_ = events_dispatched;
  scan_completes_ = scan_completes;
  records_quarantined_ = records_quarantined;
  last_epoch_time_ = last_epoch_time;
  epochs_since_scan_ = epochs_since_scan;
  return Status::OK();
}

}  // namespace rfid
