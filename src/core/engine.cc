#include "core/engine.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>

namespace rfid {

std::string EngineStats::ToJson() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"epochs_processed\": %zu, \"readings_processed\": %zu, "
      "\"events_emitted\": %zu, \"processing_seconds\": %.17g, "
      "\"readings_per_sec\": %.17g, \"epochs_per_sec\": %.17g}",
      epochs_processed, readings_processed, events_emitted,
      processing_seconds, ReadingsPerSecond(), EpochsPerSecond());
  return buf;
}

namespace {
// The initialization cone must be a real cone in front of the reader: an
// infinite or NaN depth puts non-finite positions into the belief (which no
// snapshot can hold), a negative one mirrors the cone behind the reader, and
// a half-angle past pi covers some bearings twice.
Status ValidateInit(const InitializerConfig& init, const std::string& name) {
  if (!(std::isfinite(init.range_overestimate) &&
        init.range_overestimate > 0)) {
    return Status::Invalid(name +
                           ".init.range_overestimate must be finite and > 0");
  }
  if (!(init.half_angle > 0 && init.half_angle <= M_PI)) {
    return Status::Invalid(name + ".init.half_angle must be in (0, pi]");
  }
  return Status::OK();
}

Status ValidateConfig(const EngineConfig& config) {
  if (config.filter == EngineConfig::FilterKind::kBasic) {
    RFID_RETURN_NOT_OK(ValidateInit(config.basic.init, "basic"));
    if (config.basic.num_particles <= 0) {
      return Status::Invalid("basic.num_particles must be positive");
    }
    if (config.basic.resample_threshold < 0 ||
        config.basic.resample_threshold > 1) {
      return Status::Invalid("basic.resample_threshold must be in [0, 1]");
    }
  } else {
    const FactoredFilterConfig& f = config.factored;
    RFID_RETURN_NOT_OK(ValidateInit(f.init, "factored"));
    if (f.num_reader_particles <= 0 || f.num_object_particles <= 0 ||
        f.num_decompress_particles <= 0) {
      return Status::Invalid("factored particle counts must be positive");
    }
    if (f.compression.compress_after_epochs < 0) {
      return Status::Invalid("compress_after_epochs must be non-negative");
    }
    if (f.compression.compress_after_epochs > 0 && !f.use_spatial_index) {
      return Status::Invalid(
          "belief compression requires the spatial index (a filter without "
          "the index reprocesses every object each epoch and would "
          "immediately decompress everything)");
    }
    if (f.min_object_particles < 0 ||
        f.min_object_particles > f.num_object_particles) {
      return Status::Invalid(
          "min_object_particles must be in [0, num_object_particles]");
    }
    if (f.compression.hibernate_after_epochs < 0) {
      return Status::Invalid("hibernate_after_epochs must be non-negative");
    }
    if (f.num_threads < 1) {
      return Status::Invalid("factored.num_threads must be >= 1");
    }
  }
  if (!(config.emitter.delay_seconds >= 0)) {
    return Status::Invalid("emitter.delay_seconds must be non-negative");
  }
  return Status::OK();
}
}  // namespace

RfidInferenceEngine::RfidInferenceEngine(
    std::unique_ptr<InferenceFilter> filter, const EngineConfig& config)
    : filter_(std::move(filter)), config_(config), emitter_(config.emitter) {}

Result<std::unique_ptr<RfidInferenceEngine>> RfidInferenceEngine::Create(
    WorldModel model, const EngineConfig& config) {
  RFID_RETURN_NOT_OK(ValidateConfig(config));
  std::unique_ptr<InferenceFilter> filter;
  if (config.filter == EngineConfig::FilterKind::kBasic) {
    filter = std::make_unique<BasicParticleFilter>(std::move(model),
                                                   config.basic);
  } else {
    filter = std::make_unique<FactoredParticleFilter>(std::move(model),
                                                      config.factored);
  }
  return std::unique_ptr<RfidInferenceEngine>(
      new RfidInferenceEngine(std::move(filter), config));
}

void RfidInferenceEngine::ProcessEpoch(const SyncedEpoch& epoch) {
  Stopwatch watch;
  filter_->ObserveEpoch(epoch);
  timings_.filter_seconds = watch.ElapsedSeconds();
  stats_.processing_seconds += timings_.filter_seconds;
  stats_.epochs_processed += 1;
  stats_.readings_processed += epoch.tags.size();

  Stopwatch emit_watch;
  auto events = emitter_.OnEpoch(
      epoch, [this](TagId tag) { return filter_->EstimateObject(tag); });
  timings_.emit_seconds = emit_watch.ElapsedSeconds();
  stats_.events_emitted += events.size();
  if (pending_events_.empty()) {
    pending_events_ = std::move(events);
  } else {
    pending_events_.insert(pending_events_.end(),
                           std::make_move_iterator(events.begin()),
                           std::make_move_iterator(events.end()));
  }
}

std::vector<LocationEvent> RfidInferenceEngine::TakeEvents() {
  std::vector<LocationEvent> out;
  out.swap(pending_events_);
  return out;
}

void RfidInferenceEngine::TakeEvents(std::vector<LocationEvent>* out) {
  out->clear();
  out->swap(pending_events_);
}

std::vector<LocationEvent> RfidInferenceEngine::NotifyScanComplete(
    double time) {
  auto events = emitter_.NotifyScanComplete(
      time, [this](TagId tag) { return filter_->EstimateObject(tag); });
  stats_.events_emitted += events.size();
  return events;
}

}  // namespace rfid
