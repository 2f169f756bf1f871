// Aggregated counters of the serving runtime, exportable as JSON.
//
// Snapshots are plain values assembled under the server's pump lock, so a
// monitoring thread can poll StatsJson() while shards keep processing.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "serve/ingest_queue.h"
#include "serve/site_pipeline.h"
#include "serve/subscription_bus.h"
#include "util/fault.h"

namespace rfid {

/// Outcomes of the generation-manifest checkpoint protocol (see
/// serve/checkpoint.h) since server construction.
struct CheckpointStatsSnapshot {
  uint64_t saved = 0;           ///< Per-site saves that advanced a manifest.
  uint64_t failures = 0;        ///< Saves that exhausted retries (last-good kept).
  uint64_t retries = 0;         ///< Extra attempts consumed by transient faults.
  uint64_t fallback_loads = 0;  ///< Restores that fell back a generation.
  uint64_t skipped_parked = 0;  ///< Sites skipped because they were parked.
};

/// Minimal JSON string escaping for the few free-text fields the snapshot
/// carries (park reasons come from exception messages).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
  }
  return out;
}

struct ShardStatsSnapshot {
  int shard = 0;
  IngestQueueStats queue;
  std::vector<SitePipelineStats> sites;
};

struct ServerStatsSnapshot {
  std::vector<ShardStatsSnapshot> shards;
  uint64_t subscription_dispatches = 0;
  /// One row per materialized (subscription, site) query operator: how much
  /// state it holds and how much its lifecycle policies have evicted.
  std::vector<BusOperatorStats> operators;
  CheckpointStatsSnapshot checkpoint;
  /// Per-point counters of the installed FaultInjector (empty outside chaos
  /// runs). Every injected fault is observable here: if it fired, it shows.
  std::vector<FaultPointStats> faults;

  size_t TotalOperatorBytes() const {
    size_t total = 0;
    for (const auto& op : operators) total += op.stats.bytes_estimate;
    return total;
  }

  uint64_t TotalRecordsProcessed() const {
    uint64_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) total += site.records_processed;
    }
    return total;
  }
  uint64_t TotalDroppedLate() const {
    uint64_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) {
        total += site.records_dropped_late;
      }
    }
    return total;
  }
  /// Always 0 (nothing sheds records); e2e_bench's failure accounting adds it.
  uint64_t TotalRecordsShed() const { return 0; }
  size_t TotalHibernatedObjects() const {
    size_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) total += site.hibernated_objects;
    }
    return total;
  }
  uint64_t TotalEventsDispatched() const {
    uint64_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) total += site.events_dispatched;
    }
    return total;
  }
  double TotalReadingsProcessed() const {
    double total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) {
        total += static_cast<double>(site.engine.readings_processed);
      }
    }
    return total;
  }

  std::string ToJson() const {
    std::string out = "{\"shards\": [";
    for (size_t s = 0; s < shards.size(); ++s) {
      const ShardStatsSnapshot& shard = shards[s];
      if (s > 0) out += ", ";
      out += "{\"shard\": " + std::to_string(shard.shard);
      out += ", \"queue\": {\"pushed\": " + std::to_string(shard.queue.pushed);
      out += ", \"popped\": " + std::to_string(shard.queue.popped);
      out += ", \"blocked_pushes\": " +
             std::to_string(shard.queue.blocked_pushes);
      out += ", \"rejected_full\": " +
             std::to_string(shard.queue.rejected_full);
      out += ", \"rejected_closed\": " +
             std::to_string(shard.queue.rejected_closed);
      out += ", \"high_water\": " + std::to_string(shard.queue.high_water);
      out += ", \"injected_drops\": " +
             std::to_string(shard.queue.injected_drops);
      out += "}, \"sites\": [";
      for (size_t i = 0; i < shard.sites.size(); ++i) {
        const SitePipelineStats& site = shard.sites[i];
        if (i > 0) out += ", ";
        out += "{\"site\": " + std::to_string(site.site);
        out += ", \"records_processed\": " +
               std::to_string(site.records_processed);
        out += ", \"records_dropped_late\": " +
               std::to_string(site.records_dropped_late);
        out += ", \"events_dispatched\": " +
               std::to_string(site.events_dispatched);
        out += ", \"scan_completes\": " + std::to_string(site.scan_completes);
        out += ", \"records_quarantined\": " +
               std::to_string(site.records_quarantined);
        out += ", \"slow_epochs\": " + std::to_string(site.slow_epochs);
        out += ", \"dead_letter_size\": " +
               std::to_string(site.dead_letter_size);
        out += ", \"health\": {\"failures\": " +
               std::to_string(site.pipeline_failures);
        out += ", \"recoveries\": " + std::to_string(site.recoveries);
        out += ", \"records_dropped_parked\": " +
               std::to_string(site.records_dropped_parked);
        out += ", \"parked\": " + std::string(site.parked ? "true" : "false");
        out += ", \"park_reason\": \"" + JsonEscape(site.park_reason) + "\"}";
        out += ", \"objects\": {\"active\": " +
               std::to_string(site.active_objects);
        out += ", \"compressed\": " + std::to_string(site.compressed_objects);
        out += ", \"hibernated\": " + std::to_string(site.hibernated_objects);
        out += ", \"memory_bytes\": " +
               std::to_string(site.filter_memory_bytes) + "}";
        // Before a site's first record the watermark is -infinity, which is
        // not a JSON number.
        out += ", \"watermark\": " +
               (std::isfinite(site.watermark)
                    ? std::to_string(site.watermark)
                    : std::string("null"));
        out += ", \"engine\": " + site.engine.ToJson();
        out += "}";
      }
      out += "]}";
    }
    out += "], \"operators\": [";
    for (size_t i = 0; i < operators.size(); ++i) {
      const BusOperatorStats& op = operators[i];
      if (i > 0) out += ", ";
      out += "{\"subscription\": " + std::to_string(op.subscription);
      out += ", \"kind\": \"" + std::string(op.kind) + "\"";
      out += ", \"site\": " + std::to_string(op.site);
      out += ", \"entries\": " + std::to_string(op.stats.entries);
      out += ", \"bytes_estimate\": " +
             std::to_string(op.stats.bytes_estimate);
      out += ", \"evicted\": " + std::to_string(op.stats.evicted);
      out += "}";
    }
    out += "], \"total_operator_bytes\": " +
           std::to_string(TotalOperatorBytes());
    out += ", \"subscription_dispatches\": " +
           std::to_string(subscription_dispatches);
    out += ", \"total_records_processed\": " +
           std::to_string(TotalRecordsProcessed());
    out += ", \"total_dropped_late\": " + std::to_string(TotalDroppedLate());
    out += ", \"total_hibernated_objects\": " +
           std::to_string(TotalHibernatedObjects());
    out += ", \"total_events_dispatched\": " +
           std::to_string(TotalEventsDispatched());
    out += ", \"checkpoint\": {\"saved\": " + std::to_string(checkpoint.saved);
    out += ", \"failures\": " + std::to_string(checkpoint.failures);
    out += ", \"retries\": " + std::to_string(checkpoint.retries);
    out += ", \"fallback_loads\": " + std::to_string(checkpoint.fallback_loads);
    out += ", \"skipped_parked\": " +
           std::to_string(checkpoint.skipped_parked) + "}";
    out += ", \"faults\": [";
    for (size_t i = 0; i < faults.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"point\": \"" + std::string(FaultPointName(faults[i].point)) +
             "\"";
      out += ", \"hits\": " + std::to_string(faults[i].hits);
      out += ", \"fires\": " + std::to_string(faults[i].fires) + "}";
    }
    out += "]}";
    return out;
  }
};

}  // namespace rfid
