#include "stream/emitter.h"

#include <algorithm>
#include <cmath>

#include "util/serialize.h"

namespace rfid {

using serialize::ReadBool;
using serialize::ReadCount;
using serialize::ReadPod;
using serialize::WritePod;

LocationEvent EventEmitter::MakeEvent(double time, TagId tag,
                                      const LocationEstimate& est) const {
  LocationEvent event;
  event.time = time;
  event.tag = tag;
  event.location = est.mean;
  if (config_.attach_stats) {
    LocationStats stats;
    stats.variance = est.variance;
    stats.rmse_radius =
        std::sqrt(est.variance.x + est.variance.y + est.variance.z);
    stats.support = est.support;
    event.stats = stats;
  }
  return event;
}

std::vector<LocationEvent> EventEmitter::OnEpoch(const SyncedEpoch& epoch,
                                                 const EstimateFn& estimate) {
  const int64_t now = epoch_counter_++;
  std::vector<LocationEvent> events;

  for (TagId tag : epoch.tags) {
    auto [it, inserted] = scopes_.try_emplace(tag);
    TagScope& scope = it->second;
    if (inserted || now - scope.last_read_epoch > config_.scope_timeout_epochs) {
      // New scope period: reset so this visit can produce its own event.
      scope.first_read_time = epoch.time;
      scope.emitted = false;
      // Only the after-delay policy drains the work list; other policies
      // must not grow it.
      if (config_.policy == EmitPolicy::kAfterDelay && !scope.pending) {
        scope.pending = true;
        pending_.push_back(tag);
      }
    }
    scope.last_read_epoch = now;
  }

  switch (config_.policy) {
    case EmitPolicy::kAfterDelay:
      // Only scopes in a fresh (un-emitted) period are on the work list;
      // emitted ones drop off via swap-pop, keeping the per-epoch scan
      // proportional to tags currently awaiting their event.
      for (size_t i = 0; i < pending_.size();) {
        const TagId tag = pending_[i];
        TagScope& scope = scopes_[tag];
        if (scope.emitted) {
          scope.pending = false;
          pending_[i] = pending_.back();
          pending_.pop_back();
          continue;
        }
        if (epoch.time - scope.first_read_time < config_.delay_seconds) {
          ++i;
          continue;
        }
        if (auto est = estimate(tag)) {
          events.push_back(MakeEvent(epoch.time, tag, *est));
          scope.emitted = true;
          scope.pending = false;
          pending_[i] = pending_.back();
          pending_.pop_back();
          continue;
        }
        ++i;
      }
      break;
    case EmitPolicy::kEveryEpoch: {
      // Emit in ascending tag order: the scope map has no stable iteration
      // order and event order is part of the stream's bit-identity contract.
      std::vector<TagId> tags;
      tags.reserve(scopes_.size());
      // RFID_VERIFY_ALLOW(ordered-emit): collect-then-sort; tags are sorted below before any event is produced
      for (const auto& [tag, scope] : scopes_) tags.push_back(tag);
      std::sort(tags.begin(), tags.end());
      for (TagId tag : tags) {
        if (auto est = estimate(tag)) {
          events.push_back(MakeEvent(epoch.time, tag, *est));
        }
      }
      break;
    }
    case EmitPolicy::kOnScanComplete:
      break;  // Deferred to NotifyScanComplete().
  }
  return events;
}

std::vector<LocationEvent> EventEmitter::NotifyScanComplete(
    double time, const EstimateFn& estimate) {
  std::vector<LocationEvent> events;
  // Same ordering contract as the kEveryEpoch path: never let hash order
  // reach the emitted event sequence.
  std::vector<TagId> tags;
  tags.reserve(scopes_.size());
  // RFID_VERIFY_ALLOW(ordered-emit): collect-then-sort; tags are sorted below before any event is produced
  for (const auto& [tag, scope] : scopes_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  for (TagId tag : tags) {
    if (auto est = estimate(tag)) {
      events.push_back(MakeEvent(time, tag, *est));
      scopes_[tag].emitted = true;
    }
  }
  return events;
}

void EventEmitter::SaveState(std::ostream& os) const {
  WritePod(os, epoch_counter_);
  // Scopes sorted by tag so the serialized bytes are deterministic (the map
  // itself has no stable iteration order).
  std::vector<TagId> tags;
  tags.reserve(scopes_.size());
  // RFID_VERIFY_ALLOW(ordered-emit): collect-then-sort; serialized bytes are ordered by the sort below
  for (const auto& [tag, scope] : scopes_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  WritePod(os, static_cast<uint64_t>(tags.size()));
  for (TagId tag : tags) {
    const TagScope& scope = scopes_.at(tag);
    WritePod(os, tag);
    WritePod(os, scope.first_read_time);
    WritePod(os, scope.last_read_epoch);
    WritePod(os, static_cast<uint8_t>(scope.emitted ? 1 : 0));
    WritePod(os, static_cast<uint8_t>(scope.pending ? 1 : 0));
  }
  // The work list keeps its exact order: it decides the order of events
  // emitted within one epoch.
  WritePod(os, static_cast<uint64_t>(pending_.size()));
  for (TagId tag : pending_) WritePod(os, tag);
}

Status EventEmitter::LoadState(std::istream& is) {
  // Serialized size of one scope: tag, first read time, last read epoch and
  // the two flags. Counts are bounded by the bytes left before allocating.
  constexpr uint64_t kScopeBytes = sizeof(TagId) + sizeof(double) +
                                   sizeof(int64_t) + 2 * sizeof(uint8_t);
  int64_t epoch_counter = 0;
  uint64_t scope_count = 0;
  if (!ReadPod(is, &epoch_counter) ||
      !ReadCount(is, &scope_count, kScopeBytes)) {
    return Status::IOError("truncated emitter state");
  }
  std::unordered_map<TagId, TagScope> scopes;
  scopes.reserve(scope_count);
  TagId previous_tag = 0;
  for (uint64_t i = 0; i < scope_count; ++i) {
    TagId tag = 0;
    TagScope scope;
    if (!ReadPod(is, &tag) || !ReadPod(is, &scope.first_read_time) ||
        !ReadPod(is, &scope.last_read_epoch) ||
        !ReadBool(is, &scope.emitted) || !ReadBool(is, &scope.pending)) {
      return Status::IOError("truncated emitter state");
    }
    // SaveState writes scopes sorted by tag, each once.
    if (i > 0 && tag <= previous_tag) {
      return Status::Invalid("emitter scopes out of order");
    }
    previous_tag = tag;
    scopes[tag] = scope;
  }
  uint64_t pending_count = 0;
  if (!ReadCount(is, &pending_count, sizeof(TagId))) {
    return Status::IOError("truncated emitter state");
  }
  std::vector<TagId> pending(pending_count);
  for (auto& tag : pending) {
    if (!ReadPod(is, &tag)) return Status::IOError("truncated emitter state");
    if (scopes.find(tag) == scopes.end()) {
      return Status::Invalid("emitter work list references unknown tag");
    }
  }
  epoch_counter_ = epoch_counter;
  scopes_ = std::move(scopes);
  pending_ = std::move(pending);
  return Status::OK();
}

}  // namespace rfid
