#include "stream/synchronizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/serialize.h"

namespace rfid {

using serialize::ReadBool;
using serialize::ReadCount;
using serialize::ReadPod;
using serialize::WritePod;

namespace {
/// Bounded mode rejects timestamps beyond this magnitude as corrupt: they
/// would produce astronomic epoch indices (and int64 cast overflow is UB).
/// 1e15 seconds is ~31 million years of stream time.
constexpr double kMaxAbsTime = 1e15;

bool SaneTime(double time) {
  return std::isfinite(time) && std::fabs(time) <= kMaxAbsTime;
}
}  // namespace

StreamSynchronizer::StreamSynchronizer(double epoch_seconds) {
  config_.epoch_seconds = epoch_seconds > 0 ? epoch_seconds : 1.0;
}

StreamSynchronizer::StreamSynchronizer(const SynchronizerConfig& config)
    : config_(config) {
  if (config_.epoch_seconds <= 0) config_.epoch_seconds = 1.0;
}

double StreamSynchronizer::watermark() const {
  if (strict() || !any_seen_) {
    return -std::numeric_limits<double>::infinity();
  }
  return max_seen_time_ - config_.max_lateness_seconds;
}

StreamSynchronizer::PendingEpoch& StreamSynchronizer::Pending(int64_t index) {
  for (auto& p : pending_) {
    if (p.index == index) return p;
  }
  PendingEpoch p;
  p.index = index;
  pending_.push_back(p);
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingEpoch& a, const PendingEpoch& b) {
              return a.index < b.index;
            });
  for (auto& q : pending_) {
    if (q.index == index) return q;
  }
  return pending_.back();  // Unreachable.
}

SyncedEpoch StreamSynchronizer::Close(PendingEpoch&& pending) const {
  SyncedEpoch epoch;
  epoch.step = pending.index;
  epoch.time = static_cast<double>(pending.index) * config_.epoch_seconds;
  // Deduplicate tags read multiple times within the epoch.
  std::sort(pending.tags.begin(), pending.tags.end());
  pending.tags.erase(std::unique(pending.tags.begin(), pending.tags.end()),
                     pending.tags.end());
  epoch.tags = std::move(pending.tags);
  if (pending.location_count > 0) {
    epoch.has_location = true;
    epoch.reported_location =
        pending.location_sum / static_cast<double>(pending.location_count);
  }
  if (pending.heading_count > 0) {
    epoch.has_heading = true;
    epoch.reported_heading =
        std::atan2(pending.heading_sin_sum, pending.heading_cos_sum);
  }
  return epoch;
}

SyncedEpoch StreamSynchronizer::EmptyEpoch(int64_t index) const {
  SyncedEpoch epoch;
  epoch.step = index;
  epoch.time = static_cast<double>(index) * config_.epoch_seconds;
  return epoch;
}

bool StreamSynchronizer::Admit(double time) {
  if (strict()) return true;
  if (!SaneTime(time)) {
    ++dropped_late_records_;
    return false;
  }
  if (any_seen_) {
    // Drop records that target an already-closed epoch (their output left
    // the building) or sit beyond the lateness bound even before closing.
    if ((any_closed_ && EpochIndex(time) <= highest_closed_) ||
        time < max_seen_time_ - config_.max_lateness_seconds) {
      ++dropped_late_records_;
      return false;
    }
    max_seen_time_ = std::max(max_seen_time_, time);
  } else {
    any_seen_ = true;
    max_seen_time_ = time;
  }
  return true;
}

Result<std::vector<SyncedEpoch>> StreamSynchronizer::Synchronize(
    const std::vector<TagReading>& readings,
    const std::vector<ReaderLocationReport>& locations) {
  if (strict()) {
    for (size_t i = 1; i < readings.size(); ++i) {
      if (readings[i].time < readings[i - 1].time) {
        return Status::Invalid("RFID reading stream is not time-ordered");
      }
    }
    for (size_t i = 1; i < locations.size(); ++i) {
      if (locations[i].time < locations[i - 1].time) {
        return Status::Invalid("location stream is not time-ordered");
      }
    }
  }
  if (readings.empty() && locations.empty()) {
    return std::vector<SyncedEpoch>{};
  }

  // Bounded-lateness admission: walk each stream in arrival order against a
  // running newest-time, dropping records beyond the bound (the same policy
  // the online path applies, minus the epoch-granular closing).
  std::vector<char> admit_reading(readings.size(), 1);
  std::vector<char> admit_location(locations.size(), 1);
  if (!strict()) {
    double newest = -std::numeric_limits<double>::infinity();
    size_t r = 0, l = 0;
    // Merge by position: streams arrive independently, so judge each record
    // against the newest time across both, taken in time order of arrival.
    while (r < readings.size() || l < locations.size()) {
      const double tr =
          r < readings.size() ? readings[r].time
                              : std::numeric_limits<double>::infinity();
      const double tl =
          l < locations.size() ? locations[l].time
                               : std::numeric_limits<double>::infinity();
      // NaN comparisons are false, so decide exhaustion explicitly or a NaN
      // time could select an exhausted stream's index.
      const bool take_reading =
          l >= locations.size() || (r < readings.size() && tr <= tl);
      const double t = take_reading ? tr : tl;
      if (!SaneTime(t) || t + config_.max_lateness_seconds < newest) {
        ++dropped_late_records_;
        (take_reading ? admit_reading[r] : admit_location[l]) = 0;
      } else {
        newest = std::max(newest, t);
      }
      take_reading ? ++r : ++l;
    }
  }

  int64_t first = std::numeric_limits<int64_t>::max();
  int64_t last = std::numeric_limits<int64_t>::min();
  auto update_bounds = [&](double time) {
    const int64_t idx = EpochIndex(time);
    first = std::min(first, idx);
    last = std::max(last, idx);
  };
  size_t admitted = 0;
  for (size_t i = 0; i < readings.size(); ++i) {
    if (admit_reading[i]) {
      update_bounds(readings[i].time);
      ++admitted;
    }
  }
  for (size_t i = 0; i < locations.size(); ++i) {
    if (admit_location[i]) {
      update_bounds(locations[i].time);
      ++admitted;
    }
  }
  if (admitted == 0) return std::vector<SyncedEpoch>{};

  std::vector<PendingEpoch> epochs(static_cast<size_t>(last - first + 1));
  for (size_t i = 0; i < epochs.size(); ++i) {
    epochs[i].index = first + static_cast<int64_t>(i);
  }
  for (size_t i = 0; i < readings.size(); ++i) {
    if (!admit_reading[i]) continue;
    epochs[static_cast<size_t>(EpochIndex(readings[i].time) - first)]
        .tags.push_back(readings[i].tag);
  }
  for (size_t i = 0; i < locations.size(); ++i) {
    if (!admit_location[i]) continue;
    const auto& l = locations[i];
    auto& e = epochs[static_cast<size_t>(EpochIndex(l.time) - first)];
    e.location_sum += l.location;
    ++e.location_count;
    if (l.has_heading) {
      e.heading_sin_sum += std::sin(l.heading);
      e.heading_cos_sum += std::cos(l.heading);
      ++e.heading_count;
    }
  }

  std::vector<SyncedEpoch> out;
  out.reserve(epochs.size());
  for (auto& e : epochs) out.push_back(Close(std::move(e)));
  return out;
}

bool StreamSynchronizer::Push(const TagReading& reading) {
  if (!Admit(reading.time)) return false;
  Pending(EpochIndex(reading.time)).tags.push_back(reading.tag);
  return true;
}

bool StreamSynchronizer::Push(const ReaderLocationReport& report) {
  if (!Admit(report.time)) return false;
  auto& e = Pending(EpochIndex(report.time));
  e.location_sum += report.location;
  ++e.location_count;
  if (report.has_heading) {
    e.heading_sin_sum += std::sin(report.heading);
    e.heading_cos_sum += std::cos(report.heading);
    ++e.heading_count;
  }
  return true;
}

std::vector<SyncedEpoch> StreamSynchronizer::Poll(double time) {
  const int64_t open_from = EpochIndex(time);
  std::vector<SyncedEpoch> out;
  size_t kept = 0;
  for (auto& p : pending_) {
    if (p.index < open_from) {
      out.push_back(Close(std::move(p)));
    } else {
      pending_[kept++] = std::move(p);
    }
  }
  pending_.resize(kept);
  if (!out.empty()) {
    const int64_t newest = out.back().step;
    highest_closed_ = any_closed_ ? std::max(highest_closed_, newest) : newest;
    any_closed_ = true;
  }
  return out;
}

std::vector<SyncedEpoch> StreamSynchronizer::PollWatermark() {
  std::vector<SyncedEpoch> out;
  if (strict() || !any_seen_) return out;
  // Epoch i covers [i*es, (i+1)*es): closeable once its end passed the
  // watermark. Clamp before the cast: admission bounds |time| but a tiny
  // epoch_seconds could still push the quotient past int64 range (UB).
  double raw_close = std::floor(watermark() / config_.epoch_seconds) - 1.0;
  if (raw_close > 9.0e18) raw_close = 9.0e18;
  const int64_t close_through = static_cast<int64_t>(raw_close);
  // First index to emit: right after the last closed epoch, so the output
  // step sequence is contiguous (gaps synthesize empty epochs); at stream
  // start, the earliest closeable pending index.
  int64_t from;
  if (any_closed_) {
    from = highest_closed_ + 1;
  } else {
    from = std::numeric_limits<int64_t>::max();
    for (const auto& p : pending_) from = std::min(from, p.index);
    if (from > close_through) return out;
  }
  if (from > close_through) return out;

  size_t kept = 0;
  std::vector<PendingEpoch> closeable;
  for (auto& p : pending_) {
    if (p.index <= close_through) {
      closeable.push_back(std::move(p));
    } else {
      pending_[kept++] = std::move(p);
    }
  }
  pending_.resize(kept);

  // Discontinuity guard: only the trailing max_gap_epochs indices of the
  // range are eligible for empty-epoch synthesis; a far-future record can
  // therefore not make this loop materialize (and the filter process)
  // billions of quiet epochs. Non-empty pending epochs always emit.
  const int64_t cap = std::max<int64_t>(0, config_.max_gap_epochs);
  const int64_t empty_from =
      close_through - from >= cap ? close_through - cap + 1 : from;

  // closeable is sorted (pending_ is kept sorted by index).
  size_t c = 0;
  int64_t next_index = from;
  while (c < closeable.size() && closeable[c].index < empty_from) {
    skipped_gap_epochs_ +=
        static_cast<uint64_t>(closeable[c].index - next_index);
    next_index = closeable[c].index + 1;
    out.push_back(Close(std::move(closeable[c])));
    ++c;
  }
  if (empty_from > next_index) {
    skipped_gap_epochs_ += static_cast<uint64_t>(empty_from - next_index);
    next_index = empty_from;
  }
  for (int64_t index = next_index; index <= close_through; ++index) {
    if (c < closeable.size() && closeable[c].index == index) {
      out.push_back(Close(std::move(closeable[c])));
      ++c;
    } else {
      out.push_back(EmptyEpoch(index));
    }
  }
  highest_closed_ = close_through;
  any_closed_ = true;
  return out;
}

std::vector<SyncedEpoch> StreamSynchronizer::Finish() {
  std::vector<SyncedEpoch> out;
  for (auto& p : pending_) out.push_back(Close(std::move(p)));
  pending_.clear();
  std::sort(out.begin(), out.end(),
            [](const SyncedEpoch& a, const SyncedEpoch& b) {
              return a.step < b.step;
            });
  // In bounded-lateness mode keep the contiguous-step contract: fill gaps
  // from the last closed epoch through the tail, under the same
  // discontinuity cap as PollWatermark.
  if (!strict() && !out.empty()) {
    const int64_t cap = std::max<int64_t>(0, config_.max_gap_epochs);
    std::vector<SyncedEpoch> filled;
    int64_t next = any_closed_ ? highest_closed_ + 1 : out.front().step;
    for (auto& e : out) {
      if (e.step - next > cap) {
        skipped_gap_epochs_ += static_cast<uint64_t>(e.step - next - cap);
        next = e.step - cap;
      }
      for (; next < e.step; ++next) filled.push_back(EmptyEpoch(next));
      next = e.step + 1;
      filled.push_back(std::move(e));
    }
    out = std::move(filled);
  }
  if (!out.empty()) {
    const int64_t newest = out.back().step;
    highest_closed_ = any_closed_ ? std::max(highest_closed_, newest) : newest;
    any_closed_ = true;
  }
  return out;
}

void StreamSynchronizer::SaveState(std::ostream& os) const {
  WritePod(os, static_cast<uint8_t>(any_seen_ ? 1 : 0));
  WritePod(os, max_seen_time_);
  WritePod(os, static_cast<uint8_t>(any_closed_ ? 1 : 0));
  WritePod(os, highest_closed_);
  WritePod(os, dropped_late_records_);
  WritePod(os, skipped_gap_epochs_);
  WritePod(os, static_cast<uint64_t>(pending_.size()));
  for (const auto& p : pending_) {
    WritePod(os, p.index);
    WritePod(os, static_cast<uint64_t>(p.tags.size()));
    for (TagId tag : p.tags) WritePod(os, tag);
    WritePod(os, p.location_sum.x);
    WritePod(os, p.location_sum.y);
    WritePod(os, p.location_sum.z);
    WritePod(os, p.location_count);
    WritePod(os, p.heading_sin_sum);
    WritePod(os, p.heading_cos_sum);
    WritePod(os, p.heading_count);
  }
}

Status StreamSynchronizer::LoadState(std::istream& is) {
  // Serialized size of one pending epoch with no tags. Counts are bounded
  // by the bytes left before anything is allocated.
  constexpr uint64_t kPendingBytes =
      sizeof(PendingEpoch::index) + sizeof(uint64_t) + 3 * sizeof(double) +
      sizeof(PendingEpoch::location_count) + 2 * sizeof(double) +
      sizeof(PendingEpoch::heading_count);
  bool any_seen = false, any_closed = false;
  double max_seen = 0.0;
  int64_t highest_closed = 0;
  uint64_t dropped = 0, skipped = 0, pending_count = 0;
  if (!ReadBool(is, &any_seen) || !ReadPod(is, &max_seen) ||
      !ReadBool(is, &any_closed) || !ReadPod(is, &highest_closed) ||
      !ReadPod(is, &dropped) || !ReadPod(is, &skipped) ||
      !ReadCount(is, &pending_count, kPendingBytes)) {
    return Status::IOError("truncated synchronizer state");
  }
  std::vector<PendingEpoch> pending(pending_count);
  for (auto& p : pending) {
    uint64_t tag_count = 0;
    if (!ReadPod(is, &p.index) ||
        !ReadCount(is, &tag_count, sizeof(TagId))) {
      return Status::IOError("truncated synchronizer state");
    }
    p.tags.resize(tag_count);
    for (auto& tag : p.tags) {
      if (!ReadPod(is, &tag)) {
        return Status::IOError("truncated synchronizer state");
      }
    }
    if (!ReadPod(is, &p.location_sum.x) || !ReadPod(is, &p.location_sum.y) ||
        !ReadPod(is, &p.location_sum.z) || !ReadPod(is, &p.location_count) ||
        !ReadPod(is, &p.heading_sin_sum) || !ReadPod(is, &p.heading_cos_sum) ||
        !ReadPod(is, &p.heading_count)) {
      return Status::IOError("truncated synchronizer state");
    }
  }
  any_seen_ = any_seen;
  max_seen_time_ = max_seen;
  any_closed_ = any_closed;
  highest_closed_ = highest_closed;
  dropped_late_records_ = dropped;
  skipped_gap_epochs_ = skipped;
  pending_ = std::move(pending);
  return Status::OK();
}

}  // namespace rfid
