#include "stream/synchronizer.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "util/serialize.h"

namespace rfid {

using serialize::ReadBool;
using serialize::ReadCount;
using serialize::ReadPod;
using serialize::WritePod;

namespace {
/// Admission drops records whose epoch index would exceed this magnitude,
/// so every index and every difference of two stays far inside int64_t
/// (casting an out-of-range double is undefined behaviour). At 1 s epochs
/// that is ~31 million years of stream time.
constexpr double kMaxAbsEpochIndex = 1e15;

/// Most empty epochs one quiet gap may synthesize (see PollWatermark).
constexpr int64_t kMaxGapEpochs = 100'000;

bool IndexInBound(int64_t index) {
  return std::fabs(static_cast<double>(index)) <= kMaxAbsEpochIndex;
}
}  // namespace

StreamSynchronizer::StreamSynchronizer(const SynchronizerConfig& config)
    : config_(config) {
  if (config_.epoch_seconds <= 0) config_.epoch_seconds = 1.0;
  if (config_.max_lateness_seconds < 0) config_.max_lateness_seconds = 0.0;
}

double StreamSynchronizer::watermark() const {
  if (!any_seen_) return -std::numeric_limits<double>::infinity();
  return max_seen_time_ - config_.max_lateness_seconds;
}

StreamSynchronizer::PendingEpoch& StreamSynchronizer::Pending(int64_t index) {
  auto it = std::lower_bound(
      pending_.begin(), pending_.end(), index,
      [](const PendingEpoch& p, int64_t i) { return p.index < i; });
  if (it == pending_.end() || it->index != index) {
    it = pending_.insert(it, PendingEpoch{});
    it->index = index;
  }
  return *it;
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

bool StreamSynchronizer::AdmissibleTime(double time) const {
  // False for NaN and infinities too.
  return std::fabs(time / config_.epoch_seconds) <= kMaxAbsEpochIndex;
}

bool StreamSynchronizer::Admit(double time) {
  if (!AdmissibleTime(time)) {
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

std::vector<SyncedEpoch> StreamSynchronizer::PollWatermark() {
  std::vector<SyncedEpoch> out;
  if (!any_seen_) return out;
  // Epoch i covers [i*es, (i+1)*es): closeable once its end passed the
  // watermark. The newest admitted time bounds the watermark from above; a
  // watermark below every admissible index (a huge lateness bound) closes
  // nothing, and is not cast.
  const double raw_close =
      std::floor(watermark() / config_.epoch_seconds) - 1.0;
  if (!(raw_close >= -kMaxAbsEpochIndex)) return out;
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
  }
  if (from > close_through) return out;

  // pending_ is sorted by index, so the closeable epochs are a prefix.
  // (Compacting the rest in place would move-assign an epoch onto itself,
  // which empties its tag list.)
  const auto split = std::partition_point(
      pending_.begin(), pending_.end(),
      [close_through](const PendingEpoch& p) {
        return p.index <= close_through;
      });
  std::vector<PendingEpoch> closeable(std::make_move_iterator(pending_.begin()),
                                      std::make_move_iterator(split));
  pending_.erase(pending_.begin(), split);

  // Discontinuity guard: only the trailing kMaxGapEpochs indices of the
  // range are eligible for empty-epoch synthesis; a far-future record can
  // therefore not make this loop materialize (and the filter process)
  // billions of quiet epochs. Non-empty pending epochs always emit.
  const int64_t empty_from = close_through - from >= kMaxGapEpochs
                                 ? close_through - kMaxGapEpochs + 1
                                 : from;

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
  if (pending_.empty()) return out;
  // Keep the contiguous-step contract: fill gaps from the last closed epoch
  // through the tail, under the same discontinuity cap as PollWatermark.
  // Pending epochs are sorted and all above the last closed one.
  int64_t next = any_closed_ ? highest_closed_ + 1 : pending_.front().index;
  for (auto& p : pending_) {
    if (p.index - next > kMaxGapEpochs) {
      skipped_gap_epochs_ +=
          static_cast<uint64_t>(p.index - next - kMaxGapEpochs);
      next = p.index - kMaxGapEpochs;
    }
    for (; next < p.index; ++next) out.push_back(EmptyEpoch(next));
    next = p.index + 1;
    out.push_back(Close(std::move(p)));
  }
  pending_.clear();
  highest_closed_ = out.back().step;
  any_closed_ = true;
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
  // Admission under this config never produces the states rejected below;
  // restoring one would stall the site (a NaN newest time never lets the
  // watermark advance again) or misnumber its epochs.
  if (!AdmissibleTime(max_seen)) {
    return Status::Invalid("synchronizer newest time out of range");
  }
  if (!IndexInBound(highest_closed)) {
    return Status::Invalid("synchronizer closed epoch out of range");
  }
  std::vector<PendingEpoch> pending(pending_count);
  for (size_t i = 0; i < pending.size(); ++i) {
    PendingEpoch& p = pending[i];
    uint64_t tag_count = 0;
    if (!ReadPod(is, &p.index) ||
        !ReadCount(is, &tag_count, sizeof(TagId))) {
      return Status::IOError("truncated synchronizer state");
    }
    if (!IndexInBound(p.index)) {
      return Status::Invalid("synchronizer pending epoch out of range");
    }
    if ((i > 0 && p.index <= pending[i - 1].index) ||
        (any_closed && p.index <= highest_closed)) {
      return Status::Invalid("synchronizer pending epochs out of order");
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
    if (!std::isfinite(p.location_sum.x) || !std::isfinite(p.location_sum.y) ||
        !std::isfinite(p.location_sum.z) || !std::isfinite(p.heading_sin_sum) ||
        !std::isfinite(p.heading_cos_sum)) {
      return Status::Invalid("synchronizer pending sums are not finite");
    }
    if (p.location_count < 0 || p.heading_count < 0) {
      return Status::Invalid("synchronizer pending counts are negative");
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
