#include "stream/colocation.h"

#include <algorithm>
#include <cmath>

namespace rfid {

namespace {

int64_t PackXY(int64_t cx, int64_t cy) {
  // 32 bits per axis (shifted in unsigned space: negative cells are
  // well-defined): cells are >= the co-location radius, so any plausible
  // coordinate range fits with room to spare.
  return static_cast<int64_t>((static_cast<uint64_t>(cx) << 32) ^
                              (static_cast<uint64_t>(cy) & 0xffffffffULL));
}

}  // namespace

ColocationTracker::ColocationTracker(const ColocationConfig& config)
    : config_(config) {
  cell_size_ = config_.grid_cell_feet > 0
                   ? config_.grid_cell_feet
                   : (config_.colocation_radius_feet > 0
                          ? config_.colocation_radius_feet
                          : 1.0);
  // One ring more than the exact ceil(radius / cell): an entry whose
  // distance sits exactly on the radius cannot be lost to floating-point
  // rounding of the cell coordinates (int truncation alone would leave the
  // exact bound, with zero margin, whenever radius/cell is non-integral).
  reach_ = static_cast<int>(
               std::ceil(config_.colocation_radius_feet / cell_size_)) +
           1;
}

int64_t ColocationTracker::PackCell(const Vec3& p) const {
  return PackXY(static_cast<int64_t>(std::floor(p.x / cell_size_)),
                static_cast<int64_t>(std::floor(p.y / cell_size_)));
}

void ColocationTracker::GridInsert(int64_t cell, TagId tag) {
  grid_[cell].push_back(tag);
}

void ColocationTracker::GridRemove(int64_t cell, TagId tag) {
  auto it = grid_.find(cell);
  if (it == grid_.end()) return;
  auto& tags = it->second;
  for (size_t i = 0; i < tags.size(); ++i) {
    if (tags[i] == tag) {
      tags[i] = tags.back();
      tags.pop_back();
      break;
    }
  }
  if (tags.empty()) grid_.erase(it);
}

int ColocationTracker::JointOf(const PairKey& key,
                               const PairEntry& entry) const {
  const auto a = last_.find(key.a);
  if (a == last_.end()) return entry.joint;
  const auto b = last_.find(key.b);
  if (b == last_.end()) return entry.joint;
  return entry.joint + a->second.events + b->second.events;
}

void ColocationTracker::EvictStale(double now) {
  while (!expiry_.empty() &&
         now - expiry_.front().first > config_.time_slack_seconds) {
    const auto [time, tag] = expiry_.front();
    expiry_.pop_front();
    auto it = last_.find(tag);
    if (it == last_.end() || it->second.time != time) continue;  // Superseded.
    // Its pairs with every other fresh tag are active: freeze their counts.
    // RFID_VERIFY_ALLOW(ordered-emit): per-partner counter updates commute; no event or byte order derives from this scan
    for (const auto& [other, other_state] : last_) {
      if (other == tag) continue;
      const auto pit = pairs_.find(MakeKey(other, tag));
      if (pit == pairs_.end()) continue;  // Unreachable; defensive.
      pit->second.joint += it->second.events + other_state.events;
    }
    GridRemove(it->second.cell, tag);
    last_.erase(it);
    ++evicted_tags_;
  }
}

void ColocationTracker::DecayPairs(double now) {
  // Trim to ~7/8 of the cap so sweeps stay rare; only inactive pairs are
  // candidates (statistics of live pairs must stay exact). TTL-expired
  // pairs are dropped unconditionally during the scan; if that is not
  // enough, the worst of the rest — never-co-located oldest first, then the
  // stalest — are selected with nth_element rather than a full sort (this
  // runs in the event path, under the bus's per-subscription mutex).
  const size_t target = config_.max_pairs - config_.max_pairs / 8;
  struct Victim {
    bool has_colocated = false;
    double last_update = 0.0;
    PairKey key{0, 0};
  };
  std::vector<Victim> victims;
  victims.reserve(pairs_.size());
  // RFID_VERIFY_ALLOW(ordered-emit): the nth_element comparator below tie-breaks on the pair key, so the evicted set is independent of hash order
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    const PairEntry& entry = it->second;
    if (last_.count(it->first.a) != 0 && last_.count(it->first.b) != 0) {
      ++it;  // Active: both tags are fresh.
      continue;
    }
    if (config_.pair_ttl_seconds > 0 &&
        now - entry.last_update > config_.pair_ttl_seconds) {
      it = pairs_.erase(it);
      ++evicted_pairs_;
      continue;
    }
    victims.push_back({entry.colocated > 0, entry.last_update, it->first});
    ++it;
  }
  if (pairs_.size() <= target) return;
  const size_t excess =
      std::min(pairs_.size() - target, victims.size());
  if (excess == 0) return;  // Everything over target is active: exempt.
  const auto worse = [](const Victim& x, const Victim& y) {
    if (x.has_colocated != y.has_colocated) return !x.has_colocated;
    if (x.last_update != y.last_update) return x.last_update < y.last_update;
    return x.key.a != y.key.a ? x.key.a < y.key.a : x.key.b < y.key.b;
  };
  std::nth_element(victims.begin(), victims.begin() + (excess - 1),
                   victims.end(), worse);
  for (size_t i = 0; i < excess; ++i) {
    pairs_.erase(victims[i].key);
    ++evicted_pairs_;
  }
}

void ColocationTracker::Process(const LocationEvent& event) {
  const double now = event.time;
  EvictStale(now);

  auto self = last_.find(event.tag);
  if (self == last_.end()) {
    // The tag (re)joins the fresh set: activate a pair with every fresh tag.
    // This event itself counts as one joint observation with each of them —
    // this tag's zero session counter at activation plus the increment
    // below make the implicit joint arithmetic land on exactly that.
    TagState state;
    state.time = now;
    state.location = event.location;
    // RFID_VERIFY_ALLOW(ordered-emit): per-partner counter updates commute; no event or byte order derives from this scan
    for (const auto& [other, other_state] : last_) {
      PairEntry& entry = pairs_[MakeKey(other, event.tag)];
      entry.joint -= other_state.events;
      entry.last_update = now;
    }
    self = last_.emplace(event.tag, state).first;
    if (config_.max_pairs > 0 && pairs_.size() > config_.max_pairs) {
      DecayPairs(now);
    }
  }

  // Co-location pass: only tags in neighboring grid cells can be within the
  // radius. Joint counts need no per-pair work here — they grow implicitly
  // with the session counters of the (already activated) fresh pairs.
  const int64_t cx =
      static_cast<int64_t>(std::floor(event.location.x / cell_size_));
  const int64_t cy =
      static_cast<int64_t>(std::floor(event.location.y / cell_size_));
  for (int64_t dy = -reach_; dy <= reach_; ++dy) {
    for (int64_t dx = -reach_; dx <= reach_; ++dx) {
      const auto cell_it = grid_.find(PackXY(cx + dx, cy + dy));
      if (cell_it == grid_.end()) continue;
      for (TagId other : cell_it->second) {
        if (other == event.tag) continue;
        const TagState& other_state = last_.find(other)->second;
        if (event.location.DistanceXYTo(other_state.location) >
            config_.colocation_radius_feet) {
          continue;
        }
        const auto pit = pairs_.find(MakeKey(other, event.tag));
        if (pit == pairs_.end()) continue;  // Unreachable; defensive.
        pit->second.colocated += 1;
        pit->second.last_update = now;
      }
    }
  }

  TagState& state = self->second;
  const int64_t cell = PackXY(cx, cy);
  if (state.events == 0) {
    state.cell = cell;
    GridInsert(cell, event.tag);
  } else {
    if (state.cell != cell) {
      GridRemove(state.cell, event.tag);
      GridInsert(cell, event.tag);
      state.cell = cell;
    }
    state.time = now;
    state.location = event.location;
  }
  state.events += 1;
  expiry_.emplace_back(now, event.tag);
}

std::vector<ColocationCandidate> ColocationTracker::Candidates() const {
  std::vector<ColocationCandidate> out;
  for (const auto& [key, entry] : pairs_) {
    const int joint = JointOf(key, entry);
    if (joint < config_.min_joint_observations || joint <= 0) continue;
    const double ratio =
        static_cast<double>(entry.colocated) / static_cast<double>(joint);
    if (ratio < config_.min_colocation_ratio) continue;
    out.push_back({key.a, key.b, joint, entry.colocated, ratio});
  }
  std::sort(out.begin(), out.end(),
            [](const ColocationCandidate& x, const ColocationCandidate& y) {
              if (x.ratio != y.ratio) return x.ratio > y.ratio;
              if (x.joint_observations != y.joint_observations) {
                return x.joint_observations > y.joint_observations;
              }
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  return out;
}

std::optional<ColocationCandidate> ColocationTracker::PairStats(
    TagId a, TagId b) const {
  const PairKey key = MakeKey(a, b);
  const auto it = pairs_.find(key);
  if (it == pairs_.end()) return std::nullopt;
  ColocationCandidate c;
  c.a = key.a;
  c.b = key.b;
  c.joint_observations = JointOf(key, it->second);
  c.colocated_observations = it->second.colocated;
  c.ratio = c.joint_observations > 0
                ? static_cast<double>(c.colocated_observations) /
                      c.joint_observations
                : 0.0;
  return c;
}

OperatorStats ColocationTracker::Stats() const {
  OperatorStats stats;
  stats.entries = last_.size() + pairs_.size();
  size_t bytes =
      last_.size() * (sizeof(TagId) + sizeof(TagState) + 2 * sizeof(void*)) +
      pairs_.size() * (sizeof(PairKey) + sizeof(PairEntry) +
                       2 * sizeof(void*)) +
      grid_.size() * (sizeof(int64_t) + sizeof(std::vector<TagId>) +
                      2 * sizeof(void*)) +
      expiry_.size() * sizeof(std::pair<double, TagId>);
  // RFID_VERIFY_ALLOW(ordered-emit): integer byte-count accumulation commutes; iteration order cannot reach the emitted stats
  for (const auto& [cell, tags] : grid_) {
    bytes += tags.capacity() * sizeof(TagId);
  }
  stats.bytes_estimate = bytes;
  stats.evicted = evicted_tags_ + evicted_pairs_;
  return stats;
}

}  // namespace rfid
