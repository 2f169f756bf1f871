#include "index/sensing_index.h"

#include <algorithm>
#include <utility>

namespace rfid {

namespace {
/// A box merges into an entry whose center lies within this fraction of the
/// box's xy radius of the box's center.
constexpr double kMergeDistanceFraction = 0.25;

void SortUnique(std::vector<uint32_t>* slots) {
  std::sort(slots->begin(), slots->end());
  slots->erase(std::unique(slots->begin(), slots->end()), slots->end());
}
}  // namespace

void SensingRegionIndex::Insert(const Aabb& box,
                                const std::vector<uint32_t>& object_slots) {
  const double radius = 0.5 * std::max({box.Extent().x, box.Extent().y, 1e-9});
  Entry* target = MergeTarget(box.Center(), kMergeDistanceFraction * radius);
  if (target != nullptr) {
    // The entry box stays as inserted into the tree (boxes this close are
    // interchangeable for probing; the small positional slack is covered by
    // the overlap of neighbouring entries along the reader path).
    MergeInto(target, object_slots);
    return;
  }
  std::vector<uint32_t> slots = object_slots;
  SortUnique(&slots);
  RestoreEntry(box, std::move(slots));
}

void SensingRegionIndex::RestoreEntry(const Aabb& box,
                                      std::vector<uint32_t> object_slots) {
  const auto id = static_cast<uint64_t>(entries_.size());
  Entry entry;
  entry.box = box;
  entry.object_slots = std::move(object_slots);
  entries_.push_back(std::move(entry));
  tree_.Insert(box, id);
}

SensingRegionIndex::Entry* SensingRegionIndex::MergeTarget(const Vec3& center,
                                                           double reach) {
  if (entries_.empty()) return nullptr;
  // The newest entry first: a reader moving on merges into the box it made
  // last.
  if ((center - entries_.back().box.Center()).Norm() < reach) {
    return &entries_.back();
  }
  // Otherwise the nearest entry within reach. A qualifying center lies in
  // the cube of half-side `reach` around `center` (each coordinate's
  // difference is at most the distance), and every entry box holds its own
  // center, so the cube query misses none of them. Ordering (distance, id)
  // sends ties to the lower id, whatever order the tree returns the hits
  // in; starting from (reach, 0) admits only distances below reach.
  const Vec3 half{reach, reach, reach};
  merge_hits_.clear();
  tree_.Query(Aabb(center - half, center + half), &merge_hits_);
  std::pair<double, uint64_t> best{reach, 0};
  Entry* nearest = nullptr;
  for (uint64_t id : merge_hits_) {
    const std::pair<double, uint64_t> key{
        (center - entries_[id].box.Center()).Norm(), id};
    if (key < best) {
      best = key;
      nearest = &entries_[id];
    }
  }
  return nearest;
}

void SensingRegionIndex::MergeInto(Entry* entry,
                                   const std::vector<uint32_t>& object_slots) {
  incoming_.assign(object_slots.begin(), object_slots.end());
  SortUnique(&incoming_);
  merged_.clear();
  std::set_union(entry->object_slots.begin(), entry->object_slots.end(),
                 incoming_.begin(), incoming_.end(),
                 std::back_inserter(merged_));
  // A reader loitering over an entry mostly records slots it holds already;
  // then the slot set, and its cached hibernation verdict, stay as they are.
  if (merged_.size() == entry->object_slots.size()) return;
  entry->object_slots.swap(merged_);
  entry->hib_cache_gen = 0;  // Slot set changed; cached verdict is stale.
}

void SensingRegionIndex::SetSlotHibernated(uint32_t slot, bool hibernated) {
  if (slot >= hibernated_.size()) {
    if (!hibernated) return;  // Never-marked slots are awake already.
    hibernated_.resize(slot + 1, 0u);
  }
  const uint8_t bit = hibernated ? 1u : 0u;
  if (hibernated_[slot] == bit) return;
  hibernated_[slot] = bit;
  ++hib_gen_;  // Invalidate every entry's cached verdict.
}

bool SensingRegionIndex::EntryAllHibernated(const Entry& e) const {
  if (e.hib_cache_gen == hib_gen_) return e.hib_cache_all;
  bool all = !e.object_slots.empty();
  for (uint32_t slot : e.object_slots) {
    if (!IsSlotHibernated(slot)) {
      all = false;
      break;  // Early exit: one awake slot keeps the entry in the sweep.
    }
  }
  e.hib_cache_gen = hib_gen_;
  e.hib_cache_all = all;
  return all;
}

void SensingRegionIndex::ForEachEntry(
    const std::function<void(const Aabb&, const std::vector<uint32_t>&)>& fn)
    const {
  for (const Entry& e : entries_) fn(e.box, e.object_slots);
}

void SensingRegionIndex::Probe(const Aabb& box, ProbeScratch* scratch,
                               std::vector<uint32_t>* out) const {
  scratch->hits.clear();
  tree_.Query(box, &scratch->hits);
  if (++scratch->probe_id == 0) {
    // Stamp wrap-around: old stamps could alias the new id; reset them.
    std::fill(scratch->stamp.begin(), scratch->stamp.end(), 0u);
    scratch->probe_id = 1;
  }
  const size_t first = out->size();
  for (uint64_t h : scratch->hits) {
    const Entry& entry = entries_[h];
    // An aisle of parked tags: skip the whole entry on one cached test
    // instead of surfacing every hibernated slot to the filter's per-slot
    // revive check.
    if (EntryAllHibernated(entry)) continue;
    for (uint32_t slot : entry.object_slots) {
      if (slot >= scratch->stamp.size()) scratch->stamp.resize(slot + 1, 0u);
      if (scratch->stamp[slot] == scratch->probe_id) continue;
      scratch->stamp[slot] = scratch->probe_id;
      out->push_back(slot);
    }
  }
  // Keep the historical sorted-output contract (stable downstream
  // processing order).
  std::sort(out->begin() + first, out->end());
}

void SensingRegionIndex::Probe(const Aabb& box,
                               std::vector<uint32_t>* out) const {
  ProbeScratch scratch;
  Probe(box, &scratch, out);
}

}  // namespace rfid
