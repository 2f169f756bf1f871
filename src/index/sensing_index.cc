#include "index/sensing_index.h"

#include <algorithm>

namespace rfid {

namespace {
/// Consecutive epoch boxes whose centers moved less than this fraction of
/// the box radius merge into one entry.
constexpr double kMergeDistanceFraction = 0.25;
}  // namespace

void SensingRegionIndex::Insert(const Aabb& box,
                                const std::vector<uint32_t>& object_slots) {
  if (last_entry_ >= 0) {
    Entry& last = entries_[last_entry_];
    const Vec3 d = box.Center() - last.box.Center();
    const double radius = 0.5 * std::max({box.Extent().x, box.Extent().y, 1e-9});
    if (d.Norm() < kMergeDistanceFraction * radius) {
      // Merge into the previous entry: union the object sets. The entry box
      // stays as inserted into the tree (boxes this close are interchangeable
      // for probing; the small positional slack is covered by the overlap of
      // neighbouring entries along the reader path).
      std::vector<uint32_t> merged;
      merged.reserve(last.object_slots.size() + object_slots.size());
      std::vector<uint32_t> incoming = object_slots;
      std::sort(incoming.begin(), incoming.end());
      std::set_union(last.object_slots.begin(), last.object_slots.end(),
                     incoming.begin(), incoming.end(),
                     std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      last.object_slots = std::move(merged);
      last.hib_cache_gen = 0;  // Slot set changed; cached verdict is stale.
      return;
    }
  }
  Entry entry;
  entry.box = box;
  entry.object_slots = object_slots;
  std::sort(entry.object_slots.begin(), entry.object_slots.end());
  entry.object_slots.erase(
      std::unique(entry.object_slots.begin(), entry.object_slots.end()),
      entry.object_slots.end());
  const auto id = static_cast<uint64_t>(entries_.size());
  entries_.push_back(std::move(entry));
  tree_.Insert(box, id);
  last_entry_ = static_cast<int>(id);
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
