// Sensing-region index (paper §IV-C, Fig. 4).
//
// Two components, exactly as the paper describes:
//  1. a map from sensing-region bounding boxes to the set of objects that had
//     at least one particle within the box when it was recorded, and
//  2. a simplified R*-tree over those bounding boxes.
//
// At each epoch the filter inserts the current sensing region's bounding box
// together with the objects it processed (Cases 1 and 2), and probes with the
// new box to retrieve the Case-2 candidates: objects read before near the
// current reader location. Objects never recorded near the current location
// (Case 4) are skipped entirely — their read probability is rounded to zero.
//
// A box centered near an existing entry merges into it (see Insert), so the
// index grows with the ground the reader has covered: a reader loitering
// over an aisle, or passing it again, adds no entries and no probe work.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "index/rstar_tree.h"

namespace rfid {

class SensingRegionIndex {
 public:
  /// Records that the objects in `object_slots` were processed while the
  /// sensing region covered `box`. The slots merge into an existing entry
  /// whose center lies within a quarter of the box's xy radius of the box's
  /// center: the newest entry when it qualifies, else the nearest one (ties
  /// to the lower entry id). A new entry is made only when none qualifies,
  /// so the entry count grows with the ground covered, not with the epochs
  /// spent on it: a reader loitering over a span, or passing it again,
  /// adds no entries. The choice reads only the entries in insertion order,
  /// which is what a snapshot restores.
  void Insert(const Aabb& box, const std::vector<uint32_t>& object_slots);

  /// Appends a saved entry as it was, merging nothing (snapshot restore).
  /// `object_slots` must be sorted and deduplicated.
  void RestoreEntry(const Aabb& box, std::vector<uint32_t> object_slots);

  /// Caller-provided probe buffers: the R*-tree hit list plus a per-slot
  /// stamp array used as an O(1) "seen this probe" mask (stamps survive
  /// across probes; a probe id bump invalidates them all at once). Owning
  /// this in the caller makes Probe allocation-free per epoch.
  struct ProbeScratch {
    std::vector<uint64_t> hits;
    std::vector<uint32_t> stamp;
    uint32_t probe_id = 0;
  };

  /// Collects the deduplicated, sorted union of object slots recorded in
  /// boxes overlapping `box` (the Case-2 candidate set). Appends to `out`.
  /// Entries whose recorded slots are all hibernated (SetSlotHibernated) are
  /// skipped: a reader passing an aisle of parked tags pays one cached entry
  /// test instead of one revive check per tag per epoch. Slots behind a
  /// skipped entry get no negative-evidence revive check until some entry
  /// holding them wakes; reads (Case 1) always revive.
  void Probe(const Aabb& box, ProbeScratch* scratch,
             std::vector<uint32_t>* out) const;

  /// Convenience overload with local scratch (tests, one-off probes).
  void Probe(const Aabb& box, std::vector<uint32_t>* out) const;

  size_t num_entries() const { return entries_.size(); }

  /// Tracks a slot's hibernation state for the all-hibernated entry skip.
  /// The filter calls this when a tag enters the hibernation tier (true) and
  /// when it revives (false); probes then skip entries whose slots are all
  /// hibernated. Idempotent; slots never marked are awake.
  void SetSlotHibernated(uint32_t slot, bool hibernated);
  bool IsSlotHibernated(uint32_t slot) const {
    return slot < hibernated_.size() && hibernated_[slot] != 0;
  }

  /// Iterates recorded entries in insertion order (snapshot support).
  void ForEachEntry(
      const std::function<void(const Aabb&, const std::vector<uint32_t>&)>& fn)
      const;

 private:
  struct Entry {
    Aabb box;
    std::vector<uint32_t> object_slots;  ///< Sorted, deduplicated.
    /// Cached "every slot hibernated" verdict, valid while hib_cache_gen
    /// matches the index's hib_gen_ (mutable: probes are const).
    mutable uint64_t hib_cache_gen = 0;
    mutable bool hib_cache_all = false;
  };

  /// True when every slot recorded in `e` is hibernated (cached per entry
  /// until the next hibernation-state transition).
  bool EntryAllHibernated(const Entry& e) const;

  /// The entry Insert merges a box centered at `center` into, or null: see
  /// Insert for the rule.
  Entry* MergeTarget(const Vec3& center, double reach);
  /// Unions `object_slots` into `entry`'s slot set.
  void MergeInto(Entry* entry, const std::vector<uint32_t>& object_slots);

  RStarTree tree_;
  std::vector<Entry> entries_;  ///< In insertion order, the newest last.

  // Insert's reused buffers: the R*-tree hits of the merge search and the
  // sorted incoming and merged slot sets.
  std::vector<uint64_t> merge_hits_;
  std::vector<uint32_t> incoming_;
  std::vector<uint32_t> merged_;

  std::vector<uint8_t> hibernated_;  ///< Per-slot hibernation bit.
  /// Bumped on every hibernation-state transition; entry caches keyed on it
  /// stay exact. Starts at 1 so zero-initialized caches are invalid.
  uint64_t hib_gen_ = 1;
};

}  // namespace rfid
