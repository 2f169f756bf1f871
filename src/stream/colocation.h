// Inter-object containment candidates (prototype of the paper's §VII future
// work: "enhance our techniques to address inter-object containment
// relationships").
//
// Containment (a case packed inside a pallet, items inside a case) shows up
// in the clean event stream as persistent co-location: two tags whose
// inferred locations stay within a small radius across many reports. This
// operator consumes location events and maintains, per tag pair, a count of
// joint observations (the other tag reported within time slack) and how many
// of those were co-located (within the radius); pairs whose co-location
// ratio passes a threshold after enough joint observations are reported as
// containment candidates.
//
// The implementation is built for unbounded streams with many tags:
//
//  * `last_` holds only *fresh* tags. A global expiry queue in report-time
//    order evicts a tag the moment the stream's clock passes its last report
//    by more than the time slack, so departed tags stop costing anything —
//    the seed implementation scanned every tag ever seen on every event.
//  * Co-location tests go through a uniform grid over each fresh tag's last
//    report, so an event only visits tags in neighboring cells (O(local
//    density), not O(tags)).
//  * Joint counts are not maintained by touching every fresh pair per event.
//    A pair is *active* exactly while both of its tags are fresh, so its
//    activity is read off `last_`, not stored. While active, "joint" grows
//    implicitly with the two tags' per-session event counters: the entry
//    holds its frozen count minus both counters at activation, and adding
//    the counters back freezes it when either tag is evicted. Per event this
//    is O(1) plus the grid neighborhood, with an O(fresh) scan only when a
//    tag joins or leaves the fresh set. The counts are exactly those of the
//    naive per-event pairwise scan (see tests/colocation_equiv_test.cc).
//  * `pairs_` can be soft-capped: when it outgrows `max_pairs`, inactive
//    pairs are decayed — TTL-expired ones first, then never-co-located ones
//    oldest first, then the stalest of the rest. Pairs between currently
//    fresh tags are never decayed, so live statistics stay exact.
//
// Event times must be non-decreasing (the serving pipeline guarantees
// per-site event order).
//
// This is deliberately a statistics-level prototype — full containment
// inference belongs in the probabilistic model (and is future work in the
// paper as well) — but it is already useful for seeding containment graphs.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "stream/events.h"
#include "stream/operator_stats.h"
#include "util/hash.h"

namespace rfid {

struct ColocationConfig {
  /// Two events are "joint" when their times differ by at most this.
  double time_slack_seconds = 90.0;
  /// Joint events count as co-located when locations are within this radius.
  double colocation_radius_feet = 1.0;
  /// Minimum joint observations before a pair can be reported.
  int min_joint_observations = 3;
  /// Minimum fraction of joint observations that were co-located.
  double min_colocation_ratio = 0.8;

  /// Edge length of the spatial index cells; <= 0 uses the co-location
  /// radius (a 3x3 neighborhood then covers every candidate).
  double grid_cell_feet = 0.0;
  /// Soft cap on pair statistics entries: when exceeded, inactive pairs are
  /// decayed until the map is back under ~7/8 of the cap (pairs of currently
  /// fresh tags are exempt). 0 disables the cap.
  size_t max_pairs = 1u << 20;
  /// During a decay sweep, inactive pairs untouched for longer than this are
  /// always dropped, regardless of rank. 0 disables the TTL.
  double pair_ttl_seconds = 0.0;
};

/// A candidate containment / co-packing relation between two tags.
struct ColocationCandidate {
  TagId a = 0;
  TagId b = 0;  ///< a < b.
  int joint_observations = 0;
  int colocated_observations = 0;
  double ratio = 0.0;
};

class ColocationTracker {
 public:
  explicit ColocationTracker(const ColocationConfig& config = {});

  /// Feeds one clean location event.
  void Process(const LocationEvent& event);

  /// All pairs currently satisfying the candidate criteria, sorted by ratio
  /// (descending), ties by joint observations then by pair id.
  std::vector<ColocationCandidate> Candidates() const;

  /// Pair statistics for testing / inspection; nullopt if never joint.
  std::optional<ColocationCandidate> PairStats(TagId a, TagId b) const;

  /// Tags currently fresh (reported within the time slack of the stream's
  /// clock at the last processed event).
  size_t num_tracked_tags() const { return last_.size(); }
  size_t num_pairs() const { return pairs_.size(); }

  OperatorStats Stats() const;

 private:
  struct PairKey {
    TagId a, b;
    bool operator==(const PairKey& o) const { return a == o.a && b == o.b; }
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& k) const {
      return HashCombine64(k.a, k.b);
    }
  };
  struct PairEntry {
    /// Joint observations of completed freshness sessions; while the pair
    /// is active, minus both tags' session event counters at activation, so
    /// that joint = this + events(key.a) + events(key.b).
    int joint = 0;
    int colocated = 0;
    double last_update = 0.0;
  };
  struct TagState {
    double time = 0.0;  ///< Last report time.
    Vec3 location;      ///< Last report location.
    int64_t cell = 0;   ///< Packed grid cell of `location`.
    int events = 0;     ///< Events this freshness session.
  };

  static PairKey MakeKey(TagId x, TagId y) {
    return x < y ? PairKey{x, y} : PairKey{y, x};
  }

  int64_t PackCell(const Vec3& p) const;
  void GridInsert(int64_t cell, TagId tag);
  void GridRemove(int64_t cell, TagId tag);
  void EvictStale(double now);
  void DecayPairs(double now);
  int JointOf(const PairKey& key, const PairEntry& entry) const;

  ColocationConfig config_;
  double cell_size_ = 1.0;
  int reach_ = 1;  ///< Neighborhood radius in cells for the radius query.

  std::unordered_map<TagId, TagState> last_;
  std::unordered_map<PairKey, PairEntry, PairKeyHash> pairs_;
  std::unordered_map<int64_t, std::vector<TagId>> grid_;
  /// Report times in arrival order; superseded entries skipped on expiry.
  std::deque<std::pair<double, TagId>> expiry_;

  uint64_t evicted_tags_ = 0;
  uint64_t evicted_pairs_ = 0;
};

}  // namespace rfid
