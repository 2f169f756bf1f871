// Tests for the containment-candidate (co-location) tracker — the prototype
// of the paper's §VII future work on inter-object relationships.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "stream/colocation.h"

namespace rfid {
namespace {

LocationEvent Ev(double time, TagId tag, double x, double y) {
  LocationEvent e;
  e.time = time;
  e.tag = tag;
  e.location = {x, y, 0.0};
  return e;
}

TEST(ColocationTest, NoPairsInitially) {
  ColocationTracker tracker;
  EXPECT_TRUE(tracker.Candidates().empty());
  EXPECT_FALSE(tracker.PairStats(1, 2).has_value());
}

TEST(ColocationTest, PersistentlyCloseTagsBecomeCandidates) {
  ColocationTracker tracker;
  for (int t = 0; t < 5; ++t) {
    tracker.Process(Ev(t * 10.0, 1, 2.0, 3.0));
    tracker.Process(Ev(t * 10.0 + 1, 2, 2.3, 3.2));
  }
  const auto candidates = tracker.Candidates();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].a, 1u);
  EXPECT_EQ(candidates[0].b, 2u);
  EXPECT_GE(candidates[0].ratio, 0.8);
  EXPECT_GE(candidates[0].joint_observations, 3);
}

TEST(ColocationTest, DistantTagsAreNotCandidates) {
  ColocationTracker tracker;
  for (int t = 0; t < 5; ++t) {
    tracker.Process(Ev(t * 10.0, 1, 2.0, 3.0));
    tracker.Process(Ev(t * 10.0 + 1, 2, 2.0, 8.0));
  }
  EXPECT_TRUE(tracker.Candidates().empty());
  const auto stats = tracker.PairStats(1, 2);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->colocated_observations, 0);
  EXPECT_GE(stats->joint_observations, 3);
}

TEST(ColocationTest, StaleReportsAreNotJoint) {
  ColocationConfig config;
  config.time_slack_seconds = 5.0;
  ColocationTracker tracker(config);
  tracker.Process(Ev(0.0, 1, 2.0, 3.0));
  tracker.Process(Ev(100.0, 2, 2.0, 3.0));  // Long after tag 1's report.
  EXPECT_FALSE(tracker.PairStats(1, 2).has_value());
}

TEST(ColocationTest, RequiresMinimumJointObservations) {
  ColocationConfig config;
  config.min_joint_observations = 4;
  config.time_slack_seconds = 5.0;  // Only same-round reports are joint.
  ColocationTracker tracker(config);
  for (int t = 0; t < 3; ++t) {
    tracker.Process(Ev(t * 10.0, 1, 2.0, 3.0));
    tracker.Process(Ev(t * 10.0 + 1, 2, 2.1, 3.0));
  }
  EXPECT_TRUE(tracker.Candidates().empty());  // Only 3 joint observations.
}

TEST(ColocationTest, RatioThresholdFiltersFlakyPairs) {
  ColocationConfig config;
  config.min_colocation_ratio = 0.8;
  config.time_slack_seconds = 5.0;  // Only same-round reports are joint.
  ColocationTracker tracker(config);
  // Half of the joint observations are far apart: ratio 0.5 < 0.8.
  for (int t = 0; t < 8; ++t) {
    tracker.Process(Ev(t * 10.0, 1, 2.0, 3.0));
    const double y = (t % 2 == 0) ? 3.0 : 9.0;
    tracker.Process(Ev(t * 10.0 + 1, 2, 2.0, y));
  }
  EXPECT_TRUE(tracker.Candidates().empty());
  const auto stats = tracker.PairStats(1, 2);
  ASSERT_TRUE(stats.has_value());
  EXPECT_NEAR(stats->ratio, 0.5, 0.01);
}

TEST(ColocationTest, CandidatesSortedByRatio) {
  ColocationTracker tracker;
  // Pair (1,2): perfectly co-located. Pair (3,4): mostly co-located.
  for (int t = 0; t < 10; ++t) {
    tracker.Process(Ev(t * 10.0, 1, 2.0, 3.0));
    tracker.Process(Ev(t * 10.0 + 1, 2, 2.1, 3.0));
    tracker.Process(Ev(t * 10.0 + 2, 3, 12.0, 3.0));
    tracker.Process(Ev(t * 10.0 + 3, 4, t < 9 ? 12.1 : 20.0, 3.0));
  }
  const auto candidates = tracker.Candidates();
  ASSERT_GE(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].a, 1u);
  EXPECT_GE(candidates[0].ratio, candidates[1].ratio);
}

TEST(ColocationTest, ManyTagsOnlyAdjacentPairsQualify) {
  // Tags on a line, 2 ft apart; radius 1 ft -> no pair qualifies; radius
  // 2.5 ft -> only adjacent pairs do.
  ColocationConfig config;
  config.colocation_radius_feet = 2.5;
  ColocationTracker tracker(config);
  for (int t = 0; t < 5; ++t) {
    for (TagId tag = 0; tag < 4; ++tag) {
      tracker.Process(Ev(t * 10.0 + tag, tag, 2.0 * tag, 0.0));
    }
  }
  for (const auto& c : tracker.Candidates()) {
    EXPECT_EQ(c.b - c.a, 1u) << "non-adjacent pair " << c.a << "," << c.b;
  }
  EXPECT_FALSE(tracker.Candidates().empty());
}

TEST(ColocationTest, DepartedTagsAreEvictedFromTracking) {
  // Regression: the seed skipped stale `last_` entries on every event but
  // never removed them, so a departed tag cost a map visit per event
  // forever. Fresh-set eviction must drop it instead.
  ColocationConfig config;
  config.time_slack_seconds = 5.0;
  ColocationTracker tracker(config);
  tracker.Process(Ev(0.0, 1, 2.0, 3.0));
  tracker.Process(Ev(1.0, 2, 2.1, 3.0));
  EXPECT_EQ(tracker.num_tracked_tags(), 2u);
  // Tag 2 keeps reporting; tag 1 goes silent and must be evicted once the
  // stream clock passes its last report by more than the slack.
  tracker.Process(Ev(4.0, 2, 2.1, 3.0));
  EXPECT_EQ(tracker.num_tracked_tags(), 2u);  // 4 - 0 <= 5: still fresh.
  tracker.Process(Ev(6.0, 2, 2.1, 3.0));
  EXPECT_EQ(tracker.num_tracked_tags(), 1u);  // 6 - 0 > 5: evicted.
  EXPECT_EQ(tracker.Stats().evicted, 1u);
  // The pair's history survives eviction (frozen counts).
  const auto stats = tracker.PairStats(1, 2);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->joint_observations, 2);  // t=1 and t=4.
  EXPECT_EQ(stats->colocated_observations, 2);
}

TEST(ColocationTest, ReturningTagResumesPairHistory) {
  ColocationConfig config;
  config.time_slack_seconds = 5.0;
  config.min_joint_observations = 3;
  ColocationTracker tracker(config);
  // Round 1: two joint observations, then both depart.
  tracker.Process(Ev(0.0, 1, 2.0, 3.0));
  tracker.Process(Ev(1.0, 2, 2.1, 3.0));
  tracker.Process(Ev(2.0, 1, 2.0, 3.0));
  // Round 2, 100 s later: the pair reunites; counts continue from 2.
  tracker.Process(Ev(100.0, 1, 2.0, 3.0));
  tracker.Process(Ev(101.0, 2, 2.1, 3.0));
  const auto stats = tracker.PairStats(1, 2);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->joint_observations, 3);
  EXPECT_EQ(stats->colocated_observations, 3);
  EXPECT_EQ(tracker.Candidates().size(), 1u);
}

TEST(ColocationTest, PairCapDecaysInactivePairs) {
  ColocationConfig config;
  config.time_slack_seconds = 1.0;
  config.max_pairs = 20;
  ColocationTracker tracker(config);
  // Cohorts of 6 tags appear together (15 pairs each), then all depart
  // before the next cohort: without decay, pairs would grow by 15 per
  // cohort; the cap must hold the map at <= 20 (the 15 pairs of the live
  // cohort are exempt, departed cohorts' pairs are decayed).
  for (int cohort = 0; cohort < 60; ++cohort) {
    const double t = cohort * 10.0;
    for (int k = 0; k < 6; ++k) {
      tracker.Process(
          Ev(t + 0.01 * k, 1000 * cohort + k, k * 3.0, 0.0));
    }
  }
  EXPECT_LE(tracker.num_pairs(), 20u);
  EXPECT_GT(tracker.Stats().evicted, 500u);  // Tags + pairs decayed.
}

TEST(ColocationTest, DecayPrefersNeverColocatedPairs) {
  ColocationConfig config;
  config.time_slack_seconds = 1.0;
  config.colocation_radius_feet = 1.0;
  config.min_joint_observations = 2;
  // Big enough that decay never has to dip past the never-co-located
  // victims into real signal (the live cohort's 15 pairs are exempt).
  config.max_pairs = 40;
  ColocationTracker tracker(config);
  // One genuinely co-located pair, observed early...
  tracker.Process(Ev(0.0, 500, 0.0, 0.0));
  tracker.Process(Ev(0.5, 501, 0.2, 0.0));
  tracker.Process(Ev(0.9, 500, 0.0, 0.0));
  // ...then waves of far-apart cohorts blow past the pair cap.
  for (int cohort = 1; cohort <= 20; ++cohort) {
    const double t = cohort * 10.0;
    for (int k = 0; k < 6; ++k) {
      tracker.Process(Ev(t + 0.01 * k, 1000 * cohort + k, k * 50.0, 0.0));
    }
  }
  // The co-located pair's statistics survived the decay sweeps.
  const auto stats = tracker.PairStats(500, 501);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->colocated_observations, 2);
}

TEST(ColocationTest, LivePairsSurviveDecayExactly) {
  // The cap sits below the live cohorts' pair count, so a sweep runs
  // whenever a tag joins the fresh set and can never get back under the
  // cap. Each one must still keep
  // every pair of two fresh tags, with exactly the statistics an uncapped
  // tracker holds. Cohorts of 8 tags overlap in time (up to 16 fresh tags,
  // 120 live pairs); within a cohort some pairs sit within the radius and
  // some do not, and no tag returns once it is stale.
  ColocationConfig config;
  config.time_slack_seconds = 2.0;
  config.colocation_radius_feet = 1.5;
  config.max_pairs = 12;
  ColocationConfig uncapped_config = config;
  uncapped_config.max_pairs = 0;

  std::vector<LocationEvent> events;
  for (int cohort = 0; cohort < 12; ++cohort) {
    for (int k = 0; k < 8; ++k) {
      for (int j = 0; j < 4; ++j) {
        events.push_back(Ev(3.0 * cohort + 0.25 * k + j,
                            static_cast<TagId>(100 * cohort + k),
                            10.0 * cohort + 0.8 * (k % 4),
                            0.8 * (k / 4) + 0.3 * ((j + k) % 3)));
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const LocationEvent& x, const LocationEvent& y) {
                     return std::tie(x.time, x.tag) < std::tie(y.time, y.tag);
                   });

  ColocationTracker capped(config);
  ColocationTracker uncapped(uncapped_config);
  std::map<TagId, double> last_report;
  size_t sweeps = 0, most_live_pairs = 0;
  uint64_t decayed_before = 0;
  for (const LocationEvent& event : events) {
    capped.Process(event);
    uncapped.Process(event);
    last_report[event.tag] = event.time;
    // Both trackers evict the same tags, so the capped one's extra
    // evictions are its decayed pairs.
    const uint64_t decayed = capped.Stats().evicted - uncapped.Stats().evicted;
    if (decayed > decayed_before) ++sweeps;
    decayed_before = decayed;

    std::vector<TagId> fresh;
    for (const auto& [tag, time] : last_report) {
      if (event.time - time <= config.time_slack_seconds) fresh.push_back(tag);
    }
    ASSERT_EQ(capped.num_tracked_tags(), fresh.size()) << "t=" << event.time;
    most_live_pairs = std::max(most_live_pairs,
                               fresh.size() * (fresh.size() - 1) / 2);
    for (size_t i = 0; i < fresh.size(); ++i) {
      for (size_t j = i + 1; j < fresh.size(); ++j) {
        const auto got = capped.PairStats(fresh[i], fresh[j]);
        const auto want = uncapped.PairStats(fresh[i], fresh[j]);
        ASSERT_TRUE(got.has_value() && want.has_value())
            << "live pair " << fresh[i] << "," << fresh[j] << " at t="
            << event.time;
        EXPECT_EQ(got->joint_observations, want->joint_observations);
        EXPECT_EQ(got->colocated_observations, want->colocated_observations);
      }
    }
  }
  EXPECT_GT(sweeps, 10u);
  EXPECT_GT(most_live_pairs, config.max_pairs);
  EXPECT_LT(capped.num_pairs(), uncapped.num_pairs());
}

TEST(ColocationTest, BytesEstimateCountsOnlyWhatIsHeld) {
  // Two trackers that end holding the same shape — one fresh tag alone in
  // its grid cell, 36 frozen pairs, two expiry entries — report the same
  // bytes, although in `a` the surviving tag was once fresh beside the 8
  // others and in `b` it never met anyone.
  ColocationConfig config;
  config.time_slack_seconds = 5.0;
  ColocationTracker a(config);
  a.Process(Ev(0.0, 1, 0.0, 0.0));
  for (TagId tag = 2; tag <= 9; ++tag) a.Process(Ev(0.0, tag, 50.0, 50.0));
  a.Process(Ev(4.0, 1, 0.0, 0.0));
  a.Process(Ev(6.0, 1, 0.0, 0.0));  // Evicts tags 2..9.

  ColocationTracker b(config);
  for (TagId tag = 2; tag <= 10; ++tag) b.Process(Ev(0.0, tag, 50.0, 50.0));
  b.Process(Ev(6.0, 1, 0.0, 0.0));  // Evicts tags 2..10.
  b.Process(Ev(7.0, 1, 0.0, 0.0));

  ASSERT_EQ(a.num_tracked_tags(), 1u);
  ASSERT_EQ(b.num_tracked_tags(), 1u);
  ASSERT_EQ(a.num_pairs(), 36u);
  ASSERT_EQ(b.num_pairs(), 36u);
  EXPECT_EQ(a.Stats().entries, b.Stats().entries);
  EXPECT_GT(a.Stats().bytes_estimate, 0u);
  EXPECT_EQ(a.Stats().bytes_estimate, b.Stats().bytes_estimate);
}

}  // namespace
}  // namespace rfid
