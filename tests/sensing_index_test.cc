// Tests for the sensing-region index (§IV-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "index/sensing_index.h"

namespace rfid {
namespace {

TEST(SensingIndexTest, EmptyProbeFindsNothing) {
  SensingRegionIndex index;
  std::vector<uint32_t> out;
  index.Probe(Aabb({0, 0, 0}, {10, 10, 0}), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.num_entries(), 0u);
}

TEST(SensingIndexTest, ProbeReturnsOverlappingEntries) {
  SensingRegionIndex index;
  index.Insert(Aabb({0, 0, 0}, {2, 2, 0}), {1, 2});
  index.Insert(Aabb({10, 10, 0}, {12, 12, 0}), {3});
  std::vector<uint32_t> out;
  index.Probe(Aabb({1, 1, 0}, {3, 3, 0}), &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
}

TEST(SensingIndexTest, ProbeDeduplicatesAcrossEntries) {
  SensingRegionIndex index;
  index.Insert(Aabb({0, 0, 0}, {2, 2, 0}), {7, 8});
  index.Insert(Aabb({1, 1, 0}, {3, 3, 0}), {8, 9});
  std::vector<uint32_t> out;
  index.Probe(Aabb({0, 0, 0}, {4, 4, 0}), &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{7, 8, 9}));
}

TEST(SensingIndexTest, ResultIsSorted) {
  SensingRegionIndex index;
  index.Insert(Aabb({0, 0, 0}, {2, 2, 0}), {9, 3, 5});
  std::vector<uint32_t> out;
  index.Probe(Aabb({0, 0, 0}, {1, 1, 0}), &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 5, 9}));
}

TEST(SensingIndexTest, NearbyInsertsMerge) {
  SensingRegionIndex index;
  // Boxes of radius 4.5 whose centers move 0.1 per epoch: all merge.
  for (int i = 0; i < 10; ++i) {
    const Vec3 c{0.0, i * 0.1, 0.0};
    index.Insert(Aabb::FromCenterRadius(c, 4.5), {static_cast<uint32_t>(i)});
  }
  EXPECT_EQ(index.num_entries(), 1u);
  std::vector<uint32_t> out;
  index.Probe(Aabb({0, 0, 0}, {0.1, 0.1, 0}), &out);
  EXPECT_EQ(out.size(), 10u);  // Union of all merged object sets.
}

TEST(SensingIndexTest, DistantInsertsDoNotMerge) {
  SensingRegionIndex index;
  for (int i = 0; i < 5; ++i) {
    const Vec3 c{0.0, i * 10.0, 0.0};
    index.Insert(Aabb::FromCenterRadius(c, 2.0), {static_cast<uint32_t>(i)});
  }
  EXPECT_EQ(index.num_entries(), 5u);
  // Probe near one center only picks its entry.
  std::vector<uint32_t> out;
  index.Probe(Aabb::FromCenterRadius({0, 20, 0}, 0.5), &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{2}));
}

TEST(SensingIndexTest, ReaderPathScenario) {
  // Simulates the Case-2 lookup of the paper: a reader sweeps down the
  // aisle; probing where it has been must return exactly the objects
  // recorded near that stretch.
  SensingRegionIndex index;
  for (int i = 0; i < 200; ++i) {
    const Vec3 c{0.0, i * 0.1, 0.0};
    // Objects recorded at epoch i: ids around i.
    index.Insert(Aabb::FromCenterRadius(c, 4.5),
                 {static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1)});
  }
  std::vector<uint32_t> near_start;
  index.Probe(Aabb::FromCenterRadius({0, 0, 0}, 1.0), &near_start);
  EXPECT_FALSE(near_start.empty());
  // Far-away probe (Case 4 region) returns nothing.
  std::vector<uint32_t> far;
  index.Probe(Aabb::FromCenterRadius({100, 100, 0}, 1.0), &far);
  EXPECT_TRUE(far.empty());
}

TEST(SensingIndexTest, MergeUnionsAreDeduplicated) {
  SensingRegionIndex index;
  index.Insert(Aabb::FromCenterRadius({0, 0, 0}, 4.0), {1, 2});
  index.Insert(Aabb::FromCenterRadius({0, 0.05, 0}, 4.0), {2, 3});  // Merges.
  EXPECT_EQ(index.num_entries(), 1u);
  std::vector<uint32_t> out;
  index.Probe(Aabb::FromCenterRadius({0, 0, 0}, 1.0), &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2, 3}));
}

/// Slots a tiny probe at `p` finds: those of the entries whose box holds p.
std::vector<uint32_t> SlotsAt(const SensingRegionIndex& index, const Vec3& p) {
  std::vector<uint32_t> out;
  index.Probe(Aabb::FromCenterRadius(p, 0.01), &out);
  return out;
}

TEST(SensingIndexTest, BackAndForthSweepsKeepTheFirstSweepsEntries) {
  // A reader sweeps a 19.8 ft span back and forth, 0.3 ft an epoch, with a
  // 2 ft box radius (merge reach 0.5 ft), recording its position's slot and
  // one slot per pass. After the first pass every box lies within reach of
  // some entry, so later passes add slots but no entries.
  constexpr int kSteps = 67;
  constexpr int kPasses = 100;  // 50 times there and back.
  const auto center = [](int k) { return Vec3{0.0, 0.3 * k, 0.0}; };
  SensingRegionIndex index;
  std::set<uint32_t> recorded;
  size_t first_pass_entries = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int step = 0; step < kSteps; ++step) {
      const int k = pass % 2 == 0 ? step : kSteps - 1 - step;
      const std::vector<uint32_t> slots = {
          static_cast<uint32_t>(k), static_cast<uint32_t>(kSteps + pass)};
      index.Insert(Aabb::FromCenterRadius(center(k), 2.0), slots);
      recorded.insert(slots.begin(), slots.end());
    }
    if (pass == 0) first_pass_entries = index.num_entries();
    EXPECT_EQ(index.num_entries(), first_pass_entries) << "pass " << pass;
  }
  // One entry per 0.6 ft: each holds the box two steps back.
  EXPECT_EQ(first_pass_entries, 34u);

  // A probe over the span returns the union of every recorded slot set...
  std::vector<uint32_t> all;
  index.Probe(Aabb({-1, -1, 0}, {1, 21, 0}), &all);
  EXPECT_EQ(all, std::vector<uint32_t>(recorded.begin(), recorded.end()));
  // ...and one at any position finds what was recorded there on every pass.
  for (int k = 0; k < kSteps; ++k) {
    const std::vector<uint32_t> found = SlotsAt(index, center(k));
    EXPECT_TRUE(std::binary_search(found.begin(), found.end(),
                                   static_cast<uint32_t>(k)))
        << "position " << k;
    for (int pass = 0; pass < kPasses; ++pass) {
      EXPECT_TRUE(std::binary_search(found.begin(), found.end(),
                                     static_cast<uint32_t>(kSteps + pass)))
          << "position " << k << " pass " << pass;
    }
  }
}

TEST(SensingIndexTest, NewestEntryWinsWheneverItQualifies) {
  // Radius 4: merge reach 1. B is newest and 0.9 from the new center; A is
  // nearer (0.6), but the newest entry is tried first.
  SensingRegionIndex index;
  index.Insert(Aabb::FromCenterRadius({0, 0, 0}, 4.0), {1});    // A
  index.Insert(Aabb::FromCenterRadius({1.5, 0, 0}, 4.0), {2});  // B
  index.Insert(Aabb::FromCenterRadius({0.6, 0, 0}, 4.0), {3});
  EXPECT_EQ(index.num_entries(), 2u);
  EXPECT_EQ(SlotsAt(index, {-3.8, 0, 0}), (std::vector<uint32_t>{1}));
  EXPECT_EQ(SlotsAt(index, {5.3, 0, 0}), (std::vector<uint32_t>{2, 3}));
}

TEST(SensingIndexTest, NearestOlderEntryWinsWhenTheNewestDoesNot) {
  // A and B both lie within reach (0.9 and 0.6), the newest entry C does
  // not: the nearest, B, takes the slots.
  SensingRegionIndex index;
  index.Insert(Aabb::FromCenterRadius({0, 0, 0}, 4.0), {1});     // A
  index.Insert(Aabb::FromCenterRadius({1.5, 0, 0}, 4.0), {2});   // B
  index.Insert(Aabb::FromCenterRadius({50, 0, 0}, 4.0), {9});    // C
  index.Insert(Aabb::FromCenterRadius({0.9, 0, 0}, 4.0), {3});
  EXPECT_EQ(index.num_entries(), 3u);
  EXPECT_EQ(SlotsAt(index, {-3.8, 0, 0}), (std::vector<uint32_t>{1}));
  EXPECT_EQ(SlotsAt(index, {5.3, 0, 0}), (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(SlotsAt(index, {50, 0, 0}), (std::vector<uint32_t>{9}));
}

TEST(SensingIndexTest, EquidistantEntriesGoToTheLowerId) {
  // Radius 2.8: merge reach 0.7. A (id 0) at (0.6, 0) and B (id 1) at
  // (0, 0.6) lie exactly 0.6 from the origin and 0.85 from each other. The
  // entries past x = 20 fill the first leaf, whose split orders it by x, so
  // the tree returns B before A: the tie rule, not the hit order, picks A.
  SensingRegionIndex index;
  index.Insert(Aabb::FromCenterRadius({0.6, 0, 0}, 2.8), {1});  // A
  index.Insert(Aabb::FromCenterRadius({0, 0.6, 0}, 2.8), {2});  // B
  for (int k = 0; k < 20; ++k) {
    index.Insert(Aabb::FromCenterRadius({20.0 + 10 * k, 0, 0}, 2.8),
                 {static_cast<uint32_t>(100 + k)});
  }
  ASSERT_EQ(index.num_entries(), 22u);
  index.Insert(Aabb::FromCenterRadius({0, 0, 0}, 2.8), {3});
  EXPECT_EQ(index.num_entries(), 22u);
  EXPECT_EQ(SlotsAt(index, {3.2, -2.6, 0}), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(SlotsAt(index, {-2.6, 3.2, 0}), (std::vector<uint32_t>{2}));
}

TEST(SensingIndexTest, ThinEntryMissingTheNewCenterIsStillFound) {
  // A's box is a segment at y = 0.5: its center lies 0.5 from the origin,
  // within the reach (1) of a radius-4 box there, though the box does not
  // hold the origin. The search meets it anyway, and A takes the slots.
  SensingRegionIndex index;
  index.Insert(Aabb({-4, 0.5, 0}, {4, 0.5, 0}), {1});           // A
  index.Insert(Aabb::FromCenterRadius({50, 0, 0}, 4.0), {9});   // newest
  index.Insert(Aabb::FromCenterRadius({0, 0, 0}, 4.0), {3});
  EXPECT_EQ(index.num_entries(), 2u);
  EXPECT_EQ(SlotsAt(index, {3.9, 0.5, 0}), (std::vector<uint32_t>{1, 3}));
}

TEST(SensingIndexTest, RestoreEntryMergesNothing) {
  // The same box twice: Insert merges it, RestoreEntry keeps both as given.
  SensingRegionIndex index;
  const Aabb box = Aabb::FromCenterRadius({0, 0, 0}, 4.0);
  index.RestoreEntry(box, {1, 2});
  index.RestoreEntry(box, {3});
  EXPECT_EQ(index.num_entries(), 2u);
  std::vector<std::vector<uint32_t>> saved;
  index.ForEachEntry([&saved](const Aabb&, const std::vector<uint32_t>& s) {
    saved.push_back(s);
  });
  EXPECT_EQ(saved, (std::vector<std::vector<uint32_t>>{{1, 2}, {3}}));
  index.Insert(box, {4});  // Merges into the newest.
  EXPECT_EQ(index.num_entries(), 2u);
  EXPECT_EQ(SlotsAt(index, {0, 0, 0}), (std::vector<uint32_t>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace rfid
