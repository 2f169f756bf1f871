// Tests for the sensing-region index (§IV-C).
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rfid
