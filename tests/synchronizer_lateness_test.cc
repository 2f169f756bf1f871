// Tests for the synchronizer's bounded-lateness admission: out-of-order
// records within the bound are admitted, older ones are dropped and counted
// (never failing the stream), and the watermark closes contiguous epochs.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "stream/synchronizer.h"
#include "test_util.h"
#include "util/serialize.h"

namespace rfid {
namespace {

using testing_util::SynchronizeAll;

SynchronizerConfig Bounded(double lateness, double epoch_seconds = 1.0) {
  SynchronizerConfig config;
  config.epoch_seconds = epoch_seconds;
  config.max_lateness_seconds = lateness;
  return config;
}

TEST(SynchronizerLatenessTest, OfflineAdmitsOutOfOrderWithinBound) {
  StreamSynchronizer sync(Bounded(2.0));
  // 1.5 arrives after 2.2 but is only 0.7 s behind: admitted.
  const auto epochs =
      SynchronizeAll(&sync, {{0.5, 1}, {2.2, 2}, {1.5, 3}}, {});
  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_EQ(epochs[1].tags, std::vector<TagId>{3});
  EXPECT_EQ(sync.dropped_late_records(), 0u);
}

TEST(SynchronizerLatenessTest, OfflineDropsBeyondBoundAndCounts) {
  StreamSynchronizer sync(Bounded(1.0));
  // 0.2 is 4.8 s behind the newest record at its arrival: dropped.
  const auto epochs =
      SynchronizeAll(&sync, {{1.0, 1}, {5.0, 2}, {0.2, 3}}, {});
  EXPECT_EQ(sync.dropped_late_records(), 1u);
  for (const auto& e : epochs) {
    for (TagId tag : e.tags) EXPECT_NE(tag, 3u);
  }
}

TEST(SynchronizerLatenessTest, OrderedInputGivesTheSameEpochsAtAnyLateness) {
  std::vector<TagReading> readings = {{0.1, 1}, {1.4, 2}, {1.6, 2}, {3.9, 4}};
  std::vector<ReaderLocationReport> reports = {{0.5, {1, 2, 0}},
                                               {2.5, {3, 4, 0}}};
  StreamSynchronizer in_order(Bounded(0.0));
  StreamSynchronizer bounded(Bounded(5.0));
  const auto a = SynchronizeAll(&in_order, readings, reports);
  const auto b = SynchronizeAll(&bounded, readings, reports);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].tags, b[i].tags);
    EXPECT_EQ(a[i].has_location, b[i].has_location);
  }
  EXPECT_EQ(in_order.dropped_late_records(), 0u);
}

TEST(SynchronizerLatenessTest, WatermarkClosesOnlyCompletedEpochs) {
  StreamSynchronizer sync(Bounded(2.0));
  sync.Push(TagReading{0.5, 1});
  // Watermark = 0.5 - 2.0 = -1.5: nothing closeable.
  EXPECT_TRUE(sync.PollWatermark().empty());
  sync.Push(TagReading{3.2, 2});
  // Watermark = 1.2: epoch 0 (ends at 1.0) closes, epoch 1 does not.
  const auto closed = sync.PollWatermark();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].step, 0);
  EXPECT_EQ(closed[0].tags, std::vector<TagId>{1});
}

TEST(SynchronizerLatenessTest, PushIntoClosedEpochIsDroppedAndCounted) {
  StreamSynchronizer sync(Bounded(1.0));
  EXPECT_TRUE(sync.Push(TagReading{0.5, 1}));
  EXPECT_TRUE(sync.Push(TagReading{4.0, 2}));
  ASSERT_FALSE(sync.PollWatermark().empty());  // Closes through epoch 2.
  // Epoch 0 was already emitted: the record must not resurrect it.
  EXPECT_FALSE(sync.Push(TagReading{0.7, 3}));
  EXPECT_EQ(sync.dropped_late_records(), 1u);
  // The stream keeps working afterwards.
  EXPECT_TRUE(sync.Push(TagReading{4.5, 4}));
}

TEST(SynchronizerLatenessTest, PollWatermarkSynthesizesGapEpochs) {
  StreamSynchronizer sync(Bounded(1.0));
  sync.Push(TagReading{0.5, 1});
  sync.Push(TagReading{6.5, 2});
  const auto closed = sync.PollWatermark();  // Watermark 5.5: epochs 0..4.
  ASSERT_EQ(closed.size(), 5u);
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_EQ(closed[i].step, static_cast<int64_t>(i));
  }
  EXPECT_EQ(closed[0].tags, std::vector<TagId>{1});
  for (size_t i = 1; i < closed.size(); ++i) {
    EXPECT_TRUE(closed[i].tags.empty());
    EXPECT_FALSE(closed[i].has_location);
  }
}

TEST(SynchronizerLatenessTest, PollClosingOnlyQuietEpochsKeepsPendingTags) {
  StreamSynchronizer sync(Bounded(2.0));
  sync.Push(TagReading{0.5, 1});
  sync.Push(TagReading{3.5, 2});
  ASSERT_EQ(sync.PollWatermark().size(), 1u);  // Epoch 0.
  sync.Push(TagReading{4.9, 3});
  // Watermark 2.9 closes only the quiet epoch 1; epochs 3 and 4 stay
  // pending and must keep their tags.
  const auto quiet = sync.PollWatermark();
  ASSERT_EQ(quiet.size(), 1u);
  EXPECT_EQ(quiet[0].step, 1);
  EXPECT_TRUE(quiet[0].tags.empty());
  const auto tail = sync.Finish();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_TRUE(tail[0].tags.empty());
  EXPECT_EQ(tail[1].tags, std::vector<TagId>{2});
  EXPECT_EQ(tail[2].tags, std::vector<TagId>{3});
}

TEST(SynchronizerLatenessTest, FinishFillsGapsAfterLastClose) {
  StreamSynchronizer sync(Bounded(1.0));
  sync.Push(TagReading{0.5, 1});
  sync.Push(TagReading{4.2, 2});
  const auto first = sync.PollWatermark();  // Epochs 0..2.
  ASSERT_EQ(first.size(), 3u);
  const auto tail = sync.Finish();  // Epoch 4 pending: 3 must be filled in.
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].step, 3);
  EXPECT_TRUE(tail[0].tags.empty());
  EXPECT_EQ(tail[1].step, 4);
  EXPECT_EQ(tail[1].tags, std::vector<TagId>{2});
}

TEST(SynchronizerLatenessTest, FarFutureRecordIsBoundedByGapCap) {
  // One corrupt far-future clock must not make the synchronizer (and the
  // filter behind it) materialize billions of quiet epochs.
  StreamSynchronizer sync(Bounded(1.0));
  sync.Push(TagReading{0.5, 1});
  sync.Push(TagReading{1e9, 2});  // Plausible absolute-unix-time bug.
  const auto closed = sync.PollWatermark();
  // Trailing window only: 100,000 synthesized epochs; the data epoch at
  // index 0 still emits (non-empty epochs always do).
  ASSERT_EQ(closed.size(), 100'001u);
  EXPECT_EQ(closed.front().step, 0);
  EXPECT_EQ(closed.front().tags, std::vector<TagId>{1});
  for (size_t i = 2; i < closed.size(); ++i) {
    EXPECT_EQ(closed[i].step, closed[i - 1].step + 1);
  }
  EXPECT_GT(sync.skipped_gap_epochs(), 900'000'000u);
  // The stream continues normally at the new time base.
  EXPECT_TRUE(sync.Push(TagReading{1e9 + 0.5, 3}));
  // Truly insane timestamps are rejected outright.
  EXPECT_FALSE(
      sync.Push(TagReading{std::numeric_limits<double>::infinity(), 4}));
  EXPECT_FALSE(
      sync.Push(TagReading{std::numeric_limits<double>::quiet_NaN(), 5}));
  EXPECT_FALSE(sync.Push(TagReading{1e200, 6}));
}

TEST(SynchronizerLatenessTest, FinishCapsAFarFutureGap) {
  StreamSynchronizer sync(Bounded(1.0));
  sync.Push(TagReading{0.5, 1});
  sync.Push(TagReading{200'000.5, 2});
  // Straight to Finish: the same 100,000-epoch cap bounds the fill.
  const auto tail = sync.Finish();
  ASSERT_EQ(tail.size(), 100'002u);
  EXPECT_EQ(tail.front().step, 0);
  EXPECT_EQ(tail[1].step, 100'000);
  EXPECT_EQ(tail.back().step, 200'000);
  EXPECT_EQ(tail.back().tags, std::vector<TagId>{2});
  EXPECT_EQ(sync.skipped_gap_epochs(), 99'999u);
}

TEST(SynchronizerLatenessTest, StateRoundTripContinuesIdentically) {
  const SynchronizerConfig config = Bounded(2.0);
  StreamSynchronizer original(config);
  original.Push(TagReading{0.3, 1});
  original.Push(TagReading{1.7, 2});
  original.Push(TagReading{5.0, 3});
  (void)original.PollWatermark();
  original.Push(TagReading{0.1, 9});  // Late: dropped.

  std::stringstream ss;
  original.SaveState(ss);
  StreamSynchronizer restored(config);
  ASSERT_TRUE(restored.LoadState(ss).ok());
  EXPECT_EQ(restored.dropped_late_records(),
            original.dropped_late_records());
  EXPECT_EQ(restored.watermark(), original.watermark());

  // Identical continuations produce identical epochs.
  for (StreamSynchronizer* sync : {&original, &restored}) {
    sync->Push(TagReading{6.5, 4});
  }
  const auto a = original.PollWatermark();
  const auto b = restored.PollWatermark();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].tags, b[i].tags);
  }
  const auto ta = original.Finish();
  const auto tb = restored.Finish();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].step, tb[i].step);
    EXPECT_EQ(ta[i].tags, tb[i].tags);
  }
}

TEST(SynchronizerLatenessTest, LoadStateRejectsTruncation) {
  StreamSynchronizer sync(Bounded(1.0));
  sync.Push(TagReading{0.5, 1});
  std::stringstream ss;
  sync.SaveState(ss);
  const std::string full = ss.str();
  for (size_t size = 0; size < full.size(); ++size) {
    SCOPED_TRACE(size);
    std::stringstream truncated(full.substr(0, size));
    StreamSynchronizer target(Bounded(1.0));
    EXPECT_FALSE(target.LoadState(truncated).ok());
  }
}

TEST(SynchronizerLatenessTest, RecordBeyondTheEpochIndexRangeIsDropped) {
  // 1e13 s is a finite, modest time, but at 1 us epochs its index (1e19)
  // does not fit int64_t; admitting it would wreck every index computed
  // from the watermark.
  StreamSynchronizer sync(Bounded(0.0, /*epoch_seconds=*/1e-6));
  ASSERT_FALSE(sync.Push(TagReading{1e13, 1}));
  EXPECT_EQ(sync.dropped_late_records(), 1u);
  EXPECT_TRUE(sync.PollWatermark().empty());
  // Records whose index fits keep flowing.
  EXPECT_TRUE(sync.Push(TagReading{0.5, 2}));
  const auto tail = sync.Finish();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].step, 500'000);
  EXPECT_EQ(tail[0].tags, std::vector<TagId>{2});
}

TEST(SynchronizerLatenessTest, UnboundedLatenessClosesNothingUntilFinish) {
  StreamSynchronizer sync(Bounded(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(sync.Push(TagReading{5.5, 1}));
  EXPECT_TRUE(sync.Push(TagReading{0.5, 2}));
  EXPECT_TRUE(sync.PollWatermark().empty());
  EXPECT_EQ(sync.Finish().size(), 6u);
}

TEST(SynchronizerLatenessTest, NegativeLatenessAdmitsInTimeOrderOnly) {
  StreamSynchronizer sync(Bounded(-1.0));
  EXPECT_TRUE(sync.Push(TagReading{1.5, 1}));
  EXPECT_FALSE(sync.Push(TagReading{1.2, 2}));
  EXPECT_EQ(sync.watermark(), 1.5);
}

/// A synchronizer state in SaveState's layout, for hand-built images.
struct StateImage {
  struct Pending {
    int64_t index = 0;
    std::vector<TagId> tags;
    double location_x = 0.0;
    int location_count = 0;
    double heading_sin_sum = 0.0;
    int heading_count = 0;
  };
  bool any_seen = true;
  double max_seen = 4.5;
  bool any_closed = true;
  int64_t highest_closed = 2;
  std::vector<Pending> pending = {{3, {7}, 1.0, 1, 0.5, 1}, {4, {8}}};

  std::string Bytes() const {
    std::ostringstream os;
    serialize::WritePod(os, static_cast<uint8_t>(any_seen));
    serialize::WritePod(os, max_seen);
    serialize::WritePod(os, static_cast<uint8_t>(any_closed));
    serialize::WritePod(os, highest_closed);
    serialize::WritePod(os, uint64_t{0});  // Dropped records.
    serialize::WritePod(os, uint64_t{0});  // Skipped gap epochs.
    serialize::WritePod(os, static_cast<uint64_t>(pending.size()));
    for (const Pending& p : pending) {
      serialize::WritePod(os, p.index);
      serialize::WritePod(os, static_cast<uint64_t>(p.tags.size()));
      for (TagId tag : p.tags) serialize::WritePod(os, tag);
      serialize::WritePod(os, p.location_x);
      serialize::WritePod(os, 0.0);  // location_sum.y
      serialize::WritePod(os, 0.0);  // location_sum.z
      serialize::WritePod(os, p.location_count);
      serialize::WritePod(os, p.heading_sin_sum);
      serialize::WritePod(os, 1.0);  // heading_cos_sum
      serialize::WritePod(os, p.heading_count);
    }
    return os.str();
  }
};

TEST(SynchronizerLatenessTest, LoadStateAcceptsAnAdmissibleImage) {
  const StateImage image;
  std::istringstream is(image.Bytes());
  StreamSynchronizer sync(Bounded(1.0));
  ASSERT_TRUE(sync.LoadState(is).ok());
  EXPECT_EQ(sync.watermark(), 3.5);
  // The restored pending epochs close like live ones.
  const auto tail = sync.Finish();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].step, 3);
  EXPECT_EQ(tail[0].tags, std::vector<TagId>{7});
  EXPECT_TRUE(tail[0].has_location);
  EXPECT_EQ(tail[1].step, 4);
}

TEST(SynchronizerLatenessTest, LoadStateRejectsStatesAdmissionNeverProduces) {
  const std::vector<std::pair<const char*, void (*)(StateImage*)>> cases = {
      // A NaN newest time never lets the watermark advance again.
      {"NaN newest time", [](StateImage* s) {
         s->max_seen = std::numeric_limits<double>::quiet_NaN();
       }},
      {"newest time beyond the index bound",
       [](StateImage* s) { s->max_seen = 2e15; }},
      {"closed epoch beyond the index bound",
       [](StateImage* s) { s->highest_closed = -3'000'000'000'000'000; }},
      {"pending epoch beyond the index bound",
       [](StateImage* s) { s->pending[1].index = 4'000'000'000'000'000; }},
      {"pending epochs not increasing",
       [](StateImage* s) { s->pending[1].index = 3; }},
      {"pending epoch already closed",
       [](StateImage* s) { s->pending[0].index = 2; }},
      {"non-finite location sum",
       [](StateImage* s) {
         s->pending[0].location_x = std::numeric_limits<double>::infinity();
       }},
      {"non-finite heading sum",
       [](StateImage* s) {
         s->pending[0].heading_sin_sum =
             std::numeric_limits<double>::quiet_NaN();
       }},
      {"negative location count",
       [](StateImage* s) { s->pending[0].location_count = -1; }},
      {"negative heading count",
       [](StateImage* s) { s->pending[1].heading_count = -2; }},
  };
  for (const auto& [name, mutate] : cases) {
    SCOPED_TRACE(name);
    StateImage image;
    mutate(&image);
    std::istringstream is(image.Bytes());
    StreamSynchronizer sync(Bounded(1.0));
    const Status status = sync.LoadState(is);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace rfid
