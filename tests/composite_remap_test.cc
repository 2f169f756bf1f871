// The collapsed remap sampler against the per-record replay it replaces.
//
// A slot that missed several reader resamples used to replay them record
// by record: each attachment moved to a uniform copy of its reader, or to a
// uniform reader when its reader died. CompositeRemap draws the final
// attachment in one step from the product of those transitions. These
// tests hold it to the replay on recorded histories: the tables must be
// the exact matrix product, and the draws must match a per-record replay
// (kept here as the reference) in distribution. A record whose readers all
// copy one ancestor lets the filter cut the history there; the cut must
// leave every lagging slot's transition, draws and expected weights as
// they were.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "pf/composite_remap.h"
#include "pf/resample.h"
#include "util/rng.h"

namespace rfid {
namespace {

/// A history of `lag` resamples over `n` readers, recorded from the
/// filter's own resampling routine over random weights. Alternating
/// schemes vary the copy pattern; every third record resamples
/// near-uniform weights, so most readers keep exactly one copy.
std::vector<ReaderRemapRecord> RecordedHistory(size_t n, size_t lag,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<ReaderRemapRecord> history;
  std::vector<double> weights(n);
  for (size_t r = 0; r < lag; ++r) {
    double total = 0.0;
    for (double& w : weights) {
      w = r % 3 == 2 ? 1.0 + 0.01 * rng.NextDouble()
                     : std::pow(rng.NextDouble(), 3.0);
      total += w;
    }
    for (double& w : weights) w /= total;
    ReaderRemapRecord record;
    record.step = static_cast<int64_t>(10 * r);
    ResampleAncestors(weights.data(), n, n,
                      r % 2 == 0 ? ResampleScheme::kSystematic
                                 : ResampleScheme::kMultinomial,
                      rng, &record.ancestors);
    history.push_back(std::move(record));
  }
  return history;
}

/// The per-record replay the collapsed draw replaces: for each record,
/// oldest first, the attachment moves to a uniform copy of its reader (no
/// draw for a single copy), or to a uniform reader when its reader left no
/// copy.
class PerRecordReplay {
 public:
  explicit PerRecordReplay(const std::vector<ReaderRemapRecord>& history) {
    for (const ReaderRemapRecord& record : history) {
      copies_of_.emplace_back(record.ancestors.size());
      for (uint32_t j = 0; j < record.ancestors.size(); ++j) {
        copies_of_.back()[record.ancestors[j]].push_back(j);
      }
    }
  }

  uint32_t Draw(size_t first, uint32_t start, Rng& rng) const {
    uint32_t at = start;
    for (size_t r = first; r < copies_of_.size(); ++r) {
      const std::vector<uint32_t>& copies = copies_of_[r][at];
      if (copies.empty()) {
        at = static_cast<uint32_t>(rng.UniformInt(copies_of_[r].size()));
      } else if (copies.size() == 1) {
        at = copies[0];
      } else {
        at = copies[rng.UniformInt(copies.size())];
      }
    }
    return at;
  }

 private:
  std::vector<std::vector<std::vector<uint32_t>>> copies_of_;
};

/// Dense T_first···T_newest, multiplied out in the obvious way.
std::vector<std::vector<double>> DenseComposite(
    const std::vector<ReaderRemapRecord>& history, size_t first) {
  const size_t n = history.back().ancestors.size();
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  for (size_t a = 0; a < n; ++a) p[a][a] = 1.0;
  for (size_t r = first; r < history.size(); ++r) {
    const std::vector<uint32_t>& ancestors = history[r].ancestors;
    std::vector<std::vector<double>> t(n, std::vector<double>(n, 0.0));
    std::vector<size_t> copies(n, 0);
    for (uint32_t a : ancestors) ++copies[a];
    for (size_t j = 0; j < n; ++j) {
      t[ancestors[j]][j] = 1.0 / static_cast<double>(copies[ancestors[j]]);
    }
    for (size_t a = 0; a < n; ++a) {
      if (copies[a] > 0) continue;
      for (size_t j = 0; j < n; ++j) t[a][j] = 1.0 / static_cast<double>(n);
    }
    std::vector<std::vector<double>> next(n, std::vector<double>(n, 0.0));
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        if (p[a][b] == 0.0) continue;
        for (size_t j = 0; j < n; ++j) next[a][j] += p[a][b] * t[b][j];
      }
    }
    p = std::move(next);
  }
  return p;
}

/// `history` with record r's new readers copying `survivors` round-robin
/// in blocks: {a} makes r a single-ancestor record, {a, b} a two-ancestor
/// one.
std::vector<ReaderRemapRecord> WithAncestorsAt(
    std::vector<ReaderRemapRecord> history, size_t r,
    const std::vector<uint32_t>& survivors) {
  std::vector<uint32_t>& ancestors = history[r].ancestors;
  const size_t n = ancestors.size();
  for (size_t j = 0; j < n; ++j) {
    ancestors[j] = survivors[j * survivors.size() / n];
  }
  return history;
}

/// Records r..newest: the history the filter keeps after cutting at r.
std::vector<ReaderRemapRecord> CutAt(
    const std::vector<ReaderRemapRecord>& history, size_t r) {
  return {history.begin() + static_cast<long>(r), history.end()};
}

/// Two-sample chi-square statistic of equal-size histograms, with its
/// degrees of freedom (non-empty bins minus one).
double ChiSquare(const std::vector<int>& a, const std::vector<int>& b,
                 int* dof) {
  double chi2 = 0.0;
  *dof = -1;
  for (size_t d = 0; d < a.size(); ++d) {
    const double sum = a[d] + b[d];
    if (sum == 0) continue;
    ++*dof;
    const double diff = a[d] - b[d];
    chi2 += diff * diff / sum;
  }
  return chi2;
}

/// Per start index, 4,000 draws from `composite` against 4,000 per-record
/// replays of `history` from record `first`. Returns the rows whose
/// two-sample chi-square reaches dof + 6·sqrt(2·dof) (a bound a correct
/// sampler reaches with probability well under 1e-6 per row) or that drew
/// outside the composite row's support, naming the first in `first_off`.
int RowsOffTheReplay(const CompositeRemap& composite,
                     const std::vector<ReaderRemapRecord>& history,
                     size_t first, uint64_t seed, std::string* first_off) {
  constexpr int kDraws = 4000;
  const auto n = static_cast<uint32_t>(history.back().ancestors.size());
  const PerRecordReplay replay(history);
  Rng collapsed_rng(100 + seed);
  Rng replay_rng(200 + seed);
  std::vector<double> row;
  int off = 0;
  for (uint32_t a = 0; a < n; ++a) {
    std::vector<int> collapsed(n, 0), replayed(n, 0);
    for (int i = 0; i < kDraws; ++i) {
      ++collapsed[composite.Draw(a, collapsed_rng)];
      ++replayed[replay.Draw(first, a, replay_rng)];
    }
    composite.Row(a, &row);
    bool outside = false;
    for (uint32_t d = 0; d < n; ++d) outside |= row[d] == 0.0 && collapsed[d];
    int dof = 0;
    const double chi2 = ChiSquare(collapsed, replayed, &dof);
    const bool far = dof <= 0 ? collapsed != replayed
                              : chi2 >= dof + 6.0 * std::sqrt(2.0 * dof);
    if ((outside || far) && off++ == 0) {
      *first_off = "row " + std::to_string(a) + ": chi2 " +
                   std::to_string(chi2) + " dof " + std::to_string(dof) +
                   (outside ? ", outside the support" : "");
    }
  }
  return off;
}

/// Largest gap between the rows of the composite of `history` extended to
/// record r and the rows of the dense product from record `first` <= r.
double RowGapToCut(const std::vector<ReaderRemapRecord>& history, size_t r,
                   size_t first) {
  const size_t n = history.back().ancestors.size();
  const auto dense = DenseComposite(history, first);
  CompositeRemap composite(history);
  composite.ExtendTo(r);
  std::vector<double> row;
  double gap = 0.0;
  for (uint32_t a = 0; a < n; ++a) {
    composite.Row(a, &row);
    for (size_t d = 0; d < n; ++d) {
      gap = std::max(gap, std::abs(row[d] - dense[a][d]));
    }
  }
  return gap;
}

/// Largest gap between the expected weights of a slot lagging from record
/// `first` over the full history and over the history cut at r.
double WeightGapToCut(const std::vector<ReaderRemapRecord>& history,
                      size_t r, size_t first) {
  Rng rng(3 + first);
  std::vector<double> full(history.back().ancestors.size());
  for (double& x : full) x = rng.NextDouble();
  std::vector<double> cut = full;
  ExpectedRemapWeights(history, first, &full);
  ExpectedRemapWeights(CutAt(history, r), 0, &cut);
  double gap = 0.0;
  for (size_t a = 0; a < full.size(); ++a) {
    gap = std::max(gap, std::abs(full[a] - cut[a]));
  }
  return gap;
}

/// Expects the one-record composite of `history` (its newest record) to
/// make exactly the per-record replay's draws from the same stream.
void ExpectLagOneReplays(const std::vector<ReaderRemapRecord>& history) {
  const auto readers = static_cast<uint32_t>(history.back().ancestors.size());
  CompositeRemap composite(history);
  composite.ExtendTo(history.size() - 1);
  const PerRecordReplay replay(history);
  Rng collapsed_rng(5), replay_rng(5);
  for (int i = 0; i < 20000; ++i) {
    const auto start = static_cast<uint32_t>(i % readers);
    ASSERT_EQ(composite.Draw(start, collapsed_rng),
              replay.Draw(history.size() - 1, start, replay_rng))
        << "draw " << i;
  }
}

struct Shape {
  size_t readers;
  size_t lag;
};

constexpr Shape kShapes[] = {{40, 1},  {40, 2},  {40, 8},  {40, 32},
                             {100, 1}, {100, 2}, {100, 8}, {100, 32}};

TEST(CompositeRemapTest, RecordedHistoriesHaveEveryRowKind) {
  // Rows with zero, one and several copies all occur in every window the
  // tests below collapse, and the near-uniform records keep most readers
  // at exactly one copy.
  for (const Shape& shape : kShapes) {
    const auto history = RecordedHistory(shape.readers, 32, 7 + shape.readers);
    int dead = 0, single = 0, several = 0;
    for (size_t r = history.size() - shape.lag; r < history.size(); ++r) {
      std::vector<int> copies(shape.readers, 0);
      for (uint32_t a : history[r].ancestors) ++copies[a];
      for (int c : copies) (c == 0 ? dead : c == 1 ? single : several)++;
    }
    EXPECT_GT(dead, 0);
    EXPECT_GT(single, 0);
    EXPECT_GT(several, 0);
  }
}

TEST(CompositeRemapTest, TablesAreTheExactProduct) {
  // Every row of the collapsed tables is the row of the dense product, and
  // sums to 1.
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(testing::Message() << shape.readers << " readers, lag "
                                    << shape.lag);
    const auto history = RecordedHistory(shape.readers, 32, 7 + shape.readers);
    const size_t first = history.size() - shape.lag;
    const auto dense = DenseComposite(history, first);
    CompositeRemap composite(history);
    composite.ExtendTo(first);
    std::vector<double> row;
    for (uint32_t a = 0; a < shape.readers; ++a) {
      composite.Row(a, &row);
      double sum = 0.0;
      for (size_t d = 0; d < shape.readers; ++d) {
        EXPECT_NEAR(row[d], dense[a][d], 1e-12) << "row " << a << " col " << d;
        sum += row[d];
      }
      EXPECT_NEAR(sum, 1.0, 1e-12) << "row " << a;
    }
  }
}

TEST(CompositeRemapTest, DrawsMatchThePerRecordReplay) {
  // Per start index, 4,000 collapsed draws against 4,000 per-record
  // replays (RowsOffTheReplay): at fixed seeds no row may fail the
  // chi-square bound or draw outside its support.
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(testing::Message() << shape.readers << " readers, lag "
                                    << shape.lag);
    const auto history = RecordedHistory(shape.readers, 32, 7 + shape.readers);
    const size_t first = history.size() - shape.lag;
    CompositeRemap composite(history);
    composite.ExtendTo(first);
    std::string off;
    EXPECT_EQ(RowsOffTheReplay(composite, history, first, shape.lag, &off), 0)
        << "first " << off;
  }
}

TEST(CompositeRemapTest, LagOneDrawsAreThePerRecordReplays) {
  // A one-record composite is the record itself: its rows are uniform over
  // the copies (no coin) and a dead reader's restart is uniform over all
  // readers, so from the same stream the collapsed draw makes exactly the
  // per-record replay's draws. Systematic and multinomial resampling emit
  // sorted ancestors, which make the copy lists the identity; the shuffled
  // record (as residual resampling emits) tells them apart.
  for (size_t readers : {40u, 100u}) {
    for (bool shuffled : {false, true}) {
      SCOPED_TRACE(testing::Message() << readers << " readers, shuffled "
                                      << shuffled);
      auto history = RecordedHistory(readers, 32, 7 + readers);
      if (shuffled) {
        std::vector<uint32_t>& ancestors = history.back().ancestors;
        Rng shuffle_rng(9);
        for (size_t j = ancestors.size(); j-- > 1;) {
          std::swap(ancestors[j], ancestors[shuffle_rng.UniformInt(j + 1)]);
        }
      }
      ExpectLagOneReplays(history);
    }
  }
}

TEST(CompositeRemapTest, ExtendingInStagesEqualsOneSweep) {
  // A sync sweep resolves its buckets newest first, extending one
  // composite backward; each stage must equal a fresh sweep to that
  // record.
  const auto history = RecordedHistory(40, 32, 11);
  CompositeRemap staged(history);
  std::vector<double> a_row, b_row;
  for (size_t first : {31u, 30u, 24u, 9u, 0u}) {
    staged.ExtendTo(first);
    CompositeRemap fresh(history);
    fresh.ExtendTo(first);
    for (uint32_t a = 0; a < 40; ++a) {
      staged.Row(a, &a_row);
      fresh.Row(a, &b_row);
      EXPECT_EQ(a_row, b_row) << "first " << first << " row " << a;
    }
  }
}

TEST(CompositeRemapTest, SingleAncestorRecordsForgetTheStart) {
  // A 15-record history whose record r copies one reader into all N, r in
  // the middle or the newest (the cut history then resolves by the flat
  // lag-one table). For a slot lagging from any f <= r, resolving from r is
  // exact: (a) the composite extended to r has the rows of the dense
  // product from f, (b) draws from the history cut at r match the
  // per-record replay from f, and (c) the expected weights of the full and
  // the cut history agree.
  constexpr size_t kRecords = 15;
  for (size_t readers : {40u, 100u}) {
    for (size_t r : {size_t{7}, kRecords - 1}) {
      SCOPED_TRACE(testing::Message() << readers << " readers, cut at " << r);
      const auto history = WithAncestorsAt(
          RecordedHistory(readers, kRecords, 7 + readers), r, {5});
      for (size_t t = 0; t < kRecords; ++t) {
        EXPECT_EQ(IsSingleAncestor(history[t]), t == r) << "record " << t;
      }
      for (size_t first = 0; first <= r; ++first) {
        EXPECT_LT(RowGapToCut(history, r, first), 1e-12) << "from " << first;
        EXPECT_LT(WeightGapToCut(history, r, first), 1e-12)
            << "from " << first;
      }
      const auto cut = CutAt(history, r);
      CompositeRemap composite(cut);
      composite.ExtendTo(0);
      for (size_t first : {size_t{0}, r / 2, r - 1}) {
        std::string off;
        EXPECT_EQ(RowsOffTheReplay(composite, history, first, first, &off), 0)
            << "from " << first << ", first " << off;
      }
    }
  }
}

TEST(CompositeRemapTest, CuttingAtATwoAncestorRecordIsCaught) {
  // The same histories with record r split between two ancestors: its
  // rows are not all alike, so it is no cut point. Cutting there anyway
  // moves the rows (a) and the expected weights (c) of a slot lagging from
  // the record before it past any rounding, and, with r the newest record,
  // its draws (b) past the chi-square bound. With r in the middle the
  // skewed records after it coalesce the lineages until the draws differ
  // by less than 4,000 per row can see (a total variation of ~0.02).
  constexpr size_t kRecords = 15;
  for (size_t readers : {40u, 100u}) {
    for (size_t r : {size_t{7}, kRecords - 1}) {
      SCOPED_TRACE(testing::Message() << readers << " readers, cut at " << r);
      const auto history = WithAncestorsAt(
          RecordedHistory(readers, kRecords, 7 + readers), r, {5, 17});
      EXPECT_FALSE(IsSingleAncestor(history[r]));
      EXPECT_GT(RowGapToCut(history, r, r - 1), 1e-3);
      EXPECT_GT(WeightGapToCut(history, r, r - 1), 1e-6);
      if (r != kRecords - 1) continue;
      const auto cut = CutAt(history, r);
      CompositeRemap composite(cut);
      composite.ExtendTo(0);
      std::string off;
      EXPECT_GT(RowsOffTheReplay(composite, history, r - 1, 0, &off), 0);
    }
  }
}

TEST(CompositeRemapTest, ExpectedWeightsAreTheProductTimesTheWeights) {
  // E[w | a] = (P·w)(a): the weight a lagging attachment stands for.
  for (const Shape& shape : kShapes) {
    const auto history = RecordedHistory(shape.readers, 32, 7 + shape.readers);
    const size_t first = history.size() - shape.lag;
    const auto dense = DenseComposite(history, first);
    Rng rng(3);
    std::vector<double> w(shape.readers);
    for (double& x : w) x = rng.NextDouble();
    std::vector<double> expected = w;
    ExpectedRemapWeights(history, first, &expected);
    for (size_t a = 0; a < shape.readers; ++a) {
      double pw = 0.0;
      for (size_t d = 0; d < shape.readers; ++d) pw += dense[a][d] * w[d];
      EXPECT_NEAR(expected[a], pw, 1e-12);
    }
  }
}

}  // namespace
}  // namespace rfid
