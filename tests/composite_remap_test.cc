// The collapsed remap sampler against the per-record replay it replaces.
//
// A slot that missed several reader resamples used to replay them record
// by record: each attachment moved to a uniform copy of its reader, or to a
// uniform reader when its reader died. CompositeRemap draws the final
// attachment in one step from the product of those transitions. These
// tests hold it to the replay on recorded histories: the tables must be
// the exact matrix product, and the draws must match a per-record replay
// (kept here as the reference) in distribution.
#include <gtest/gtest.h>

#include <cmath>
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
  // replays. At fixed seeds the two-sample chi-square must stay under
  // dof + 6·sqrt(2·dof) (a bound a correct sampler exceeds with probability
  // well under 1e-6 per row), and no draw may land outside the row's
  // support.
  constexpr int kDraws = 4000;
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(testing::Message() << shape.readers << " readers, lag "
                                    << shape.lag);
    const auto history = RecordedHistory(shape.readers, 32, 7 + shape.readers);
    const size_t first = history.size() - shape.lag;
    CompositeRemap composite(history);
    composite.ExtendTo(first);
    const PerRecordReplay replay(history);
    Rng collapsed_rng(100 + shape.lag);
    Rng replay_rng(200 + shape.lag);
    std::vector<double> row;
    for (uint32_t a = 0; a < shape.readers; ++a) {
      std::vector<int> collapsed(shape.readers, 0), replayed(shape.readers, 0);
      for (int i = 0; i < kDraws; ++i) {
        ++collapsed[composite.Draw(a, collapsed_rng)];
        ++replayed[replay.Draw(first, a, replay_rng)];
      }
      composite.Row(a, &row);
      for (size_t d = 0; d < shape.readers; ++d) {
        if (row[d] == 0.0) {
          EXPECT_EQ(collapsed[d], 0) << "row " << a;
        }
      }
      int dof = 0;
      const double chi2 = ChiSquare(collapsed, replayed, &dof);
      if (dof <= 0) {
        EXPECT_EQ(collapsed, replayed) << "row " << a;
        continue;
      }
      EXPECT_LT(chi2, dof + 6.0 * std::sqrt(2.0 * dof))
          << "row " << a << " dof " << dof;
    }
  }
}

TEST(CompositeRemapTest, LagOneDrawsAreThePerRecordReplays) {
  // A one-record composite is the record itself: its rows are uniform over
  // the copies (no coin) and a dead reader's restart is uniform over all
  // readers, so from the same stream the collapsed draw makes exactly the
  // per-record replay's draws.
  for (size_t readers : {40u, 100u}) {
    const auto history = RecordedHistory(readers, 32, 7 + readers);
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
