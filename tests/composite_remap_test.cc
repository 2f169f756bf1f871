// The replay of pending reader remaps against the transitions it samples.
//
// A slot that missed several reader resamples replays them record by
// record: each attachment moves to a uniform copy of its reader, or to a
// uniform reader when its reader died. These tests hold ReplayRemaps to
// that definition on recorded histories: its draws must be a record-major
// per-record replay's (kept here as the reference) bit for bit, and they
// must fit the rows of the dense product of the records' transitions. A
// record whose readers all copy one ancestor lets the filter cut the
// history there; the cut must leave every lagging slot's transition, draws
// and expected weights as they were.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "pf/composite_remap.h"
#include "pf/resample.h"
#include "util/rng.h"

namespace rfid {
namespace {

using Dense = std::vector<std::vector<double>>;

/// A history of `lag` resamples over `n` readers, recorded from the
/// filter's own resampling routine over random weights. Alternating
/// schemes vary the copy pattern; every third record resamples
/// near-uniform weights, so most readers keep exactly one copy. With
/// `shuffled`, each record's ancestors are permuted (as residual
/// resampling emits them): sorted ancestors make every copy list the
/// identity, which hides a draw that indexes the wrong list.
std::vector<ReaderRemapRecord> RecordedHistory(size_t n, size_t lag,
                                               uint64_t seed,
                                               bool shuffled = false) {
  Rng rng(seed);
  std::vector<ReaderRemapRecord> history;
  std::vector<double> weights(n);
  std::vector<uint32_t> ancestors;
  for (size_t r = 0; r < lag; ++r) {
    double total = 0.0;
    for (double& w : weights) {
      w = r % 3 == 2 ? 1.0 + 0.01 * rng.NextDouble()
                     : std::pow(rng.NextDouble(), 3.0);
      total += w;
    }
    for (double& w : weights) w /= total;
    ResampleAncestors(weights.data(), n, n,
                      r % 2 == 0 ? ResampleScheme::kSystematic
                                 : ResampleScheme::kMultinomial,
                      rng, &ancestors);
    if (shuffled) {
      for (size_t j = n; j-- > 1;) {
        std::swap(ancestors[j], ancestors[rng.UniformInt(j + 1)]);
      }
    }
    history.emplace_back(static_cast<int64_t>(10 * r), ancestors);
  }
  return history;
}

/// The per-record replay ReplayRemaps implements, from plain copy lists:
/// for each record, oldest first, every attachment moves to a uniform copy
/// of its reader (no draw for a single copy), or to a uniform reader when
/// its reader left no copy.
class PerRecordReplay {
 public:
  explicit PerRecordReplay(const std::vector<ReaderRemapRecord>& history) {
    for (const ReaderRemapRecord& record : history) {
      const std::vector<uint32_t>& ancestors = record.ancestors();
      copies_of_.emplace_back(ancestors.size());
      for (uint32_t j = 0; j < ancestors.size(); ++j) {
        copies_of_.back()[ancestors[j]].push_back(j);
      }
    }
  }

  void Replay(size_t first, std::vector<uint32_t>* attachments,
              Rng& rng) const {
    for (size_t r = first; r < copies_of_.size(); ++r) {
      for (uint32_t& at : *attachments) {
        const std::vector<uint32_t>& copies = copies_of_[r][at];
        if (copies.empty()) {
          at = static_cast<uint32_t>(rng.UniformInt(copies_of_[r].size()));
        } else if (copies.size() == 1) {
          at = copies[0];
        } else {
          at = copies[rng.UniformInt(copies.size())];
        }
      }
    }
  }

 private:
  std::vector<std::vector<std::vector<uint32_t>>> copies_of_;
};

/// Dense T_first···T_newest, multiplied out in the obvious way.
Dense DenseComposite(const std::vector<ReaderRemapRecord>& history,
                     size_t first) {
  const size_t n = history.back().ancestors().size();
  Dense p(n, std::vector<double>(n, 0.0));
  for (size_t a = 0; a < n; ++a) p[a][a] = 1.0;
  for (size_t r = first; r < history.size(); ++r) {
    const std::vector<uint32_t>& ancestors = history[r].ancestors();
    Dense t(n, std::vector<double>(n, 0.0));
    std::vector<size_t> copies(n, 0);
    for (uint32_t a : ancestors) ++copies[a];
    for (size_t j = 0; j < n; ++j) {
      t[ancestors[j]][j] = 1.0 / static_cast<double>(copies[ancestors[j]]);
    }
    for (size_t a = 0; a < n; ++a) {
      if (copies[a] > 0) continue;
      for (size_t j = 0; j < n; ++j) t[a][j] = 1.0 / static_cast<double>(n);
    }
    Dense next(n, std::vector<double>(n, 0.0));
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

/// Largest entrywise gap between two dense composites.
double MaxGap(const Dense& x, const Dense& y) {
  double gap = 0.0;
  for (size_t a = 0; a < x.size(); ++a) {
    for (size_t d = 0; d < x[a].size(); ++d) {
      gap = std::max(gap, std::abs(x[a][d] - y[a][d]));
    }
  }
  return gap;
}

/// `history` with record r's new readers copying `survivors` round-robin
/// in blocks: {a} makes r a single-ancestor record, {a, b} a two-ancestor
/// one.
std::vector<ReaderRemapRecord> WithAncestorsAt(
    std::vector<ReaderRemapRecord> history, size_t r,
    const std::vector<uint32_t>& survivors) {
  std::vector<uint32_t> ancestors(history[r].ancestors().size());
  const size_t n = ancestors.size();
  for (size_t j = 0; j < n; ++j) {
    ancestors[j] = survivors[j * survivors.size() / n];
  }
  history[r] = ReaderRemapRecord(history[r].step(), std::move(ancestors));
  return history;
}

/// Records r..newest: the history the filter keeps after cutting at r.
std::vector<ReaderRemapRecord> CutAt(
    const std::vector<ReaderRemapRecord>& history, size_t r) {
  return {history.begin() + static_cast<long>(r), history.end()};
}

/// Upper 1e-6 tail point of the chi-square distribution with `dof` degrees
/// of freedom (Wilson–Hilferty, one-sided normal point 4.75).
double ChiSquareBound(int dof) {
  const double d = dof;
  const double c = 1.0 - 2.0 / (9.0 * d) + 4.75 * std::sqrt(2.0 / (9.0 * d));
  return d * c * c * c;
}

/// Per start reader a, 4,000 attachments at a resolved by
/// ReplayRemaps(history, first) against row a of `rows`, the exact
/// composite they should follow. Bins expecting fewer than 5 draws are
/// pooled (the pool folds into the largest bin when it too expects fewer
/// than 5). Returns the rows whose chi-square reaches ChiSquareBound (a
/// correct sampler does with probability 1e-6 per row) or that drew
/// outside the row's support, naming the first in `first_off`.
int RowsOffTheComposite(const std::vector<ReaderRemapRecord>& history,
                        size_t first, const Dense& rows, uint64_t seed,
                        std::string* first_off) {
  constexpr int kDraws = 4000;
  const size_t n = rows.size();
  Rng rng(100 + seed);
  std::vector<uint32_t> attachments(kDraws);
  int off = 0;
  for (uint32_t a = 0; a < n; ++a) {
    std::fill(attachments.begin(), attachments.end(), a);
    ReplayRemaps(history, first, attachments.data(), attachments.size(), rng);
    std::vector<int> counts(n, 0);
    for (uint32_t d : attachments) ++counts[d];
    bool outside = false;
    std::vector<std::pair<double, int>> bins;  // (expected, observed)
    std::pair<double, int> pool{0.0, 0};
    for (size_t d = 0; d < n; ++d) {
      const double expected = rows[a][d] * kDraws;
      if (expected == 0.0) {
        outside |= counts[d] > 0;
      } else if (expected < 5.0) {
        pool.first += expected;
        pool.second += counts[d];
      } else {
        bins.emplace_back(expected, counts[d]);
      }
    }
    if (pool.first >= 5.0 || (bins.empty() && pool.first > 0.0)) {
      bins.push_back(pool);
    } else if (pool.first > 0.0) {
      auto largest = std::max_element(bins.begin(), bins.end());
      largest->first += pool.first;
      largest->second += pool.second;
    }
    double chi2 = 0.0;
    for (const auto& [expected, observed] : bins) {
      chi2 += (observed - expected) * (observed - expected) / expected;
    }
    const int dof = static_cast<int>(bins.size()) - 1;
    const bool far = dof > 0 && chi2 >= ChiSquareBound(dof);
    if ((outside || far) && off++ == 0) {
      *first_off = "row " + std::to_string(a) + ": chi2 " +
                   std::to_string(chi2) + " dof " + std::to_string(dof) +
                   (outside ? ", outside the support" : "");
    }
  }
  return off;
}

/// Largest gap between the expected weights of a slot lagging from record
/// `first` over the full history and over the history cut at r.
double WeightGapToCut(const std::vector<ReaderRemapRecord>& history,
                      size_t r, size_t first) {
  Rng rng(3 + first);
  std::vector<double> full(history.back().ancestors().size());
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

struct Shape {
  size_t readers;
  size_t lag;
};

constexpr Shape kShapes[] = {{40, 1},  {40, 2},  {40, 8},  {40, 32},
                             {100, 1}, {100, 2}, {100, 8}, {100, 32}};

TEST(CompositeRemapTest, RecordedHistoriesHaveEveryRowKind) {
  // Rows with zero, one and several copies all occur in every window the
  // tests below replay, and the near-uniform records keep most readers at
  // exactly one copy.
  for (const Shape& shape : kShapes) {
    for (bool shuffled : {false, true}) {
      const auto history =
          RecordedHistory(shape.readers, 32, 7 + shape.readers, shuffled);
      int dead = 0, single = 0, several = 0;
      for (size_t r = history.size() - shape.lag; r < history.size(); ++r) {
        std::vector<int> copies(shape.readers, 0);
        for (uint32_t a : history[r].ancestors()) ++copies[a];
        for (int c : copies) (c == 0 ? dead : c == 1 ? single : several)++;
      }
      EXPECT_GT(dead, 0);
      EXPECT_GT(single, 0);
      EXPECT_GT(several, 0);
    }
  }
}

TEST(CompositeRemapTest, ReplayIsThePerRecordReplay) {
  // From the same stream, ReplayRemaps makes exactly the record-major
  // per-record replay's draws, and consumes exactly its stream, at every
  // lag. At lag one this is the draw of every set-up sync on the
  // benchmark's warehouse and fleet workloads.
  for (const Shape& shape : kShapes) {
    for (bool shuffled : {false, true}) {
      SCOPED_TRACE(testing::Message() << shape.readers << " readers, lag "
                                      << shape.lag << ", shuffled "
                                      << shuffled);
      const auto history =
          RecordedHistory(shape.readers, 32, 7 + shape.readers, shuffled);
      const size_t first = history.size() - shape.lag;
      std::vector<uint32_t> expected(5000);
      for (size_t k = 0; k < expected.size(); ++k) {
        expected[k] = static_cast<uint32_t>(k % shape.readers);
      }
      std::vector<uint32_t> replayed = expected;
      Rng replay_rng(5), reference_rng(5);
      ReplayRemaps(history, first, replayed.data(), replayed.size(),
                   replay_rng);
      PerRecordReplay(history).Replay(first, &expected, reference_rng);
      EXPECT_EQ(replayed, expected);
      EXPECT_EQ(replay_rng.NextU64(), reference_rng.NextU64());
    }
  }
}

TEST(CompositeRemapTest, DrawsFitTheDenseComposite) {
  // Per start reader, 4,000 replayed draws against the row of the dense
  // product (RowsOffTheComposite): at fixed seeds no row may fail the
  // chi-square bound or draw outside its support.
  for (const Shape& shape : kShapes) {
    for (bool shuffled : {false, true}) {
      SCOPED_TRACE(testing::Message() << shape.readers << " readers, lag "
                                      << shape.lag << ", shuffled "
                                      << shuffled);
      const auto history =
          RecordedHistory(shape.readers, 32, 7 + shape.readers, shuffled);
      const size_t first = history.size() - shape.lag;
      std::string off;
      EXPECT_EQ(RowsOffTheComposite(history, first,
                                    DenseComposite(history, first), shape.lag,
                                    &off),
                0)
          << "first " << off;
    }
  }
}

TEST(CompositeRemapTest, SingleAncestorRecordsForgetTheStart) {
  // A 15-record history whose record r copies one reader into all N, r in
  // the middle or the newest (the cut history then holds one record). For
  // a slot lagging from any f <= r, resolving from r is exact: (a) the
  // dense product from f equals the dense product of the history cut at
  // r, (b) draws replayed from the cut history fit the rows of the dense
  // product from f, and (c) the expected weights of the full and the cut
  // history agree.
  constexpr size_t kRecords = 15;
  for (size_t readers : {40u, 100u}) {
    for (size_t r : {size_t{7}, kRecords - 1}) {
      SCOPED_TRACE(testing::Message() << readers << " readers, cut at " << r);
      const auto history = WithAncestorsAt(
          RecordedHistory(readers, kRecords, 7 + readers), r, {5});
      for (size_t t = 0; t < kRecords; ++t) {
        EXPECT_EQ(IsSingleAncestor(history[t]), t == r) << "record " << t;
      }
      const auto cut = CutAt(history, r);
      const Dense cut_rows = DenseComposite(cut, 0);
      for (size_t first = 0; first <= r; ++first) {
        EXPECT_LT(MaxGap(DenseComposite(history, first), cut_rows), 1e-12)
            << "from " << first;
        EXPECT_LT(WeightGapToCut(history, r, first), 1e-12)
            << "from " << first;
      }
      for (size_t first : {size_t{0}, r / 2, r - 1}) {
        std::string off;
        EXPECT_EQ(RowsOffTheComposite(cut, 0, DenseComposite(history, first),
                                      first, &off),
                  0)
            << "from " << first << ", first " << off;
      }
    }
  }
}

TEST(CompositeRemapTest, CuttingAtATwoAncestorRecordIsCaught) {
  // The same histories with record r split between two ancestors: its
  // rows are not all alike, so it is no cut point. Cutting there anyway
  // moves (a) the dense product and (c) the expected weights of a slot
  // lagging from the record before it past any rounding, and, with r the
  // newest record, (b) its replayed draws past the chi-square bound. With
  // r in the middle the skewed records after it coalesce the lineages
  // until the draws differ by less than 4,000 per row can see (a total
  // variation of ~0.02).
  constexpr size_t kRecords = 15;
  for (size_t readers : {40u, 100u}) {
    for (size_t r : {size_t{7}, kRecords - 1}) {
      SCOPED_TRACE(testing::Message() << readers << " readers, cut at " << r);
      const auto history = WithAncestorsAt(
          RecordedHistory(readers, kRecords, 7 + readers), r, {5, 17});
      EXPECT_FALSE(IsSingleAncestor(history[r]));
      const auto cut = CutAt(history, r);
      const Dense full_rows = DenseComposite(history, r - 1);
      EXPECT_GT(MaxGap(full_rows, DenseComposite(cut, 0)), 1e-3);
      EXPECT_GT(WeightGapToCut(history, r, r - 1), 1e-6);
      if (r != kRecords - 1) continue;
      std::string off;
      EXPECT_GT(RowsOffTheComposite(cut, 0, full_rows, 0, &off), 0);
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
