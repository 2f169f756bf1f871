// Collapsed replay of deferred reader-resample remaps (§IV-B repoint step).
//
// Reader resampling repoints every object particle's attachment: a particle
// conditioned on old reader a moves to one of a's copies, chosen uniformly,
// or — when a left no copy — to a reader drawn uniformly from all N. As a
// matrix, one recorded resample is the row-stochastic T_r whose row a is a
// point mass on a's single copy, uniform over a's copies, or uniform over
// all N readers when a died. A slot that missed records f..L-1 needs one
// draw per particle from the composite P = T_f···T_{L-1}, not one per
// record: the final attachment depends on the records only through P.
//
// The composite is built by a backward sweep, S_r = T_r·S_{r+1}: row a of
// S_r is the mean of S_{r+1}'s rows over a's copies, or over all rows when
// a died. Rows are held factored rather than as N×N matrices, so the tables
// stay O(N·L) at any reader count:
//  * a lineage outcome: final reader d, reached by following copies only.
//    Lineages form a tree (each new reader copies exactly one old one), so
//    the lineage outcomes of all rows of one level partition the N final
//    readers.
//  * a restart outcome at record t: the attachment's reader died at t, the
//    particle moved to a uniform reader and followed records t+1..L-1 from
//    there. That final distribution, R_t, is the same for every row, so it
//    is one dense alias table per record.
// A draw picks an outcome from the row's alias table (Walker, ACM TOMS 3(3),
// 1977) and, for a restart, a final reader from R_t's: at most two alias
// draws per particle, whatever the lag.
//
// Most syncs collapse only the newest record, and a one-record composite
// is the record itself: row a is uniform over a's copies, or over all N
// readers when a died. Such a composite draws from one flat table instead
// — per old reader an offset and a count into a list of its copies in
// new-reader order, a dead reader pointing at the identity list 0..N-1 —
// one bounded UniformInt per particle (none for a single copy). Those are
// the values the alias path draws for that composite, from the same
// stream.
//
// A record whose new readers all copy one old reader has uniform rows only
// (IsSingleAncestor), so it forgets where an attachment stood before it:
// the filter resolves slots lagging from before such a record as if they
// lagged from it, and drops the older records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace rfid {

/// One reader resampling as a repoint map.
struct ReaderRemapRecord {
  int64_t step = 0;  ///< Step the resample fired.
  /// New reader j is a copy of old reader ancestors[j]; one entry per reader.
  std::vector<uint32_t> ancestors;
};

/// True when every new reader of `record` copies one old reader. Every row
/// of its T_r is then uniform over all N readers (the survivor's over its N
/// copies, each dead row by restart), so T_r = 1·uᵀ and, for every f <= r,
/// T_f···T_newest = 1·(uᵀ·T_{r+1}···T_newest): the composite from before r
/// is the composite from r, whatever the start.
bool IsSingleAncestor(const ReaderRemapRecord& record);

/// Expected reader weight per attachment of a slot lagging from record
/// `first`: on entry `weights` holds the current reader weights w, on return
/// (P·w)(a) for P = T_first···T_newest — the weight the attachment a stands
/// for once resolved. L sparse mat-vecs, O(L·N); draws nothing.
void ExpectedRemapWeights(const std::vector<ReaderRemapRecord>& history,
                          size_t first, std::vector<double>* weights);

/// Composite transition tables of a remap history, built backward from the
/// newest record by one sweep; the buffers are reused from one ExtendTo()
/// to the next.
class CompositeRemap {
 public:
  /// Starts a sweep over `history` (non-empty, every record of one reader
  /// count, and outliving this object): the composite is the identity, no
  /// record collapsed yet.
  explicit CompositeRemap(const std::vector<ReaderRemapRecord>& history);

  /// Extends the composite backward to records first..newest, building the
  /// tables Draw() reads: the flat copy table while it covers the newest
  /// record alone, alias tables beyond. `first` must not exceed the
  /// previous one.
  void ExtendTo(size_t first);

  /// Final attachment of a particle attached to `start` (a reader index as
  /// of the firing of the record the composite starts at), drawn exactly
  /// from row `start` of the composite. Read-only: concurrent calls with
  /// per-lane streams are safe.
  uint32_t Draw(uint32_t start, Rng& rng) const {
    if (lag_one_) {
      const CopyRange range = copy_range_[start];
      const auto c = range.count == 1
                         ? 0
                         : static_cast<uint32_t>(rng.UniformInt(range.count));
      return copy_list_[range.begin + c];
    }
    const uint32_t begin = row_begin_[start];
    const uint32_t outcome =
        Pick(row_prob_.data() + begin, row_outcome_.data() + begin,
             row_alias_.data() + begin, row_begin_[start + 1] - begin, rng);
    if (outcome < num_readers_) return outcome;
    const size_t at = static_cast<size_t>(outcome - num_readers_) *
                      num_readers_;
    return Pick(restart_prob_.data() + at, nullptr,
                restart_alias_.data() + at, num_readers_, rng);
  }

  /// Dense row `start` of the composite: out[d] = P(start -> d). For tests
  /// and diagnostics.
  void Row(uint32_t start, std::vector<double>* out) const;

 private:
  /// One alias-table draw over `count` columns. Column c keeps its own
  /// outcome (outcomes[c], or c itself when `outcomes` is null) with
  /// probability prob[c], else takes alias[c]. Full columns skip the coin.
  static uint32_t Pick(const double* prob, const uint32_t* outcomes,
                       const uint32_t* alias, uint32_t count, Rng& rng) {
    const auto c =
        count == 1 ? 0 : static_cast<uint32_t>(rng.UniformInt(count));
    const uint32_t own = outcomes != nullptr ? outcomes[c] : c;
    if (prob[c] >= 1.0 || rng.NextDouble() < prob[c]) return own;
    return alias[c];
  }

  /// The flat form of the newest record, from its copy lists (copies_).
  void BuildCopyTable();

  /// Vose's alias construction over `count` weighted outcomes.
  void BuildAlias(const double* weights, const uint32_t* outcomes,
                  uint32_t count, double* prob, uint32_t* alias);

  const std::vector<ReaderRemapRecord>& history_;
  uint32_t num_readers_ = 0;
  size_t level_ = 0;  ///< The composite covers records level_..newest.

  // The flat form Draw() takes while the composite covers only the newest
  // record: old reader a draws uniformly from
  // copy_list_[copy_range_[a].begin, + count), its copies in new-reader
  // order, or the identity list after them when a died.
  struct CopyRange {
    uint32_t begin;
    uint32_t count;
  };
  bool lag_one_ = false;
  std::vector<CopyRange> copy_range_;
  std::vector<uint32_t> copy_list_;

  // Rows of the current level in CSR form: row a's outcomes are
  // [row_begin_[a], row_begin_[a + 1]); an outcome below num_readers_ is a
  // final reader, num_readers_ + i a restart drawn from restart table i.
  std::vector<uint32_t> row_begin_;
  std::vector<uint32_t> row_outcome_;
  std::vector<double> row_weight_;
  // Alias tables over the current level's rows (built by ExtendTo).
  std::vector<double> row_prob_;
  std::vector<uint32_t> row_alias_;
  // R_t for every record t >= level_, N entries each: dense distribution
  // and alias table. Table i is R_t of record t = newest - i, appended as
  // the sweep passes t.
  std::vector<double> restart_dist_;
  std::vector<double> restart_prob_;
  std::vector<uint32_t> restart_alias_;

  // Scratch for one backward step and the alias construction.
  std::vector<uint32_t> next_begin_;
  std::vector<uint32_t> next_outcome_;
  std::vector<double> next_weight_;
  std::vector<uint32_t> copies_begin_;
  std::vector<uint32_t> copies_;
  std::vector<double> restart_mass_;
  std::vector<double> scaled_;
  std::vector<uint32_t> small_;
  std::vector<uint32_t> large_;
};

}  // namespace rfid
