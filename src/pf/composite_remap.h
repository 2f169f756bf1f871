// Replay of deferred reader-resample remaps (§IV-B repoint step).
//
// Reader resampling repoints every object particle's attachment: a particle
// conditioned on old reader a moves to one of a's copies, chosen uniformly,
// or — when a left no copy — to a reader drawn uniformly from all N. As a
// matrix, one recorded resample is the row-stochastic T_r whose row a is a
// point mass on a's single copy, uniform over a's copies, or uniform over
// all N readers when a died.
//
// The filter records each resample and resolves a slot's attachments only
// at the slot's next sync. A slot that missed records f..L-1 replays them
// in turn (ReplayRemaps), which draws from the composite
// P = T_f···T_{L-1}. Each record carries its flat copy table, built once
// when the record is made: per old reader an offset and a count into a
// list of its copies in new-reader order, a dead reader pointing at the
// identity list 0..N-1. One repoint is one bounded UniformInt (none for a
// single copy), so a slot lagging L records costs L draws per particle;
// most syncs lag one record.
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

/// One reader resampling as a repoint map, with the copy table its draws
/// read: the two are made together and cannot change apart.
class ReaderRemapRecord {
 public:
  /// New reader j is a copy of old reader ancestors[j]; one entry per
  /// reader, each below the reader count. `step` is the step the resample
  /// fired.
  ReaderRemapRecord(int64_t step, std::vector<uint32_t> ancestors);

  int64_t step() const { return step_; }
  const std::vector<uint32_t>& ancestors() const { return ancestors_; }

  /// New reader of an attachment to old reader `start`: uniform over
  /// start's copies (no draw for a single copy), or over all readers when
  /// start left none.
  uint32_t Draw(uint32_t start, Rng& rng) const {
    const CopyRange range = copy_range_[start];
    const auto c = range.count == 1
                       ? 0
                       : static_cast<uint32_t>(rng.UniformInt(range.count));
    return copy_list_[range.begin + c];
  }

 private:
  struct CopyRange {
    uint32_t begin;
    uint32_t count;
  };

  int64_t step_;
  std::vector<uint32_t> ancestors_;
  // Old reader a draws uniformly from copy_list_[copy_range_[a].begin,
  // + count): its copies in new-reader order, or the identity list after
  // them when a died.
  std::vector<CopyRange> copy_range_;
  std::vector<uint32_t> copy_list_;
};

/// True when every new reader of `record` copies one old reader. Every row
/// of its T_r is then uniform over all N readers (the survivor's over its N
/// copies, each dead row by restart), so T_r = 1·uᵀ and, for every f <= r,
/// T_f···T_newest = 1·(uᵀ·T_{r+1}···T_newest): the composite from before r
/// is the composite from r, whatever the start.
bool IsSingleAncestor(const ReaderRemapRecord& record);

/// Resolves the attachments reader_idx[0, n), which index the readers as of
/// record `first`, through records first..newest of `history`: record by
/// record, oldest first, one Draw() per attachment per record, all from
/// `rng`.
void ReplayRemaps(const std::vector<ReaderRemapRecord>& history, size_t first,
                  uint32_t* reader_idx, size_t n, Rng& rng);

/// Expected reader weight per attachment of a slot lagging from record
/// `first`: on entry `weights` holds the current reader weights w, on return
/// (P·w)(a) for P = T_first···T_newest — the weight the attachment a stands
/// for once resolved. L sparse mat-vecs, O(L·N); draws nothing.
void ExpectedRemapWeights(const std::vector<ReaderRemapRecord>& history,
                          size_t first, std::vector<double>* weights);

}  // namespace rfid
