#include "pf/composite_remap.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace rfid {

ReaderRemapRecord::ReaderRemapRecord(int64_t step,
                                     std::vector<uint32_t> ancestors)
    : step_(step), ancestors_(std::move(ancestors)) {
  const auto n = static_cast<uint32_t>(ancestors_.size());
  // Copies of each old reader, in new-reader order (a counting sort whose
  // counts refill as the fill cursor), then the identity list.
  copy_range_.assign(n, CopyRange{0, 0});
  for (uint32_t a : ancestors_) ++copy_range_[a].count;
  uint32_t begin = 0;
  for (CopyRange& range : copy_range_) {
    range.begin = begin;
    begin += range.count;
    range.count = 0;
  }
  copy_list_.resize(2 * size_t{n});
  for (uint32_t j = 0; j < n; ++j) {
    CopyRange& range = copy_range_[ancestors_[j]];
    copy_list_[range.begin + range.count++] = j;
  }
  std::iota(copy_list_.begin() + n, copy_list_.end(), 0u);
  for (CopyRange& range : copy_range_) {
    if (range.count == 0) range = {n, n};
  }
}

bool IsSingleAncestor(const ReaderRemapRecord& record) {
  const std::vector<uint32_t>& ancestors = record.ancestors();
  return std::all_of(ancestors.begin(), ancestors.end(),
                     [a = ancestors.front()](uint32_t x) { return x == a; });
}

void ReplayRemaps(const std::vector<ReaderRemapRecord>& history, size_t first,
                  uint32_t* reader_idx, size_t n, Rng& rng) {
  // Draw from a local copy of the stream: through the reference, GCC 12
  // keeps the generator state in memory, a store and a reload on every
  // draw (~1 ns of BM_RemapResolve's 4-5 ns at lag one).
  Rng local = rng;
  for (size_t r = first; r < history.size(); ++r) {
    const ReaderRemapRecord& record = history[r];
    for (size_t k = 0; k < n; ++k) {
      reader_idx[k] = record.Draw(reader_idx[k], local);
    }
  }
  rng = local;
}

void ExpectedRemapWeights(const std::vector<ReaderRemapRecord>& history,
                          size_t first, std::vector<double>* weights) {
  std::vector<double>& v = *weights;
  const size_t n = v.size();
  std::vector<double> sum(n);
  std::vector<uint32_t> count(n);
  // P·w = T_first(···(T_newest·w)): apply the newest record first.
  for (size_t r = history.size(); r-- > first;) {
    const std::vector<uint32_t>& ancestors = history[r].ancestors();
    assert(ancestors.size() == n);
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(count.begin(), count.end(), 0u);
    double total = 0.0;
    for (size_t j = 0; j < n; ++j) {
      sum[ancestors[j]] += v[j];
      ++count[ancestors[j]];
      total += v[j];
    }
    const double mean_all = total / static_cast<double>(n);
    for (size_t a = 0; a < n; ++a) {
      v[a] = count[a] > 0 ? sum[a] / count[a] : mean_all;
    }
  }
}

}  // namespace rfid
