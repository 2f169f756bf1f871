#include "pf/composite_remap.h"

#include <algorithm>
#include <cassert>

namespace rfid {

bool IsSingleAncestor(const ReaderRemapRecord& record) {
  const std::vector<uint32_t>& ancestors = record.ancestors;
  return std::all_of(ancestors.begin(), ancestors.end(),
                     [a = ancestors.front()](uint32_t x) { return x == a; });
}

void ExpectedRemapWeights(const std::vector<ReaderRemapRecord>& history,
                          size_t first, std::vector<double>* weights) {
  std::vector<double>& v = *weights;
  const size_t n = v.size();
  std::vector<double> sum(n);
  std::vector<uint32_t> count(n);
  // P·w = T_first(···(T_newest·w)): apply the newest record first.
  for (size_t r = history.size(); r-- > first;) {
    const std::vector<uint32_t>& ancestors = history[r].ancestors;
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

CompositeRemap::CompositeRemap(const std::vector<ReaderRemapRecord>& history)
    : history_(history),
      num_readers_(static_cast<uint32_t>(history.back().ancestors.size())),
      level_(history.size()) {
  // S_L = I: every reader is its own lineage outcome.
  row_begin_.resize(num_readers_ + 1);
  row_outcome_.resize(num_readers_);
  row_weight_.assign(num_readers_, 1.0);
  for (uint32_t a = 0; a <= num_readers_; ++a) row_begin_[a] = a;
  for (uint32_t a = 0; a < num_readers_; ++a) row_outcome_[a] = a;
}

void CompositeRemap::ExtendTo(size_t first) {
  assert(first <= level_);
  const uint32_t n = num_readers_;
  const auto inv_n = 1.0 / static_cast<double>(n);
  while (level_ > first) {
    const size_t s = level_ - 1;
    // R_s, the final distribution of a particle repointed uniformly by
    // record s: the mean of the rows S_{s+1}, with their restarts expanded.
    // It becomes restart table `table`, after those of the later records.
    const auto table = static_cast<uint32_t>(history_.size() - 1 - s);
    restart_dist_.resize((table + 1) * size_t{n});
    restart_prob_.resize(restart_dist_.size());
    restart_alias_.resize(restart_dist_.size());
    double* dist = restart_dist_.data() + table * size_t{n};
    std::fill(dist, dist + n, 0.0);
    restart_mass_.assign(table, 0.0);
    for (size_t e = 0; e < row_outcome_.size(); ++e) {
      const uint32_t o = row_outcome_[e];
      if (o < n) {
        dist[o] += row_weight_[e] * inv_n;
      } else {
        restart_mass_[o - n] += row_weight_[e] * inv_n;
      }
    }
    for (uint32_t later = 0; later < table; ++later) {
      const double mass = restart_mass_[later];
      if (mass == 0.0) continue;
      const double* r = restart_dist_.data() + later * size_t{n};
      for (uint32_t d = 0; d < n; ++d) dist[d] += mass * r[d];
    }
    BuildAlias(dist, nullptr, n, restart_prob_.data() + table * size_t{n},
               restart_alias_.data() + table * size_t{n});

    // S_s = T_s·S_{s+1}: row a averages the rows of a's copies; a reader
    // with no copy restarts at s.
    const std::vector<uint32_t>& ancestors = history_[s].ancestors;
    assert(ancestors.size() == n);
    // Copies of each old reader, in new-reader order (a counting sort;
    // next_begin_ is its fill cursor before it holds the new rows).
    copies_begin_.assign(n + 1, 0);
    for (uint32_t j = 0; j < n; ++j) ++copies_begin_[ancestors[j] + 1];
    for (uint32_t a = 0; a < n; ++a) copies_begin_[a + 1] += copies_begin_[a];
    copies_.resize(n);
    next_begin_.assign(copies_begin_.begin(), copies_begin_.end() - 1);
    for (uint32_t j = 0; j < n; ++j) copies_[next_begin_[ancestors[j]]++] = j;
    if (table == 0) BuildCopyTable();

    next_begin_.resize(n + 1);
    next_outcome_.clear();
    next_weight_.clear();
    for (uint32_t a = 0; a < n; ++a) {
      next_begin_[a] = static_cast<uint32_t>(next_outcome_.size());
      const uint32_t count = copies_begin_[a + 1] - copies_begin_[a];
      if (count == 0) {
        next_outcome_.push_back(n + table);
        next_weight_.push_back(1.0);
        continue;
      }
      for (uint32_t c = copies_begin_[a]; c < copies_begin_[a + 1]; ++c) {
        const uint32_t j = copies_[c];
        for (uint32_t e = row_begin_[j]; e < row_begin_[j + 1]; ++e) {
          next_outcome_.push_back(row_outcome_[e]);
          next_weight_.push_back(row_weight_[e] / count);
        }
      }
    }
    next_begin_[n] = static_cast<uint32_t>(next_outcome_.size());
    row_begin_.swap(next_begin_);
    row_outcome_.swap(next_outcome_);
    row_weight_.swap(next_weight_);
    level_ = s;
  }
  lag_one_ = level_ + 1 == history_.size();
  if (lag_one_) return;  // Draw() reads the copy table.
  row_prob_.resize(row_outcome_.size());
  row_alias_.resize(row_outcome_.size());
  for (uint32_t a = 0; a < n; ++a) {
    const uint32_t begin = row_begin_[a];
    BuildAlias(row_weight_.data() + begin, row_outcome_.data() + begin,
               row_begin_[a + 1] - begin, row_prob_.data() + begin,
               row_alias_.data() + begin);
  }
}

void CompositeRemap::BuildCopyTable() {
  const uint32_t n = num_readers_;
  copy_list_.resize(2 * size_t{n});
  std::copy(copies_.begin(), copies_.end(), copy_list_.begin());
  for (uint32_t d = 0; d < n; ++d) copy_list_[n + d] = d;
  copy_range_.resize(n);
  for (uint32_t a = 0; a < n; ++a) {
    const uint32_t count = copies_begin_[a + 1] - copies_begin_[a];
    copy_range_[a] = count > 0 ? CopyRange{copies_begin_[a], count}
                               : CopyRange{n, n};
  }
}

void CompositeRemap::Row(uint32_t start, std::vector<double>* out) const {
  const uint32_t n = num_readers_;
  out->assign(n, 0.0);
  for (uint32_t e = row_begin_[start]; e < row_begin_[start + 1]; ++e) {
    const uint32_t o = row_outcome_[e];
    if (o < n) {
      (*out)[o] += row_weight_[e];
      continue;
    }
    const double* dist = restart_dist_.data() + static_cast<size_t>(o - n) * n;
    for (uint32_t d = 0; d < n; ++d) (*out)[d] += row_weight_[e] * dist[d];
  }
}

void CompositeRemap::BuildAlias(const double* weights,
                                const uint32_t* outcomes, uint32_t count,
                                double* prob, uint32_t* alias) {
  // Equal weights (a lag-one row, a uniform restart) need no coin at all.
  if (std::all_of(weights, weights + count,
                  [w = weights[0]](double x) { return x == w; })) {
    std::fill(prob, prob + count, 1.0);
    return;
  }
  double total = 0.0;
  for (uint32_t c = 0; c < count; ++c) total += weights[c];
  scaled_.resize(count);
  small_.clear();
  large_.clear();
  for (uint32_t c = 0; c < count; ++c) {
    scaled_[c] = weights[c] * count / total;
    (scaled_[c] < 1.0 ? small_ : large_).push_back(c);
  }
  while (!small_.empty() && !large_.empty()) {
    const uint32_t s = small_.back();
    small_.pop_back();
    const uint32_t l = large_.back();
    prob[s] = scaled_[s];
    alias[s] = outcomes != nullptr ? outcomes[l] : l;
    scaled_[l] = (scaled_[l] + scaled_[s]) - 1.0;
    if (scaled_[l] < 1.0) {
      large_.pop_back();
      small_.push_back(l);
    }
  }
  // Whatever is left is full up to rounding.
  for (uint32_t c : large_) prob[c] = 1.0;
  for (uint32_t c : small_) prob[c] = 1.0;
}

}  // namespace rfid
