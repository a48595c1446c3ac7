// Exact frequency oracle.
//
// Every experiment needs ground truth: the exact n_i of the paper's
// notation, the true top-k set, and the residual second moment
// F2^{>k} = sum_{q' > k} n_{q'}^2 that drives the Count-Sketch error term
// gamma = sqrt(F2^{>k} / b). This oracle is the memory-intensive solution
// the paper says is infeasible at stream scale — here it is the referee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "stream/types.h"

namespace streamfreq {

/// An (item, exact count) pair.
struct ItemCount {
  ItemId item;
  Count count;

  friend bool operator==(const ItemCount&, const ItemCount&) = default;
};

/// Sorts `entries` by descending count, ties broken by ascending id so the
/// ranking is deterministic, and keeps at most the first `k`.
void RankByCount(std::vector<ItemCount>* entries, size_t k = SIZE_MAX);

/// Exact per-item counting with the derived statistics the paper's analysis
/// uses. Counts may go negative under turnstile updates.
class ExactCounter {
 public:
  ExactCounter() = default;

  /// Counts one occurrence of `item` (or `weight` occurrences).
  void Add(ItemId item, Count weight = 1) { counts_[item] += weight; }

  /// Counts every item of `stream`.
  void AddAll(const Stream& stream) {
    for (ItemId q : stream) Add(q);
  }

  /// Exact count of `item`; 0 when never seen.
  Count CountOf(ItemId item) const {
    auto it = counts_.find(item);
    return it == counts_.end() ? 0 : it->second;
  }

  /// Number of distinct items seen (m' <= m).
  size_t Distinct() const { return counts_.size(); }

  /// Total stream length n (sum of all counts).
  Count TotalCount() const;

  /// Items sorted by descending count (ties broken by ascending id, so the
  /// ranking is deterministic). O(m' log m').
  std::vector<ItemCount> SortedByCount() const;

  /// The true top-k items (k clipped to the number of distinct items).
  std::vector<ItemCount> TopK(size_t k) const;

  /// The count of the k-th most frequent item (paper's n_k); 0 when fewer
  /// than k distinct items exist.
  Count NthCount(size_t k) const;

  /// Residual second moment F2^{>k} = sum over all but the top k items of
  /// count^2. k = 0 gives the full second moment F2.
  double ResidualF2(size_t k) const;

  /// The paper's error scale gamma = sqrt(F2^{>k} / b).
  double Gamma(size_t k, size_t b) const;

  /// Read-only access to the raw table.
  const std::unordered_map<ItemId, Count>& counts() const { return counts_; }

 private:
  std::unordered_map<ItemId, Count> counts_;
};

}  // namespace streamfreq
