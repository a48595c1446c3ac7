#include "stream/exact_counter.h"

#include <algorithm>
#include <cmath>

namespace streamfreq {

void RankByCount(std::vector<ItemCount>* entries, size_t k) {
  std::sort(entries->begin(), entries->end(),
            [](const ItemCount& a, const ItemCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.item < b.item;
            });
  if (entries->size() > k) entries->resize(k);
}

Count ExactCounter::TotalCount() const {
  Count n = 0;
  for (const auto& [item, c] : counts_) n += c;
  return n;
}

std::vector<ItemCount> ExactCounter::SortedByCount() const {
  std::vector<ItemCount> out;
  out.reserve(counts_.size());
  for (const auto& [item, c] : counts_) out.push_back({item, c});
  RankByCount(&out);
  return out;
}

std::vector<ItemCount> ExactCounter::TopK(size_t k) const {
  std::vector<ItemCount> sorted = SortedByCount();
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

Count ExactCounter::NthCount(size_t k) const {
  if (k == 0 || k > counts_.size()) return 0;
  return SortedByCount()[k - 1].count;
}

double ExactCounter::ResidualF2(size_t k) const {
  std::vector<ItemCount> sorted = SortedByCount();
  double f2 = 0.0;
  for (size_t i = k; i < sorted.size(); ++i) {
    const double c = static_cast<double>(sorted[i].count);
    f2 += c * c;
  }
  return f2;
}

double ExactCounter::Gamma(size_t k, size_t b) const {
  if (b == 0) return 0.0;
  return std::sqrt(ResidualF2(k) / static_cast<double>(b));
}

}  // namespace streamfreq
