#include "core/misra_gries.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "util/logging.h"

namespace streamfreq {

Result<MisraGries> MisraGries::Make(size_t capacity) {
  if (capacity == 0) {
    return Status::InvalidArgument("MisraGries: capacity must be positive");
  }
  return MisraGries(capacity);
}

MisraGries::MisraGries(size_t capacity) : capacity_(capacity) {
  counters_.reserve(capacity + 1);
}

std::string MisraGries::Name() const {
  return "MisraGries(c=" + std::to_string(capacity_) + ")";
}

void MisraGries::Add(ItemId item, Count weight) {
  SFQ_DCHECK_GE(weight, 1);
  auto it = counters_.find(item);
  if (it != counters_.end()) {
    it->second += weight;
    return;
  }
  if (counters_.size() < capacity_) {
    counters_.emplace(item, weight);
    return;
  }
  // Weighted decrement step: remove delta = min(weight, smallest counter)
  // from the arriving weight and from every counter, dropping zeros;
  // repeat until the arrival is absorbed or a slot frees up.
  Count remaining = weight;
  while (remaining > 0) {
    Count min_counter = remaining;
    for (const auto& [id, c] : counters_) min_counter = std::min(min_counter, c);
    const Count delta = min_counter;
    decremented_ += delta;
    for (auto jt = counters_.begin(); jt != counters_.end();) {
      jt->second -= delta;
      if (jt->second == 0) {
        jt = counters_.erase(jt);
      } else {
        ++jt;
      }
    }
    remaining -= delta;
    if (remaining == 0) break;
    if (counters_.size() < capacity_) {
      counters_.emplace(item, remaining);
      break;
    }
  }
}

void MisraGries::BatchAdd(std::span<const ItemId> items) {
  std::unordered_map<ItemId, Count> aggregated;
  aggregated.reserve(std::min(items.size(), size_t{4} * capacity_));
  for (const ItemId q : items) ++aggregated[q];
  for (const auto& [item, weight] : aggregated) Add(item, weight);
}

Status MisraGries::Merge(const MisraGries& other) {
  if (capacity_ != other.capacity_) {
    return Status::InvalidArgument(
        "MisraGries::Merge: capacities must match");
  }
  for (const auto& [item, count] : other.counters_) {
    counters_[item] += count;
  }
  decremented_ += other.decremented_;
  if (counters_.size() <= capacity_) return Status::OK();

  // Find the (capacity+1)-st largest counter; subtract it everywhere.
  std::vector<Count> values;
  values.reserve(counters_.size());
  for (const auto& [item, count] : counters_) values.push_back(count);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(capacity_),
                   values.end(), std::greater<Count>());
  const Count pivot = values[capacity_];
  decremented_ += pivot;
  for (auto it = counters_.begin(); it != counters_.end();) {
    it->second -= pivot;
    if (it->second <= 0) {
      it = counters_.erase(it);
    } else {
      ++it;
    }
  }
  SFQ_DCHECK_LE(counters_.size(), capacity_);
  return Status::OK();
}

Count MisraGries::Estimate(ItemId item) const {
  auto it = counters_.find(item);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<ItemCount> MisraGries::Candidates(size_t k) const {
  std::vector<ItemCount> out;
  out.reserve(counters_.size());
  for (const auto& [id, c] : counters_) out.push_back({id, c});
  RankByCount(&out, k);
  return out;
}

size_t MisraGries::SpaceBytes() const {
  // (item, counter) per monitored slot plus table bucket overhead.
  return counters_.size() * (sizeof(ItemId) + sizeof(Count) + sizeof(void*));
}

}  // namespace streamfreq
