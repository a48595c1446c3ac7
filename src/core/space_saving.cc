#include "core/space_saving.h"

#include <algorithm>

#include "util/bit_util.h"
#include "util/logging.h"

namespace streamfreq {

Result<SpaceSaving> SpaceSaving::Make(size_t capacity) {
  if (capacity == 0) {
    return Status::InvalidArgument("SpaceSaving: capacity must be positive");
  }
  return SpaceSaving(capacity);
}

SpaceSaving::SpaceSaving(size_t capacity) : capacity_(capacity) {
  heap_.reserve(capacity);
  GrowIndex(0);
}

std::string SpaceSaving::Name() const {
  return "SpaceSaving(c=" + std::to_string(capacity_) + ")";
}

size_t SpaceSaving::Home(ItemId item) const {
  // Fibonacci hashing: the top bits of a golden-ratio product spread
  // sequential ids as well as hashed ones.
  return static_cast<size_t>((item * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

size_t SpaceSaving::BucketOf(ItemId item) const {
  const size_t mask = index_.size() - 1;
  size_t b = Home(item);
  while (index_[b].slot != kFree && index_[b].item != item) b = (b + 1) & mask;
  return b;
}

void SpaceSaving::Unindex(ItemId item) {
  const size_t mask = index_.size() - 1;
  size_t hole = BucketOf(item);
  for (size_t b = (hole + 1) & mask; index_[b].slot != kFree;
       b = (b + 1) & mask) {
    // Shift b back into the hole unless its home lies in (hole, b].
    if (((b - Home(index_[b].item)) & mask) >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole].slot = kFree;
}

void SpaceSaving::GrowIndex(size_t entries) {
  // At most three quarters full, and never full: a probe for an absent
  // item must reach a free bucket.
  const size_t want =
      bit_util::NextPowerOfTwo(std::max<size_t>(2, entries + entries / 3 + 1));
  if (index_.size() >= want) return;
  index_.assign(want, IndexEntry{0, kFree});
  index_shift_ = 64 - bit_util::FloorLog2(want);
  for (size_t i = 0; i < heap_.size(); ++i) {
    index_[BucketOf(heap_[i].item)] = {heap_[i].item, i};
  }
}

void SpaceSaving::Reserve(size_t incoming) {
  GrowIndex(heap_.size() + incoming);
  heap_.resize(heap_.size() + incoming);
}

void SpaceSaving::SwapSlots(size_t i, size_t j) {
  std::swap(heap_[i], heap_[j]);
  index_[BucketOf(heap_[i].item)].slot = i;
  index_[BucketOf(heap_[j].item)].slot = j;
}

void SpaceSaving::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t smallest = i;
    const size_t l = 2 * i + 1, r = 2 * i + 2;
    if (l < n && heap_[l].count < heap_[smallest].count) smallest = l;
    if (r < n && heap_[r].count < heap_[smallest].count) smallest = r;
    if (smallest == i) return;
    SwapSlots(i, smallest);
    i = smallest;
  }
}

void SpaceSaving::SiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (heap_[parent].count <= heap_[i].count) return;
    SwapSlots(i, parent);
    i = parent;
  }
}

void SpaceSaving::Add(ItemId item, Count weight) {
  SFQ_DCHECK_GE(weight, 1);
  if (heap_.size() < capacity_) GrowIndex(heap_.size() + 1);
  IndexEntry& e = index_[BucketOf(item)];
  if (e.slot != kFree) {
    heap_[e.slot].count += weight;
    SiftDown(e.slot);
    return;
  }
  if (heap_.size() < capacity_) {
    e = {item, heap_.size()};
    heap_.push_back({item, weight, 0});
    SiftUp(heap_.size() - 1);
    return;
  }
  // Replace the minimum: the newcomer inherits its count as error bound.
  Slot& root = heap_[0];
  Unindex(root.item);
  const Count min_count = root.count;
  root = {item, min_count + weight, min_count};
  index_[BucketOf(item)] = {item, 0};
  SiftDown(0);
}

void SpaceSaving::BatchAdd(std::span<const ItemId> items) {
  if (items.empty()) return;
  const Count floor = MinCount();
  const size_t live = heap_.size();
  Reserve(items.size());
  heap_.resize(MergeBatch(items, live, floor));
}

// sfq-hot-path
inline void SpaceSaving::Absorb(ItemId item, Count count, Count error,
                                Count floor, size_t& n) {
  IndexEntry& e = index_[BucketOf(item)];
  if (e.slot != kFree) {
    heap_[e.slot].count += count;
    heap_[e.slot].error += error;
    return;
  }
  e = {item, n};
  heap_[n++] = {item, floor + count, floor + error};
}

// sfq-hot-path
size_t SpaceSaving::MergeBatch(std::span<const ItemId> items, size_t n,
                               Count floor) {
  // The batch's exact counts certify a MinCount of 0: each arrival adds 1
  // to its entry, and a newcomer enters on top of this summary's floor.
  for (const ItemId q : items) Absorb(q, 1, 0, floor, n);
  return Select(n);
}

// sfq-hot-path
size_t SpaceSaving::MergeEntries(std::span<const Slot> other, Count other_min,
                                 size_t n, Count floor) {
  // Every entry here first takes the other side's MinCount; an item
  // monitored there swaps that placeholder for its actual bounds.
  for (size_t i = 0; i < n; ++i) {
    heap_[i].count += other_min;
    heap_[i].error += other_min;
  }
  for (const Slot& s : other) {
    Absorb(s.item, s.count - other_min, s.error - other_min,
           floor + other_min, n);
  }
  return Select(n);
}

// sfq-hot-path
size_t SpaceSaving::Select(size_t n) {
  // Empty the index. Slots are unique, so each entry's probe matches on its
  // slot and steps over the buckets this loop has already freed.
  const size_t mask = index_.size() - 1;
  for (size_t i = 0; i < n; ++i) {
    size_t b = Home(heap_[i].item);
    while (index_[b].slot != i) b = (b + 1) & mask;
    index_[b].slot = kFree;
  }
  const auto first = heap_.begin();
  if (n > capacity_) {
    std::nth_element(first, first + static_cast<ptrdiff_t>(capacity_),
                     first + static_cast<ptrdiff_t>(n),
                     [](const Slot& a, const Slot& b) {
                       if (a.count != b.count) return a.count > b.count;
                       return a.item < b.item;
                     });
    n = capacity_;
  }
  std::make_heap(
      first, first + static_cast<ptrdiff_t>(n),
      [](const Slot& a, const Slot& b) { return a.count > b.count; });
  for (size_t i = 0; i < n; ++i) {
    index_[BucketOf(heap_[i].item)] = {heap_[i].item, i};
  }
  return n;
}

Count SpaceSaving::Estimate(ItemId item) const {
  const IndexEntry& e = index_[BucketOf(item)];
  return e.slot != kFree ? heap_[e.slot].count : MinCount();
}

Count SpaceSaving::ErrorOf(ItemId item) const {
  const IndexEntry& e = index_[BucketOf(item)];
  return e.slot != kFree ? heap_[e.slot].error : 0;
}

Count SpaceSaving::MinCount() const {
  return heap_.size() < capacity_ || heap_.empty() ? 0 : heap_[0].count;
}

Status SpaceSaving::Merge(const SpaceSaving& other) {
  if (capacity_ != other.capacity_) {
    return Status::InvalidArgument("SpaceSaving::Merge: capacities must match");
  }
  if (&other == this) {
    const SpaceSaving copy = other;
    return Merge(copy);
  }
  const Count floor = MinCount();
  const Count other_min = other.MinCount();
  const size_t live = heap_.size();
  Reserve(other.heap_.size());
  heap_.resize(MergeEntries(other.heap_, other_min, live, floor));
  return Status::OK();
}

std::vector<ItemCount> SpaceSaving::Candidates(size_t k) const {
  std::vector<ItemCount> out;
  out.reserve(heap_.size());
  for (const Slot& s : heap_) out.push_back({s.item, s.count});
  RankByCount(&out, k);
  return out;
}

std::vector<ItemCount> SpaceSaving::GuaranteedAtLeast(Count threshold) const {
  std::vector<ItemCount> out;
  for (const Slot& s : heap_) {
    if (s.count - s.error >= threshold) out.push_back({s.item, s.count});
  }
  RankByCount(&out);
  return out;
}

std::vector<SpaceSavingEntry> SpaceSaving::Entries() const {
  std::vector<SpaceSavingEntry> out;
  out.reserve(heap_.size());
  for (const Slot& s : heap_) out.push_back({s.item, s.count, s.error});
  return out;
}

Result<SpaceSaving> SpaceSaving::FromEntries(
    size_t capacity, std::span<const SpaceSavingEntry> entries) {
  STREAMFREQ_ASSIGN_OR_RETURN(SpaceSaving summary, Make(capacity));
  if (entries.size() > capacity) {
    return Status::InvalidArgument(
        "SpaceSaving::FromEntries: more entries than capacity");
  }
  summary.GrowIndex(entries.size());
  for (const SpaceSavingEntry& e : entries) {
    if (e.count == 0) {
      return Status::InvalidArgument(
          "SpaceSaving::FromEntries: zero-count entry");
    }
    if (e.count < e.error) {
      return Status::InvalidArgument(
          "SpaceSaving::FromEntries: count below error bound");
    }
    IndexEntry& slot = summary.index_[summary.BucketOf(e.item)];
    if (slot.slot != kFree) {
      return Status::InvalidArgument(
          "SpaceSaving::FromEntries: duplicate item");
    }
    slot = {e.item, summary.heap_.size()};
    summary.heap_.push_back({e.item, e.count, e.error});
    summary.SiftUp(summary.heap_.size() - 1);
  }
  return summary;
}

size_t SpaceSaving::SpaceBytes() const {
  return heap_.size() * sizeof(Slot) + index_.size() * sizeof(IndexEntry);
}

}  // namespace streamfreq
