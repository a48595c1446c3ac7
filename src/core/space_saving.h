// Space-Saving (Metwally, Agrawal, El Abbadi 2005): the strongest
// counter-based competitor in the frequent-items literature.
//
// Maintains at most `capacity` (item, count, error) triples. A monitored
// arrival increments its count. An unmonitored arrival replaces the
// minimum-count entry: the newcomer inherits count min+w with error = min.
// Guarantees, with c = capacity:
//   * count overestimates: n_q <= count(q) <= n_q + min_count,
//   * count - error underestimates: count(q) - error(q) <= n_q,
//   * every item with n_q > min_count (hence every n_q > n/c) is monitored,
//   * min_count <= n / c.
// Add, the paper's item-at-a-time update, runs over a binary min-heap in
// O(log c); a doubly-linked "stream summary" yields O(1) for unit updates
// but the heap supports weighted updates uniformly (throughput difference
// is measured in E7). BatchAdd and Merge instead merge their input into the
// summary and keep the top c in one linear-time selection. An
// open-addressed item -> heap-slot index serves both.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/frequent.h"
#include "util/result.h"

namespace streamfreq {

/// One monitored (item, count, error) triple, as exposed by Entries() and
/// consumed by FromEntries(). Serializing these — rather than replaying the
/// items as weighted Adds — preserves the error bounds, so GuaranteedAtLeast
/// keeps its lower-bound meaning across a save/restore cycle.
struct SpaceSavingEntry {
  ItemId item;
  Count count;
  Count error;
};

/// Space-Saving summary.
class SpaceSaving final : public StreamSummary {
 public:
  /// Creates a summary with exactly `capacity` counters (capacity >= 1).
  /// For the frequency threshold guarantee phi, use capacity = ceil(1/phi).
  static Result<SpaceSaving> Make(size_t capacity);

  std::string Name() const override;

  /// Weighted arrival; weight must be >= 1. O(log capacity).
  void Add(ItemId item, Count weight) override;
  using StreamSummary::Add;

  /// Batch arrival, applied as Merge's rule against the batch's exact
  /// counts (whose MinCount is 0): a monitored item adds its multiplicity
  /// w, an unmonitored one enters at MinCount() + w with error MinCount(),
  /// and the top `capacity` entries by (count desc, item asc) are kept.
  /// O(d + c) for d distinct items in the batch. The resulting entry set
  /// depends only on the summary's entry set and the batch's multiset, not
  /// on the order within the batch or on heap layout. Every guarantee in the
  /// header holds; the kept counts sum to at most n (exactly n under Add).
  /// The state may differ from item-at-a-time ingestion of the same batch.
  /// The summary's scratch grows to fit the largest batch seen and is
  /// kept for later batches.
  void BatchAdd(std::span<const ItemId> items) override;

  /// Upper-bound estimate: the count when monitored, else the minimum count
  /// (the tightest upper bound Space-Saving can certify for any item).
  Count Estimate(ItemId item) const override;

  /// Monitored items by descending count.
  std::vector<ItemCount> Candidates(size_t k) const override;

  /// Guaranteed-frequent items: monitored entries whose count - error
  /// (a lower bound on the true count) is at least `threshold`.
  std::vector<ItemCount> GuaranteedAtLeast(Count threshold) const;

  /// The overestimation bound of `item` (0 when unmonitored): the count it
  /// inherited when it displaced another entry.
  Count ErrorOf(ItemId item) const;

  /// The smallest monitored count (0 while slots remain free).
  Count MinCount() const;

  /// Merges another Space-Saving summary over a disjoint stream
  /// (mergeable-summaries construction): for every item monitored by
  /// either side, the merged count/error add the other side's value when
  /// monitored there, else its MinCount (the tightest upper bound it can
  /// certify); the top `capacity` entries by (count desc, item asc) are
  /// kept. The merged counts remain upper bounds on union counts and
  /// count - error remains a lower bound. Requires equal capacities. Runs
  /// the same merge-and-select kernel as BatchAdd, in O(c).
  Status Merge(const SpaceSaving& other);

  /// Every monitored triple in unspecified order (heap order). Pair with
  /// FromEntries for exact state round-trips (persistence, snapshots).
  std::vector<SpaceSavingEntry> Entries() const;

  /// Rebuilds a summary from previously captured Entries(). Rejects
  /// duplicates, more entries than `capacity`, zero counts, and
  /// count < error (each would silently corrupt the guarantees).
  static Result<SpaceSaving> FromEntries(
      size_t capacity, std::span<const SpaceSavingEntry> entries);

  size_t capacity() const { return capacity_; }
  size_t MonitoredCount() const { return heap_.size(); }
  size_t SpaceBytes() const override;

 private:
  explicit SpaceSaving(size_t capacity);

  struct Slot {
    ItemId item;
    Count count;
    Count error;
  };

  /// One bucket of the item -> heap-slot index; `slot == kFree` marks an
  /// empty bucket.
  struct IndexEntry {
    ItemId item;
    size_t slot;
  };
  static constexpr size_t kFree = ~size_t{0};

  /// Home bucket of `item` in the index.
  size_t Home(ItemId item) const;
  /// The bucket holding `item`, or the free bucket ending its probe.
  size_t BucketOf(ItemId item) const;
  /// Removes `item` from the index (backward-shift deletion).
  void Unindex(ItemId item);
  /// Grows the index, if needed, to hold `entries` items.
  void GrowIndex(size_t entries);
  /// Grows heap_ by `incoming` scratch slots and the index to hold them;
  /// the kernels below never allocate.
  void Reserve(size_t incoming);

  // The merge-and-select kernel: Absorb applies Merge's rule to one
  // incoming (item, count, error), appending newcomers at heap_[n];
  // Select keeps the top capacity_ of heap_[0, n) and rebuilds the heap
  // and the index. Both return / update the live entry count.
  void Absorb(ItemId item, Count count, Count error, Count floor, size_t& n);
  size_t MergeBatch(std::span<const ItemId> items, size_t n, Count floor);
  size_t MergeEntries(std::span<const Slot> other, Count other_min, size_t n,
                      Count floor);
  size_t Select(size_t n);

  void SiftDown(size_t i);
  void SiftUp(size_t i);
  void SwapSlots(size_t i, size_t j);

  size_t capacity_;
  std::vector<Slot> heap_;         // min-heap by count
  std::vector<IndexEntry> index_;  // open-addressed, power-of-two size
  int index_shift_ = 64;           // 64 - log2(index_.size())
};

}  // namespace streamfreq
