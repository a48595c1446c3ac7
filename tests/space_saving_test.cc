#include "core/space_saving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <unordered_set>
#include <vector>

#include "stream/exact_counter.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

using Triples = std::vector<SpaceSavingEntry>;

/// The summary's triples ordered by item, for set comparison.
Triples SortedEntries(const SpaceSaving& ss) {
  Triples out = ss.Entries();
  std::sort(out.begin(), out.end(),
            [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
              return a.item < b.item;
            });
  return out;
}

bool SameTriples(const Triples& a, const Triples& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const SpaceSavingEntry& x, const SpaceSavingEntry& y) {
                      return x.item == y.item && x.count == y.count &&
                             x.error == y.error;
                    });
}

/// BatchAdd's rule restated plainly: exact batch counts added to monitored
/// entries, newcomers at MinCount() + w with error MinCount(), then the top
/// `capacity` by (count desc, item asc). Returns triples ordered by item.
Triples ReferenceBatchAdd(const SpaceSaving& before, const Stream& batch) {
  std::map<ItemId, SpaceSavingEntry> merged;
  for (const SpaceSavingEntry& e : before.Entries()) merged[e.item] = e;
  const Count floor = before.MinCount();
  ExactCounter exact;
  exact.AddAll(batch);
  for (const auto& [item, weight] : exact.counts()) {
    auto it = merged.find(item);
    if (it != merged.end()) {
      it->second.count += weight;
    } else {
      merged[item] = {item, floor + weight, floor};
    }
  }
  Triples all;
  for (const auto& [item, e] : merged) all.push_back(e);
  std::sort(all.begin(), all.end(),
            [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.item < b.item;
            });
  if (all.size() > before.capacity()) all.resize(before.capacity());
  std::sort(all.begin(), all.end(),
            [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
              return a.item < b.item;
            });
  return all;
}

/// A full summary whose entries carry nonzero errors.
SpaceSaving Prefilled(size_t capacity, uint64_t seed) {
  auto ss = SpaceSaving::Make(capacity);
  EXPECT_TRUE(ss.ok());
  auto gen = ZipfGenerator::Make(20 * capacity, 1.0, seed);
  EXPECT_TRUE(gen.ok());
  for (int i = 0; i < 50 * static_cast<int>(capacity); ++i) ss->Add(gen->Next());
  return std::move(*ss);
}

/// Asserts the header's guarantees for a summary of `oracle`'s stream.
void ExpectGuarantees(const SpaceSaving& ss, const ExactCounter& oracle) {
  const Count n = oracle.TotalCount();
  ASSERT_LE(ss.MonitoredCount(), ss.capacity());
  Count sum = 0;
  std::unordered_set<ItemId> monitored;
  for (const SpaceSavingEntry& e : ss.Entries()) {
    const Count truth = oracle.CountOf(e.item);
    ASSERT_GE(e.count, truth) << "counts are upper bounds";
    ASSERT_LE(e.count - e.error, truth) << "count - error is a lower bound";
    ASSERT_EQ(ss.Estimate(e.item), e.count);
    sum += e.count;
    monitored.insert(e.item);
  }
  ASSERT_LE(sum, n) << "kept counts sum to at most n";
  ASSERT_LE(ss.MinCount() * static_cast<Count>(ss.capacity()), n)
      << "MinCount <= n / c";
  for (const auto& [item, count] : oracle.counts()) {
    if (count > ss.MinCount()) {
      ASSERT_TRUE(monitored.count(item))
          << "item " << item << " above MinCount is unmonitored";
    }
  }
}

TEST(SpaceSavingTest, RejectsZeroCapacity) {
  EXPECT_TRUE(SpaceSaving::Make(0).status().IsInvalidArgument());
}

TEST(SpaceSavingTest, ExactWhenDistinctFits) {
  auto ss = SpaceSaving::Make(10);
  ASSERT_TRUE(ss.ok());
  for (ItemId q = 1; q <= 10; ++q) ss->Add(q, static_cast<Count>(3 * q));
  for (ItemId q = 1; q <= 10; ++q) {
    EXPECT_EQ(ss->Estimate(q), 3 * static_cast<Count>(q));
    EXPECT_EQ(ss->ErrorOf(q), 0);
  }
}

TEST(SpaceSavingTest, NeverUnderestimatesMonitored) {
  auto gen = ZipfGenerator::Make(2000, 1.0, 3);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(50000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  auto ss = SpaceSaving::Make(100);
  ASSERT_TRUE(ss.ok());
  ss->AddAll(stream);
  for (const ItemCount& ic : ss->Candidates(100)) {
    ASSERT_GE(ic.count, oracle.CountOf(ic.item))
        << "Space-Saving counts are upper bounds";
  }
}

TEST(SpaceSavingTest, OverestimateBoundedByError) {
  auto gen = ZipfGenerator::Make(2000, 1.0, 5);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(50000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  auto ss = SpaceSaving::Make(100);
  ASSERT_TRUE(ss.ok());
  ss->AddAll(stream);
  for (const ItemCount& ic : ss->Candidates(100)) {
    ASSERT_LE(ic.count - ss->ErrorOf(ic.item), oracle.CountOf(ic.item))
        << "count - error is a lower bound on the true count";
  }
}

TEST(SpaceSavingTest, MinCountBoundedByNOverC) {
  auto gen = ZipfGenerator::Make(5000, 0.8, 7);
  ASSERT_TRUE(gen.ok());
  constexpr size_t kCap = 64;
  auto ss = SpaceSaving::Make(kCap);
  ASSERT_TRUE(ss.ok());
  constexpr size_t kN = 100000;
  for (size_t i = 0; i < kN; ++i) ss->Add(gen->Next());
  EXPECT_LE(ss->MinCount(), static_cast<Count>(kN / kCap));
}

TEST(SpaceSavingTest, HeavyItemsAlwaysMonitored) {
  auto gen = ZipfGenerator::Make(2000, 1.2, 9);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(60000);
  ExactCounter oracle;
  oracle.AddAll(stream);
  constexpr size_t kCap = 100;
  auto ss = SpaceSaving::Make(kCap);
  ASSERT_TRUE(ss.ok());
  ss->AddAll(stream);

  std::unordered_set<ItemId> monitored;
  for (const ItemCount& ic : ss->Candidates(kCap)) monitored.insert(ic.item);
  const Count threshold =
      static_cast<Count>(stream.size()) / static_cast<Count>(kCap);
  for (const auto& [item, count] : oracle.counts()) {
    if (count > threshold) {
      EXPECT_TRUE(monitored.count(item)) << "heavy item " << item << " evicted";
    }
  }
}

TEST(SpaceSavingTest, MonitoredSetNeverExceedsCapacity) {
  auto gen = ZipfGenerator::Make(10000, 0.3, 11);
  ASSERT_TRUE(gen.ok());
  auto ss = SpaceSaving::Make(32);
  ASSERT_TRUE(ss.ok());
  for (int i = 0; i < 20000; ++i) {
    ss->Add(gen->Next());
    ASSERT_LE(ss->MonitoredCount(), 32u);
  }
}

TEST(SpaceSavingTest, UnmonitoredEstimateIsMinCount) {
  auto ss = SpaceSaving::Make(2);
  ASSERT_TRUE(ss.ok());
  ss->Add(1, 10);
  ss->Add(2, 20);
  EXPECT_EQ(ss->Estimate(999), 10)
      << "unmonitored items get the min count as upper bound";
  EXPECT_EQ(ss->ErrorOf(999), 0);
}

TEST(SpaceSavingTest, ReplacementInheritsMinPlusWeight) {
  auto ss = SpaceSaving::Make(2);
  ASSERT_TRUE(ss.ok());
  ss->Add(1, 10);
  ss->Add(2, 20);
  ss->Add(3, 5);  // replaces item 1 (min=10): count 15, error 10
  EXPECT_EQ(ss->Estimate(3), 15);
  EXPECT_EQ(ss->ErrorOf(3), 10);
  EXPECT_FALSE(ss->GuaranteedAtLeast(6).size() == 2)
      << "item 3 only guarantees 15-10=5";
}

TEST(SpaceSavingTest, GuaranteedAtLeastFiltersByLowerBound) {
  auto ss = SpaceSaving::Make(2);
  ASSERT_TRUE(ss.ok());
  ss->Add(1, 100);
  ss->Add(2, 50);
  ss->Add(3, 1);  // replaces 2: count 51, error 50, lower bound 1
  const auto guaranteed = ss->GuaranteedAtLeast(40);
  ASSERT_EQ(guaranteed.size(), 1u);
  EXPECT_EQ(guaranteed[0].item, 1u);
}

TEST(SpaceSavingTest, SumOfCountsEqualsStreamLength) {
  // Invariant of Space-Saving with unit updates: monitored counts sum to n.
  auto gen = ZipfGenerator::Make(1000, 1.0, 13);
  ASSERT_TRUE(gen.ok());
  auto ss = SpaceSaving::Make(20);
  ASSERT_TRUE(ss.ok());
  constexpr Count kN = 30000;
  for (Count i = 0; i < kN; ++i) ss->Add(gen->Next());
  Count total = 0;
  for (const ItemCount& ic : ss->Candidates(20)) total += ic.count;
  EXPECT_EQ(total, kN);
}

TEST(SpaceSavingTest, CandidatesSortedDescending) {
  auto ss = SpaceSaving::Make(5);
  ASSERT_TRUE(ss.ok());
  ss->Add(1, 5);
  ss->Add(2, 50);
  ss->Add(3, 20);
  const auto c = ss->Candidates(5);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].item, 2u);
  EXPECT_EQ(c[1].item, 3u);
  EXPECT_EQ(c[2].item, 1u);
}

TEST(SpaceSavingBatchAddTest, SmallBatchEqualsMergeOfExactCounts) {
  // A batch with fewer distinct items than capacity is itself an exact
  // Space-Saving summary with MinCount 0; BatchAdd must equal merging it.
  constexpr size_t kCap = 128;
  auto gen = ZipfGenerator::Make(2000, 1.0, 21);
  ASSERT_TRUE(gen.ok());
  for (int round = 0; round < 20; ++round) {
    SpaceSaving ss = Prefilled(kCap, 100 + round);
    const Stream batch = gen->Take(kCap - 1);
    ExactCounter exact;
    exact.AddAll(batch);
    Triples counts;
    for (const auto& [item, count] : exact.counts()) {
      counts.push_back({item, count, 0});
    }
    auto batch_summary = SpaceSaving::FromEntries(kCap, counts);
    ASSERT_TRUE(batch_summary.ok());
    SpaceSaving merged = ss;
    ASSERT_TRUE(merged.Merge(*batch_summary).ok());
    ss.BatchAdd(batch);
    EXPECT_TRUE(SameTriples(SortedEntries(ss), SortedEntries(merged)))
        << "round " << round;
  }
}

TEST(SpaceSavingBatchAddTest, LargeBatchMatchesReferenceRule) {
  for (const size_t cap : {size_t{1}, size_t{16}, size_t{128}}) {
    SpaceSaving ss = Prefilled(cap, 31);
    auto gen = ZipfGenerator::Make(50000, 0.8, 33);
    ASSERT_TRUE(gen.ok());
    for (int round = 0; round < 10; ++round) {
      const Stream batch = gen->Take(4 * cap + 100);
      const Triples want = ReferenceBatchAdd(ss, batch);
      ss.BatchAdd(batch);
      ASSERT_TRUE(SameTriples(SortedEntries(ss), want))
          << "capacity " << cap << " round " << round;
    }
  }
}

TEST(SpaceSavingBatchAddTest, BatchOrderDoesNotMatter) {
  auto gen = ZipfGenerator::Make(10000, 0.9, 41);
  ASSERT_TRUE(gen.ok());
  SpaceSaving in_order = Prefilled(128, 43);
  SpaceSaving shuffled = in_order;
  std::mt19937_64 rng(47);
  for (int round = 0; round < 20; ++round) {
    Stream batch = gen->Take(512);
    in_order.BatchAdd(batch);
    std::shuffle(batch.begin(), batch.end(), rng);
    shuffled.BatchAdd(batch);
    ASSERT_EQ(in_order.Candidates(128), shuffled.Candidates(128))
        << "round " << round;
    ASSERT_TRUE(SameTriples(SortedEntries(in_order), SortedEntries(shuffled)));
  }
}

TEST(SpaceSavingBatchAddTest, GuaranteesHoldAtBenchmarkGeometries) {
  struct Geometry {
    size_t capacity;
    size_t batch;
    double z;
  };
  for (const Geometry g : {Geometry{128, 512, 1.1}, Geometry{512, 4096, 0.8}}) {
    auto gen = ZipfGenerator::Make(200000, g.z, 51);
    ASSERT_TRUE(gen.ok());
    auto ss = SpaceSaving::Make(g.capacity);
    ASSERT_TRUE(ss.ok());
    ExactCounter oracle;
    for (int round = 0; round < 40; ++round) {
      const Stream batch = gen->Take(g.batch);
      oracle.AddAll(batch);
      ss->BatchAdd(batch);
      ExpectGuarantees(*ss, oracle);
      if (HasFatalFailure()) {
        FAIL() << "capacity " << g.capacity << " round " << round;
      }
    }
  }
}

TEST(SpaceSavingBatchAddTest, AddAndBatchAddShareOneIndex) {
  // Interleaves item-at-a-time evictions (which delete from the index) with
  // batches (which rebuild it); every lookup must stay consistent.
  auto gen = ZipfGenerator::Make(5000, 0.7, 61);
  ASSERT_TRUE(gen.ok());
  auto ss = SpaceSaving::Make(32);
  ASSERT_TRUE(ss.ok());
  ExactCounter oracle;
  for (int round = 0; round < 200; ++round) {
    if (round % 3 == 0) {
      const Stream batch = gen->Take(static_cast<size_t>(round % 7) * 20);
      oracle.AddAll(batch);
      ss->BatchAdd(batch);
    } else {
      for (int i = 0; i < 50; ++i) {
        const ItemId q = gen->Next();
        oracle.Add(q);
        ss->Add(q);
      }
    }
    for (const SpaceSavingEntry& e : ss->Entries()) {
      ASSERT_EQ(ss->Estimate(e.item), e.count);
      ASSERT_EQ(ss->ErrorOf(e.item), e.error);
    }
    ExpectGuarantees(*ss, oracle);
    if (HasFatalFailure()) FAIL() << "round " << round;
  }
}

TEST(SpaceSavingBatchAddTest, SelfMergeDoublesEveryCount) {
  SpaceSaving ss = Prefilled(16, 71);
  const Triples before = SortedEntries(ss);
  const Count min = ss.MinCount();
  ASSERT_TRUE(ss.Merge(ss).ok());
  const Triples after = SortedEntries(ss);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].item, before[i].item);
    EXPECT_EQ(after[i].count, 2 * before[i].count);
    EXPECT_EQ(after[i].error, 2 * before[i].error);
  }
  EXPECT_EQ(ss.MinCount(), 2 * min);
}

}  // namespace
}  // namespace streamfreq
