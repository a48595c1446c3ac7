#include "core/count_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "hash/random.h"
#include "stream/exact_counter.h"
#include "stream/zipf.h"

namespace streamfreq {
namespace {

CountSketchParams SmallParams() {
  CountSketchParams p;
  p.depth = 5;
  p.width = 128;
  p.seed = 42;
  return p;
}

TEST(CountSketchTest, RejectsBadParams) {
  CountSketchParams p = SmallParams();
  p.depth = 0;
  EXPECT_TRUE(CountSketch::Make(p).status().IsInvalidArgument());
  p = SmallParams();
  p.width = 0;
  EXPECT_TRUE(CountSketch::Make(p).status().IsInvalidArgument());
  p = SmallParams();
  p.depth = 1u << 21;
  EXPECT_TRUE(CountSketch::Make(p).status().IsInvalidArgument());
}

TEST(CountSketchTest, EmptySketchEstimatesZero) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->Estimate(123), 0);
}

TEST(CountSketchTest, SingleItemIsExact) {
  // With one item there are no collisions: every row estimate is exact.
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(7, 10);
  s->Add(7, 5);
  EXPECT_EQ(s->Estimate(7), 15);
  for (Count row : s->RowEstimates(7)) EXPECT_EQ(row, 15);
}

TEST(CountSketchTest, NegationIsSymmetric) {
  auto s = CountSketch::Make(SmallParams());
  auto neg = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok() && neg.ok());
  for (ItemId q = 1; q <= 50; ++q) {
    s->Add(q, static_cast<Count>(q));
    neg->Add(q, -static_cast<Count>(q));
  }
  for (ItemId q = 1; q <= 50; ++q) {
    EXPECT_EQ(s->Estimate(q), -neg->Estimate(q)) << "item " << q;
  }
}

TEST(CountSketchTest, TurnstileDeleteRestoresZero) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(1, 100);
  s->Add(2, 50);
  s->Add(1, -100);
  s->Add(2, -50);
  // All counters are exactly zero again, so every estimate is zero.
  EXPECT_EQ(s->Estimate(1), 0);
  EXPECT_EQ(s->Estimate(2), 0);
  EXPECT_EQ(s->Estimate(999), 0);
}

TEST(CountSketchTest, ClearZeroesCounters) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(3, 1000);
  s->Clear();
  EXPECT_EQ(s->Estimate(3), 0);
}

TEST(CountSketchTest, MergeEqualsUnionStream) {
  auto a = CountSketch::Make(SmallParams());
  auto b = CountSketch::Make(SmallParams());
  auto combined = CountSketch::Make(SmallParams());
  ASSERT_TRUE(a.ok() && b.ok() && combined.ok());
  for (ItemId q = 1; q <= 200; ++q) {
    a->Add(q, 3);
    combined->Add(q, 3);
  }
  for (ItemId q = 100; q <= 300; ++q) {
    b->Add(q, 7);
    combined->Add(q, 7);
  }
  ASSERT_TRUE(a->Merge(*b).ok());
  // Linearity: the merged sketch is bitwise the sketch of the union.
  for (ItemId q = 1; q <= 300; ++q) {
    EXPECT_EQ(a->Estimate(q), combined->Estimate(q)) << "item " << q;
  }
}

TEST(CountSketchTest, SubtractYieldsDifferenceEstimates) {
  auto s1 = CountSketch::Make(SmallParams());
  auto s2 = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s1.ok() && s2.ok());
  s1->Add(10, 100);
  s1->Add(11, 40);
  s2->Add(10, 60);
  s2->Add(12, 90);
  ASSERT_TRUE(s2->Subtract(*s1).ok());
  // Only three items touched 3 rows of 128 buckets: collisions are
  // unlikely; difference estimates should be near-exact.
  EXPECT_EQ(s2->Estimate(10), -40);
  EXPECT_EQ(s2->Estimate(11), -40);
  EXPECT_EQ(s2->Estimate(12), 90);
}

TEST(CountSketchTest, IncompatibleSketchesRefuseToMerge) {
  CountSketchParams p = SmallParams();
  auto a = CountSketch::Make(p);
  p.seed = 43;
  auto b = CountSketch::Make(p);
  p = SmallParams();
  p.width = 64;
  auto c = CountSketch::Make(p);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_FALSE(a->CompatibleWith(*b));
  EXPECT_TRUE(a->Merge(*b).IsInvalidArgument());
  EXPECT_TRUE(a->Merge(*c).IsInvalidArgument());
  EXPECT_TRUE(a->Subtract(*b).IsInvalidArgument());
}

TEST(CountSketchTest, SameSeedSketchesAreIdentical) {
  auto a = CountSketch::Make(SmallParams());
  auto b = CountSketch::Make(SmallParams());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->CompatibleWith(*b));
  a->Add(5, 10);
  b->Add(5, 10);
  for (size_t row = 0; row < a->depth(); ++row) {
    for (size_t col = 0; col < a->width(); ++col) {
      EXPECT_EQ(a->CounterAt(row, col), b->CounterAt(row, col));
    }
  }
}

TEST(CountSketchTest, SerializeRoundTrip) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  for (ItemId q = 1; q <= 500; ++q) s->Add(q, static_cast<Count>(q % 17));
  std::string buf;
  s->SerializeTo(&buf);
  auto loaded = CountSketch::Deserialize(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->CompatibleWith(*s));
  for (ItemId q = 1; q <= 500; ++q) {
    EXPECT_EQ(loaded->Estimate(q), s->Estimate(q));
  }
}

TEST(CountSketchTest, DeserializeRejectsCorruption) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  std::string buf;
  s->SerializeTo(&buf);

  EXPECT_TRUE(CountSketch::Deserialize("").status().IsCorruption());
  EXPECT_TRUE(CountSketch::Deserialize(buf.substr(0, 16)).status().IsCorruption());
  EXPECT_TRUE(CountSketch::Deserialize(buf.substr(0, buf.size() - 8))
                  .status()
                  .IsCorruption());
  std::string bad_magic = buf;
  bad_magic[0] ^= 0x5A;
  EXPECT_TRUE(CountSketch::Deserialize(bad_magic).status().IsCorruption());
}

TEST(CountSketchTest, MedianIsRobustToOneHeavyCollision) {
  // Plant a heavy item and measure a light one; with depth 5 the median
  // survives even if the heavy item collides in some rows.
  CountSketchParams p = SmallParams();
  p.width = 8;  // force frequent collisions
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->Add(1, 100000);
  s->Add(2, 10);
  const Count est = s->Estimate(2);
  // The estimate may be off by collisions with the single heavy item in a
  // minority of rows, but the median cannot be dragged to 100000 unless
  // the heavy item collides in >= 3 of 5 rows (prob ~ (1/8)^3 scale).
  EXPECT_LT(std::abs(est - 10), 100000 / 2) << "median destroyed by one outlier";
}

TEST(CountSketchTest, MeanEstimatorWorksButIsFragile) {
  CountSketchParams p = SmallParams();
  p.estimator = Estimator::kMean;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->Add(9, 50);
  EXPECT_EQ(s->Estimate(9), 50) << "no collisions: mean is exact too";
}

TEST(CountSketchTest, AllFamiliesEstimateSingleItemExactly) {
  for (HashFamily family :
       {HashFamily::kCarterWegman, HashFamily::kMultiplyShift,
        HashFamily::kTabulation}) {
    CountSketchParams p = SmallParams();
    p.family = family;
    auto s = CountSketch::Make(p);
    ASSERT_TRUE(s.ok());
    s->Add(77, 1234);
    EXPECT_EQ(s->Estimate(77), 1234)
        << "family " << static_cast<int>(family);
  }
}

TEST(CountSketchTest, DepthOneAndWidthOneDegenerate) {
  CountSketchParams p;
  p.depth = 1;
  p.width = 1;
  p.seed = 1;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->Add(1, 5);
  // Everything lands in the single counter; estimate is +/-5 depending on
  // the item's sign, and self-estimate is exactly 5.
  EXPECT_EQ(s->Estimate(1), 5);
}

TEST(CountSketchTest, EvenDepthMedianAveragesMiddles) {
  CountSketchParams p = SmallParams();
  p.depth = 4;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->Add(3, 21);
  EXPECT_EQ(s->Estimate(3), 21);
}

TEST(CountSketchTest, SpaceBytesScalesWithDimensions) {
  CountSketchParams p = SmallParams();
  auto small = CountSketch::Make(p);
  p.width *= 2;
  auto big = CountSketch::Make(p);
  ASSERT_TRUE(small.ok() && big.ok());
  EXPECT_GT(big->SpaceBytes(), small->SpaceBytes());
  EXPECT_GE(small->SpaceBytes(),
            small->depth() * small->width() * sizeof(int64_t));
}

TEST(CountSketchTest, SpreadIntervalBracketsMedianAndCollapsesWhenExact) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(7, 500);  // single item: every row agrees
  const auto exact = s->EstimateWithSpread(7);
  EXPECT_EQ(exact.estimate, 500);
  EXPECT_EQ(exact.lower, 500);
  EXPECT_EQ(exact.upper, 500);

  // Load the sketch heavily at a narrow width: the interval must widen and
  // still bracket the point estimate.
  CountSketchParams p = SmallParams();
  p.width = 16;
  auto noisy = CountSketch::Make(p);
  ASSERT_TRUE(noisy.ok());
  for (ItemId q = 1; q <= 2000; ++q) noisy->Add(q, static_cast<Count>(q % 50));
  const auto interval = noisy->EstimateWithSpread(1234);
  EXPECT_LE(interval.lower, interval.estimate);
  EXPECT_GE(interval.upper, interval.estimate);
  EXPECT_LT(interval.lower, interval.upper)
      << "a saturated 16-bucket sketch cannot have agreeing rows";
}

TEST(CountSketchTest, SpreadMatchesEstimateForOddDepth) {
  CountSketchParams p = SmallParams();
  p.depth = 7;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  for (ItemId q = 1; q <= 300; ++q) s->Add(q, static_cast<Count>(q));
  for (ItemId q : {1ull, 50ull, 299ull}) {
    EXPECT_EQ(s->EstimateWithSpread(q).estimate, s->Estimate(q));
  }
}

TEST(CountSketchTest, EstimateUnbiasedOverSeeds) {
  // E[h_i[q] * s_i[q]] = n_q (Lemma 1 setup): average the row-0 estimate of
  // a fixed stream over many independent sketches.
  ExactCounter oracle;
  auto gen = ZipfGenerator::Make(500, 1.0, 3);
  ASSERT_TRUE(gen.ok());
  const Stream stream = gen->Take(20000);
  oracle.AddAll(stream);
  const ItemId target = gen->IdForRank(5);
  const Count truth = oracle.CountOf(target);

  double sum = 0.0;
  constexpr int kSeeds = 300;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    CountSketchParams p;
    p.depth = 1;
    p.width = 64;
    p.seed = static_cast<uint64_t>(seed) * 1000003;
    auto s = CountSketch::Make(p);
    ASSERT_TRUE(s.ok());
    for (ItemId q : stream) s->Add(q);
    sum += static_cast<double>(s->RowEstimates(target)[0]);
  }
  const double mean = sum / kSeeds;
  // Variance per estimate <= F2/width; stderr = sqrt(var/kSeeds).
  const double sigma = std::sqrt(oracle.ResidualF2(0) / 64.0 / kSeeds);
  EXPECT_NEAR(mean, static_cast<double>(truth), 6 * sigma);
}

// The one candidate ranker (root top-k, max-change, server queries):
// estimate descending, |estimate| for max-change, ties to the smaller id.
TEST(CountSketchTest, RankCandidatesOrdersByEstimateThenId) {
  auto s = CountSketch::Make(SmallParams());
  ASSERT_TRUE(s.ok());
  s->Add(3, 10);
  s->Add(5, 10);
  s->Add(8, -20);
  const std::vector<ItemId> ids = {8, 5, 3, 2, 1};
  ASSERT_EQ(s->Estimate(1), 0);
  ASSERT_EQ(s->Estimate(2), 0);
  ASSERT_EQ(s->Estimate(3), 10);
  ASSERT_EQ(s->Estimate(5), 10);
  ASSERT_EQ(s->Estimate(8), -20);

  const std::vector<ItemCount> top = RankCandidates(ids, *s, 4, false);
  const std::vector<ItemCount> want_top = {{3, 10}, {5, 10}, {1, 0}, {2, 0}};
  EXPECT_EQ(top, want_top);

  const std::vector<ItemCount> moved = RankCandidates(ids, *s, 3, true);
  const std::vector<ItemCount> want_moved = {{8, -20}, {3, 10}, {5, 10}};
  EXPECT_EQ(moved, want_moved);

  EXPECT_EQ(RankCandidates(ids, *s, 10, false).size(), ids.size());
}

// The ranker before selection replaced sorting: every id scored by
// Estimate, all of them sorted, the first k kept.
std::vector<ItemCount> FullSortRank(std::span<const ItemId> ids,
                                    const CountSketch& sketch, size_t k,
                                    bool absolute) {
  std::vector<ItemCount> out;
  for (ItemId id : ids) out.push_back(ItemCount{id, sketch.Estimate(id)});
  std::sort(out.begin(), out.end(),
            [absolute](const ItemCount& a, const ItemCount& b) {
              const int64_t ka = absolute ? std::llabs(a.count) : a.count;
              const int64_t kb = absolute ? std::llabs(b.count) : b.count;
              if (ka != kb) return ka > kb;
              return a.item < b.item;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

// Signed weights from a small set on a narrow sketch: many ids share a
// count (ties broken by id) and counts of both signs share a magnitude.
TEST(CountSketchTest, RankCandidatesMatchesAFullSort) {
  CountSketchParams p = SmallParams();
  p.width = 16;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  SplitMix64 rng(77);
  std::vector<ItemId> ids;
  for (ItemId id = 1; id <= 300; ++id) {
    ids.push_back(id * 7919);
    s->Add(id * 7919, static_cast<Count>(rng.Next() % 7) - 3);
  }
  std::vector<Count> counts(ids.size());
  s->EstimateBatch(ids, counts);
  std::sort(counts.begin(), counts.end());
  ASSERT_NE(std::adjacent_find(counts.begin(), counts.end()), counts.end())
      << "want tied counts";
  for (size_t k : {size_t{0}, size_t{1}, size_t{10}, size_t{100},
                   ids.size() - 1, ids.size(), ids.size() + 5}) {
    for (bool absolute : {false, true}) {
      EXPECT_EQ(RankCandidates(ids, *s, k, absolute),
                FullSortRank(ids, *s, k, absolute))
          << "k " << k << " absolute " << absolute;
    }
  }
  EXPECT_TRUE(RankCandidates({}, *s, 5, false).empty());
}

// RankChanges reads (current − mark) at each id's buckets; it must equal
// ranking on an explicit copy of current with mark subtracted, on every
// family and on odd and even depths.
TEST(CountSketchTest, RankChangesMatchesCopySubtractRank) {
  const HashFamily kFamilies[] = {HashFamily::kCarterWegman,
                                  HashFamily::kMultiplyShift,
                                  HashFamily::kTabulation};
  for (HashFamily family : kFamilies) {
    for (size_t depth : {4, 5}) {
      for (uint64_t trial = 0; trial < 4; ++trial) {
        SCOPED_TRACE(::testing::Message()
                     << "family " << static_cast<int>(family) << " depth "
                     << depth << " trial " << trial);
        CountSketchParams p;
        p.depth = depth;
        p.width = 64;
        p.seed = 100 + trial;
        p.family = family;
        auto mark = CountSketch::Make(p);
        ASSERT_TRUE(mark.ok());
        SplitMix64 rng(trial * 31 + depth);
        std::vector<ItemId> ids;
        for (size_t j = 0; j < 400; ++j) {
          const ItemId id = rng.Next() % 1000;
          mark->Add(id, static_cast<Count>(rng.Next() % 5));
          if (j % 2 == 0) ids.push_back(id);
        }
        CountSketch current = *mark;
        for (size_t j = 0; j < 400; ++j) {
          const ItemId id = rng.Next() % 1000;
          current.Add(id, static_cast<Count>(rng.Next() % 9) - 4);
          if (j % 3 == 0) ids.push_back(id);
        }
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

        CountSketch diff = current;
        ASSERT_TRUE(diff.Subtract(*mark).ok());
        for (size_t k : {size_t{0}, size_t{20}, ids.size() + 1}) {
          auto ranked = RankChanges(ids, current, *mark, k);
          ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
          EXPECT_EQ(*ranked, FullSortRank(ids, diff, k, /*absolute=*/true))
              << "k " << k;
        }
      }
    }
  }
}

TEST(CountSketchTest, RankChangesRefusesIncompatibleSketches) {
  CountSketchParams p = SmallParams();
  auto current = CountSketch::Make(p);
  p.seed = 43;
  auto mark = CountSketch::Make(p);
  ASSERT_TRUE(current.ok() && mark.ok());
  const std::vector<ItemId> ids = {1, 2, 3};
  const auto ranked = RankChanges(ids, *current, *mark, 2);
  CountSketch copy = *current;
  const Status subtract = copy.Subtract(*mark);
  EXPECT_TRUE(ranked.status().IsInvalidArgument());
  EXPECT_EQ(ranked.status().ToString(), subtract.ToString());
}

}  // namespace
}  // namespace streamfreq
