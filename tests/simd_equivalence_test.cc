// Bit-identity of the SIMD batch-hash path against the scalar reference.
//
// The vectorized kernels in hash/batch_hash.cc claim to mirror the scalar
// hash arithmetic operation for operation (exact unsigned lane math), so
// the sketches' BatchAdd must produce counter tables EQUAL — not close —
// to the item-at-a-time Add loop and to BatchAddScalar. These tests assert
// exactly that, at three levels:
//
//   1. kernel level: Buckets / BucketsAndSigns, scalar vs vectorized
//      backend, over random and adversarial keys;
//   2. sketch level: CountSketch / CountMin counter tables after identical
//      seeded streams through Add, BatchAddScalar, and BatchAdd;
//   3. estimate level: every probed estimate identical across paths, and
//      EstimateBatch (one hashing pass per row, a compare-exchange median
//      network) identical to an Estimate loop and to a sort-based median.
//
// Widths are deliberately mixed: powers of two (stride == width, zero
// padding) and odd widths (padded rows) both must agree, and batch sizes
// straddle the kernel block boundaries (kBlock = 16, kLanes = 8) so the
// vector body, single-bundle loop, and scalar tail all get exercised.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/count_min.h"
#include "core/count_sketch.h"
#include "hash/batch_hash.h"
#include "hash/pairwise.h"
#include "hash/random.h"
#include "util/bit_util.h"

namespace streamfreq {
namespace {

// Keys that stress every branch of the Carter-Wegman lane math: the
// pre-fold boundary at p = 2^61 - 1, the +b carry, and full-width keys.
std::vector<uint64_t> AdversarialKeys() {
  return {0,
          1,
          2,
          kMersenne61 - 1,
          kMersenne61,
          kMersenne61 + 1,
          (1ULL << 61),
          (1ULL << 62) + 12345,
          UINT64_MAX - 1,
          UINT64_MAX};
}

std::vector<uint64_t> RandomKeys(size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Next();
  return keys;
}

// Batch sizes around the block (16) and bundle (8) boundaries, plus a
// large batch, so every loop shape in the kernels runs.
const size_t kBatchSizes[] = {0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 1000};

template <typename HashT>
void ExpectKernelEquivalence(uint64_t seed, uint64_t range) {
  SplitMix64 seeder(seed);
  const HashT hb(seeder);
  const HashT hs(seeder);
  for (size_t n : kBatchSizes) {
    std::vector<uint64_t> keys = RandomKeys(n, seed ^ n);
    const auto adversarial = AdversarialKeys();
    keys.insert(keys.end(), adversarial.begin(), adversarial.end());

    std::vector<uint64_t> b_scalar(keys.size()), b_simd(keys.size());
    std::vector<int64_t> s_scalar(keys.size()), s_simd(keys.size());
    batch_hash::Buckets(hb, keys, range, b_scalar.data(),
                        batch_hash::Backend::kScalar);
    batch_hash::Buckets(hb, keys, range, b_simd.data(),
                        batch_hash::Backend::kVectorized);
    EXPECT_EQ(b_scalar, b_simd) << "Buckets diverge, n=" << keys.size();

    batch_hash::BucketsAndSigns(hb, hs, keys, range, b_scalar.data(),
                                s_scalar.data(),
                                batch_hash::Backend::kScalar);
    batch_hash::BucketsAndSigns(hb, hs, keys, range, b_simd.data(),
                                s_simd.data(),
                                batch_hash::Backend::kVectorized);
    EXPECT_EQ(b_scalar, b_simd) << "fused buckets diverge, n=" << keys.size();
    EXPECT_EQ(s_scalar, s_simd) << "signs diverge, n=" << keys.size();

    // The kernels must also match the hash class's own evaluation — the
    // reference semantics both backends claim to implement.
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(b_scalar[i], hb.Bucket(keys[i], range)) << "key " << keys[i];
      ASSERT_EQ(s_scalar[i], hs.Sign(keys[i])) << "key " << keys[i];
    }
  }
}

TEST(SimdKernelTest, CarterWegmanPowerOfTwoRange) {
  ExpectKernelEquivalence<CarterWegmanHash>(0xA11CE, 1024);
}

TEST(SimdKernelTest, CarterWegmanOddRange) {
  ExpectKernelEquivalence<CarterWegmanHash>(0xB0B, 997);
}

TEST(SimdKernelTest, MultiplyShiftPowerOfTwoRange) {
  ExpectKernelEquivalence<MultiplyShiftHash>(0xC4A7, 4096);
}

TEST(SimdKernelTest, MultiplyShiftOddRange) {
  ExpectKernelEquivalence<MultiplyShiftHash>(0xD06, 123);
}

TEST(SimdKernelTest, TabulationFallsBackToScalar) {
  ExpectKernelEquivalence<TabulationHash>(0xE99, 512);
}

TEST(SimdKernelTest, BackendNameIsNonEmpty) {
  ASSERT_NE(batch_hash::BackendName(), nullptr);
  EXPECT_GT(std::string_view(batch_hash::BackendName()).size(), 0u);
}

// -- sketch level ----------------------------------------------------------

std::vector<ItemId> TestStream(size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<ItemId> items(n);
  for (auto& q : items) {
    // Mix of a small hot set (collisions) and full-range cold keys.
    q = (rng.Next() & 1) ? rng.Next() % 50 : rng.Next();
  }
  const auto adversarial = AdversarialKeys();
  items.insert(items.end(), adversarial.begin(), adversarial.end());
  return items;
}

void ExpectCountSketchEquivalence(CountSketchParams p) {
  auto add = CountSketch::Make(p);
  auto batch_scalar = CountSketch::Make(p);
  auto batch_simd = CountSketch::Make(p);
  ASSERT_TRUE(add.ok() && batch_scalar.ok() && batch_simd.ok());

  const std::vector<ItemId> items = TestStream(3000, p.seed ^ 0x5EED);
  for (ItemId q : items) add->Add(q, 3);
  batch_scalar->BatchAddScalar(items, 3);
  batch_simd->BatchAdd(items, 3);

  // Counter-table equality on every logical cell — bit identity, not
  // estimate-level closeness.
  for (size_t i = 0; i < p.depth; ++i) {
    for (size_t j = 0; j < p.width; ++j) {
      ASSERT_EQ(add->CounterAt(i, j), batch_scalar->CounterAt(i, j))
          << "scalar batch diverges from Add at (" << i << "," << j << ")";
      ASSERT_EQ(add->CounterAt(i, j), batch_simd->CounterAt(i, j))
          << "SIMD batch diverges from Add at (" << i << "," << j << ")";
    }
  }
  for (ItemId q : items) {
    ASSERT_EQ(add->Estimate(q), batch_simd->Estimate(q)) << "item " << q;
  }
}

TEST(SimdSketchEquivalenceTest, CountSketchCarterWegman) {
  CountSketchParams p;
  p.depth = 5;
  p.width = 256;
  p.seed = 7;
  p.family = HashFamily::kCarterWegman;
  ExpectCountSketchEquivalence(p);
}

TEST(SimdSketchEquivalenceTest, CountSketchCarterWegmanOddWidth) {
  // Odd width: padded CounterMatrix rows AND the FastRange tail both in
  // play.
  CountSketchParams p;
  p.depth = 3;
  p.width = 101;
  p.seed = 11;
  p.family = HashFamily::kCarterWegman;
  ExpectCountSketchEquivalence(p);
}

TEST(SimdSketchEquivalenceTest, CountSketchMultiplyShift) {
  CountSketchParams p;
  p.depth = 4;
  p.width = 512;
  p.seed = 13;
  p.family = HashFamily::kMultiplyShift;
  ExpectCountSketchEquivalence(p);
}

TEST(SimdSketchEquivalenceTest, CountSketchMultiplyShiftOddWidth) {
  CountSketchParams p;
  p.depth = 7;
  p.width = 33;
  p.seed = 17;
  p.family = HashFamily::kMultiplyShift;
  ExpectCountSketchEquivalence(p);
}

TEST(SimdSketchEquivalenceTest, CountSketchTabulation) {
  CountSketchParams p;
  p.depth = 5;
  p.width = 128;
  p.seed = 19;
  p.family = HashFamily::kTabulation;
  ExpectCountSketchEquivalence(p);
}

void ExpectCountMinEquivalence(CountMinParams p) {
  auto add = CountMin::Make(p);
  auto batch_scalar = CountMin::Make(p);
  auto batch_simd = CountMin::Make(p);
  ASSERT_TRUE(add.ok() && batch_scalar.ok() && batch_simd.ok());

  const std::vector<ItemId> items = TestStream(3000, p.seed ^ 0xF00D);
  for (ItemId q : items) add->Add(q, 2);
  batch_scalar->BatchAddScalar(items, 2);
  batch_simd->BatchAdd(items, 2);

  for (ItemId q : items) {
    ASSERT_EQ(add->Estimate(q), batch_scalar->Estimate(q)) << "item " << q;
    ASSERT_EQ(add->Estimate(q), batch_simd->Estimate(q)) << "item " << q;
  }
}

TEST(SimdSketchEquivalenceTest, CountMin) {
  CountMinParams p;
  p.depth = 4;
  p.width = 256;
  p.seed = 23;
  ExpectCountMinEquivalence(p);
}

TEST(SimdSketchEquivalenceTest, CountMinOddWidth) {
  CountMinParams p;
  p.depth = 5;
  p.width = 77;
  p.seed = 29;
  ExpectCountMinEquivalence(p);
}

TEST(SimdSketchEquivalenceTest, CountMinConservativeFallback) {
  // Conservative update is order-dependent; BatchAdd must match per-item
  // Add in stream order exactly (it falls back to that loop).
  CountMinParams p;
  p.depth = 4;
  p.width = 128;
  p.seed = 31;
  p.conservative = true;
  ExpectCountMinEquivalence(p);
}

// Merge after batched ingest: the padded-buffer AddAll must agree with
// merging sketches built by scalar Add (padding stays zero).
TEST(SimdSketchEquivalenceTest, MergeAfterBatchedIngestOddWidth) {
  CountSketchParams p;
  p.depth = 3;
  p.width = 55;
  p.seed = 37;
  auto a_simd = CountSketch::Make(p);
  auto b_simd = CountSketch::Make(p);
  auto a_ref = CountSketch::Make(p);
  auto b_ref = CountSketch::Make(p);
  ASSERT_TRUE(a_simd.ok() && b_simd.ok() && a_ref.ok() && b_ref.ok());

  const auto s1 = TestStream(500, 0x111);
  const auto s2 = TestStream(500, 0x222);
  a_simd->BatchAdd(s1);
  b_simd->BatchAdd(s2);
  for (ItemId q : s1) a_ref->Add(q);
  for (ItemId q : s2) b_ref->Add(q);

  ASSERT_TRUE(a_simd->Merge(*b_simd).ok());
  ASSERT_TRUE(a_ref->Merge(*b_ref).ok());
  for (size_t i = 0; i < p.depth; ++i) {
    for (size_t j = 0; j < p.width; ++j) {
      ASSERT_EQ(a_simd->CounterAt(i, j), a_ref->CounterAt(i, j))
          << "(" << i << "," << j << ")";
    }
  }
}

// Serialization round-trip through the padded layout: wire format is the
// logical row-major order, so deserialized counters must match cell for
// cell.
TEST(SimdSketchEquivalenceTest, SerializeRoundTripOddWidth) {
  CountSketchParams p;
  p.depth = 4;
  p.width = 99;
  p.seed = 41;
  auto s = CountSketch::Make(p);
  ASSERT_TRUE(s.ok());
  s->BatchAdd(TestStream(800, 0x333));

  std::string blob;
  s->SerializeTo(&blob);
  auto back = CountSketch::Deserialize(blob);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < p.depth; ++i) {
    for (size_t j = 0; j < p.width; ++j) {
      ASSERT_EQ(s->CounterAt(i, j), back->CounterAt(i, j))
          << "(" << i << "," << j << ")";
    }
  }
}

// -- estimate level: EstimateBatch ------------------------------------------

// The estimate by definition, independent of both production paths: the
// row estimates sorted, the middle one (even depths: the two middles
// averaged toward zero), or the mean toward zero, in 128 bits.
Count SortedReferenceEstimate(const CountSketch& sketch, ItemId q) {
  std::vector<Count> rows = sketch.RowEstimates(q);
  const size_t n = rows.size();
  if (sketch.params().estimator == Estimator::kMean) {
    int128_t sum = 0;
    for (Count r : rows) sum += r;
    return static_cast<Count>(sum / static_cast<int128_t>(n));
  }
  std::sort(rows.begin(), rows.end());
  if (n % 2 == 1) return rows[n / 2];
  return static_cast<Count>(
      (static_cast<int128_t>(rows[n / 2 - 1]) + rows[n / 2]) / 2);
}

// EstimateBatch over every prefix length in kEstimateBatchLengths of
// `probes` equals an Estimate loop and the sort-based reference.
const size_t kEstimateBatchLengths[] = {0, 1, 15, 16, 17, 31, 32, 33, 100};

void ExpectEstimateBatchEquivalence(const CountSketch& sketch,
                                    const std::vector<ItemId>& probes) {
  for (size_t n : kEstimateBatchLengths) {
    ASSERT_LE(n, probes.size());
    const std::span<const ItemId> ids(probes.data(), n);
    // Poisoned so a lane the batch fails to write shows up.
    std::vector<Count> batch(n, std::numeric_limits<Count>::min());
    sketch.EstimateBatch(ids, batch);
    for (size_t j = 0; j < n; ++j) {
      const Count scalar = sketch.Estimate(ids[j]);
      ASSERT_EQ(batch[j], scalar)
          << "batch of " << n << ", lane " << j << ", item " << ids[j];
      ASSERT_EQ(scalar, SortedReferenceEstimate(sketch, ids[j]))
          << "item " << ids[j];
    }
  }
}

// Stream items (collisions, so rows disagree) followed by never-seen ids.
std::vector<ItemId> EstimateProbes(const std::vector<ItemId>& stream) {
  std::vector<ItemId> probes(stream.begin(), stream.begin() + 80);
  const std::vector<ItemId> unseen = RandomKeys(40, 0xC0FFEE);
  probes.insert(probes.end(), unseen.begin(), unseen.end());
  return probes;
}

const HashFamily kFamilies[] = {HashFamily::kCarterWegman,
                                HashFamily::kMultiplyShift,
                                HashFamily::kTabulation};
const Estimator kEstimators[] = {Estimator::kMedian, Estimator::kMean};

// Every family and estimator at depths 1-9, 16, 64 (the deepest network)
// and 65 (the selection fallback).
TEST(EstimateBatchEquivalenceTest, MatchesEstimateAndSortedMedian) {
  const size_t kDepths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 65};
  for (HashFamily family : kFamilies) {
    for (Estimator estimator : kEstimators) {
      for (size_t depth : kDepths) {
        SCOPED_TRACE(::testing::Message()
                     << "family " << static_cast<int>(family) << " estimator "
                     << static_cast<int>(estimator) << " depth " << depth);
        CountSketchParams p;
        p.depth = depth;
        p.width = 61;
        p.seed = 43 + depth;
        p.family = family;
        p.estimator = estimator;
        auto sketch = CountSketch::Make(p);
        ASSERT_TRUE(sketch.ok());
        const std::vector<ItemId> stream = TestStream(2000, depth);
        sketch->BatchAdd(stream, 3);
        sketch->BatchAdd(std::span<const ItemId>(stream).first(300), -7);
        ExpectEstimateBatchEquivalence(*sketch, EstimateProbes(stream));
      }
    }
  }
}

// Counters within a few thousand of INT64_MAX and INT64_MIN, written with
// Add weights: one heavy item per sketch, so collisions push row estimates
// to both ends of the range. Even depths average two middles near the same
// end, where (lo + hi) itself would overflow.
TEST(EstimateBatchEquivalenceTest, CountersNearTheInt64Limits) {
  const Count kHeavy[] = {std::numeric_limits<Count>::max() - 5000,
                          std::numeric_limits<Count>::min() + 5000};
  for (HashFamily family : kFamilies) {
    for (Estimator estimator : kEstimators) {
      for (size_t depth : {4, 5}) {
        for (Count heavy : kHeavy) {
          SCOPED_TRACE(::testing::Message()
                       << "family " << static_cast<int>(family)
                       << " estimator " << static_cast<int>(estimator)
                       << " depth " << depth << " heavy " << heavy);
          CountSketchParams p;
          p.depth = depth;
          p.width = 4;
          p.seed = 47;
          p.family = family;
          p.estimator = estimator;
          auto sketch = CountSketch::Make(p);
          ASSERT_TRUE(sketch.ok());
          const std::vector<ItemId> stream = TestStream(200, 0x1111);
          sketch->Add(stream[0], heavy);
          // The light mass stays far below the 5000 of headroom.
          for (size_t j = 1; j < 100; ++j) sketch->Add(stream[j], 1 + j % 3);
          ExpectEstimateBatchEquivalence(*sketch, EstimateProbes(stream));
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamfreq
