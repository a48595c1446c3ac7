// The COUNT SKETCH data structure (Charikar, Chen, Farach-Colton).
//
// A t x b array of counters with, per row i, a pairwise-independent bucket
// hash h_i : O -> [b] and an independent pairwise-independent sign hash
// s_i : O -> {+1, -1}:
//
//   Add(q, w):     for each row i,  C[i][h_i(q)] += w * s_i(q)
//   Estimate(q):   median_i { C[i][h_i(q)] * s_i(q) }
//
// Guarantees (paper Lemmas 1-5, Theorem 1): each row estimate is unbiased
// with variance bounded by the colliding mass; with t = Theta(log(n/delta))
// the median is within 8 * gamma of the true count for every prefix of the
// stream, where gamma = sqrt(F2^{>k} / b). Sketches built with the same
// parameters and seed are compatible and form a group under Merge/Subtract,
// which is what enables the two-pass max-change algorithm (Section 4.2).
//
// Add and Estimate never fail and never allocate; fallible operations
// (construction, merging, serialization) return Status/Result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/counter_matrix.h"
#include "hash/batch_hash.h"
#include "hash/pairwise.h"
#include "stream/exact_counter.h"
#include "stream/types.h"
#include "util/result.h"

namespace streamfreq {

/// Which hash family backs the rows. The paper requires pairwise
/// independence, which kCarterWegman provides exactly; the others are
/// faster heuristic substitutes evaluated in the ablation bench (E11).
enum class HashFamily : uint8_t {
  kCarterWegman = 0,   ///< (a*x+b) mod (2^61-1): pairwise independent
  kMultiplyShift = 1,  ///< Dietzfelbinger multiply-shift: 2-universal
  kTabulation = 2,     ///< simple tabulation: 3-independent
};

/// How row estimates are combined. The paper argues for the median
/// (Section 3.2: the mean is destroyed by heavy-hitter collisions); the
/// mean is provided for the ablation.
enum class Estimator : uint8_t {
  kMedian = 0,
  kMean = 1,
};

/// Construction parameters.
struct CountSketchParams {
  size_t depth = 5;    ///< t: number of hash tables (rows)
  size_t width = 256;  ///< b: buckets (counters) per table
  uint64_t seed = 1;   ///< seeds all hash functions deterministically
  HashFamily family = HashFamily::kCarterWegman;
  Estimator estimator = Estimator::kMedian;
};

/// The Count-Sketch. Copyable; copies share no state.
class CountSketch {
 public:
  /// Validates parameters (depth and width must be positive) and builds a
  /// zeroed sketch with freshly seeded hash functions.
  static Result<CountSketch> Make(const CountSketchParams& params);

  /// ADD(C, q): processes `weight` occurrences of `item` (weight may be
  /// negative — turnstile model).
  void Add(ItemId item, Count weight = 1) noexcept;

  /// Batch ADD: processes `weight` occurrences of every item in `items`,
  /// with the final state exactly equal to item-at-a-time Add calls (the
  /// counters are a linear function of the multiset). Iterates row-major —
  /// one hash function and one cache-line-aligned counter stripe at a
  /// time — evaluating bucket and sign hashes 16 keys per iteration with
  /// the SIMD kernels in hash/batch_hash.h, then scattering the counter
  /// updates. The parallel ingestion fast path; bit-identical to the
  /// scalar path (tests/simd_equivalence_test.cc).
  void BatchAdd(std::span<const ItemId> items, Count weight = 1) noexcept;

  /// BatchAdd forced through the scalar reference kernels. The test and
  /// benchmark seam: simd_equivalence_test asserts BatchAdd == this ==
  /// an Add loop, and bench_throughput's scalar-baseline rows in
  /// BENCH_throughput.json are measured here.
  void BatchAddScalar(std::span<const ItemId> items,
                      Count weight = 1) noexcept;

  /// ESTIMATE(C, q): the median (or mean) over rows of C[i][h_i(q)]*s_i(q).
  /// Mean estimates, and the average of the two middle rows at even
  /// depths, round toward zero. The reference for EstimateBatch.
  Count Estimate(ItemId item) const noexcept;

  /// Batch ESTIMATE: out[j] = Estimate(ids[j]) for every j, bit for bit.
  /// `out.size()` must equal `ids.size()`; an empty batch does nothing.
  /// Per block of ids, each row's buckets and signs come from one
  /// batch_hash::BucketsAndSigns pass, and the medians of the whole block
  /// come from one branch-free compare-exchange network, the routine
  /// Estimate itself uses. Depths above 64 take Estimate's selection path
  /// one id at a time. Never allocates for depths up to 64.
  void EstimateBatch(std::span<const ItemId> ids,
                     std::span<Count> out) const noexcept;

  /// The per-row estimates C[i][h_i(q)]*s_i(q), in row order. Exposed for
  /// tests and the variance experiments (E2/E3).
  std::vector<Count> RowEstimates(ItemId item) const;

  /// A point estimate with an empirical uncertainty band: the median of
  /// the row estimates bracketed by their lower/upper quartiles. The
  /// quartile spread is a practical stand-in for the gamma error scale
  /// when the stream statistics are unknown (wide band = noisy estimate).
  struct EstimateInterval {
    Count estimate;
    Count lower;   ///< ~25th percentile of row estimates
    Count upper;   ///< ~75th percentile of row estimates
  };
  EstimateInterval EstimateWithSpread(ItemId item) const;

  /// Counter-wise addition: this += other. Requires compatibility (same
  /// depth, width, seed, family); returns InvalidArgument otherwise.
  Status Merge(const CountSketch& other);

  /// Counter-wise subtraction: this -= other. After subtracting the sketch
  /// of S1 from the sketch of S2, Estimate(q) approximates
  /// n_q(S2) - n_q(S1) — the max-change primitive.
  Status Subtract(const CountSketch& other);

  /// True iff `other` was built with identical parameters and seed, i.e.
  /// shares hash functions and may be merged/subtracted.
  bool CompatibleWith(const CountSketch& other) const;

  /// Serializes parameters + counters to `out` (appended).
  void SerializeTo(std::string* out) const;

  /// Reconstructs a sketch serialized by SerializeTo. Returns Corruption on
  /// truncated or malformed input.
  static Result<CountSketch> Deserialize(std::string_view data);

  /// Resets all counters to zero (hash functions are kept).
  void Clear() noexcept;

  size_t depth() const { return depth_; }
  size_t width() const { return width_; }
  uint64_t seed() const { return params_.seed; }
  const CountSketchParams& params() const { return params_; }

  /// Bytes held: the counter array plus hash-function parameters.
  size_t SpaceBytes() const;

  /// Raw counter access for tests and diagnostics.
  int64_t CounterAt(size_t row, size_t bucket) const {
    return counters_.At(row, bucket);
  }

 private:
  explicit CountSketch(const CountSketchParams& params);

  /// Row hash evaluation: bucket index and sign for `item` in row i.
  struct BucketSign {
    uint64_t bucket;
    int64_t sign;
  };
  BucketSign Locate(size_t row, ItemId item) const noexcept;

  /// Row-major batch update over one hash family's function vectors,
  /// through the selected batch-hash backend.
  template <typename HashT>
  void BatchAddRows(const std::vector<HashT>& bucket,
                    const std::vector<HashT>& sign,
                    std::span<const ItemId> items, Count weight,
                    batch_hash::Backend backend) noexcept;

  void BatchAddDispatch(std::span<const ItemId> items, Count weight,
                        batch_hash::Backend backend) noexcept;

  /// EstimateBatch over (this − minus) when `minus` is non-null: the
  /// row estimates of a difference sketch, read without building it.
  /// `minus` must be compatible.
  void EstimateDifferenceBatch(std::span<const ItemId> ids,
                               const CountSketch* minus,
                               std::span<Count> out) const noexcept;

  /// Estimate (of this − minus, when `minus` is non-null) for sketches too
  /// deep for the stack: selection over a heap copy of the row estimates.
  Count EstimateDeep(ItemId item, const CountSketch* minus) const;

  template <typename HashT>
  void EstimateRows(const std::vector<HashT>& bucket,
                    const std::vector<HashT>& sign,
                    std::span<const ItemId> ids, const CountSketch* minus,
                    std::span<Count> out) const noexcept;

  friend Result<std::vector<ItemCount>> RankChanges(
      std::span<const ItemId> ids, const CountSketch& current,
      const CountSketch& mark, size_t k);

  CountSketchParams params_;
  size_t depth_;
  size_t width_;
  // Per-row hash functions; only the family selected in params_ is
  // populated.
  std::vector<CarterWegmanHash> cw_bucket_, cw_sign_;
  std::vector<MultiplyShiftHash> ms_bucket_, ms_sign_;
  std::vector<TabulationHash> tab_bucket_, tab_sign_;
  // depth_ x width_ logical counters in a cache-line-aligned, padded
  // row-major layout (see counter_matrix.h); serialization stays in
  // logical row-major order, so the wire format is unchanged.
  CounterMatrix counters_;
};

/// Scores each of `ids` on `sketch` and returns the best `k`, ordered by
/// estimate descending (by |estimate| when `absolute`, for max-change on a
/// difference sketch), ties toward the smaller id. One EstimateBatch call
/// scores every id; a selection to k then sorts only the k kept.
std::vector<ItemCount> RankCandidates(std::span<const ItemId> ids,
                                      const CountSketch& sketch, size_t k,
                                      bool absolute);

/// The paper's max-change step through the group structure: ranks `ids`
/// by |estimate| on the difference sketch `current − mark`. By linearity
/// that estimate is the median of (C_cur − C_mark)[i][h_i(q)]·s_i(q), so
/// it is read at each id's buckets and no difference sketch is built.
/// Incompatible sketches fail as Subtract does.
Result<std::vector<ItemCount>> RankChanges(std::span<const ItemId> ids,
                                           const CountSketch& current,
                                           const CountSketch& mark, size_t k);

}  // namespace streamfreq
