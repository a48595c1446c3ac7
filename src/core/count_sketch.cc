#include "core/count_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "hash/random.h"
#include "util/bit_util.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace streamfreq {

Result<CountSketch> CountSketch::Make(const CountSketchParams& params) {
  if (params.depth == 0) {
    return Status::InvalidArgument("CountSketch: depth must be positive");
  }
  if (params.width == 0) {
    return Status::InvalidArgument("CountSketch: width must be positive");
  }
  if (params.depth > (1u << 20) || params.width > (1ull << 34)) {
    return Status::InvalidArgument("CountSketch: dimensions implausibly large");
  }
  return CountSketch(params);
}

CountSketch::CountSketch(const CountSketchParams& params)
    : params_(params),
      depth_(params.depth),
      width_(params.width),
      counters_(params.depth, params.width) {
  // One seed stream per role keeps bucket and sign functions mutually
  // independent, as the analysis requires.
  SplitMix64 bucket_seeder(SplitMix64(params.seed).Next() ^ 0xB0C4E7ULL);
  SplitMix64 sign_seeder(SplitMix64(params.seed + 1).Next() ^ 0x51C40FULL);
  switch (params.family) {
    case HashFamily::kCarterWegman:
      cw_bucket_.reserve(depth_);
      cw_sign_.reserve(depth_);
      for (size_t i = 0; i < depth_; ++i) {
        cw_bucket_.emplace_back(bucket_seeder);
        cw_sign_.emplace_back(sign_seeder);
      }
      break;
    case HashFamily::kMultiplyShift:
      ms_bucket_.reserve(depth_);
      ms_sign_.reserve(depth_);
      for (size_t i = 0; i < depth_; ++i) {
        ms_bucket_.emplace_back(bucket_seeder);
        ms_sign_.emplace_back(sign_seeder);
      }
      break;
    case HashFamily::kTabulation:
      tab_bucket_.reserve(depth_);
      tab_sign_.reserve(depth_);
      for (size_t i = 0; i < depth_; ++i) {
        tab_bucket_.emplace_back(bucket_seeder);
        tab_sign_.emplace_back(sign_seeder);
      }
      break;
  }
}

CountSketch::BucketSign CountSketch::Locate(size_t row, ItemId item) const noexcept {
  switch (params_.family) {
    case HashFamily::kCarterWegman:
      return {cw_bucket_[row].Bucket(item, width_), cw_sign_[row].Sign(item)};
    case HashFamily::kMultiplyShift:
      return {ms_bucket_[row].Bucket(item, width_), ms_sign_[row].Sign(item)};
    case HashFamily::kTabulation:
      return {tab_bucket_[row].Bucket(item, width_), tab_sign_[row].Sign(item)};
  }
  return {0, 1};  // unreachable
}

void CountSketch::Add(ItemId item, Count weight) noexcept {
  for (size_t i = 0; i < depth_; ++i) {
    const BucketSign bs = Locate(i, item);
    counters_.At(i, bs.bucket) += weight * bs.sign;
  }
}

template <typename HashT>
// sfq-hot-path
void CountSketch::BatchAddRows(const std::vector<HashT>& bucket,
                               const std::vector<HashT>& sign,
                               std::span<const ItemId> items, Count weight,
                               batch_hash::Backend backend) noexcept {
  // Rows outer, items inner: one row's hash constants stay in registers
  // and every pass walks a single aligned counter stripe. Within a row the
  // bucket/sign evaluation runs through the batch kernels a kChunk-key
  // stripe at a time — large enough to amortize the (non-inlined) kernel
  // call, small enough that the staging buffers stay in L1 — then the
  // scatter runs scalar (data-dependent indices).
  constexpr size_t kChunk = 1024;
  static_assert(kChunk % batch_hash::kBlock == 0);
  uint64_t bkt[kChunk];
  int64_t sgn[kChunk];
  for (size_t i = 0; i < depth_; ++i) {
    const HashT& hb = bucket[i];
    const HashT& hs = sign[i];
    int64_t* row = counters_.Row(i);
    for (size_t pos = 0; pos < items.size(); pos += kChunk) {
      const size_t take = std::min(kChunk, items.size() - pos);
      batch_hash::BucketsAndSigns(
          hb, hs, std::span<const uint64_t>(items.data() + pos, take), width_,
          bkt, sgn, backend);
      for (size_t j = 0; j < take; ++j) row[bkt[j]] += weight * sgn[j];
    }
  }
}

// sfq-hot-path
void CountSketch::BatchAddDispatch(std::span<const ItemId> items, Count weight,
                                   batch_hash::Backend backend) noexcept {
  switch (params_.family) {
    case HashFamily::kCarterWegman:
      BatchAddRows(cw_bucket_, cw_sign_, items, weight, backend);
      break;
    case HashFamily::kMultiplyShift:
      BatchAddRows(ms_bucket_, ms_sign_, items, weight, backend);
      break;
    case HashFamily::kTabulation:
      BatchAddRows(tab_bucket_, tab_sign_, items, weight, backend);
      break;
  }
}

// sfq-hot-path
void CountSketch::BatchAdd(std::span<const ItemId> items,
                           Count weight) noexcept {
  BatchAddDispatch(items, weight, batch_hash::Backend::kVectorized);
}

// sfq-hot-path
void CountSketch::BatchAddScalar(std::span<const ItemId> items,
                                 Count weight) noexcept {
  BatchAddDispatch(items, weight, batch_hash::Backend::kScalar);
}

std::vector<Count> CountSketch::RowEstimates(ItemId item) const {
  std::vector<Count> est(depth_);
  for (size_t i = 0; i < depth_; ++i) {
    const BucketSign bs = Locate(i, item);
    est[i] = counters_.At(i, bs.bucket) * bs.sign;
  }
  return est;
}

CountSketch::EstimateInterval CountSketch::EstimateWithSpread(
    ItemId item) const {
  std::vector<Count> est = RowEstimates(item);
  std::sort(est.begin(), est.end());
  const size_t n = est.size();
  EstimateInterval out;
  out.lower = est[n / 4];
  out.upper = est[(3 * n) / 4 == n ? n - 1 : (3 * n) / 4];
  if (n % 2 == 1) {
    out.estimate = est[n / 2];
  } else {
    out.estimate = (est[n / 2 - 1] + est[n / 2]) / 2;
  }
  return out;
}

namespace {

// Row estimates live on the stack up to this depth. Deeper sketches (Make
// allows 2^20 rows) select on a heap copy instead: the O(t^2) network
// below is for shallow sketches only.
constexpr size_t kStackRows = 64;

// Ids per EstimateBatch block. The rows x block gather buffer holds
// kStackRows * kLanes counters (16 KiB).
constexpr size_t kLanes = 32;
static_assert(kLanes % batch_hash::kBlock == 0);

// Puts the smaller of a[j], b[j] in a[j] and the larger in b[j], for every
// lane. The swap goes through an XOR mask because std::min/std::max on
// int64_t compile to a branch here, and on row estimates that branch
// mispredicts about half the time.
// sfq-hot-path
inline void CompareExchange(Count* a, Count* b, size_t lanes) noexcept {
  for (size_t j = 0; j < lanes; ++j) {
    const Count x = a[j];
    const Count y = b[j];
    const Count swap = (x ^ y) & -static_cast<Count>(x > y);
    a[j] = x ^ swap;
    b[j] = y ^ swap;
  }
}

// (lo + hi) / 2 rounded toward zero, for lo <= hi, with no intermediate
// overflow: the floor of the average, plus one when the sum is odd and
// negative.
// sfq-hot-path
inline Count MidpointTowardZero(Count lo, Count hi) noexcept {
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const Count floor =
      static_cast<Count>(static_cast<uint64_t>(lo) + (span >> 1));
  return floor +
         static_cast<Count>(span & 1 & static_cast<uint64_t>(floor < 0));
}

// Reduces a depth x lanes block of row estimates (row i of lane j at
// est[i * kStride + j]) to one estimate per lane, sorting each lane's
// column in place. The median is an odd-even transposition network: depth
// rounds of compare-exchanges between neighbouring rows, each over every
// lane at once, with no data-dependent branch. Even depths average the two
// middle rows, rounding toward zero, so estimates stay symmetric under
// negation. The mean sums in 128 bits and rounds toward zero.
template <size_t kStride>
// sfq-hot-path
inline void CombineRows(Count* est, size_t depth, size_t lanes,
                        Estimator estimator, Count* out) noexcept {
  if (estimator == Estimator::kMean) {
    for (size_t j = 0; j < lanes; ++j) {
      int128_t sum = 0;
      for (size_t i = 0; i < depth; ++i) sum += est[i * kStride + j];
      out[j] = static_cast<Count>(sum / static_cast<int128_t>(depth));
    }
    return;
  }
  for (size_t round = 0; round < depth; ++round) {
    for (size_t i = round & 1; i + 1 < depth; i += 2) {
      CompareExchange(est + i * kStride, est + (i + 1) * kStride, lanes);
    }
  }
  const Count* upper = est + (depth / 2) * kStride;
  if (depth % 2 == 1) {
    std::copy(upper, upper + lanes, out);
    return;
  }
  const Count* lower = upper - kStride;
  for (size_t j = 0; j < lanes; ++j) {
    out[j] = MidpointTowardZero(lower[j], upper[j]);
  }
}

}  // namespace

Count CountSketch::EstimateDeep(ItemId item, const CountSketch* minus) const {
  std::vector<Count> est(depth_);
  for (size_t i = 0; i < depth_; ++i) {
    const BucketSign bs = Locate(i, item);
    const int64_t c = counters_.At(i, bs.bucket);
    est[i] = (minus == nullptr ? c : c - minus->counters_.At(i, bs.bucket)) *
             bs.sign;
  }
  Count out;
  if (params_.estimator == Estimator::kMean) {
    CombineRows<1>(est.data(), depth_, 1, Estimator::kMean, &out);
    return out;
  }
  const size_t mid = depth_ / 2;
  std::nth_element(est.begin(), est.begin() + mid, est.end());
  if (depth_ % 2 == 1) return est[mid];
  return MidpointTowardZero(*std::max_element(est.begin(), est.begin() + mid),
                            est[mid]);
}

Count CountSketch::Estimate(ItemId item) const noexcept {
  if (depth_ > kStackRows) return EstimateDeep(item, nullptr);
  Count est[kStackRows];
  for (size_t i = 0; i < depth_; ++i) {
    const BucketSign bs = Locate(i, item);
    est[i] = counters_.At(i, bs.bucket) * bs.sign;
  }
  Count out;
  CombineRows<1>(est, depth_, 1, params_.estimator, &out);
  return out;
}

template <typename HashT>
// sfq-hot-path
void CountSketch::EstimateRows(const std::vector<HashT>& bucket,
                               const std::vector<HashT>& sign,
                               std::span<const ItemId> ids,
                               const CountSketch* minus,
                               std::span<Count> out) const noexcept {
  uint64_t bkt[kLanes];
  int64_t sgn[kLanes];
  Count est[kStackRows * kLanes];
  for (size_t pos = 0; pos < ids.size(); pos += kLanes) {
    const size_t take = std::min(kLanes, ids.size() - pos);
    const std::span<const uint64_t> block(ids.data() + pos, take);
    for (size_t i = 0; i < depth_; ++i) {
      batch_hash::BucketsAndSigns(bucket[i], sign[i], block, width_, bkt, sgn);
      const int64_t* row = counters_.Row(i);
      Count* dst = est + i * kLanes;
      if (minus == nullptr) {
        for (size_t j = 0; j < take; ++j) dst[j] = row[bkt[j]] * sgn[j];
      } else {
        const int64_t* sub = minus->counters_.Row(i);
        for (size_t j = 0; j < take; ++j) {
          dst[j] = (row[bkt[j]] - sub[bkt[j]]) * sgn[j];
        }
      }
    }
    CombineRows<kLanes>(est, depth_, take, params_.estimator,
                        out.data() + pos);
  }
}

void CountSketch::EstimateDifferenceBatch(std::span<const ItemId> ids,
                                          const CountSketch* minus,
                                          std::span<Count> out) const noexcept {
  SFQ_DCHECK(out.size() == ids.size());
  if (depth_ > kStackRows) {
    for (size_t j = 0; j < ids.size(); ++j) {
      out[j] = EstimateDeep(ids[j], minus);
    }
    return;
  }
  switch (params_.family) {
    case HashFamily::kCarterWegman:
      EstimateRows(cw_bucket_, cw_sign_, ids, minus, out);
      break;
    case HashFamily::kMultiplyShift:
      EstimateRows(ms_bucket_, ms_sign_, ids, minus, out);
      break;
    case HashFamily::kTabulation:
      EstimateRows(tab_bucket_, tab_sign_, ids, minus, out);
      break;
  }
}

void CountSketch::EstimateBatch(std::span<const ItemId> ids,
                                std::span<Count> out) const noexcept {
  EstimateDifferenceBatch(ids, nullptr, out);
}

bool CountSketch::CompatibleWith(const CountSketch& other) const {
  return depth_ == other.depth_ && width_ == other.width_ &&
         params_.seed == other.params_.seed &&
         params_.family == other.params_.family;
}

namespace {

Status IncompatibleSketches(const char* op) {
  return Status::InvalidArgument(std::string("CountSketch::") + op +
                                 ": incompatible sketches (parameters or "
                                 "seed differ)");
}

}  // namespace

Status CountSketch::Merge(const CountSketch& other) {
  if (!CompatibleWith(other)) return IncompatibleSketches("Merge");
  counters_.AddAll(other.counters_);
  return Status::OK();
}

Status CountSketch::Subtract(const CountSketch& other) {
  if (!CompatibleWith(other)) return IncompatibleSketches("Subtract");
  counters_.SubtractAll(other.counters_);
  return Status::OK();
}

void CountSketch::Clear() noexcept { counters_.Clear(); }

size_t CountSketch::SpaceBytes() const {
  size_t hash_bytes = 0;
  switch (params_.family) {
    case HashFamily::kCarterWegman:
    case HashFamily::kMultiplyShift:
      hash_bytes = depth_ * 2 * 2 * sizeof(uint64_t);  // (a,b) x {bucket,sign}
      break;
    case HashFamily::kTabulation:
      hash_bytes = depth_ * 2 * sizeof(TabulationHash);
      break;
  }
  return counters_.AllocatedBytes() + hash_bytes;
}

namespace {
constexpr uint64_t kSketchMagic = 0x5346515343303153ULL;  // "SFQSC01S"
}  // namespace

void CountSketch::SerializeTo(std::string* out) const {
  ByteWriter w(out);
  w.PutU64(kSketchMagic);
  w.PutU64(depth_);
  w.PutU64(width_);
  w.PutU64(params_.seed);
  w.PutU64(static_cast<uint64_t>(params_.family));
  w.PutU64(static_cast<uint64_t>(params_.estimator));
  // Logical row-major order, padding skipped: the wire format is the same
  // as the historical unpadded layout.
  for (size_t i = 0; i < depth_; ++i) {
    for (size_t j = 0; j < width_; ++j) w.PutI64(counters_.At(i, j));
  }
}

Result<CountSketch> CountSketch::Deserialize(std::string_view data) {
  ByteReader r(data);
  uint64_t magic, depth, width, seed, family, estimator;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&magic));
  if (magic != kSketchMagic) {
    return Status::Corruption("CountSketch::Deserialize: bad magic");
  }
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&depth));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&width));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&seed));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&family));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&estimator));
  if (family > static_cast<uint64_t>(HashFamily::kTabulation) ||
      estimator > static_cast<uint64_t>(Estimator::kMean)) {
    return Status::Corruption("CountSketch::Deserialize: bad enum value");
  }
  // Validate the payload size BEFORE Make allocates depth*width counters:
  // a corrupted header must fail cleanly, not exhaust memory. The division
  // avoids overflow in depth * width * 8 for hostile headers.
  if (depth == 0 || width == 0 ||
      r.remaining() / sizeof(int64_t) / depth != width ||
      r.remaining() % sizeof(int64_t) != 0) {
    return Status::Corruption("CountSketch::Deserialize: counter payload size "
                              "mismatch");
  }
  CountSketchParams params;
  params.depth = depth;
  params.width = width;
  params.seed = seed;
  params.family = static_cast<HashFamily>(family);
  params.estimator = static_cast<Estimator>(estimator);
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch sketch, Make(params));
  for (size_t i = 0; i < depth; ++i) {
    for (size_t j = 0; j < width; ++j) {
      STREAMFREQ_RETURN_NOT_OK(r.GetI64(&sketch.counters_.At(i, j)));
    }
  }
  return sketch;
}

namespace {

// The best k of ids[j] scored counts[j], in rank order: count descending
// (|count| when `absolute`), ties toward the smaller id. Selection to k
// first, so only the k kept are sorted.
std::vector<ItemCount> KeepTop(std::span<const ItemId> ids,
                               const std::vector<Count>& counts, size_t k,
                               bool absolute) {
  std::vector<ItemCount> scored(ids.size());
  for (size_t j = 0; j < ids.size(); ++j) {
    scored[j] = ItemCount{ids[j], counts[j]};
  }
  const auto before = [absolute](const ItemCount& a, const ItemCount& b) {
    const int64_t ka = absolute ? std::llabs(a.count) : a.count;
    const int64_t kb = absolute ? std::llabs(b.count) : b.count;
    if (ka != kb) return ka > kb;
    return a.item < b.item;
  };
  if (scored.size() > k) {
    std::nth_element(scored.begin(), scored.begin() + k, scored.end(), before);
    scored.resize(k);
  }
  std::sort(scored.begin(), scored.end(), before);
  return scored;
}

}  // namespace

std::vector<ItemCount> RankCandidates(std::span<const ItemId> ids,
                                      const CountSketch& sketch, size_t k,
                                      bool absolute) {
  std::vector<Count> counts(ids.size());
  sketch.EstimateBatch(ids, counts);
  return KeepTop(ids, counts, k, absolute);
}

Result<std::vector<ItemCount>> RankChanges(std::span<const ItemId> ids,
                                           const CountSketch& current,
                                           const CountSketch& mark, size_t k) {
  if (!current.CompatibleWith(mark)) return IncompatibleSketches("Subtract");
  std::vector<Count> counts(ids.size());
  current.EstimateDifferenceBatch(ids, &mark, counts);
  return KeepTop(ids, counts, k, /*absolute=*/true);
}

}  // namespace streamfreq
