#include "verify/checkers.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "concurrent/parallel_ingestor.h"
#include "core/count_min.h"
#include "core/count_sketch.h"
#include "core/lossy_counting.h"
#include "core/misra_gries.h"
#include "core/sketch_params.h"
#include "core/space_saving.h"
#include "core/top_k_tracker.h"
#include "eval/metrics.h"
#include "hash/random.h"
#include "util/macros.h"

namespace streamfreq {

VerifySetup MakeVerifySetup(size_t k, double epsilon, double width_scale,
                            uint64_t seed, const Oracle& oracle) {
  VerifySetup s;
  s.k = std::max<size_t>(1, std::min(k, oracle.Distinct()));
  s.epsilon = epsilon;
  s.width_scale = width_scale;
  s.seed = seed;
  s.n = oracle.n();
  s.distinct = oracle.Distinct();
  s.nk = static_cast<double>(oracle.counts().NthCount(s.k));
  s.residual_f2 = oracle.counts().ResidualF2(s.k);
  s.probes = oracle.ProbeItems(s.k, /*sample=*/64, /*absent=*/8, seed);
  return s;
}

namespace {

Violation MakeViolation(const char* algorithm, const char* guarantee,
                        std::string detail, ItemId item, double observed,
                        double bound) {
  Violation v;
  v.algorithm = algorithm;
  v.guarantee = guarantee;
  v.detail = std::move(detail);
  v.item = item;
  v.observed = observed;
  v.bound = bound;
  return v;
}

/// Deterministic Fisher-Yates shuffle (std::shuffle's output is
/// implementation-defined; replayability requires our own).
void ShuffleStream(Stream* stream, uint64_t seed) {
  Xoshiro256 rng(seed);
  for (size_t i = stream->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.UniformBelow(i));
    std::swap((*stream)[i - 1], (*stream)[j]);
  }
}

/// Presents a raw sketch (CountSketch / CountMin) behind the StreamSummary
/// interface so one Check path serves real sketches and test fakes alike.
template <typename SketchT>
class RawSketchSummary final : public StreamSummary {
 public:
  RawSketchSummary(SketchT sketch, std::string name)
      : sketch_(std::move(sketch)), name_(std::move(name)) {}

  std::string Name() const override { return name_; }
  void Add(ItemId item, Count weight) override { sketch_.Add(item, weight); }
  using StreamSummary::Add;
  Count Estimate(ItemId item) const override { return sketch_.Estimate(item); }
  std::vector<ItemCount> Candidates(size_t) const override { return {}; }
  size_t SpaceBytes() const override { return sketch_.SpaceBytes(); }
  const SketchT& sketch() const { return sketch_; }

 private:
  SketchT sketch_;
  std::string name_;
};

/// Lemma 5 sizing for this run, with the practical clamps the checkers
/// compensate for. `lemma_width` keeps the unclamped value so the ApproxTop
/// checker can tell whether the theorem's premise is actually met.
struct SketchPlan {
  CountSketchParams params;
  size_t lemma_width = 0;
};

Result<SketchPlan> PlanCountSketch(const VerifySetup& setup) {
  ApproxTopSpec spec;
  spec.stream_length = static_cast<uint64_t>(setup.n);
  spec.k = setup.k;
  spec.epsilon = setup.epsilon;
  spec.delta = setup.delta;
  spec.residual_f2 = setup.residual_f2;
  spec.nk = setup.nk;
  STREAMFREQ_ASSIGN_OR_RETURN(SketchSizing sizing, SizeForApproxTop(spec));
  SketchPlan plan;
  plan.lemma_width = sizing.width;
  plan.params.depth = std::clamp<size_t>(sizing.depth, 4, 16);
  const double scaled =
      std::round(static_cast<double>(sizing.width) * setup.width_scale);
  plan.params.width =
      static_cast<size_t>(std::clamp(scaled, 8.0, 65536.0));
  plan.params.seed = setup.seed ^ 0xC0F3C0F3ULL;
  return plan;
}

/// Ingests `stream` into a sketch built by `make`, applying `mutation`.
/// Capabilities (Merge, SerializeTo) are detected at compile time; asking
/// for a mutation the type cannot perform is Unimplemented (the driver
/// filters those via Supports()).
template <typename SketchT>
Result<SketchT> IngestMutated(const std::function<Result<SketchT>()>& make,
                              const Stream& stream, Mutation mutation,
                              uint64_t shuffle_seed) {
  constexpr bool kHasMerge = requires(SketchT& a, const SketchT& b) {
    { a.Merge(b) } -> std::same_as<Status>;
  };
  constexpr bool kHasSerialize = requires(const SketchT& s, std::string* out) {
    s.SerializeTo(out);
    { SketchT::Deserialize(std::string_view{}) } -> std::same_as<Result<SketchT>>;
  };
  switch (mutation) {
    case Mutation::kSequential: {
      STREAMFREQ_ASSIGN_OR_RETURN(SketchT s, make());
      for (ItemId q : stream) s.Add(q, 1);
      return s;
    }
    case Mutation::kPermuted: {
      STREAMFREQ_ASSIGN_OR_RETURN(SketchT s, make());
      Stream shuffled = stream;
      ShuffleStream(&shuffled, shuffle_seed);
      for (ItemId q : shuffled) s.Add(q, 1);
      return s;
    }
    case Mutation::kBatched: {
      STREAMFREQ_ASSIGN_OR_RETURN(SketchT s, make());
      const size_t cut = stream.size() / 3;  // deliberately uneven spans
      s.BatchAdd(std::span<const ItemId>(stream.data(), cut));
      s.BatchAdd(
          std::span<const ItemId>(stream.data() + cut, stream.size() - cut));
      return s;
    }
    case Mutation::kBatchedScalar: {
      // Same spans as kBatched, forced through the scalar reference
      // kernels: together the two mutations differentially anchor the
      // SIMD-vectorized BatchAdd against the scalar path.
      constexpr bool kHasBatchScalar =
          requires(SketchT& s, std::span<const ItemId> span) {
            s.BatchAddScalar(span, Count{1});
          };
      if constexpr (kHasBatchScalar) {
        STREAMFREQ_ASSIGN_OR_RETURN(SketchT s, make());
        const size_t cut = stream.size() / 3;
        s.BatchAddScalar(std::span<const ItemId>(stream.data(), cut));
        s.BatchAddScalar(
            std::span<const ItemId>(stream.data() + cut, stream.size() - cut));
        return s;
      } else {
        return Status::Unimplemented("IngestMutated: type has no BatchAddScalar");
      }
    }
    case Mutation::kSplitMerge: {
      if constexpr (kHasMerge) {
        STREAMFREQ_ASSIGN_OR_RETURN(SketchT a, make());
        STREAMFREQ_ASSIGN_OR_RETURN(SketchT b, make());
        const size_t half = stream.size() / 2;
        for (size_t i = 0; i < half; ++i) a.Add(stream[i], 1);
        for (size_t i = half; i < stream.size(); ++i) b.Add(stream[i], 1);
        STREAMFREQ_RETURN_NOT_OK(a.Merge(b));
        return a;
      } else {
        return Status::Unimplemented("IngestMutated: type has no Merge");
      }
    }
    case Mutation::kSerializeMidStream: {
      if constexpr (kHasSerialize) {
        STREAMFREQ_ASSIGN_OR_RETURN(SketchT s, make());
        const size_t half = stream.size() / 2;
        for (size_t i = 0; i < half; ++i) s.Add(stream[i], 1);
        std::string blob;
        s.SerializeTo(&blob);
        STREAMFREQ_ASSIGN_OR_RETURN(SketchT restored,
                                    SketchT::Deserialize(blob));
        for (size_t i = half; i < stream.size(); ++i) restored.Add(stream[i], 1);
        return restored;
      } else {
        return Status::Unimplemented("IngestMutated: type has no SerializeTo");
      }
    }
    case Mutation::kParallel: {
      if constexpr (kHasMerge) {
        IngestOptions options;
        options.threads = 3;
        options.batch_items = 512;
        options.queue_batches = 16;
        options.publish_every_batches = 0;  // one final fold: minimal slack
        return ParallelIngest<SketchT>(std::span<const ItemId>(stream), make,
                                       options);
      } else {
        return Status::Unimplemented("IngestMutated: type has no Merge");
      }
    }
  }
  return Status::Internal("IngestMutated: unknown mutation");
}

/// Exact probe-estimate comparison between a mutated build and the
/// sequential reference — the metamorphic relation linear sketches promise.
template <typename SketchT>
void CompareSketchProbes(const char* algorithm, Mutation mutation,
                         const SketchT& got, const SketchT& want,
                         const std::vector<ItemId>& probes,
                         std::vector<Violation>* out) {
  for (ItemId q : probes) {
    const Count g = got.Estimate(q);
    const Count w = want.Estimate(q);
    if (g != w) {
      std::ostringstream detail;
      detail << MutationName(mutation)
             << " ingest disagrees with sequential ingest";
      out->push_back(MakeViolation(algorithm, "metamorphic-equivalence",
                                   detail.str(), q, static_cast<double>(g),
                                   static_cast<double>(w)));
      if (out->size() >= 8) return;  // cap the noise; one is already fatal
    }
  }
}

/// Width of the collision-heavy sketch the count-sketch checker compares
/// EstimateBatch with Estimate on.
constexpr size_t kNarrowWidth = 16;

/// The batched read path must answer the query set exactly as Estimate
/// does, one id at a time.
void CompareBatchEstimates(const char* algorithm, const CountSketch& sketch,
                           const std::vector<ItemId>& probes,
                           std::vector<Violation>* out) {
  std::vector<Count> batch(probes.size());
  sketch.EstimateBatch(probes, batch);
  for (size_t j = 0; j < probes.size(); ++j) {
    const Count want = sketch.Estimate(probes[j]);
    if (batch[j] != want) {
      out->push_back(MakeViolation(algorithm, "batch-estimate-equivalence",
                                   "EstimateBatch disagrees with Estimate",
                                   probes[j], static_cast<double>(batch[j]),
                                   static_cast<double>(want)));
      if (out->size() >= 8) return;  // cap the noise; one is already fatal
    }
  }
}

std::string DescribeCount(const char* what, Count est, Count truth) {
  std::ostringstream os;
  os << what << ": estimate " << est << " vs exact " << truth;
  return os.str();
}

// ---------------------------------------------------------------------------
// Count-Sketch: Lemma 4/5 per-item error |est - n_q| <= 8 * gamma, and
// EstimateBatch equal to Estimate on every probe (checked at build).
// ---------------------------------------------------------------------------

class CountSketchChecker final : public GuaranteeChecker {
 public:
  const char* Name() const override { return "count-sketch"; }

  bool Supports(Mutation) const override { return true; }

  Result<BuildOutcome> Build(const Stream& stream, const VerifySetup& setup,
                             Mutation mutation) const override {
    STREAMFREQ_ASSIGN_OR_RETURN(SketchPlan plan, PlanCountSketch(setup));
    const std::function<Result<CountSketch>()> make = [&plan]() {
      return CountSketch::Make(plan.params);
    };
    STREAMFREQ_ASSIGN_OR_RETURN(
        CountSketch sketch,
        IngestMutated<CountSketch>(make, stream, mutation,
                                   setup.seed ^ 0x5F5F5F5FULL));
    BuildOutcome out;
    out.context.sketch_depth = plan.params.depth;
    out.context.sketch_width = plan.params.width;
    out.context.lemma_width = plan.lemma_width;
    if (mutation != Mutation::kSequential) {
      // Linearity promise: any ingestion order/partition yields the exact
      // same counters, hence the exact same estimates.
      STREAMFREQ_ASSIGN_OR_RETURN(
          CountSketch reference,
          IngestMutated<CountSketch>(make, stream, Mutation::kSequential, 0));
      CompareSketchProbes(Name(), mutation, sketch, reference, setup.probes,
                          &out.equivalence_violations);
    }
    // At Lemma 5 widths most probes collide with nothing, so every row
    // agrees and a wrong median in the batch path would go unseen; a
    // narrow sketch of the same stream makes the rows disagree.
    CountSketchParams narrow_params = plan.params;
    narrow_params.width = kNarrowWidth;
    STREAMFREQ_ASSIGN_OR_RETURN(CountSketch narrow,
                                CountSketch::Make(narrow_params));
    narrow.BatchAdd(stream);
    for (const CountSketch* s : {&sketch, &narrow}) {
      CompareBatchEstimates(Name(), *s, setup.probes,
                            &out.equivalence_violations);
    }
    out.summary = std::make_unique<RawSketchSummary<CountSketch>>(
        std::move(sketch), "CountSketch(verify)");
    return out;
  }

  std::vector<Violation> Check(const StreamSummary& summary,
                               const Oracle& oracle, const VerifySetup& setup,
                               const CheckContext& context) const override {
    std::vector<Violation> out;
    const size_t width = std::max<size_t>(1, context.sketch_width);
    const double gamma =
        std::sqrt(setup.residual_f2 / static_cast<double>(width));
    const double bound = 8.0 * gamma;
    // Per-row failure: Chebyshev at 8*gamma (1/64) plus the probability of
    // colliding with a top-k item, whose mass is excluded from gamma.
    const double p0 =
        std::min(0.45, 1.0 / 64.0 + static_cast<double>(setup.k) /
                                        static_cast<double>(width));
    const double p_median =
        MedianFailureProbability(context.sketch_depth, p0);
    const size_t allowed = AllowedViolations(setup.probes.size(), p_median);
    size_t violating = 0;
    ItemId first_item = 0;
    double first_error = 0.0;
    for (ItemId q : setup.probes) {
      const double err = std::abs(static_cast<double>(summary.Estimate(q)) -
                                  static_cast<double>(oracle.CountOf(q)));
      if (err > bound) {
        if (violating == 0) {
          first_item = q;
          first_error = err;
        }
        ++violating;
      }
    }
    if (violating > allowed) {
      std::ostringstream detail;
      detail << violating << " of " << setup.probes.size()
             << " probes exceed 8*gamma=" << bound
             << " (first error=" << first_error
             << "); Chernoff allowance is " << allowed;
      out.push_back(MakeViolation(Name(), "per-item-error-8gamma",
                                  detail.str(), first_item,
                                  static_cast<double>(violating),
                                  static_cast<double>(allowed)));
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// ApproxTop: the paper's output contract (Theorem 1) at Lemma 5 sizing.
// ---------------------------------------------------------------------------

class ApproxTopChecker final : public GuaranteeChecker {
 public:
  const char* Name() const override { return "approx-top"; }

  bool Supports(Mutation m) const override {
    // The tracker has no Merge/SerializeTo; its guarantee is per-arrival.
    return m == Mutation::kSequential || m == Mutation::kPermuted ||
           m == Mutation::kBatched;
  }

  Result<BuildOutcome> Build(const Stream& stream, const VerifySetup& setup,
                             Mutation mutation) const override {
    STREAMFREQ_ASSIGN_OR_RETURN(SketchPlan plan, PlanCountSketch(setup));
    const size_t tracked = std::max<size_t>(setup.k + 1, 2 * setup.k);
    const std::function<Result<CountSketchTopK>()> make = [&plan, tracked]() {
      return CountSketchTopK::Make(plan.params, tracked);
    };
    STREAMFREQ_ASSIGN_OR_RETURN(
        CountSketchTopK tracker,
        IngestMutated<CountSketchTopK>(make, stream, mutation,
                                       setup.seed ^ 0xA99A0AAULL));
    BuildOutcome out;
    out.context.sketch_depth = plan.params.depth;
    out.context.sketch_width = plan.params.width;
    out.context.lemma_width = plan.lemma_width;
    out.context.reordered = mutation == Mutation::kPermuted;
    out.summary = std::make_unique<CountSketchTopK>(std::move(tracker));
    return out;
  }

  std::vector<Violation> Check(const StreamSummary& summary,
                               const Oracle& oracle, const VerifySetup& setup,
                               const CheckContext& context) const override {
    std::vector<Violation> out;
    // The theorem's premise is width >= the Lemma 5 bound. When the width
    // was clamped below it (huge low-skew widths), the premise is unmet and
    // there is nothing to enforce — EXCEPT when the run deliberately
    // undersizes via width_scale < 1, which is the demo that the oracle
    // catches broken contracts.
    const bool premise_met = context.lemma_width > 0 &&
                             context.sketch_width >= context.lemma_width &&
                             setup.width_scale >= 1.0;
    const bool deliberate_missize = setup.width_scale < 1.0;
    if (!premise_met && !deliberate_missize) return out;
    const ApproxTopVerdict verdict = CheckApproxTop(
        summary.Candidates(setup.k), oracle.counts(), setup.k, setup.epsilon);
    if (verdict.violations_low > 0) {
      std::ostringstream detail;
      detail << verdict.violations_low << " candidate(s) below (1-eps)*n_k = "
             << (1.0 - setup.epsilon) * setup.nk;
      out.push_back(MakeViolation(Name(), "candidate-below-floor",
                                  detail.str(), 0,
                                  static_cast<double>(verdict.violations_low),
                                  0.0));
    }
    if (verdict.violations_missing > 0) {
      std::ostringstream detail;
      detail << verdict.violations_missing
             << " item(s) with n_i >= (1+eps)*n_k = "
             << (1.0 + setup.epsilon) * setup.nk << " missing from output";
      out.push_back(MakeViolation(
          Name(), "heavy-item-missing", detail.str(), 0,
          static_cast<double>(verdict.violations_missing), 0.0));
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Count-Min (plain and conservative-update): one-sided overestimates.
// ---------------------------------------------------------------------------

class CountMinChecker final : public GuaranteeChecker {
 public:
  explicit CountMinChecker(bool conservative) : conservative_(conservative) {}

  const char* Name() const override {
    return conservative_ ? "count-min-cu" : "count-min";
  }

  bool Supports(Mutation m) const override {
    // CountMin has Merge but no serialization; the conservative-update
    // variant additionally refuses Merge (its counters are not linear).
    if (m == Mutation::kSerializeMidStream) return false;
    if (conservative_ &&
        (m == Mutation::kSplitMerge || m == Mutation::kParallel)) {
      return false;
    }
    return true;
  }

  Result<BuildOutcome> Build(const Stream& stream, const VerifySetup& setup,
                             Mutation mutation) const override {
    STREAMFREQ_ASSIGN_OR_RETURN(SketchPlan plan, PlanCountSketch(setup));
    CountMinParams params;
    params.depth = plan.params.depth;
    params.width = plan.params.width;
    params.seed = setup.seed ^ 0xC417317ULL;
    params.conservative = conservative_;
    const std::function<Result<CountMin>()> make = [params]() {
      return CountMin::Make(params);
    };
    STREAMFREQ_ASSIGN_OR_RETURN(
        CountMin sketch, IngestMutated<CountMin>(make, stream, mutation,
                                                 setup.seed ^ 0xCE11ULL));
    BuildOutcome out;
    out.context.sketch_depth = params.depth;
    out.context.sketch_width = params.width;
    out.context.merged = mutation == Mutation::kSplitMerge ||
                         mutation == Mutation::kParallel;
    out.context.reordered = mutation == Mutation::kPermuted;
    // The plain sketch is linear: every supported mutation must reproduce
    // the sequential state exactly. Conservative update is order-dependent,
    // but its BatchAdd documents an exact in-order fallback.
    const bool exact_relation = !conservative_ ||
                                mutation == Mutation::kBatched ||
                                mutation == Mutation::kBatchedScalar;
    if (mutation != Mutation::kSequential && exact_relation) {
      STREAMFREQ_ASSIGN_OR_RETURN(
          CountMin reference,
          IngestMutated<CountMin>(make, stream, Mutation::kSequential, 0));
      CompareSketchProbes(Name(), mutation, sketch, reference, setup.probes,
                          &out.equivalence_violations);
    }
    out.summary = std::make_unique<RawSketchSummary<CountMin>>(
        std::move(sketch),
        conservative_ ? "CountMinCU(verify)" : "CountMin(verify)");
    return out;
  }

  std::vector<Violation> Check(const StreamSummary& summary,
                               const Oracle& oracle, const VerifySetup& setup,
                               const CheckContext& context) const override {
    std::vector<Violation> out;
    const size_t width = std::max<size_t>(1, context.sketch_width);
    // est <= true + e*n/width holds per item w.p. 1 - e^-depth (Markov per
    // row at e times the expected collision mass, all rows must fail).
    const double over_bound = std::exp(1.0) * static_cast<double>(setup.n) /
                              static_cast<double>(width);
    const double p_item = std::min(
        0.45, std::exp(-static_cast<double>(context.sketch_depth)));
    const size_t allowed = AllowedViolations(setup.probes.size(), p_item);
    size_t overestimating = 0;
    ItemId first_item = 0;
    for (ItemId q : setup.probes) {
      const Count est = summary.Estimate(q);
      const Count truth = oracle.CountOf(q);
      if (est < truth) {
        // Deterministic: the min over rows can never lose occurrences.
        out.push_back(MakeViolation(
            Name(), "one-sided-overestimate",
            DescribeCount("estimate fell below the true count", est, truth),
            q, static_cast<double>(est), static_cast<double>(truth)));
        return out;
      }
      if (static_cast<double>(est - truth) > over_bound) {
        if (overestimating == 0) first_item = q;
        ++overestimating;
      }
    }
    if (overestimating > allowed) {
      std::ostringstream detail;
      detail << overestimating << " of " << setup.probes.size()
             << " probes exceed true + e*n/b = true + " << over_bound
             << "; Chernoff allowance is " << allowed;
      out.push_back(MakeViolation(Name(), "overestimate-bound", detail.str(),
                                  first_item,
                                  static_cast<double>(overestimating),
                                  static_cast<double>(allowed)));
    }
    return out;
  }

 private:
  bool conservative_;
};

// ---------------------------------------------------------------------------
// Misra-Gries: deterministic n/(c+1) undercount bounds.
// ---------------------------------------------------------------------------

class MisraGriesChecker final : public GuaranteeChecker {
 public:
  const char* Name() const override { return "misra-gries"; }

  bool Supports(Mutation m) const override {
    // Counter summaries have no scalar/SIMD split (no BatchAddScalar).
    return m != Mutation::kSerializeMidStream &&
           m != Mutation::kBatchedScalar;
  }

  Result<BuildOutcome> Build(const Stream& stream, const VerifySetup& setup,
                             Mutation mutation) const override {
    const size_t capacity = std::max<size_t>(2 * setup.k, 8);
    const std::function<Result<MisraGries>()> make = [capacity]() {
      return MisraGries::Make(capacity);
    };
    STREAMFREQ_ASSIGN_OR_RETURN(
        MisraGries summary,
        IngestMutated<MisraGries>(make, stream, mutation,
                                  setup.seed ^ 0x316B1ULL));
    BuildOutcome out;
    out.context.counter_capacity = capacity;
    out.context.merged = mutation == Mutation::kSplitMerge ||
                         mutation == Mutation::kParallel;
    out.context.reordered = mutation == Mutation::kPermuted ||
                            mutation == Mutation::kBatched ||
                            out.context.merged;
    out.summary = std::make_unique<MisraGries>(std::move(summary));
    return out;
  }

  std::vector<Violation> Check(const StreamSummary& summary,
                               const Oracle& oracle, const VerifySetup& setup,
                               const CheckContext& context) const override {
    std::vector<Violation> out;
    const auto* mg = dynamic_cast<const MisraGries*>(&summary);
    const size_t capacity =
        mg != nullptr ? mg->capacity() : context.counter_capacity;
    if (capacity == 0) return out;  // nothing checkable without a capacity
    const double nd = static_cast<double>(setup.n);
    const double error_bound = nd / static_cast<double>(capacity + 1);
    if (mg != nullptr &&
        static_cast<double>(mg->MaxError()) > error_bound) {
      std::ostringstream detail;
      detail << "MaxError() " << mg->MaxError() << " exceeds n/(c+1) = "
             << error_bound;
      out.push_back(MakeViolation(Name(), "max-error-bound", detail.str(), 0,
                                  static_cast<double>(mg->MaxError()),
                                  error_bound));
    }
    for (ItemId q : setup.probes) {
      const Count est = summary.Estimate(q);
      const Count truth = oracle.CountOf(q);
      if (est > truth) {
        out.push_back(MakeViolation(
            Name(), "underestimate-only",
            DescribeCount("counter exceeds the true count", est, truth), q,
            static_cast<double>(est), static_cast<double>(truth)));
        break;
      }
      const double undercount = static_cast<double>(truth - est);
      if (undercount > error_bound) {
        std::ostringstream detail;
        detail << "undercount " << undercount << " exceeds n/(c+1) = "
               << error_bound;
        out.push_back(MakeViolation(Name(), "undercount-bound", detail.str(),
                                    q, undercount, error_bound));
        break;
      }
      if (mg != nullptr &&
          undercount > static_cast<double>(mg->MaxError())) {
        std::ostringstream detail;
        detail << "undercount " << undercount
               << " exceeds the instance bound MaxError() = "
               << mg->MaxError();
        out.push_back(MakeViolation(Name(), "instance-error-bound",
                                    detail.str(), q, undercount,
                                    static_cast<double>(mg->MaxError())));
        break;
      }
      if (static_cast<double>(truth) > error_bound && est == 0) {
        std::ostringstream detail;
        detail << "item with n_q " << truth << " > n/(c+1) = " << error_bound
               << " is not monitored";
        out.push_back(MakeViolation(Name(), "heavy-item-monitored",
                                    detail.str(), q,
                                    static_cast<double>(truth), error_bound));
        break;
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Space-Saving: overestimate brackets and the n/c minimum-count bound.
// ---------------------------------------------------------------------------

class SpaceSavingChecker final : public GuaranteeChecker {
 public:
  const char* Name() const override { return "space-saving"; }

  bool Supports(Mutation m) const override {
    // Counter summaries have no scalar/SIMD split (no BatchAddScalar).
    return m != Mutation::kSerializeMidStream &&
           m != Mutation::kBatchedScalar;
  }

  Result<BuildOutcome> Build(const Stream& stream, const VerifySetup& setup,
                             Mutation mutation) const override {
    const size_t capacity = std::max<size_t>(2 * setup.k, 8);
    const std::function<Result<SpaceSaving>()> make = [capacity]() {
      return SpaceSaving::Make(capacity);
    };
    STREAMFREQ_ASSIGN_OR_RETURN(
        SpaceSaving summary,
        IngestMutated<SpaceSaving>(make, stream, mutation,
                                   setup.seed ^ 0x57AC3ULL));
    BuildOutcome out;
    out.context.counter_capacity = capacity;
    out.context.merged = mutation == Mutation::kSplitMerge ||
                         mutation == Mutation::kParallel;
    out.context.reordered = mutation == Mutation::kPermuted ||
                            mutation == Mutation::kBatched ||
                            out.context.merged;
    out.summary = std::make_unique<SpaceSaving>(std::move(summary));
    return out;
  }

  std::vector<Violation> Check(const StreamSummary& summary,
                               const Oracle& oracle, const VerifySetup& setup,
                               const CheckContext& context) const override {
    std::vector<Violation> out;
    const auto* ss = dynamic_cast<const SpaceSaving*>(&summary);
    const size_t capacity =
        ss != nullptr ? ss->capacity() : context.counter_capacity;
    const Count min_count = ss != nullptr ? ss->MinCount() : 0;
    // min_count <= n/c: the monitored counts sum to exactly n (each arrival
    // adds its weight once), so the minimum of c of them is at most n/c.
    // Merging adds the other side's MinCount into entries, which breaks the
    // sum-to-n argument — skip the bound for merged summaries.
    if (ss != nullptr && !context.merged && capacity > 0) {
      const double bound =
          static_cast<double>(setup.n) / static_cast<double>(capacity);
      if (static_cast<double>(min_count) > bound) {
        std::ostringstream detail;
        detail << "MinCount() " << min_count << " exceeds n/c = " << bound;
        out.push_back(MakeViolation(Name(), "min-count-bound", detail.str(),
                                    0, static_cast<double>(min_count),
                                    bound));
      }
    }
    for (ItemId q : setup.probes) {
      const Count est = summary.Estimate(q);
      const Count truth = oracle.CountOf(q);
      if (est < truth) {
        out.push_back(MakeViolation(
            Name(), "overestimate-only",
            DescribeCount("estimate fell below the true count", est, truth),
            q, static_cast<double>(est), static_cast<double>(truth)));
        break;
      }
      // est <= true + MinCount: the inherited error of a monitored entry
      // never exceeds the final minimum. Merged errors may exceed the
      // merged MinCount, so this bracket is unmerged-only.
      if (ss != nullptr && !context.merged && est > truth + min_count) {
        std::ostringstream detail;
        detail << "estimate " << est << " exceeds true + MinCount = "
               << truth + min_count;
        out.push_back(MakeViolation(Name(), "overestimate-bracket",
                                    detail.str(), q, static_cast<double>(est),
                                    static_cast<double>(truth + min_count)));
        break;
      }
    }
    // count - error is a certified lower bound for every monitored item,
    // merged or not (the merge adds matching upper/lower slack).
    if (ss != nullptr) {
      for (const ItemCount& entry : ss->Candidates(capacity)) {
        const Count truth = oracle.CountOf(entry.item);
        const Count lower = entry.count - ss->ErrorOf(entry.item);
        if (lower > truth) {
          std::ostringstream detail;
          detail << "certified lower bound count - error = " << lower
                 << " exceeds the true count " << truth;
          out.push_back(MakeViolation(Name(), "certified-lower-bound",
                                      detail.str(), entry.item,
                                      static_cast<double>(lower),
                                      static_cast<double>(truth)));
          break;
        }
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Lossy Counting: eps-deficient underestimates.
// ---------------------------------------------------------------------------

class LossyCountingChecker final : public GuaranteeChecker {
 public:
  const char* Name() const override { return "lossy-counting"; }

  bool Supports(Mutation m) const override {
    // No Merge, no serialization; BatchAdd is the in-order default.
    return m == Mutation::kSequential || m == Mutation::kPermuted ||
           m == Mutation::kBatched;
  }

  Result<BuildOutcome> Build(const Stream& stream, const VerifySetup& setup,
                             Mutation mutation) const override {
    const double eps_lc =
        std::clamp(setup.epsilon / 4.0, 1e-6, 0.5);
    const std::function<Result<LossyCounting>()> make = [eps_lc]() {
      return LossyCounting::Make(eps_lc);
    };
    STREAMFREQ_ASSIGN_OR_RETURN(
        LossyCounting summary,
        IngestMutated<LossyCounting>(make, stream, mutation,
                                     setup.seed ^ 0x10557ULL));
    BuildOutcome out;
    out.context.lossy_epsilon = eps_lc;
    out.context.reordered = mutation == Mutation::kPermuted;
    out.summary = std::make_unique<LossyCounting>(std::move(summary));
    return out;
  }

  std::vector<Violation> Check(const StreamSummary& summary,
                               const Oracle& oracle, const VerifySetup& setup,
                               const CheckContext& context) const override {
    std::vector<Violation> out;
    const auto* lc = dynamic_cast<const LossyCounting*>(&summary);
    const double eps_lc =
        lc != nullptr ? lc->epsilon() : context.lossy_epsilon;
    if (!(eps_lc > 0.0)) return out;
    // +1 absorbs the ceil(1/eps) bucket-width rounding.
    const double bound = eps_lc * static_cast<double>(setup.n) + 1.0;
    for (ItemId q : setup.probes) {
      const Count est = summary.Estimate(q);
      const Count truth = oracle.CountOf(q);
      if (est > truth) {
        out.push_back(MakeViolation(
            Name(), "underestimate-only",
            DescribeCount("stored f exceeds the true count", est, truth), q,
            static_cast<double>(est), static_cast<double>(truth)));
        break;
      }
      const double undercount = static_cast<double>(truth - est);
      if (undercount > bound) {
        std::ostringstream detail;
        detail << "undercount " << undercount << " exceeds eps*n = " << bound;
        out.push_back(MakeViolation(Name(), "eps-deficiency", detail.str(), q,
                                    undercount, bound));
        break;
      }
    }
    return out;
  }
};

}  // namespace

Result<VerifySketchPlan> PlanVerifyCountSketch(const VerifySetup& setup) {
  STREAMFREQ_ASSIGN_OR_RETURN(SketchPlan plan, PlanCountSketch(setup));
  VerifySketchPlan out;
  out.params = plan.params;
  out.lemma_width = plan.lemma_width;
  return out;
}

std::vector<Violation> CheckCountSketchAgainstOracle(const CountSketch& sketch,
                                                     const Oracle& oracle,
                                                     const VerifySetup& setup,
                                                     size_t lemma_width) {
  const CountSketchChecker checker;
  CheckContext context;
  context.sketch_depth = sketch.depth();
  context.sketch_width = sketch.width();
  context.lemma_width = lemma_width;
  const RawSketchSummary<CountSketch> summary(sketch, "CountSketch(chaos)");
  std::vector<Violation> out = checker.Check(summary, oracle, setup, context);
  CompareBatchEstimates(checker.Name(), sketch, setup.probes, &out);
  return out;
}

const std::vector<std::unique_ptr<GuaranteeChecker>>& DefaultCheckers() {
  static const std::vector<std::unique_ptr<GuaranteeChecker>>* kCheckers =
      [] {
        auto* checkers = new std::vector<std::unique_ptr<GuaranteeChecker>>();
        checkers->push_back(std::make_unique<CountSketchChecker>());
        checkers->push_back(std::make_unique<ApproxTopChecker>());
        checkers->push_back(std::make_unique<CountMinChecker>(false));
        checkers->push_back(std::make_unique<CountMinChecker>(true));
        checkers->push_back(std::make_unique<MisraGriesChecker>());
        checkers->push_back(std::make_unique<SpaceSavingChecker>());
        checkers->push_back(std::make_unique<LossyCountingChecker>());
        return checkers;
      }();
  return *kCheckers;
}

}  // namespace streamfreq
