// Guarantee checkers: the paper's theorems as executable oracles.
//
// Each GuaranteeChecker owns one algorithm: it knows how to BUILD a summary
// from a fuzz program's stream under a metamorphic mutation, and how to
// CHECK the built summary against the exact oracle. Build and Check are
// separate so tests can feed Check a deliberately broken StreamSummary and
// prove each guarantee actually fires (a checker that never fires verifies
// nothing).
//
// Contract table (see docs/VERIFICATION.md for the full derivations):
//   count-sketch    |est - n_q| <= 8*gamma, gamma = sqrt(F2^{>k}/b); the
//                   number of offending probes is bounded by the Chernoff
//                   allowance from the median failure probability (Lemma 4).
//                   Also: mutated ingest must be bit-equal to sequential.
//   approx-top      ApproxTop(S, k, eps) output contract (Theorem 1) when
//                   the sketch is sized per Lemma 5.
//   count-min       true <= est (always); est <= true + e*n/b w.p. 1-e^-t.
//   count-min-cu    same bounds (conservative update only tightens).
//   misra-gries     est <= true; true - est <= n/(c+1); MaxError() instance
//                   bound; every item with n_q > n/(c+1) is monitored.
//   space-saving    true <= est; est <= true + MinCount; count - error is a
//                   lower bound; MinCount <= n/c (unmerged).
//   lossy-counting  est <= true; true - est <= eps_lc * n.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/count_sketch.h"
#include "core/frequent.h"
#include "stream/types.h"
#include "util/result.h"
#include "verify/oracle.h"
#include "verify/program.h"
#include "verify/violation.h"

namespace streamfreq {

/// Everything a checker needs about one verification run: the guarantee
/// parameters and the oracle-derived stream statistics.
struct VerifySetup {
  size_t k = 10;             ///< top-k target (clamped to distinct items)
  double epsilon = 0.2;      ///< ApproxTop slack
  double delta = 0.02;       ///< sketch failure probability for Lemma 5
  double width_scale = 1.0;  ///< sketch width multiplier vs Lemma 5
  uint64_t seed = 1;
  Count n = 0;               ///< stream length
  size_t distinct = 0;
  double nk = 0.0;           ///< exact n_k
  double residual_f2 = 0.0;  ///< exact F2^{>k}
  /// Items whose estimates are compared against exact counts: true top-2k,
  /// a strided tail sample, and a few never-seen ids.
  std::vector<ItemId> probes;
};

/// Derives the setup (statistics + probe set) from the exact oracle.
VerifySetup MakeVerifySetup(size_t k, double epsilon, double width_scale,
                            uint64_t seed, const Oracle& oracle);

/// How the summary under check was built — which bounds apply.
struct CheckContext {
  bool merged = false;     ///< built by Merge of partial summaries
  bool reordered = false;  ///< ingested in a different order than the stream
  size_t sketch_depth = 0;
  size_t sketch_width = 0;
  /// The unclamped Lemma 5 width. When sketch_width was clamped below it,
  /// the ApproxTop premise is unmet and its checker stands down (unless the
  /// run deliberately undersizes via width_scale < 1).
  size_t lemma_width = 0;
  size_t counter_capacity = 0;  ///< c for MG / Space-Saving
  double lossy_epsilon = 0.0;   ///< eps_lc for Lossy Counting
};

/// A built summary plus how it was built. `equivalence_violations` carries
/// metamorphic mismatches found during the build itself (a linear sketch
/// whose mutated ingest disagrees with sequential ingest).
struct BuildOutcome {
  std::unique_ptr<StreamSummary> summary;
  CheckContext context;
  std::vector<Violation> equivalence_violations;
};

/// One algorithm's executable guarantee.
class GuaranteeChecker {
 public:
  virtual ~GuaranteeChecker() = default;

  /// Stable checker name, e.g. "count-sketch".
  virtual const char* Name() const = 0;

  /// Whether this algorithm supports ingesting under `m` (e.g. summaries
  /// without Merge cannot do split-merge).
  virtual bool Supports(Mutation m) const = 0;

  /// Builds the summary from `stream` under `mutation`, verifying the
  /// metamorphic relation where the algorithm promises exact equivalence.
  virtual Result<BuildOutcome> Build(const Stream& stream,
                                     const VerifySetup& setup,
                                     Mutation mutation) const = 0;

  /// Checks `summary` against the oracle. Extra state of the concrete type
  /// (MaxError, MinCount, ...) is reached via dynamic_cast when available,
  /// so interface-level bounds still apply to any StreamSummary (including
  /// the deliberately broken fakes in tests).
  virtual std::vector<Violation> Check(const StreamSummary& summary,
                                       const Oracle& oracle,
                                       const VerifySetup& setup,
                                       const CheckContext& context) const = 0;
};

/// The registry of all checkers, one per algorithm, in a stable order.
const std::vector<std::unique_ptr<GuaranteeChecker>>& DefaultCheckers();

/// Lemma 5 sizing for `setup`, with the practical clamps the checkers
/// compensate for (depth 4..16, width 8..65536). `lemma_width` preserves
/// the unclamped theorem width. Exposed for builders outside the checker
/// registry — the chaos harness sizes its sketches with this so degraded
/// runs are judged against the same bounds as clean ones.
struct VerifySketchPlan {
  CountSketchParams params;
  size_t lemma_width = 0;
};
Result<VerifySketchPlan> PlanVerifyCountSketch(const VerifySetup& setup);

/// Runs the count-sketch guarantee check (Lemma 4/5 per-item error with the
/// Chernoff allowance, and EstimateBatch equal to Estimate on every probe)
/// against a sketch built elsewhere — the chaos harness's path for
/// sketches that survived fault injection. `oracle` and
/// `setup` must describe the *effective* stream (what actually reached the
/// sketch), so shed mass widens the bounds by exactly the dropped amount.
std::vector<Violation> CheckCountSketchAgainstOracle(const CountSketch& sketch,
                                                     const Oracle& oracle,
                                                     const VerifySetup& setup,
                                                     size_t lemma_width);

}  // namespace streamfreq
