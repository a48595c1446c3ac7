// Deterministic in-process merge-tree engine.
//
// MergeTreeSim runs the whole fleet — N ingesting leaves shipping sketch
// deltas up a TreeTopology to a root — inside one thread, with every fault
// injected through the five dist.* failpoints (docs/ROBUSTNESS.md):
//
//   dist.ingest   admission at a leaf: error rejects the whole batch,
//                 torn sheds a recorded suffix (both land in the ledger)
//   dist.ship     the uplink frame never arrives / arrives torn or
//                 bit-flipped (CRC must catch it) — link severed, resend
//   dist.deliver  parent drops a valid delta before applying, still acks
//                 its OLD cumulative seqno — sender resends
//   dist.ack      the ack is lost — sender resends, receiver dedups
//   dist.node     crash kills the node permanently (no restart)
//
// The engine exists so chaos --tree and the dist tests can drive thousands
// of seeded fleet runs per second and assert the two exact laws:
//
//   1. the root sketch is bit-identical to the sketch of the COVERED
//      prefix of every leaf stream (delta linearity — holds even mid-run,
//      even with loss), and
//   2. the conservation ledger composes: every node's ledger is the sum of
//      its children's applied increments plus its own, and the law
//      `offered − rejected == ingested + dropped` holds at each of them.
//
// The process-backed deployment of the same protocol is src/dist/
// aggregate.{h,cc}; the wire bytes are identical (delta.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "core/space_saving.h"
#include "dist/delta.h"
#include "dist/tree.h"
#include "stream/exact_counter.h"
#include "stream/types.h"
#include "util/result.h"
#include "util/status.h"

namespace streamfreq {

/// Aggregate transport/fault counters for one sim run.
struct MergeTreeStats {
  uint64_t deltas_shipped = 0;   ///< frames sent (incl. resends)
  uint64_t deltas_applied = 0;   ///< fresh deltas merged at a parent
  uint64_t delta_dedups = 0;     ///< re-deliveries skipped by seqno
  uint64_t severed_links = 0;    ///< frames lost/torn/bit-flipped in flight
  uint64_t dropped_deliveries = 0;  ///< dist.deliver drops before apply
  uint64_t lost_acks = 0;        ///< acks the sender never saw
  uint64_t nodes_lost = 0;       ///< dist.node permanent deaths
  uint64_t batches_rejected = 0;  ///< dist.ingest whole-batch rejections
  uint64_t batches_torn = 0;      ///< dist.ingest recorded-suffix sheds
};

class MergeTreeSim {
 public:
  /// `tracked` is the per-leaf SpaceSaving capacity feeding the candidate
  /// union the root scores for ApproxTop / MaxChange.
  static Result<MergeTreeSim> Make(TreeTopology topology,
                                   const CountSketchParams& params,
                                   size_t tracked);

  /// Offers a batch to leaf `node` (must be a leaf id from the topology).
  /// Admission runs the dist.ingest failpoint; a dead leaf refuses with
  /// Unavailable and the batch never enters any ledger.
  Status Offer(uint64_t node, std::span<const ItemId> batch);

  /// Marks every live leaf final: its next delta carries the final flag.
  void Seal();

  /// One bottom-up shipping pass: every live non-root node attempts to
  /// ship its pending/next delta one hop. Returns true if any delta was
  /// applied (progress toward the root).
  Result<bool> ShipRound();

  /// Runs ShipRound until quiescent (no pending deltas anywhere and no
  /// unshipped progress) or `max_rounds` is exhausted. With failpoints
  /// disarmed, at most depth+1 rounds are needed.
  Status Drain(uint64_t max_rounds);

  /// True when no live node has anything left to ship.
  bool Quiescent() const;

  // --- root queries -------------------------------------------------------

  const CountSketch& root_sketch() const { return nodes_[0].acc; }

  /// Composed ledger at the root: its children's applied increments (the
  /// root ingests nothing itself).
  DistLedger root_ledger() const { return TotalLedger(0); }

  /// Per-leaf covered watermarks the root currently accounts for.
  std::vector<CoverageEntry> RootCovered() const;

  /// Global top-k: the candidate union shipped up the tree, scored on the
  /// root sketch, ties broken toward smaller ids.
  std::vector<ItemCount> ApproxTop(size_t k) const;

  int64_t EstimatePoint(ItemId item) const {
    return nodes_[0].acc.Estimate(item);
  }

  /// Two-pass max-change over the subtractive structure: MarkEpoch copies
  /// the root sketch; MaxChange scores the candidate union on
  /// (current − epoch) and returns the k largest |delta|.
  void MarkEpoch() { epoch_ = nodes_[0].acc; }
  Result<std::vector<ItemCount>> MaxChange(size_t k) const;

  // --- inspection ---------------------------------------------------------

  const MergeTreeStats& stats() const { return stats_; }
  const TreeTopology& topology() const { return topo_; }
  bool alive(uint64_t node) const { return nodes_[node].alive; }

  /// Items leaf `node` actually ingested (admitted, post-shed), in order.
  /// The covered watermark indexes into this stream — the reference sketch
  /// for bit-identity checks is built from its covered prefix.
  const std::vector<ItemId>& LeafIngested(uint64_t node) const {
    return nodes_[node].ingested_items;
  }

  /// Composed ledger at `node` (own + children's applied increments).
  DistLedger TotalLedger(uint64_t node) const;

  /// Checks the exact laws everywhere: per-node conservation (own, each
  /// applied child sum, and the composed total), at-most-once accounting
  /// (a parent's applied sum for a child never exceeds what that child has
  /// produced), ingested == Σ covered at every node, and sketch
  /// bit-identity at EVERY node against its covered-prefix reference. Any
  /// violation is Internal with a diagnostic.
  Status CheckInvariants() const;

 private:
  struct Node {
    explicit Node(CountSketch zero) : acc(std::move(zero)) {}

    bool alive = true;
    bool final_local = false;  ///< Seal() reached this node
    CountSketch acc;           ///< leaf: ingested; interior: applied merges
    DistLedger own;            ///< leaf admission ledger (interior: zero)
    /// Per-child sum of applied ledger increments. TotalLedger = own +
    /// Σ values — the composition law asserted by CheckInvariants.
    std::map<uint64_t, DistLedger> child_ledgers;
    std::map<uint64_t, uint64_t> covered;   ///< leaf_id -> watermark
    std::map<uint64_t, std::vector<ItemId>> child_candidates;
    std::map<uint64_t, bool> child_final;
    std::optional<SpaceSaving> tracker;     ///< leaves only
    std::vector<ItemId> ingested_items;     ///< leaves only
    std::optional<DeltaChannel> up;         ///< non-root only
    std::map<uint64_t, DeltaReceiver> receivers;  ///< per child
  };

  MergeTreeSim(TreeTopology topo, CountSketch zero);

  /// The candidate union `node` would ship upward (every item its own
  /// tracker monitors plus every child's last snapshot), sorted and deduped.
  std::vector<ItemId> CandidateUnion(uint64_t node) const;
  std::vector<CoverageEntry> CoveredSnapshot(uint64_t node) const;
  bool FinalReady(uint64_t node) const;

  /// Delivers `frame` from `child` to `parent`; returns the cumulative ack
  /// seqno, or nullopt when the link severed (torn/bitflip caught by CRC).
  Result<std::optional<uint64_t>> Deliver(uint64_t parent, uint64_t child,
                                          const std::string& frame,
                                          bool* applied);

  TreeTopology topo_;
  CountSketchParams params_;
  std::vector<Node> nodes_;
  CountSketch epoch_;
  std::vector<uint64_t> bottom_up_;
  MergeTreeStats stats_;
};

}  // namespace streamfreq
