// One merge-tree node: the state machine every transport drives.
//
// The paper's Count-Sketch is linear, so the sketch of a fleet's stream is
// the sum of its leaves' sketches, and `current − acked` is the sketch of
// what a node has not yet reported. A FleetNode holds everything one node
// of the merge tree knows and does everything it does:
//
//   leaf       admits batches (sketch + SpaceSaving tracker + admission
//              ledger + its own coverage watermark)
//   interior   applies or dedups each child's delta (DeltaReceiver) and
//              answers with the cumulative ack
//   non-root   builds the next uplink payload (DeltaChannel): the sketch
//              delta, the composed ledger increment, the coverage snapshot
//              and the candidate union
//   root       ranks the top-k and the max-change over the candidate union
//
// What moves the bytes is the transport's business: MergeTreeSim
// (merge_tree.h) carries them over in-process links under the dist.*
// failpoints, and `sfq aggregate` (aggregate.h) over unix sockets between
// forked processes. Both speak the same SFQDLT01 / SFQDAK01 payloads.
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

class FleetNode {
 public:
  /// Node `id` of `topo`, starting from the empty sketch `zero`. A leaf
  /// gets a SpaceSaving tracker of capacity `tracked` (which must be >= 1);
  /// every node but the root gets an uplink channel.
  static Result<FleetNode> Make(const TreeTopology& topo, uint64_t id,
                                const CountSketch& zero, size_t tracked);

  uint64_t id() const { return id_; }

  // --- leaf admission -----------------------------------------------------

  /// Records a batch of `items` refused whole: offered and rejected, never
  /// sketched.
  void Reject(uint64_t items);

  /// Admits the first `keep` items of `batch` into the sketch, the tracker
  /// and the coverage watermark; the rest of the batch is a recorded shed
  /// (offered and dropped).
  void Admit(std::span<const ItemId> batch, size_t keep);

  // --- child links --------------------------------------------------------

  /// Applies `delta` from the child it names, or dedups a re-delivery, and
  /// returns the cumulative ack for that child. `*applied` says which.
  /// Outside input is checked before anything moves: a sender that is not
  /// a child, a seqno gap, coverage entries out of leaf order, a coverage
  /// watermark that moves backwards, or a sketch that does not decode or
  /// match is Corruption, and the node is left as it was.
  Result<uint64_t> Apply(const DeltaPayload& delta, bool* applied);

  /// The last seqno applied from `child` (its cumulative ack).
  uint64_t LastApplied(uint64_t child) const;

  /// True once `child`'s final delta has been applied.
  bool ChildFinal(uint64_t child) const;

  /// Σ of the ledger increments applied from `child`.
  DistLedger AppliedFrom(uint64_t child) const;

  /// Fresh deltas applied and re-deliveries deduped, over all children.
  uint64_t deltas_applied() const;
  uint64_t delta_dedups() const;

  // --- uplink (non-root only) ---------------------------------------------

  /// The next payload to send up, or the still-unacked one verbatim;
  /// nullopt when there is nothing to ship.
  Result<std::optional<std::string>> NextUplink(bool final_flag);

  /// Folds the parent's cumulative ack into the uplink channel.
  Status Acked(uint64_t last_applied_seqno) {
    return up_->Acked(last_applied_seqno);
  }

  /// True when NextUplink(final_flag) would return nullopt.
  bool NothingToShip(bool final_flag) const {
    return up_->NothingToShip(TotalLedger(), final_flag);
  }

  // --- state --------------------------------------------------------------

  const CountSketch& sketch() const { return acc_; }
  const DistLedger& own_ledger() const { return own_; }

  /// Own ledger plus every child's applied increments: the composition law.
  DistLedger TotalLedger() const;

  /// leaf_id -> covered watermark this node's sketch accounts for.
  const std::map<uint64_t, uint64_t>& covered() const { return covered_; }
  std::vector<CoverageEntry> Coverage() const;

  /// Every item the tracker monitors plus every child's latest candidates,
  /// sorted and deduped.
  std::vector<ItemId> CandidateUnion() const;

  /// Top-k of the candidate union scored on this node's sketch.
  std::vector<ItemCount> ApproxTop(size_t k) const;

  /// The k candidates whose estimates moved most since `epoch`, scored on
  /// (sketch − epoch) by |change|.
  Result<std::vector<ItemCount>> MaxChange(const CountSketch& epoch,
                                           size_t k) const;

 private:
  struct Child {
    DeltaReceiver receiver;
    DistLedger applied;             ///< Σ applied ledger increments
    std::vector<ItemId> candidates;  ///< latest snapshot (absolute)
    bool final = false;
  };

  FleetNode(uint64_t id, const CountSketch& zero) : id_(id), acc_(zero) {}

  uint64_t id_;
  CountSketch acc_;  ///< leaf: ingested; interior: applied merges
  DistLedger own_;   ///< leaf admission ledger (interior: zero)
  std::map<uint64_t, Child> children_;
  std::map<uint64_t, uint64_t> covered_;
  std::optional<SpaceSaving> tracker_;  ///< leaves only
  std::optional<DeltaChannel> up_;      ///< non-root only
};

}  // namespace streamfreq
