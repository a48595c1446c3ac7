#include "dist/merge_tree.h"

#include <algorithm>
#include <utility>

#include "server/protocol.h"
#include "util/failpoint.h"

namespace streamfreq {

MergeTreeSim::MergeTreeSim(TreeTopology topo, CountSketch zero,
                           std::vector<Node> nodes)
    : topo_(std::move(topo)),
      params_(zero.params()),
      nodes_(std::move(nodes)),
      epoch_(std::move(zero)),
      bottom_up_(topo_.BottomUpOrder()) {}

Result<MergeTreeSim> MergeTreeSim::Make(TreeTopology topology,
                                        const CountSketchParams& params,
                                        size_t tracked) {
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch zero, CountSketch::Make(params));
  std::vector<Node> nodes;
  nodes.reserve(topology.size());
  for (uint64_t u = 0; u < topology.size(); ++u) {
    STREAMFREQ_ASSIGN_OR_RETURN(FleetNode node,
                                FleetNode::Make(topology, u, zero, tracked));
    nodes.emplace_back(std::move(node));
  }
  return MergeTreeSim(std::move(topology), std::move(zero), std::move(nodes));
}

Status MergeTreeSim::Offer(uint64_t node, std::span<const ItemId> batch) {
  if (node >= nodes_.size() || !topo_.is_leaf(node)) {
    return Status::InvalidArgument("Offer target is not a leaf");
  }
  Node& n = nodes_[node];
  if (!n.alive) {
    return Status::NotFound("leaf is dead");  // never enters any ledger
  }
  if (n.sealed) {
    return Status::InvalidArgument("leaf is sealed");
  }
  size_t keep = batch.size();
  const FailDecision fp = SFQ_FAILPOINT("dist.ingest");
  if (fp.action == FailAction::kCrash) {
    // The leaf dies at the admission gate; the batch was never offered.
    n.alive = false;
    ++stats_.nodes_lost;
    return Status::NotFound("leaf died at admission");
  }
  if (fp.action == FailAction::kError) {
    // Whole-batch rejection: refused mass, accounted but never sketched.
    n.state.Reject(batch.size());
    ++stats_.batches_rejected;
    return Status::OK();
  }
  if (fp.action == FailAction::kTorn) {
    // Recorded shed: a prefix is admitted, the suffix is dropped — the
    // ledger says exactly how much (param = items kept, 0 = half).
    keep = fp.param != 0 ? std::min<size_t>(fp.param, batch.size())
                         : batch.size() / 2;
    ++stats_.batches_torn;
  }
  n.state.Admit(batch, keep);
  n.ingested_items.insert(n.ingested_items.end(), batch.begin(),
                          batch.begin() + keep);
  return Status::OK();
}

void MergeTreeSim::Seal() {
  for (uint64_t leaf : topo_.leaves) {
    if (nodes_[leaf].alive) nodes_[leaf].sealed = true;
  }
}

DistLedger MergeTreeSim::TotalLedger(uint64_t node) const {
  return nodes_[node].state.TotalLedger();
}

bool MergeTreeSim::FinalReady(uint64_t node) const {
  if (topo_.is_leaf(node)) return nodes_[node].sealed;
  for (uint64_t child : topo_.children[node]) {
    if (!nodes_[child].alive) continue;  // a dead child will never report
    if (!nodes_[node].state.ChildFinal(child)) return false;
  }
  return true;
}

Result<std::optional<uint64_t>> MergeTreeSim::Deliver(uint64_t parent,
                                                      uint64_t child,
                                                      const std::string& frame,
                                                      bool* applied) {
  *applied = false;
  std::string payload;
  if (Status s = DecodeFrame(frame, &payload); !s.ok()) {
    // A tampered frame MUST be caught here (CRC/length); anything else
    // reaching this path is a transport bug.
    if (s.IsCorruption()) return std::optional<uint64_t>();
    return s;
  }
  STREAMFREQ_ASSIGN_OR_RETURN(DeltaPayload delta, DecodeDelta(payload));
  if (delta.node_id != child) {
    return Status::Internal("delta sender id does not match link");
  }
  FleetNode& p = nodes_[parent].state;
  if (const FailDecision fp = SFQ_FAILPOINT("dist.deliver"); fp) {
    // Parent drops a valid delta before applying but still answers with
    // its OLD cumulative ack — the sender must resend.
    ++stats_.dropped_deliveries;
    return std::optional<uint64_t>(p.LastApplied(child));
  }
  STREAMFREQ_ASSIGN_OR_RETURN(uint64_t ack, p.Apply(delta, applied));
  ++(*applied ? stats_.deltas_applied : stats_.delta_dedups);
  return std::optional<uint64_t>(ack);
}

Result<bool> MergeTreeSim::ShipRound() {
  bool progress = false;
  for (uint64_t u : bottom_up_) {
    if (u == 0) continue;
    Node& n = nodes_[u];
    if (!n.alive) continue;
    if (SFQ_FAILPOINT("dist.node").action == FailAction::kCrash) {
      // Permanent node loss: unacked and unshipped mass below this point
      // never reaches the root; its absence shows up in the coverage map,
      // not as silent error.
      n.alive = false;
      ++stats_.nodes_lost;
      continue;
    }
    STREAMFREQ_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                                n.state.NextUplink(FinalReady(u)));
    if (!payload.has_value()) continue;
    ++stats_.deltas_shipped;
    const uint64_t parent = topo_.parent[u];
    if (!nodes_[parent].alive) {
      ++stats_.severed_links;
      continue;
    }
    std::string frame = EncodeFrame(*payload);
    if (const FailDecision fp = SFQ_FAILPOINT("dist.ship"); fp) {
      if (fp.action == FailAction::kError ||
          fp.action == FailAction::kCrash) {
        ++stats_.severed_links;  // frame never arrives
        continue;
      }
      if (fp.action == FailAction::kTorn) {
        const size_t kept = fp.param != 0
                                ? std::min<size_t>(fp.param, frame.size())
                                : frame.size() / 2;
        frame.resize(kept);
      } else if (fp.action == FailAction::kBitFlip) {
        const size_t bit = fp.param % (frame.size() * 8);
        frame[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(frame[bit / 8]) ^ (1u << (bit % 8)));
      }
    }
    bool applied = false;
    STREAMFREQ_ASSIGN_OR_RETURN(std::optional<uint64_t> ack,
                                Deliver(parent, u, frame, &applied));
    progress = progress || applied;
    if (!ack.has_value()) {
      ++stats_.severed_links;  // torn/bit-flipped frame caught by the CRC
      continue;
    }
    if (SFQ_FAILPOINT("dist.ack")) {
      ++stats_.lost_acks;  // sender never sees it; resend next round
      continue;
    }
    STREAMFREQ_RETURN_NOT_OK(n.state.Acked(*ack));
  }
  return progress;
}

bool MergeTreeSim::Quiescent() const {
  for (uint64_t u = 1; u < nodes_.size(); ++u) {
    const Node& n = nodes_[u];
    if (!n.alive || !nodes_[topo_.parent[u]].alive) continue;
    if (!n.state.NothingToShip(FinalReady(u))) return false;
  }
  return true;
}

Status MergeTreeSim::Drain(uint64_t max_rounds) {
  for (uint64_t r = 0; r < max_rounds; ++r) {
    if (Quiescent()) return Status::OK();
    STREAMFREQ_RETURN_NOT_OK(ShipRound().status());
  }
  return Status::OK();  // bounded effort; loss is visible in coverage
}

std::vector<CoverageEntry> MergeTreeSim::RootCovered() const {
  return nodes_[0].state.Coverage();
}

std::vector<ItemCount> MergeTreeSim::ApproxTop(size_t k) const {
  return nodes_[0].state.ApproxTop(k);
}

Result<std::vector<ItemCount>> MergeTreeSim::MaxChange(size_t k) const {
  return nodes_[0].state.MaxChange(epoch_, k);
}

Status MergeTreeSim::CheckInvariants() const {
  for (uint64_t u = 0; u < nodes_.size(); ++u) {
    const FleetNode& n = nodes_[u].state;
    if (!n.own_ledger().ConservationHolds()) {
      return Status::Internal("node " + std::to_string(u) +
                              ": own ledger violates conservation");
    }
    const DistLedger total = TotalLedger(u);
    if (!total.ConservationHolds()) {
      return Status::Internal("node " + std::to_string(u) +
                              ": composed ledger violates conservation");
    }
    // At-most-once accounting: what u has applied from each child never
    // exceeds what that child has produced so far.
    for (uint64_t child : topo_.children[u]) {
      const DistLedger applied = n.AppliedFrom(child);
      if (!applied.ConservationHolds()) {
        return Status::Internal("node " + std::to_string(u) + " child " +
                                std::to_string(child) +
                                ": applied ledger violates conservation");
      }
      const DistLedger produced = TotalLedger(child);
      if (applied.offered > produced.offered ||
          applied.rejected > produced.rejected ||
          applied.ingested > produced.ingested ||
          applied.dropped > produced.dropped) {
        return Status::Internal("node " + std::to_string(u) +
                                " accounted more than child " +
                                std::to_string(child) + " produced");
      }
    }
    // Covered mass equals the composed ingested count at every node.
    uint64_t covered_sum = 0;
    for (const auto& [leaf, count] : n.covered()) covered_sum += count;
    if (covered_sum != total.ingested) {
      return Status::Internal(
          "node " + std::to_string(u) + ": covered mass " +
          std::to_string(covered_sum) + " != composed ingested " +
          std::to_string(total.ingested));
    }
    // Sketch bit-identity: the accumulated sketch equals the sketch of
    // exactly the covered prefix of every leaf stream (delta linearity).
    Result<CountSketch> ref = CountSketch::Make(params_);
    STREAMFREQ_RETURN_NOT_OK(ref.status());
    for (const auto& [leaf, count] : n.covered()) {
      const std::vector<ItemId>& items = nodes_[leaf].ingested_items;
      if (count > items.size()) {
        return Status::Internal("node " + std::to_string(u) +
                                " covers more of leaf " +
                                std::to_string(leaf) + " than it ingested");
      }
      ref->BatchAdd(
          std::span<const ItemId>(items.data(), static_cast<size_t>(count)));
    }
    std::string want, got;
    ref->SerializeTo(&want);
    n.sketch().SerializeTo(&got);
    if (want != got) {
      return Status::Internal("node " + std::to_string(u) +
                              ": sketch differs from covered-prefix "
                              "reference (delta linearity broken)");
    }
  }
  return Status::OK();
}

}  // namespace streamfreq
