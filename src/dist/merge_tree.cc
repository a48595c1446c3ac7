#include "dist/merge_tree.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "server/protocol.h"
#include "util/failpoint.h"

namespace streamfreq {

MergeTreeSim::MergeTreeSim(TreeTopology topo, CountSketch zero)
    : topo_(std::move(topo)),
      params_(zero.params()),
      epoch_(zero),
      bottom_up_(topo_.BottomUpOrder()) {
  nodes_.reserve(topo_.size());
  for (uint64_t u = 0; u < topo_.size(); ++u) {
    nodes_.emplace_back(zero);
    if (u != 0) nodes_[u].up.emplace(u, zero);
  }
}

Result<MergeTreeSim> MergeTreeSim::Make(TreeTopology topology,
                                        const CountSketchParams& params,
                                        size_t tracked) {
  if (tracked == 0) {
    return Status::InvalidArgument("tracked candidate capacity must be >= 1");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch zero, CountSketch::Make(params));
  MergeTreeSim sim(std::move(topology), std::move(zero));
  for (uint64_t leaf : sim.topo_.leaves) {
    STREAMFREQ_ASSIGN_OR_RETURN(SpaceSaving tracker,
                                SpaceSaving::Make(tracked));
    sim.nodes_[leaf].tracker.emplace(std::move(tracker));
  }
  return sim;
}

Status MergeTreeSim::Offer(uint64_t node, std::span<const ItemId> batch) {
  if (node >= nodes_.size() || !topo_.is_leaf(node)) {
    return Status::InvalidArgument("Offer target is not a leaf");
  }
  Node& n = nodes_[node];
  if (!n.alive) {
    return Status::NotFound("leaf is dead");  // never enters any ledger
  }
  if (n.final_local) {
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
  n.own.offered += batch.size();
  if (fp.action == FailAction::kError) {
    // Whole-batch rejection: refused mass, accounted but never sketched.
    n.own.rejected += batch.size();
    ++stats_.batches_rejected;
    return Status::OK();
  }
  if (fp.action == FailAction::kTorn) {
    // Recorded shed: a prefix is admitted, the suffix is dropped — the
    // ledger says exactly how much (param = items kept, 0 = half).
    keep = fp.param != 0 ? std::min<size_t>(fp.param, batch.size())
                         : batch.size() / 2;
    n.own.dropped += batch.size() - keep;
    ++stats_.batches_torn;
  }
  const std::span<const ItemId> admitted = batch.first(keep);
  n.own.ingested += admitted.size();
  n.acc.BatchAdd(admitted);
  n.tracker->BatchAdd(admitted);
  n.ingested_items.insert(n.ingested_items.end(), admitted.begin(),
                          admitted.end());
  n.covered[node] = n.ingested_items.size();
  return Status::OK();
}

void MergeTreeSim::Seal() {
  for (uint64_t leaf : topo_.leaves) {
    if (nodes_[leaf].alive) nodes_[leaf].final_local = true;
  }
}

DistLedger MergeTreeSim::TotalLedger(uint64_t node) const {
  DistLedger total = nodes_[node].own;
  for (const auto& [child, ledger] : nodes_[node].child_ledgers) {
    total += ledger;
  }
  return total;
}

std::vector<CoverageEntry> MergeTreeSim::CoveredSnapshot(uint64_t node) const {
  std::vector<CoverageEntry> out;
  out.reserve(nodes_[node].covered.size());
  for (const auto& [leaf, count] : nodes_[node].covered) {
    out.push_back(CoverageEntry{leaf, count});
  }
  return out;
}

std::vector<ItemId> MergeTreeSim::CandidateUnion(uint64_t node) const {
  std::vector<ItemId> ids;
  const Node& n = nodes_[node];
  if (n.tracker.has_value()) {
    for (const SpaceSavingEntry& e : n.tracker->Entries()) {
      ids.push_back(e.item);
    }
  }
  for (const auto& [child, cands] : n.child_candidates) {
    ids.insert(ids.end(), cands.begin(), cands.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool MergeTreeSim::FinalReady(uint64_t node) const {
  const Node& n = nodes_[node];
  if (topo_.is_leaf(node)) return n.final_local;
  for (uint64_t child : topo_.children[node]) {
    if (!nodes_[child].alive) continue;  // a dead child will never report
    auto it = n.child_final.find(child);
    if (it == n.child_final.end() || !it->second) return false;
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
  Node& p = nodes_[parent];
  DeltaReceiver& recv = p.receivers[child];
  if (const FailDecision fp = SFQ_FAILPOINT("dist.deliver"); fp) {
    // Parent drops a valid delta before applying but still answers with
    // its OLD cumulative ack — the sender must resend.
    ++stats_.dropped_deliveries;
    return std::optional<uint64_t>(recv.last_applied());
  }
  bool duplicate = false;
  STREAMFREQ_RETURN_NOT_OK(recv.Classify(delta.seqno, &duplicate));
  if (duplicate) {
    recv.CountDuplicate();
    ++stats_.delta_dedups;
    return std::optional<uint64_t>(recv.last_applied());
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch delta_sketch,
                              CountSketch::Deserialize(delta.sketch_blob));
  STREAMFREQ_RETURN_NOT_OK(p.acc.Merge(delta_sketch));
  p.child_ledgers[child] += delta.ledger;
  for (const CoverageEntry& c : delta.covered) {
    uint64_t& cur = p.covered[c.leaf_id];
    if (c.count < cur) {
      return Status::Internal("coverage watermark moved backwards");
    }
    cur = c.count;
  }
  p.child_candidates[child] = delta.candidates;
  if (delta.final_flag) p.child_final[child] = true;
  recv.Applied(delta.seqno);
  ++stats_.deltas_applied;
  *applied = true;
  return std::optional<uint64_t>(recv.last_applied());
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
    STREAMFREQ_ASSIGN_OR_RETURN(
        std::optional<std::string> payload,
        n.up->Ship(n.acc, TotalLedger(u), CoveredSnapshot(u),
                   CandidateUnion(u), FinalReady(u)));
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
    STREAMFREQ_RETURN_NOT_OK(n.up->Acked(*ack));
  }
  return progress;
}

bool MergeTreeSim::Quiescent() const {
  for (uint64_t u = 1; u < nodes_.size(); ++u) {
    const Node& n = nodes_[u];
    if (!n.alive || !nodes_[topo_.parent[u]].alive) continue;
    if (!n.up->NothingToShip(TotalLedger(u), FinalReady(u))) return false;
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
  return CoveredSnapshot(0);
}

namespace {

// Scores `ids` on `score`, descending, ties toward smaller ids.
std::vector<ItemCount> RankCandidates(const std::vector<ItemId>& ids,
                                      const CountSketch& score, size_t k,
                                      bool absolute) {
  std::vector<ItemCount> out;
  out.reserve(ids.size());
  for (ItemId id : ids) {
    out.push_back(ItemCount{id, score.Estimate(id)});
  }
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

}  // namespace

std::vector<ItemCount> MergeTreeSim::ApproxTop(size_t k) const {
  return RankCandidates(CandidateUnion(0), nodes_[0].acc, k,
                        /*absolute=*/false);
}

Result<std::vector<ItemCount>> MergeTreeSim::MaxChange(size_t k) const {
  CountSketch diff = nodes_[0].acc;
  STREAMFREQ_RETURN_NOT_OK(diff.Subtract(epoch_));
  return RankCandidates(CandidateUnion(0), diff, k, /*absolute=*/true);
}

Status MergeTreeSim::CheckInvariants() const {
  for (uint64_t u = 0; u < nodes_.size(); ++u) {
    const Node& n = nodes_[u];
    if (!n.own.ConservationHolds()) {
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
    for (const auto& [child, applied] : n.child_ledgers) {
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
    for (const auto& [leaf, count] : n.covered) covered_sum += count;
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
    for (const auto& [leaf, count] : n.covered) {
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
    n.acc.SerializeTo(&got);
    if (want != got) {
      return Status::Internal("node " + std::to_string(u) +
                              ": sketch differs from covered-prefix "
                              "reference (delta linearity broken)");
    }
  }
  return Status::OK();
}

}  // namespace streamfreq
