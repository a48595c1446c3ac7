#include "dist/node.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

namespace streamfreq {

Result<FleetNode> FleetNode::Make(const TreeTopology& topo, uint64_t id,
                                  const CountSketch& zero, size_t tracked) {
  if (id >= topo.size()) {
    return Status::InvalidArgument("node id is outside the topology");
  }
  FleetNode node(id, zero);
  for (uint64_t child : topo.children[id]) {
    node.children_.emplace(child, Child{});
  }
  if (topo.is_leaf(id)) {
    STREAMFREQ_ASSIGN_OR_RETURN(SpaceSaving tracker,
                                SpaceSaving::Make(tracked));
    node.tracker_.emplace(std::move(tracker));
  }
  if (id != 0) node.up_.emplace(id, zero);
  return node;
}

void FleetNode::Reject(uint64_t items) {
  own_.offered += items;
  own_.rejected += items;
}

void FleetNode::Admit(std::span<const ItemId> batch, size_t keep) {
  const std::span<const ItemId> admitted = batch.first(keep);
  own_.offered += batch.size();
  own_.dropped += batch.size() - keep;
  own_.ingested += keep;
  acc_.BatchAdd(admitted);
  tracker_->BatchAdd(admitted);
  covered_[id_] += keep;
}

Result<uint64_t> FleetNode::Apply(const DeltaPayload& delta, bool* applied) {
  *applied = false;
  auto it = children_.find(delta.node_id);
  if (it == children_.end()) {
    return Status::Corruption("delta from node " +
                              std::to_string(delta.node_id) +
                              ", which is not a child of node " +
                              std::to_string(id_));
  }
  Child& child = it->second;
  bool duplicate = false;
  STREAMFREQ_RETURN_NOT_OK(child.receiver.Classify(delta.seqno, &duplicate));
  if (duplicate) {
    child.receiver.CountDuplicate();
    return child.receiver.last_applied();
  }
  for (size_t i = 0; i < delta.covered.size(); ++i) {
    const CoverageEntry& c = delta.covered[i];
    if (i > 0 && c.leaf_id <= delta.covered[i - 1].leaf_id) {
      return Status::Corruption("coverage entries out of leaf order");
    }
    auto cur = covered_.find(c.leaf_id);
    if (cur != covered_.end() && c.count < cur->second) {
      return Status::Corruption("coverage watermark moved backwards");
    }
  }
  if (std::adjacent_find(delta.candidates.begin(), delta.candidates.end(),
                         std::greater_equal<ItemId>()) !=
      delta.candidates.end()) {
    return Status::Corruption("candidate list is not strictly increasing");
  }
  STREAMFREQ_ASSIGN_OR_RETURN(CountSketch delta_sketch,
                              CountSketch::Deserialize(delta.sketch_blob));
  if (!acc_.CompatibleWith(delta_sketch)) {
    return Status::Corruption("delta sketch does not match the node's");
  }
  STREAMFREQ_RETURN_NOT_OK(acc_.Merge(delta_sketch));
  child.applied += delta.ledger;
  for (const CoverageEntry& c : delta.covered) covered_[c.leaf_id] = c.count;
  child.candidates = delta.candidates;
  if (delta.final_flag) child.final = true;
  child.receiver.Applied(delta.seqno);
  *applied = true;
  return child.receiver.last_applied();
}

uint64_t FleetNode::LastApplied(uint64_t child) const {
  auto it = children_.find(child);
  return it == children_.end() ? 0 : it->second.receiver.last_applied();
}

bool FleetNode::ChildFinal(uint64_t child) const {
  auto it = children_.find(child);
  return it != children_.end() && it->second.final;
}

DistLedger FleetNode::AppliedFrom(uint64_t child) const {
  auto it = children_.find(child);
  return it == children_.end() ? DistLedger{} : it->second.applied;
}

uint64_t FleetNode::deltas_applied() const {
  // Seqnos are 1-based and applied gap-free, so the last one is the count.
  uint64_t n = 0;
  for (const auto& [id, child] : children_) n += child.receiver.last_applied();
  return n;
}

uint64_t FleetNode::delta_dedups() const {
  uint64_t n = 0;
  for (const auto& [id, child] : children_) n += child.receiver.duplicates();
  return n;
}

Result<std::optional<std::string>> FleetNode::NextUplink(bool final_flag) {
  // A pending delta goes out verbatim and a quiet link ships nothing, so
  // the coverage and the candidate union are built only for a new delta.
  if (up_->has_pending()) return up_->Ship(acc_, {}, {}, {}, final_flag);
  if (NothingToShip(final_flag)) return std::optional<std::string>();
  return up_->Ship(acc_, TotalLedger(), Coverage(), CandidateUnion(),
                   final_flag);
}

DistLedger FleetNode::TotalLedger() const {
  DistLedger total = own_;
  for (const auto& [id, child] : children_) total += child.applied;
  return total;
}

std::vector<CoverageEntry> FleetNode::Coverage() const {
  std::vector<CoverageEntry> out;
  out.reserve(covered_.size());
  for (const auto& [leaf, count] : covered_) {
    out.push_back(CoverageEntry{leaf, count});
  }
  return out;
}

std::vector<ItemId> FleetNode::CandidateUnion() const {
  // Only the tracker's own entries need sorting: every child's list is
  // strictly increasing (Apply refuses anything else), so the rest is a
  // merge.
  std::vector<ItemId> ids;
  if (tracker_.has_value()) {
    for (const SpaceSavingEntry& e : tracker_->Entries()) ids.push_back(e.item);
    std::sort(ids.begin(), ids.end());
  }
  std::vector<ItemId> merged;
  for (const auto& [id, child] : children_) {
    merged.clear();
    merged.reserve(ids.size() + child.candidates.size());
    std::set_union(ids.begin(), ids.end(), child.candidates.begin(),
                   child.candidates.end(), std::back_inserter(merged));
    ids.swap(merged);
  }
  return ids;
}

std::vector<ItemCount> FleetNode::ApproxTop(size_t k) const {
  return RankCandidates(CandidateUnion(), acc_, k, /*absolute=*/false);
}

Result<std::vector<ItemCount>> FleetNode::MaxChange(const CountSketch& epoch,
                                                    size_t k) const {
  return RankChanges(CandidateUnion(), acc_, epoch, k);
}

}  // namespace streamfreq
