// Delta-shipping protocol tests (satellite of the distributed merge tree,
// docs/DISTRIBUTED.md): the codec's corruption matrix at every truncation
// boundary, the channel's resend-verbatim/cumulative-ack discipline, the
// receiver's WAL-style dedup, the fleet node's checks on outside input,
// and an end-to-end severed-link schedule proving at-most-once accounting
// through MergeTreeSim.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "dist/delta.h"
#include "dist/merge_tree.h"
#include "dist/node.h"
#include "dist/tree.h"
#include "stream/zipf.h"
#include "util/failpoint.h"

namespace streamfreq {
namespace {

CountSketchParams SmallParams() {
  CountSketchParams params;
  params.depth = 3;
  params.width = 64;
  params.seed = 9;
  return params;
}

DeltaPayload SamplePayload() {
  DeltaPayload delta;
  delta.node_id = 4;
  delta.seqno = 7;
  delta.final_flag = true;
  delta.epoch_mark = false;
  delta.ledger = DistLedger{100, 10, 80, 10};
  delta.covered = {{2, 50}, {3, 30}};
  delta.candidates = {11, 22, 33};
  auto sketch = CountSketch::Make(SmallParams());
  EXPECT_TRUE(sketch.ok());
  sketch->Add(11, 5);
  sketch->SerializeTo(&delta.sketch_blob);
  return delta;
}

TEST(DeltaCodecTest, RoundTripsEveryField) {
  const DeltaPayload delta = SamplePayload();
  auto decoded = DecodeDelta(EncodeDelta(delta));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->node_id, delta.node_id);
  EXPECT_EQ(decoded->seqno, delta.seqno);
  EXPECT_EQ(decoded->final_flag, delta.final_flag);
  EXPECT_EQ(decoded->epoch_mark, delta.epoch_mark);
  EXPECT_TRUE(decoded->ledger == delta.ledger);
  EXPECT_EQ(decoded->covered, delta.covered);
  EXPECT_EQ(decoded->candidates, delta.candidates);
  EXPECT_EQ(decoded->sketch_blob, delta.sketch_blob);
}

TEST(DeltaCodecTest, EveryTruncationBoundaryIsCorruption) {
  // The same discipline the server protocol test applies to RPC frames: a
  // torn payload must fail at EVERY prefix length, never crash, never
  // half-decode. (In the live tree a torn frame dies at the transport CRC;
  // this matrix is the defense in depth behind it.)
  const std::string encoded = EncodeDelta(SamplePayload());
  ASSERT_GT(encoded.size(), 0u);
  for (size_t keep = 0; keep < encoded.size(); ++keep) {
    auto decoded = DecodeDelta(std::string_view(encoded).substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << keep << " bytes decoded";
    EXPECT_TRUE(decoded.status().IsCorruption())
        << "prefix " << keep << ": " << decoded.status().ToString();
  }
  // Trailing garbage after a complete payload is equally fatal.
  auto padded = DecodeDelta(encoded + std::string(1, '\0'));
  EXPECT_TRUE(padded.status().IsCorruption());
}

TEST(DeltaCodecTest, RejectsBadMagicFlagsSeqnoAndLedger) {
  DeltaPayload delta = SamplePayload();
  std::string encoded = EncodeDelta(delta);
  encoded[0] ^= 0x01;  // magic
  EXPECT_TRUE(DecodeDelta(encoded).status().IsCorruption());

  DeltaPayload zero_seq = SamplePayload();
  zero_seq.seqno = 0;
  EXPECT_TRUE(DecodeDelta(EncodeDelta(zero_seq)).status().IsCorruption());

  // Unknown flag bits mean a newer (or forged) sender; reject, don't guess.
  std::string flagged = EncodeDelta(SamplePayload());
  flagged[24] |= 0x04;  // flags field: u64 at offset 24, bit2 undefined
  EXPECT_TRUE(DecodeDelta(flagged).status().IsCorruption());

  DeltaPayload bad_ledger = SamplePayload();
  bad_ledger.ledger = DistLedger{100, 0, 80, 0};  // 100 != 80 + 0
  EXPECT_TRUE(DecodeDelta(EncodeDelta(bad_ledger)).status().IsCorruption());
}

TEST(DeltaCodecTest, AckRoundTripAndTruncation) {
  const std::string encoded = EncodeAck(41);
  auto decoded = DecodeAck(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, 41u);
  for (size_t keep = 0; keep < encoded.size(); ++keep) {
    EXPECT_TRUE(DecodeAck(std::string_view(encoded).substr(0, keep))
                    .status()
                    .IsCorruption())
        << "ack prefix " << keep;
  }
  EXPECT_TRUE(DecodeAck(encoded + "x").status().IsCorruption());
}

TEST(DeltaChannelTest, ResendsPendingVerbatimUntilAcked) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(3, *zero);

  CountSketch current = *zero;
  DistLedger ledger;
  EXPECT_TRUE(channel.NothingToShip(ledger, false));
  auto quiet = channel.Ship(current, ledger, {}, {}, false);
  ASSERT_TRUE(quiet.ok());
  EXPECT_FALSE(quiet->has_value());

  current.Add(5, 2);
  ledger = DistLedger{2, 0, 2, 0};
  auto first = channel.Ship(current, ledger, {{3, 2}}, {5}, false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_TRUE(channel.has_pending());

  // The sender keeps advancing, but until the ack arrives the SAME bytes
  // go out — bit-identical re-delivery is what makes dedup exact.
  current.Add(6, 1);
  ledger = DistLedger{3, 0, 3, 0};
  auto resend = channel.Ship(current, ledger, {{3, 3}}, {5, 6}, false);
  ASSERT_TRUE(resend.ok());
  ASSERT_TRUE(resend->has_value());
  EXPECT_EQ(**resend, **first);

  // Cumulative ack folds the pending delta into the base; the next ship
  // carries only what came after it.
  ASSERT_TRUE(channel.Acked(1).ok());
  EXPECT_FALSE(channel.has_pending());
  EXPECT_EQ(channel.acked_seqno(), 1u);
  auto second = channel.Ship(current, ledger, {{3, 3}}, {5, 6}, false);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  auto decoded = DecodeDelta(**second);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seqno, 2u);
  EXPECT_EQ(decoded->ledger.ingested, 1u);  // the post-ack increment only

  // A stale cumulative ack (receiver re-acking the old seqno after a
  // dropped delivery) is a no-op, not an error.
  ASSERT_TRUE(channel.Acked(1).ok());
  EXPECT_TRUE(channel.has_pending());

  // Acks from the future or going backwards mean a corrupt peer.
  EXPECT_TRUE(channel.Acked(9).IsCorruption());
  ASSERT_TRUE(channel.Acked(2).ok());
  EXPECT_TRUE(channel.Acked(1).IsCorruption());
}

TEST(DeltaChannelTest, FinalFlagLatchesOnAck) {
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  DeltaChannel channel(2, *zero);
  CountSketch current = *zero;
  current.Add(1);
  const DistLedger ledger{1, 0, 1, 0};
  auto fin = channel.Ship(current, ledger, {{2, 1}}, {1}, true);
  ASSERT_TRUE(fin.ok());
  ASSERT_TRUE(fin->has_value());
  auto decoded = DecodeDelta(**fin);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->final_flag);
  EXPECT_FALSE(channel.NothingToShip(ledger, true));
  ASSERT_TRUE(channel.Acked(1).ok());
  // Latched: nothing new + final acked = quiet forever.
  EXPECT_TRUE(channel.NothingToShip(ledger, true));
  auto quiet = channel.Ship(current, ledger, {{2, 1}}, {1}, true);
  ASSERT_TRUE(quiet.ok());
  EXPECT_FALSE(quiet->has_value());
}

TEST(DeltaReceiverTest, WalDisciplineDedupsAndRejectsGaps) {
  DeltaReceiver receiver;
  bool duplicate = true;
  ASSERT_TRUE(receiver.Classify(1, &duplicate).ok());
  EXPECT_FALSE(duplicate);
  receiver.Applied(1);

  // Re-delivery of an applied seqno: skip, exactly once.
  ASSERT_TRUE(receiver.Classify(1, &duplicate).ok());
  EXPECT_TRUE(duplicate);
  receiver.CountDuplicate();

  ASSERT_TRUE(receiver.Classify(2, &duplicate).ok());
  EXPECT_FALSE(duplicate);
  receiver.Applied(2);

  // An out-of-order stale frame (reordered re-delivery) is a duplicate too.
  ASSERT_TRUE(receiver.Classify(1, &duplicate).ok());
  EXPECT_TRUE(duplicate);

  // A gap cannot happen under resend-verbatim; treat it as corruption.
  EXPECT_TRUE(receiver.Classify(4, &duplicate).IsCorruption());
  EXPECT_EQ(receiver.last_applied(), 2u);
  EXPECT_EQ(receiver.duplicates(), 1u);
}

// Ships `items` fresh items from `leaf` and returns the decoded payload.
DeltaPayload ShipFrom(FleetNode* leaf, ItemId first, size_t items) {
  std::vector<ItemId> batch;
  for (size_t i = 0; i < items; ++i) batch.push_back(first + i % 7);
  leaf->Admit(batch, batch.size());
  auto payload = leaf->NextUplink(/*final_flag=*/false);
  EXPECT_TRUE(payload.ok() && payload->has_value());
  auto delta = DecodeDelta(**payload);
  EXPECT_TRUE(delta.ok());
  return *delta;
}

std::string SketchBytes(const FleetNode& node) {
  std::string bytes;
  node.sketch().SerializeTo(&bytes);
  return bytes;
}

// A delta names its sender; only the receiving node's own children may
// send. A grandchild's well-formed delta is Corruption at the root, and the
// root is left as it was.
TEST(FleetNodeTest, ApplyRejectsADeltaFromANonChild) {
  auto topo = BuildBalancedTree(/*workers=*/4, /*fanout=*/2);
  ASSERT_TRUE(topo.ok());
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  const uint64_t leaf_id = topo->leaves[0];
  ASSERT_NE(topo->parent[leaf_id], 0u) << "want a grandchild of the root";
  auto leaf = FleetNode::Make(*topo, leaf_id, *zero, /*tracked=*/8);
  auto root = FleetNode::Make(*topo, 0, *zero, /*tracked=*/8);
  ASSERT_TRUE(leaf.ok() && root.ok());

  const DeltaPayload delta = ShipFrom(&*leaf, 100, 50);
  const std::string before = SketchBytes(*root);
  bool applied = true;
  const Result<uint64_t> ack = root->Apply(delta, &applied);
  EXPECT_TRUE(ack.status().IsCorruption()) << ack.status().ToString();
  EXPECT_FALSE(applied);
  EXPECT_EQ(root->TotalLedger(), DistLedger{});
  EXPECT_TRUE(root->covered().empty());
  EXPECT_EQ(root->deltas_applied(), 0u);
  EXPECT_EQ(SketchBytes(*root), before);

  // The same delta at the leaf's real parent applies.
  auto parent = FleetNode::Make(*topo, topo->parent[leaf_id], *zero, 8);
  ASSERT_TRUE(parent.ok());
  const Result<uint64_t> ok_ack = parent->Apply(delta, &applied);
  ASSERT_TRUE(ok_ack.ok()) << ok_ack.status().ToString();
  EXPECT_TRUE(applied);
  EXPECT_EQ(*ok_ack, 1u);
}

// Coverage watermarks are absolute and monotone; one that moves backwards
// is Corruption, caught before the delta's sketch, ledger or candidates
// land. A re-delivery dedups and re-acks.
TEST(FleetNodeTest, ApplyRejectsACoverageWatermarkMovingBackwards) {
  auto topo = BuildBalancedTree(/*workers=*/1, /*fanout=*/0);
  ASSERT_TRUE(topo.ok());
  auto zero = CountSketch::Make(SmallParams());
  ASSERT_TRUE(zero.ok());
  auto leaf = FleetNode::Make(*topo, 1, *zero, /*tracked=*/8);
  auto root = FleetNode::Make(*topo, 0, *zero, /*tracked=*/8);
  ASSERT_TRUE(leaf.ok() && root.ok());

  const DeltaPayload first = ShipFrom(&*leaf, 10, 100);
  bool applied = false;
  Result<uint64_t> ack = root->Apply(first, &applied);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_TRUE(applied);
  ASSERT_TRUE(leaf->Acked(*ack).ok());

  ack = root->Apply(first, &applied);  // re-delivery
  ASSERT_TRUE(ack.ok());
  EXPECT_FALSE(applied);
  EXPECT_EQ(*ack, 1u);
  EXPECT_EQ(root->delta_dedups(), 1u);

  const DeltaPayload second = ShipFrom(&*leaf, 20, 50);
  ASSERT_EQ(second.covered.size(), 1u);
  EXPECT_EQ(second.covered[0].count, 150u);
  DeltaPayload backwards = second;
  backwards.covered[0].count = 40;
  const std::string before = SketchBytes(*root);
  ack = root->Apply(backwards, &applied);
  EXPECT_TRUE(ack.status().IsCorruption()) << ack.status().ToString();
  EXPECT_FALSE(applied);
  EXPECT_EQ(root->TotalLedger().ingested, 100u);
  EXPECT_EQ(root->covered().at(1), 100u);
  EXPECT_EQ(root->LastApplied(1), 1u);
  EXPECT_EQ(SketchBytes(*root), before);

  // A repeated leaf id could smuggle a backwards step (150 then 120) past
  // a check of each entry against the current watermark alone.
  DeltaPayload repeated = second;
  repeated.covered.push_back(CoverageEntry{1, 120});
  ack = root->Apply(repeated, &applied);
  EXPECT_TRUE(ack.status().IsCorruption()) << ack.status().ToString();
  EXPECT_EQ(root->covered().at(1), 100u);
  EXPECT_EQ(SketchBytes(*root), before);

  ack = root->Apply(second, &applied);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_TRUE(applied);
  EXPECT_EQ(*ack, 2u);
  EXPECT_EQ(root->TotalLedger().ingested, 150u);
  EXPECT_EQ(root->covered().at(1), 150u);
  EXPECT_EQ(SketchBytes(*root), SketchBytes(*leaf));
}

// End-to-end: a planted severed-link + lost-ack schedule. Severs delay
// mass, they never lose it — so after enough rounds the tree must converge
// to full coverage with every re-delivered delta deduped, and the root must
// be bit-identical to a clean flat merge.
TEST(DistDeltaE2ETest, SeveredLinksForceResendsButAccountingIsExact) {
  auto topo = BuildBalancedTree(/*workers=*/6, /*fanout=*/2);
  ASSERT_TRUE(topo.ok());
  const CountSketchParams params = SmallParams();
  auto sim = MergeTreeSim::Make(*topo, params, /*tracked=*/16);
  ASSERT_TRUE(sim.ok());

  // Half the ship frames die in flight, a third of the acks vanish. No
  // budget exhaustion: probabilities only, so resends keep being tested.
  ScopedFailpoints failpoints("dist.ship=error@0.5;dist.ack=error@0.34",
                              /*seed=*/99);
  ASSERT_TRUE(failpoints.status().ok());

  std::vector<Stream> streams;
  for (uint64_t leaf = 0; leaf < 6; ++leaf) {
    auto gen = ZipfGenerator::Make(500, 1.1, 17 * (leaf + 1));
    ASSERT_TRUE(gen.ok());
    streams.push_back(gen->Take(2000));
  }
  const auto& leaves = sim->topology().leaves;
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t off = 0; off < streams[i].size(); off += 256) {
      const size_t len = std::min<size_t>(256, streams[i].size() - off);
      ASSERT_TRUE(
          sim->Offer(leaves[i], std::span<const ItemId>(
                                    streams[i].data() + off, len))
              .ok());
      auto round = sim->ShipRound();
      ASSERT_TRUE(round.ok());
    }
  }
  sim->Seal();
  ASSERT_TRUE(sim->Drain(/*max_rounds=*/400).ok());
  ASSERT_TRUE(sim->Quiescent());

  const MergeTreeStats& stats = sim->stats();
  EXPECT_GT(stats.severed_links, 0u);
  EXPECT_GT(stats.lost_acks, 0u);
  EXPECT_GT(stats.delta_dedups, 0u);  // lost acks force dup deliveries

  ASSERT_TRUE(sim->CheckInvariants().ok()) << sim->CheckInvariants().ToString();

  // No admission faults were armed, so nothing was rejected or shed: the
  // tree converged to FULL coverage and the root must equal the flat merge.
  const DistLedger ledger = sim->root_ledger();
  EXPECT_EQ(ledger.offered, 6u * 2000u);
  EXPECT_EQ(ledger.ingested, 6u * 2000u);
  EXPECT_EQ(ledger.rejected, 0u);
  EXPECT_EQ(ledger.dropped, 0u);

  auto flat = CountSketch::Make(params);
  ASSERT_TRUE(flat.ok());
  for (const Stream& s : streams) flat->BatchAdd(s);
  std::string root_bytes, flat_bytes;
  sim->root_sketch().SerializeTo(&root_bytes);
  flat->SerializeTo(&flat_bytes);
  EXPECT_EQ(root_bytes, flat_bytes);
}

// Dropped deliveries re-ack the OLD cumulative seqno: the sender resends,
// the receiver applies exactly once. dist.deliver exercises the reorder/
// duplicate path end to end at the apply layer (below the CRC transport).
TEST(DistDeltaE2ETest, DroppedDeliveriesAreAppliedExactlyOnce) {
  auto topo = BuildBalancedTree(/*workers=*/4, /*fanout=*/0);
  ASSERT_TRUE(topo.ok());
  const CountSketchParams params = SmallParams();
  auto sim = MergeTreeSim::Make(*topo, params, /*tracked=*/16);
  ASSERT_TRUE(sim.ok());

  ScopedFailpoints failpoints("dist.deliver=error@0.5", /*seed=*/7);
  ASSERT_TRUE(failpoints.status().ok());

  std::vector<Stream> streams;
  for (uint64_t leaf = 0; leaf < 4; ++leaf) {
    auto gen = ZipfGenerator::Make(300, 1.0, 29 * (leaf + 1));
    ASSERT_TRUE(gen.ok());
    streams.push_back(gen->Take(1500));
  }
  const auto& leaves = sim->topology().leaves;
  for (size_t i = 0; i < leaves.size(); ++i) {
    ASSERT_TRUE(sim->Offer(leaves[i], streams[i]).ok());
  }
  sim->Seal();
  ASSERT_TRUE(sim->Drain(/*max_rounds=*/200).ok());
  ASSERT_TRUE(sim->Quiescent());

  EXPECT_GT(sim->stats().dropped_deliveries, 0u);
  ASSERT_TRUE(sim->CheckInvariants().ok()) << sim->CheckInvariants().ToString();
  EXPECT_EQ(sim->root_ledger().ingested, 4u * 1500u);

  auto flat = CountSketch::Make(params);
  ASSERT_TRUE(flat.ok());
  for (const Stream& s : streams) flat->BatchAdd(s);
  std::string root_bytes, flat_bytes;
  sim->root_sketch().SerializeTo(&root_bytes);
  flat->SerializeTo(&flat_bytes);
  EXPECT_EQ(root_bytes, flat_bytes);
}

// Torn and bit-flipped frames must die at the transport CRC and count as
// severs — a tampered frame reaching the apply path would be a dedup hole.
TEST(DistDeltaE2ETest, TamperedFramesDieAtTheCrc) {
  for (const char* spec : {"dist.ship=torn*4", "dist.ship=bitflip:3*4"}) {
    auto topo = BuildBalancedTree(/*workers=*/3, /*fanout=*/0);
    ASSERT_TRUE(topo.ok());
    auto sim = MergeTreeSim::Make(*topo, SmallParams(), /*tracked=*/8);
    ASSERT_TRUE(sim.ok());

    ScopedFailpoints failpoints(spec, /*seed=*/5);
    ASSERT_TRUE(failpoints.status().ok());

    std::vector<Stream> streams;
    for (uint64_t leaf = 0; leaf < 3; ++leaf) {
      auto gen = ZipfGenerator::Make(200, 1.0, 31 * (leaf + 1));
      ASSERT_TRUE(gen.ok());
      streams.push_back(gen->Take(1000));
    }
    const auto& leaves = sim->topology().leaves;
    for (size_t i = 0; i < leaves.size(); ++i) {
      ASSERT_TRUE(sim->Offer(leaves[i], streams[i]).ok());
    }
    sim->Seal();
    ASSERT_TRUE(sim->Drain(/*max_rounds=*/200).ok());

    EXPECT_GT(sim->stats().severed_links, 0u) << spec;
    ASSERT_TRUE(sim->CheckInvariants().ok())
        << spec << ": " << sim->CheckInvariants().ToString();
    EXPECT_EQ(sim->root_ledger().ingested, 3u * 1000u) << spec;
  }
}

}  // namespace
}  // namespace streamfreq
