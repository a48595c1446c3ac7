// tree-lowskew: a one-thread MergeTreeSim, 16 leaves under fanout 4. Each
// wave every leaf offers a 4096-item batch of its own Zipf(0.8) stream,
// one ShipRound runs, then the root answers ApproxTop(100). Low skew puts
// many distinct items in each batch, so the leaf trackers, the candidate
// unions and delta ship/apply do most of the work; RPC, the WAL and
// threads are bypassed, and the run is deterministic.
//
// The run is a sequence of episodes: a fresh fleet ingests one full pass
// of every leaf stream (64 waves), then CheckInvariants() and the ledger
// checks run untimed before the next fleet is made. Episodes keep memory
// bounded however long the run, and every full episode does the same work.
#include <optional>
#include <string>

#include "dist/merge_tree.h"
#include "dist/tree.h"
#include "stream/exact_counter.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

using streamfreq::CountSketchParams;
using streamfreq::MergeTreeSim;
using streamfreq::TreeTopology;

constexpr uint64_t kUniverse = uint64_t{1} << 20;
constexpr double kZipfZ = 0.8;
constexpr uint64_t kLeaves = 16;
constexpr uint64_t kFanout = 4;
constexpr size_t kChunk = 4096;   // items per leaf per wave
constexpr uint64_t kWaves = 64;   // waves per episode: one pass per leaf
// Per-leaf Space-Saving candidates: at 512 the candidate union reaching
// the root holds the exact top-100 on this stream (at 128 it holds ~0.7).
constexpr size_t kTracked = 512;
constexpr size_t kTopK = 100;
constexpr size_t kProbes = 1024;
constexpr int kSetupReps = 101;
constexpr size_t kReplayBatches = 128;
// Low skew makes the top-100 boundary flat; the measured recall is
// 0.91-0.95, and a broken candidate union or sketch falls far below.
constexpr double kMinRecall = 0.8;

CountSketchParams TreeParams() {
  CountSketchParams params;
  params.depth = 5;
  params.width = 2048;
  params.seed = 11;
  return params;
}

TreeTopology Topology() {
  auto topo = streamfreq::BuildBalancedTree(kLeaves, kFanout);
  SFQ_CHECK_OK(topo.status());
  return std::move(topo).ValueOrDie();
}

MergeTreeSim MakeSim(const TreeTopology& topo, double* seconds) {
  const int64_t t0 = NowNs();
  auto sim = MergeTreeSim::Make(topo, TreeParams(), kTracked);
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  SFQ_CHECK_OK(sim.status());
  return std::move(sim).ValueOrDie();
}

}  // namespace

void RunTreeLowSkew(const Args& args, Tracer* tracer, WorkloadResult* result) {
  const TreeTopology topo = Topology();
  // One Zipf stream cut into contiguous leaf streams: one item labelling
  // fleet-wide, so the global top-100 is shared by every leaf.
  constexpr size_t kLeafItems = kChunk * kWaves;
  result->input =
      ZipfStream(kUniverse, kZipfZ, args.seed, kLeaves * kLeafItems);
  for (uint64_t leaf = 0; leaf < kLeaves; ++leaf) {
    result->streams.push_back(std::span<const ItemId>(result->input)
                                  .subspan(leaf * kLeafItems, kLeafItems));
  }
  const std::vector<std::span<const ItemId>>& streams = result->streams;
  LayerConfig& layers = result->layers;
  layers.params = TreeParams();
  layers.tracked = kTracked;
  layers.k = kTopK;
  layers.probes = ProbeSet(streams[0], streams[0].size(), kProbes);
  for (size_t i = 0; i < kReplayBatches; ++i) {
    layers.batches.push_back(
        ChunkAt(streams[i % kLeaves], kChunk, i / kLeaves));
  }

  std::optional<MergeTreeSim> sim;
  for (int r = 0; r < kSetupReps; ++r) {
    sim.reset();
    double seconds = 0;
    sim.emplace(MakeSim(topo, &seconds));
    result->setup_s.push_back(seconds);
  }

  uint64_t wave = 0;  // within the current episode
  uint64_t full_episodes = 0;
  std::vector<ItemCount> full_answer;
  std::vector<ItemCount> last_answer;
  // Untimed: the exact laws over the whole fleet, then the ledger.
  auto check_episode = [&]() {
    const streamfreq::Status inv = sim->CheckInvariants();
    result->checks.Check(inv.ok(),
                         "tree-lowskew: CheckInvariants: " + inv.ToString());
    result->checks.Check(
        sim->root_ledger().ingested == kLeaves * kChunk * wave &&
            sim->root_ledger().ConservationHolds(),
        "tree-lowskew: root ledger does not cover every admitted item");
    result->checks.Check(sim->stats().delta_dedups == 0,
                         "tree-lowskew: fault-free run deduplicated a delta");
  };

  const std::vector<Phase> phases = PhasesFor(args);
  uint64_t op = 0;
  std::vector<OpRecord> episode_ops;  // this episode's, in this phase
  auto run_until = [&](double seconds, Tracer* t, OpLog* log) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      if (wave == kWaves) {
        if (log != nullptr) log->Add(std::move(episode_ops));
        episode_ops.clear();
        check_episode();
        full_answer = last_answer;
        ++full_episodes;
        double setup = 0;
        sim.reset();
        sim.emplace(MakeSim(topo, &setup));
        result->setup_s.push_back(setup);
        wave = 0;
      }
      // Ingest op: one wave, every leaf offers a batch, then one ShipRound.
      OpRecord wave_rec;
      wave_rec.start_ns = NowNs();
      int64_t root = t != nullptr ? t->Begin("bench.wave_op", -1, op) : -1;
      bool ok = true;
      for (uint64_t l = 0; l < kLeaves; ++l) {
        ScopedSpan span(t, "dist.MergeTreeSim::Offer", root, op);
        const auto batch = ChunkAt(streams[l], kChunk, wave);
        ok = sim->Offer(topo.leaves[l], batch).ok() && ok;
      }
      {
        ScopedSpan span(t, "dist.MergeTreeSim::ShipRound", root, op);
        ok = sim->ShipRound().ok() && ok;
      }
      if (t != nullptr) t->End(root);
      wave_rec.end_ns = NowNs();
      wave_rec.items = ok ? kLeaves * kChunk : 0;
      result->checks.Op(ok);
      ++op;
      ++wave;

      // Query op: the root's global top-100.
      OpRecord query_rec;
      query_rec.query = true;
      query_rec.start_ns = NowNs();
      root = t != nullptr ? t->Begin("bench.query_op", -1, op) : -1;
      {
        ScopedSpan span(t, "dist.MergeTreeSim::ApproxTop", root, op);
        last_answer = sim->ApproxTop(kTopK);
      }
      if (t != nullptr) t->End(root);
      query_rec.end_ns = NowNs();
      std::vector<ItemCount> checked = last_answer;
      if (args.corrupt) CorruptAnswer(&checked);
      result->checks.Op(WellFormedTopK(checked, kTopK));
      ++op;
      episode_ops.push_back(wave_rec);
      episode_ops.push_back(query_rec);
    }
    if (log != nullptr) log->Add(std::move(episode_ops));
    episode_ops.clear();
  };
  run_until(WarmupSeconds(args), nullptr, nullptr);
  for (const Phase& phase : phases) {
    run_until(phase.seconds, phase.traced ? tracer : nullptr,
              &result->ops[phase.traced ? 1 : 0]);
  }
  result->peak_rss_mb = PeakRssMb();
  check_episode();
  if (wave == kWaves) {
    full_answer = last_answer;
    ++full_episodes;
  }

  // Recall of the root's answer after a full pass (every full episode is
  // identical); a run too short for one scores its partial episode.
  streamfreq::ExactCounter oracle;
  if (full_episodes > 0) {
    oracle.AddAll(result->input);
  } else {
    for (uint64_t leaf : topo.leaves) oracle.AddAll(sim->LeafIngested(leaf));
    full_answer = last_answer;
  }
  result->topk_recall = Recall(oracle.TopK(kTopK), full_answer);
  result->checks.Check(result->topk_recall >= kMinRecall,
                       "tree-lowskew: top-100 recall " +
                           std::to_string(result->topk_recall) +
                           " below the floor");
}

}  // namespace perfbench
