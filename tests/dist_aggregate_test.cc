// Differential test across the two merge-tree transports: the forked,
// socket-backed `RunAggregate` and the in-process `MergeTreeSim` must reach
// the same root from the same leaf streams. Both roots sum the same leaf
// sketches, and each leaf tracker sees the same `delta_every` batch
// boundaries, so the root ledger, the coverage watermarks and the top-k
// (ids and counts) are equal, not just close.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "dist/aggregate.h"
#include "dist/merge_tree.h"
#include "dist/tree.h"

namespace streamfreq {
namespace {

// A short mkdtemp directory: unix socket paths are limited to ~108 bytes.
class SocketDir {
 public:
  SocketDir() {
    char tmpl[] = "/tmp/sfqagg.XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~SocketDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

AggregateOptions SmallOptions(uint64_t fanout) {
  AggregateOptions options;
  options.workers = 4;
  options.fanout = fanout;
  options.items = 20000;
  options.universe = 1u << 14;
  options.delta_every = 4096;
  options.tracked = 64;
  options.topk = 10;
  options.params.depth = 5;
  options.params.width = 1024;
  options.params.seed = 23;
  return options;
}

void ExpectTransportsAgree(uint64_t fanout) {
  SocketDir dir;
  ASSERT_FALSE(dir.path().empty()) << "mkdtemp failed";
  AggregateOptions options = SmallOptions(fanout);
  options.socket_dir = dir.path();
  auto report = RunAggregate(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto topo = BuildBalancedTree(options.workers, options.fanout);
  ASSERT_TRUE(topo.ok());
  auto sim = MergeTreeSim::Make(*topo, options.params, options.tracked);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  const std::vector<uint64_t>& leaves = sim->topology().leaves;
  for (uint64_t i = 0; i < leaves.size(); ++i) {
    auto items = WorkerStreamItems(options, i);
    ASSERT_TRUE(items.ok());
    const std::span<const ItemId> stream(*items);
    for (size_t off = 0; off < stream.size(); off += options.delta_every) {
      const size_t n = std::min<size_t>(options.delta_every,
                                        stream.size() - off);
      ASSERT_TRUE(sim->Offer(leaves[i], stream.subspan(off, n)).ok());
    }
  }
  sim->Seal();
  ASSERT_TRUE(sim->Drain(/*max_rounds=*/64).ok());
  ASSERT_TRUE(sim->Quiescent());
  ASSERT_TRUE(sim->CheckInvariants().ok())
      << sim->CheckInvariants().ToString();

  const uint64_t total = options.workers * options.items;
  EXPECT_EQ(report->ledger.offered, total);
  EXPECT_EQ(report->ledger.ingested, total);
  EXPECT_EQ(report->ledger, sim->root_ledger());
  EXPECT_EQ(report->covered, sim->RootCovered());
  const std::vector<ItemCount> want = sim->ApproxTop(options.topk);
  ASSERT_EQ(want.size(), options.topk);
  ASSERT_EQ(report->topk.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(report->topk[r].item, want[r].item) << "rank " << r;
    EXPECT_EQ(report->topk[r].count, want[r].count) << "rank " << r;
  }
}

TEST(DistAggregateTest, FlatStarMatchesMergeTreeSim) {
  ExpectTransportsAgree(/*fanout=*/0);
}

TEST(DistAggregateTest, FanoutTwoTreeMatchesMergeTreeSim) {
  ExpectTransportsAgree(/*fanout=*/2);
}

}  // namespace
}  // namespace streamfreq
