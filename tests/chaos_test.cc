#include "verify/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>

#include "util/crc32.h"
#include "util/failpoint.h"

namespace streamfreq {
namespace {

// ThreadSanitizer slows the ingestion pipeline ~10x; shrink the campaign
// there so the concurrent suite stays fast under scripts/check.sh.
#if defined(__SANITIZE_THREAD__)
constexpr uint64_t kCampaignIterations = 40;
#else
constexpr uint64_t kCampaignIterations = 200;
#endif

constexpr ChaosCampaign kCampaigns[] = {
    ChaosCampaign::kLibrary, ChaosCampaign::kServer,
    ChaosCampaign::kServerRestart, ChaosCampaign::kTree};

TEST(ChaosTest, SchedulesAreDeterministicBoundedAndParseable) {
  for (const ChaosCampaign campaign : kCampaigns) {
    for (uint64_t index = 0; index < 64; ++index) {
      const std::string a = ChaosSchedule(campaign, 11, index);
      EXPECT_EQ(a, ChaosSchedule(campaign, 11, index))
          << "schedule must be a pure function of (seed, index)";
      EXPECT_FALSE(a.empty());
      // Every crash clause must carry a fire budget: an unbounded
      // always-crash worker respawns forever, a daemon dies at the same
      // site forever, and a tree loses every node.
      std::set<std::string> sites;
      size_t begin = 0;
      while (begin <= a.size()) {
        const size_t end = std::min(a.find(';', begin), a.size());
        const std::string clause = a.substr(begin, end - begin);
        const size_t crash = clause.find("=crash");
        if (crash != std::string::npos) {
          EXPECT_NE(clause.find('*', crash), std::string::npos) << a;
          // The kill-restart campaign dies at most once per iteration at a
          // failpoint, throttled so the death lands mid-stream.
          if (campaign == ChaosCampaign::kServerRestart) {
            EXPECT_EQ(clause.substr(crash + 6), "@0.08*1") << a;
          }
        }
        // At most one clause per site: two clauses on one site would make
        // the later one win silently.
        const std::string site = clause.substr(0, clause.find('='));
        EXPECT_TRUE(sites.insert(site).second)
            << "duplicate clause for " << site << " in " << a;
        begin = end + 1;
      }
      // And every schedule must be a valid spec for the registry.
      ScopedFailpoints fp(a, 1);
      EXPECT_TRUE(fp.status().ok()) << a << ": " << fp.status().ToString();
    }
    EXPECT_NE(ChaosSchedule(campaign, 11, 1), ChaosSchedule(campaign, 12, 1));
  }
}

// Golden schedules: a campaign replays from (seed, index) alone, so any
// change to how a schedule is drawn changes what every recorded seed
// reproduces. These literals and digests were taken from the per-campaign
// schedule functions before they became one; they must never move.
TEST(ChaosTest, SchedulesMatchGoldenValues) {
  struct Golden {
    ChaosCampaign campaign;
    uint64_t seed;
    uint64_t index;
    const char* schedule;
  };
  const Golden kGolden[] = {
      {ChaosCampaign::kLibrary, 42, 0,
       "ingestor.worker_batch=crash*3;sketch_io.rename=error*1"},
      {ChaosCampaign::kLibrary, 42, 1, "ingestor.worker_batch=crash*1"},
      {ChaosCampaign::kLibrary, 11, 7, "batch_queue.push=error@0.02"},
      {ChaosCampaign::kServer, 42, 0,
       "server.write=error@0.03;server.publish=error@0.5;"
       "ingestor.publish=error@0.5"},
      {ChaosCampaign::kServer, 42, 1,
       "server.read=error@0.03;server.write=error@0.03;"
       "batch_queue.pop=stall:1@0.02;ingestor.publish=error@0.5"},
      {ChaosCampaign::kServer, 11, 7,
       "server.accept=error@0.1;server.read=error@0.03;"
       "server.write=error@0.03;ingestor.worker_batch=crash*1"},
      {ChaosCampaign::kServerRestart, 42, 0,
       "wal.fsync=crash@0.08*1;wal.append=torn@0.05*1"},
      {ChaosCampaign::kServerRestart, 42, 1,
       "snapshot.publish=crash@0.08*1;server.write=error@0.02"},
      {ChaosCampaign::kServerRestart, 11, 7, "snapshot.publish=crash@0.08*1"},
      {ChaosCampaign::kTree, 42, 0,
       "dist.ingest=error@0.05;dist.ship=torn@0.06;dist.deliver=error@0.08"},
      {ChaosCampaign::kTree, 42, 1, "dist.ship=torn@0.06;dist.ack=error@0.1"},
      {ChaosCampaign::kTree, 11, 1,
       "dist.ingest=torn@0.05;dist.ship=error@0.08;dist.deliver=error@0.08;"
       "dist.node=crash@0.02*2"},
  };
  for (const Golden& g : kGolden) {
    EXPECT_EQ(ChaosSchedule(g.campaign, g.seed, g.index), g.schedule)
        << "campaign " << static_cast<int>(g.campaign) << " seed " << g.seed
        << " index " << g.index;
  }
  // CRC-32C of the '\n'-joined schedules for indices 0..199, per campaign
  // (in kCampaigns order) and seed.
  const uint32_t kDigests[][2] = {{0xD675331EU, 0xCD62308EU},
                                  {0x222DF615U, 0x03CBB5C9U},
                                  {0x730B40AAU, 0x71F33DB1U},
                                  {0xA7C3CA5EU, 0xA746A934U}};
  for (size_t c = 0; c < std::size(kCampaigns); ++c) {
    const uint64_t seeds[] = {11, 42};
    for (size_t s = 0; s < 2; ++s) {
      std::string joined;
      for (uint64_t index = 0; index < 200; ++index) {
        if (index > 0) joined += '\n';
        joined += ChaosSchedule(kCampaigns[c], seeds[s], index);
      }
      EXPECT_EQ(crc32c::Value(joined.data(), joined.size()), kDigests[c][s])
          << "campaign " << c << " seed " << seeds[s];
    }
  }
}

// The acceptance-criteria campaign: many seeded iterations with faults
// armed, and every single one ends in a clean error Status or a sketch
// that passes its guarantee checker over the effective stream.
TEST(ChaosTest, CampaignSurvivesRandomizedFaultSchedules) {
  ChaosOptions options;
  options.seed = 2026;
  options.iterations = kCampaignIterations;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->iterations, kCampaignIterations);
  EXPECT_EQ(report->verified + report->clean_errors, kCampaignIterations);
  EXPECT_TRUE(report->Passed());
  EXPECT_EQ(report->guarantee_failures, 0u);
  for (const ChaosFailure& failure : report->failures) {
    ADD_FAILURE() << "iteration " << failure.index << " [" << failure.schedule
                  << "] " << failure.program << ": " << failure.detail;
  }
  // The campaign must actually inject faults, not vacuously pass.
  EXPECT_GT(report->faulted_iterations, 0u);
  EXPECT_GT(report->fault_fires, 0u);
  // Most iterations still produce a verifiable sketch.
  EXPECT_GT(report->verified, 0u);
}

TEST(ChaosTest, KillOneWorkerScheduleAlwaysRecovers) {
  ChaosOptions options;
  options.seed = 7;
  options.iterations = 5;
  options.failpoints = "ingestor.worker_batch=crash*2";
  options.exercise_io = false;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Two bounded crashes per iteration, each recovered by a respawn with
  // the in-flight batch requeued — so every iteration still verifies.
  EXPECT_EQ(report->worker_respawns, 2u * options.iterations);
  EXPECT_EQ(report->verified, options.iterations);
  EXPECT_EQ(report->guarantee_failures, 0u);
}

TEST(ChaosTest, FaultFreeCampaignVerifies) {
  ChaosOptions options;
  options.seed = 13;
  options.iterations = 3;
  options.failpoints = "batch_queue.push=off";  // valid spec, disarms all
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->fault_fires, 0u);
  EXPECT_EQ(report->verified + report->clean_errors, 3u);
  EXPECT_EQ(report->guarantee_failures, 0u);
}

TEST(ChaosTest, InjectedIoFaultsSurfaceAsCleanStatuses) {
  ChaosOptions options;
  options.seed = 19;
  options.iterations = 3;
  options.failpoints = "sketch_io.write=error*1";
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->io_round_trips, 3u);
  EXPECT_EQ(report->io_faults, 3u);
  EXPECT_EQ(report->guarantee_failures, 0u);
}

// The server-side acceptance campaign: real connections severed at
// accept/read/write, snapshots withheld, workers crashed — and every
// iteration must still reconcile per-tenant mass accounting exactly and
// serve verifiable sealed sketches.
TEST(ChaosTest, ServerCampaignReconcilesUnderFaults) {
#if defined(__SANITIZE_THREAD__)
  constexpr uint64_t kServerIterations = 6;
#else
  constexpr uint64_t kServerIterations = 12;
#endif
  ChaosOptions options;
  options.seed = 2026;
  options.iterations = kServerIterations;
  options.campaign = ChaosCampaign::kServer;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->iterations, kServerIterations);
  EXPECT_TRUE(report->Passed());
  for (const ChaosFailure& failure : report->failures) {
    ADD_FAILURE() << "iteration " << failure.index << " ["
                  << failure.schedule << "]: " << failure.detail;
  }
  // Not vacuous: faults really fired and requests really flowed.
  EXPECT_GT(report->faulted_iterations, 0u);
  EXPECT_GT(report->server_requests, 0u);
  EXPECT_GT(report->verified, 0u);
}

// The merge-tree campaign: every iteration ends in a clean error or a root
// bit-identical to its covered-prefix reference that passes Lemma 4/5.
TEST(ChaosTest, TreeCampaignSurvivesRandomizedFaultSchedules) {
#if defined(__SANITIZE_THREAD__)
  constexpr uint64_t kTreeIterations = 2;
#else
  constexpr uint64_t kTreeIterations = 4;
#endif
  ChaosOptions options;
  options.campaign = ChaosCampaign::kTree;
  options.seed = 42;
  options.iterations = kTreeIterations;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->iterations, kTreeIterations);
  EXPECT_TRUE(report->Passed());
  for (const ChaosFailure& failure : report->failures) {
    ADD_FAILURE() << "iteration " << failure.index << " [" << failure.schedule
                  << "] " << failure.program << ": " << failure.detail;
  }
  EXPECT_GT(report->faulted_iterations, 0u);
  EXPECT_GT(report->identity_checks, 0u);
}

// The kill-restart campaign against real forked `sfq serve` daemons: the
// ledger survives every death and loss-free runs recover bit-identically.
TEST(ChaosTest, RestartCampaignRecoversAfterEveryDeath) {
  ChaosOptions options;
  options.campaign = ChaosCampaign::kServerRestart;
  options.seed = 42;
  options.iterations = 6;
  options.server_binary = SFQ_BINARY;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->iterations, 6u);
  EXPECT_TRUE(report->Passed());
  for (const ChaosFailure& failure : report->failures) {
    ADD_FAILURE() << "iteration " << failure.index << " ["
                  << failure.schedule << "]: " << failure.detail;
  }
  EXPECT_GT(report->faulted_iterations, 0u);
  EXPECT_GT(report->recoveries, 0u);
  EXPECT_GT(report->identity_checks, 0u);
}

TEST(ChaosTest, RestartCampaignNeedsTheServerBinary) {
  ChaosOptions options;
  options.campaign = ChaosCampaign::kServerRestart;
  options.iterations = 1;
  EXPECT_TRUE(RunChaosCampaign(options).status().IsInvalidArgument());
}

TEST(ChaosTest, RejectsZeroIterations) {
  ChaosOptions options;
  options.iterations = 0;
  EXPECT_TRUE(RunChaosCampaign(options).status().IsInvalidArgument());
}

TEST(ChaosTest, BadFailpointSpecIsHarnessError) {
  ChaosOptions options;
  options.iterations = 1;
  options.failpoints = "no_such.site=error";
  EXPECT_TRUE(RunChaosCampaign(options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace streamfreq
