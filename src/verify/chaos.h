// Chaos harness: seeded workloads replayed under randomized fault injection.
//
// One engine runs four campaigns (ChaosCampaign below). Each iteration
// derives a bounded failpoint schedule from (seed, iteration), arms it,
// and pushes a seeded stream through one campaign's pipeline. Every
// campaign holds the robustness contract of the whole system:
//
//   every iteration ends in a clean error Status, or in a sketch that
//   passes its guarantee check against the *effective* stream — the items
//   that actually reached a sketch, i.e. the input multiset minus the
//   recorded shed mass. Nothing crashes, nothing silently lies.
//
// Checking against the effective stream is what "widen the bounds by
// exactly the shed mass" means operationally: the oracle, probes, and
// residual-F2 term are recomputed from the surviving items, so a degraded
// run is held to the same Lemma 4/5 bound as a clean one over the stream
// it really saw. The conservation ledger (offered − rejected == ingested +
// dropped) is asserted on every iteration as well, and runs that lost
// nothing must be bit-identical to a sequential reference, as Count-Sketch
// linearity requires.
//
// Schedules are deterministic in (campaign, seed, iteration): crash
// clauses always carry a *N budget — an unbounded always-crash schedule
// would respawn forever — and stall parameters stay in the low
// milliseconds.
//
// Entry points: `sfq chaos` (scripts/check.sh runs a quick profile of each
// campaign; the nightly campaign runs longer) and tests/chaos_test.cc,
// which runs all four.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace streamfreq {

/// The pipeline a campaign drives, and what it checks.
enum class ChaosCampaign : uint8_t {
  /// `sfq chaos`: each iteration takes one seeded FuzzProgram (the grammar
  /// `sfq verify` replays) through the degraded ParallelIngestor
  /// (shed/sample overflow policies with the spill recorded). IngestStats
  /// conservation (offered == ingested + dropped) holds on every
  /// iteration; with `exercise_io` the surviving sketch also round-trips
  /// through sketch_io under its failpoints.
  kLibrary,
  /// `sfq chaos --server`: each iteration boots an in-process SfqServer on
  /// a socket under io_dir and pushes a seeded stream into shed- and
  /// sample-policy tenants through real client connections while
  /// server.accept/read/write/publish faults sever connections and
  /// withhold snapshots. A severed connection is the expected fault
  /// surface: the iteration fails only on broken accounting (per tenant,
  /// offered − rejected == ingested + dropped, and client acks never
  /// exceed server offers), an epoch that moves backwards, a dead server,
  /// or a bad surviving sketch.
  kServer,
  /// `sfq chaos --server-restart`: each iteration forks a real `sfq serve
  /// --data-dir` process with exactly one process-death clause armed (a
  /// crash is std::_Exit at one of the durability sites — journal
  /// append/fsync, snapshot publish, blob write/rename — a faithful power
  /// cut for everything except the page cache). It drives a durable
  /// tenant through at-most-once ingest chunks and, whenever the daemon
  /// dies at a failpoint or is SIGKILLed at a randomized chunk boundary,
  /// relaunches it clean over the same data dir. After recovery the
  /// ledger holds with the recovered prefix in base_ingested, acks never
  /// exceed offers, and epochs are monotone within each server process.
  /// Requires ChaosOptions::server_binary.
  kServerRestart,
  /// `sfq chaos --tree`: each iteration builds a randomized topology (flat
  /// star, balanced, or ragged random tree) over a seeded fuzz-program
  /// stream striped across the leaves, then drives ingest and delta
  /// shipping (src/dist/merge_tree.h) under the five dist.* sites —
  /// admission faults, severed/torn/bit-flipped uplink frames, dropped
  /// deliveries, lost acks — plus budgeted node loss. The root sketch must
  /// be bit-identical to the sketch of exactly the covered prefix of every
  /// leaf stream, the ledger must hold at every node and compose hop by
  /// hop, and re-delivered deltas must dedup exactly.
  kTree,
};

/// Campaign configuration.
struct ChaosOptions {
  ChaosCampaign campaign = ChaosCampaign::kLibrary;
  uint64_t seed = 1;          ///< master seed for workloads + schedules
  uint64_t iterations = 200;  ///< seeded workloads to replay under faults
  /// Failpoint spec applied to every iteration. Empty = derive a fresh
  /// bounded schedule from (seed, iteration). Beware unbounded crash
  /// clauses here: `...=crash` with no *N budget respawns forever.
  std::string failpoints;
  /// Library campaign: also save/load each surviving sketch through
  /// sketch_io (exercising the sketch_io.* failpoints) in `io_dir`.
  bool exercise_io = true;
  /// Directory for round-trip files, sockets and data dirs; empty = the
  /// system temp directory.
  std::string io_dir;
  /// Path to the `sfq` binary, required by the kill-restart campaign
  /// (`sfq chaos --server-restart` passes its own image).
  std::string server_binary;
};

/// A failed iteration, kept for reproduction.
struct ChaosFailure {
  uint64_t index = 0;
  std::string program;   ///< replay line for `sfq verify --program`
  std::string schedule;  ///< the failpoint spec that was armed
  std::string detail;    ///< first violation / accounting mismatch
};

/// Campaign totals. The campaign "passes" iff guarantee_failures == 0.
struct ChaosReport {
  uint64_t iterations = 0;
  uint64_t verified = 0;
  uint64_t clean_errors = 0;
  uint64_t guarantee_failures = 0;
  uint64_t fault_fires = 0;       ///< failpoint activations across the run
  uint64_t faulted_iterations = 0;  ///< iterations where a fault fired or
                                    ///< a process died
  uint64_t worker_respawns = 0;
  uint64_t dropped_items = 0;     ///< shed + sampled-away + abandoned mass
  uint64_t io_round_trips = 0;    ///< sketch_io round trips attempted
  uint64_t io_faults = 0;         ///< round trips that failed cleanly
  uint64_t server_requests = 0;   ///< requests processed (server campaigns)
  uint64_t server_severs = 0;     ///< client-visible connection severs
  uint64_t stale_serves = 0;      ///< queries served a withheld snapshot
  uint64_t server_restarts = 0;   ///< daemon relaunches (restart campaign)
  uint64_t crash_kills = 0;       ///< process deaths: failpoint or SIGKILL
  uint64_t recoveries = 0;        ///< relaunches that reported recovered state
  uint64_t identity_checks = 0;   ///< loss-free runs verified bit-identical
  uint64_t deltas_shipped = 0;    ///< tree campaign: frames sent (+resends)
  uint64_t delta_dedups = 0;      ///< tree campaign: re-deliveries skipped
  uint64_t severed_links = 0;     ///< tree campaign: frames lost in flight
  uint64_t nodes_lost = 0;        ///< tree campaign: permanent node deaths
  std::vector<ChaosFailure> failures;  ///< guarantee failures only

  bool Passed() const { return guarantee_failures == 0; }
};

/// The deterministic failpoint schedule of iteration `index`, used when
/// ChaosOptions::failpoints is empty. Exposed so tests can assert the
/// schedules are bounded and reproducible.
std::string ChaosSchedule(ChaosCampaign campaign, uint64_t seed,
                          uint64_t index);

/// Runs `options.campaign`. Status errors here are harness-level problems
/// (e.g. an unmaterializable program or a bad failpoint spec), not
/// injected faults — those are tallied in the report.
Result<ChaosReport> RunChaosCampaign(const ChaosOptions& options);

}  // namespace streamfreq
