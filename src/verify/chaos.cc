#include "verify/chaos.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/parallel_ingestor.h"
#include "core/count_sketch.h"
#include "core/sketch_io.h"
#include "dist/merge_tree.h"
#include "dist/tree.h"
#include "hash/random.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stream/types.h"
#include "stream/zipf.h"
#include "util/failpoint.h"
#include "util/macros.h"
#include "verify/checkers.h"
#include "verify/oracle.h"
#include "verify/program.h"

namespace streamfreq {

namespace {

constexpr uint64_t kProgramSalt = 0xC4A05C4A05ULL;
constexpr uint64_t kScheduleSalt = 0x5C4EDC4EDULL;
constexpr uint64_t kMix = 0x9E3779B97F4A7C15ULL;

/// What one iteration ended as.
enum class ChaosOutcome : uint8_t {
  kVerified,         ///< sketch passed its guarantee check
  kCleanError,       ///< a Status surfaced (the acceptable failure mode)
  kGuaranteeFailure, ///< sketch exists but violates its bounds — a bug
};

/// One iteration as the engine hands it to a campaign: what the engine
/// derived for it, and the verdict and counters the campaign writes back.
/// A non-OK Status from the campaign is a harness error, not a verdict.
struct Iteration {
  Iteration(const ChaosOptions& options_in, uint64_t index_in,
            std::string schedule_in, std::string scratch_in)
      : options(options_in),
        index(index_in),
        schedule(std::move(schedule_in)),
        scratch(std::move(scratch_in)) {}

  const ChaosOptions& options;
  const uint64_t index;
  const std::string schedule;  ///< the failpoint spec to arm
  const std::string scratch;   ///< path prefix for this iteration's files
  ChaosOutcome outcome = ChaosOutcome::kVerified;
  std::string detail;
  ChaosReport counts;  ///< counters only; the engine folds them in

  /// The iteration's seed for one purpose, told apart by `salt`.
  uint64_t Seed(uint64_t salt) const {
    return options.seed ^ ((index + salt) * kMix);
  }
  FuzzProgram Program() const {
    return ProgramFromSeed(options.seed ^ kProgramSalt, index);
  }
  /// Verdicts. Both return OK: the campaign goes on to the next iteration.
  Status Fail(std::string why) {
    outcome = ChaosOutcome::kGuaranteeFailure;
    detail = std::move(why);
    return Status::OK();
  }
  Status CleanError(const Status& status) {
    outcome = ChaosOutcome::kCleanError;
    detail = status.ToString();
    return Status::OK();
  }
};

/// Arms the iteration's schedule in this process; on scope exit records
/// how often it fired, before the registry disarms and forgets.
class ArmedSchedule {
 public:
  explicit ArmedSchedule(Iteration* it)
      : it_(it), failpoints_(it->schedule, it->Seed(1)) {}
  ~ArmedSchedule() {
    it_->counts.fault_fires = FailpointRegistry::Global().TotalFires();
  }
  Status status() const { return failpoints_.status(); }

 private:
  Iteration* it_;
  ScopedFailpoints failpoints_;
};

// ---------------------------------------------------------------------------
// The checks every campaign shares.
// ---------------------------------------------------------------------------

VerifySetup SetupFor(const FuzzProgram& bounds, const Oracle& oracle) {
  return MakeVerifySetup(bounds.k, bounds.epsilon, bounds.width_scale,
                         bounds.seed, oracle);
}

/// The paper's Lemma 4/5 check of `sketch` against the oracle of the
/// stream it really saw: the bounds widen by exactly the shed mass,
/// nothing more. Returns "" or the first violation.
std::string CheckEffectiveStream(const CountSketch& sketch,
                                 const Stream& effective,
                                 const FuzzProgram& bounds,
                                 size_t lemma_width) {
  if (effective.empty()) return "";
  const Oracle oracle(effective);
  const std::vector<Violation> violations = CheckCountSketchAgainstOracle(
      sketch, oracle, SetupFor(bounds, oracle), lemma_width);
  if (violations.empty()) return "";
  return violations.front().guarantee + ": " + violations.front().detail;
}

/// Count-Sketch linearity makes loss-free runs exact, not approximate: the
/// sketch must serialize to the reference's bytes.
bool BitIdentical(const CountSketch& got, const CountSketch& want) {
  std::string got_bytes;
  std::string want_bytes;
  got.SerializeTo(&got_bytes);
  want.SerializeTo(&want_bytes);
  return got_bytes == want_bytes;
}

// ---------------------------------------------------------------------------
// Library campaign: the degraded ParallelIngestor.
// ---------------------------------------------------------------------------

/// The input multiset minus the recorded spill, in input order. Order is
/// irrelevant to the oracle (it counts), so any linearization works.
Stream EffectiveStream(const Stream& stream, const std::vector<ItemId>& spill) {
  if (spill.empty()) return stream;
  std::map<ItemId, uint64_t> dropped;
  for (const ItemId id : spill) ++dropped[id];
  Stream effective;
  effective.reserve(stream.size() - spill.size());
  for (const ItemId id : stream) {
    const auto it = dropped.find(id);
    if (it != dropped.end() && it->second > 0) {
      --it->second;
      continue;
    }
    effective.push_back(id);
  }
  return effective;
}

Status RunLibraryIteration(Iteration* it) {
  const FuzzProgram program = it->Program();
  STREAMFREQ_ASSIGN_OR_RETURN(Stream stream, MaterializeStream(program));

  // Size the sketch for the full stream (what a production deployment
  // would provision for); degraded runs are judged later against what
  // actually arrived.
  const VerifySetup sizing = SetupFor(program, Oracle(stream));
  STREAMFREQ_ASSIGN_OR_RETURN(VerifySketchPlan plan,
                              PlanVerifyCountSketch(sizing));

  ArmedSchedule armed(it);
  STREAMFREQ_RETURN_NOT_OK(armed.status());

  Xoshiro256 rng(it->Seed(7));
  IngestOptions ingest;
  ingest.threads = 2 + static_cast<size_t>(rng.UniformBelow(2));
  ingest.batch_items = size_t{256} << rng.UniformBelow(3);
  ingest.queue_batches = 4;
  ingest.push_timeout_ms = 5;
  ingest.overflow_policy = rng.UniformBelow(2) == 0 ? OverflowPolicy::kShed
                                                    : OverflowPolicy::kSample;
  ingest.sample_keep_one_in = 4;
  ingest.record_shed = true;

  const auto factory = [&plan]() { return CountSketch::Make(plan.params); };
  auto ingestor =
      ParallelIngestor<CountSketch>::Make(factory, ingest);
  if (!ingestor.ok()) return it->CleanError(ingestor.status());
  const Status ingest_status =
      (*ingestor)->Ingest(std::span<const ItemId>(stream));
  Result<CountSketch> merged = (*ingestor)->Finish();
  const IngestStats stats = (*ingestor)->Stats();
  const std::vector<ItemId> spill = (*ingestor)->SpilledItems();
  it->counts.worker_respawns = stats.worker_respawns;
  it->counts.dropped_items = stats.DroppedItems();
  if (!ingest_status.ok()) return it->CleanError(ingest_status);
  if (!merged.ok()) return it->CleanError(merged.status());

  // Conservation: every offered item is either in a sketch or accounted
  // dropped, and the recorded spill is exactly the dropped mass.
  if (stats.items_ingested + stats.DroppedItems() != stream.size() ||
      spill.size() != stats.DroppedItems()) {
    return it->Fail("mass accounting broken: offered " +
                    std::to_string(stream.size()) + ", ingested " +
                    std::to_string(stats.items_ingested) + ", dropped " +
                    std::to_string(stats.DroppedItems()) + ", spill " +
                    std::to_string(spill.size()));
  }
  if (std::string why = CheckEffectiveStream(
          *merged, EffectiveStream(stream, spill), program, plan.lemma_width);
      !why.empty()) {
    return it->Fail(std::move(why));
  }

  // Round-trip the surviving sketch through persistence with the
  // sketch_io.* failpoints still armed: outcomes are a clean Status or a
  // loaded sketch whose estimates match the in-memory one exactly.
  if (it->options.exercise_io) {
    it->counts.io_round_trips = 1;
    const std::string path = it->scratch + ".skf";
    Result<CountSketch> loaded = Status::IoError("not written");
    if (WriteSketchFile(path, *merged).ok()) loaded = ReadSketchFile(path);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    if (!loaded.ok()) {
      it->counts.io_faults = 1;
      return Status::OK();
    }
    for (const ItemId q : sizing.probes) {
      if (loaded->Estimate(q) != merged->Estimate(q)) {
        return it->Fail(
            "persistence round trip changed the estimate of item " +
            std::to_string(q));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The client side of both server campaigns.
// ---------------------------------------------------------------------------

// Any of these on a request means the connection died under us (the server
// severed it at a failpoint, accept dropped it, or the daemon died). Every
// tenant exists before ingest starts, so NotFound can only be net.cc's
// "connection closed".
bool IsSever(const Status& status) {
  return status.IsNotFound() || status.IsCorruption() || status.IsIoError();
}

// Pulls `"field":<integer>` out of one tenant's flat object inside the
// TenantsJson()/statsz JSON; -1 when absent.
int64_t TenantJsonField(const std::string& json, const std::string& tenant,
                        const std::string& field) {
  const size_t tenant_at = json.find("\"" + tenant + "\":{");
  if (tenant_at == std::string::npos) return -1;
  const size_t scope_end = json.find('}', tenant_at);
  const size_t field_at = json.find("\"" + field + "\":", tenant_at);
  if (field_at == std::string::npos || field_at > scope_end) return -1;
  return std::strtoll(json.c_str() + field_at + field.size() + 3, nullptr,
                      10);
}

/// What a server campaign fixes about its client side.
struct ServerRig {
  /// Brings a connection back after a sever. `kill` first SIGKILLs the
  /// daemon (the kill-restart campaign's chunk-boundary death).
  std::function<Result<SfqClient>(bool kill)> reconnect;
  std::vector<std::pair<std::string, OverflowPolicy>> tenants;
  size_t chunk_items = 0;
  size_t query_every = 0;  ///< a top-k read after every this many chunks
  uint64_t kill_at = UINT64_MAX;  ///< chunk that SIGKILLs the daemon first
};

/// Drives a server's tenants the way a careful client would: each tenant
/// on its own connection (SfqClient is single-threaded by contract) that
/// comes back after every sever, ingest at most once per chunk, and the
/// ledger and loss-free export checks at the end. Each step returns "" or
/// the first broken guarantee.
class ServerDriver {
 public:
  ServerDriver(Iteration* it, ServerRig rig) : it_(it), rig_(std::move(rig)) {
    for (const auto& [name, policy] : rig_.tenants) {
      tenants_.emplace_back(name, policy);
    }
  }

  /// Creates every tenant, then ingests `stream` into each one in chunks.
  std::string CreateAndIngest(const Stream& stream,
                              const CountSketchParams& params) {
    for (size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      if (std::string why = Reconnect(t, "create"); !why.empty()) return why;
      TenantSpec spec;
      spec.depth = params.depth;
      spec.width = params.width;
      spec.seed = params.seed;
      spec.threads = 2;
      spec.batch_items = 512;
      spec.queue_batches = 4;
      spec.push_timeout_ms = 2;
      spec.policy = t.policy;
      spec.tracked = 256;
      // A create can be applied and then severed before the ack, so
      // "already exists" on the retry is success.
      std::string why = Retry(i, "create", [&](SfqClient& client) {
        const Status status = client.CreateTenant(t.name, spec);
        const bool exists =
            status.IsInvalidArgument() &&
            status.message().find("already exists") != std::string::npos;
        return exists ? Status::OK() : status;
      });
      if (!why.empty()) return why;
    }
    // At most once per chunk: after a sever the client cannot know whether
    // the chunk was applied (lost ack) or lost before the read, so it moves
    // on and reconciliation trusts the server-side ledger, never the acks.
    for (Tenant& t : tenants_) {
      size_t chunk = 0;
      for (size_t begin = 0; begin < stream.size();
           begin += rig_.chunk_items, ++chunk) {
        if (chunk == rig_.kill_at) {
          std::string why = Reconnect(t, "SIGKILL", /*kill=*/true);
          if (!why.empty()) return why;
        }
        const size_t len = std::min(rig_.chunk_items, stream.size() - begin);
        const Status status = t.client->Ingest(
            t.name, std::span<const ItemId>(stream.data() + begin, len));
        // Any other error is an explicit server-side rejection (admission
        // control or a poisoned journal), counted in rejected_items.
        if (status.ok()) {
          t.acked_items += len;
        } else if (IsSever(status)) {
          if (std::string why = Sever(t, "ingest"); !why.empty()) {
            return why;
          }
        }
        // Interleaved reads exercise snapshot staleness.
        if (chunk % rig_.query_every == rig_.query_every - 1) {
          if (std::string why = Query(t, 5); !why.empty()) return why;
        }
      }
    }
    return "";
  }

  /// Per tenant: offered − rejected == base_ingested + items_ingested +
  /// dropped (a durable tenant must report base_ingested; an in-process
  /// one recovered nothing and reports none), acks never exceed offers
  /// (write faults make acks an undercount, and every campaign's fsync
  /// policy survives a process kill), and offers never exceed the stream
  /// (no duplicated replay).
  std::string CheckLedger(const std::string& json, size_t stream_size) {
    for (const Tenant& t : tenants_) {
      const auto field = [&](const char* name) {
        return TenantJsonField(json, t.name, name);
      };
      const int64_t offered = field("offered_items");
      const int64_t rejected = field("rejected_items");
      const int64_t ingested = field("items_ingested");
      const int64_t dropped = field("dropped_items");
      const int64_t reported_base = field("base_ingested");
      if (offered < 0 || rejected < 0 || ingested < 0 || dropped < 0 ||
          (field("durable") >= 0 && reported_base < 0)) {
        return "tenant " + t.name + " missing from statsz: " + json;
      }
      const int64_t base = std::max<int64_t>(0, reported_base);
      it_->counts.dropped_items += static_cast<uint64_t>(dropped);
      it_->counts.worker_respawns +=
          static_cast<uint64_t>(std::max<int64_t>(0, field("worker_respawns")));
      it_->counts.stale_serves +=
          static_cast<uint64_t>(std::max<int64_t>(0, field("stale_serves")));
      if (offered - rejected != base + ingested + dropped) {
        return "conservation broken on " + t.name + ": offered " +
               std::to_string(offered) + " - rejected " +
               std::to_string(rejected) + " != base " + std::to_string(base) +
               " + ingested " + std::to_string(ingested) + " + dropped " +
               std::to_string(dropped);
      }
      if (static_cast<int64_t>(t.acked_items) > offered) {
        return "acks exceed offers on " + t.name + ": acked " +
               std::to_string(t.acked_items) + ", offered " +
               std::to_string(offered);
      }
      if (offered > static_cast<int64_t>(stream_size)) {
        return "offers exceed the stream on " + t.name + ": offered " +
               std::to_string(offered) + ", sent " +
               std::to_string(stream_size);
      }
    }
    return "";
  }

  /// Sealed tenants must still answer, and a tenant that lost nothing
  /// (every chunk applied once, nothing shed or rejected) must export a
  /// sketch bit-identical to a sequential reference and clean under the
  /// Lemma 4/5 check.
  std::string CheckSealed(const std::string& ledger, const Stream& stream,
                          const CountSketchParams& params,
                          const FuzzProgram& bounds, size_t lemma_width) {
    for (size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      // A sever is asked again on a new connection; any other error, or
      // no answer within Retry's tries, fails.
      uint64_t epoch = 0;
      std::string why = Retry(i, "sealed query", [&](SfqClient& client) {
        return client.TopK(t.name, 10, &epoch).status();
      });
      if (why.empty()) why = CheckEpoch(t, epoch);
      if (!why.empty()) return why;
      const bool loss_free =
          TenantJsonField(ledger, t.name, "offered_items") ==
              static_cast<int64_t>(stream.size()) &&
          TenantJsonField(ledger, t.name, "rejected_items") == 0 &&
          TenantJsonField(ledger, t.name, "dropped_items") == 0;
      if (!loss_free) continue;
      // The seal is durable, so an export severed (or crashed) after it is
      // re-asked of the recovered server.
      Result<CountSketch> exported = Status::IoError("never sent");
      why = Retry(i, "export", [&](SfqClient& client) {
        exported = client.Export(t.name);
        return exported.status();
      });
      if (!why.empty()) return why;
      Result<CountSketch> reference = CountSketch::Make(params);
      if (!reference.ok()) return "reference: " + reference.status().ToString();
      for (const ItemId q : stream) reference->Add(q, 1);
      if (!BitIdentical(*exported, *reference)) {
        return "served sketch is not bit-identical to the sequential "
               "reference on " + t.name;
      }
      why = CheckEffectiveStream(*exported, stream, bounds, lemma_width);
      if (!why.empty()) return why;
      ++it_->counts.identity_checks;
    }
    return "";
  }

  /// Sends `request` on tenant `i`'s connection until it succeeds,
  /// bringing the connection back after each sever (16 tries at most).
  std::string Retry(size_t i, const char* what,
                    const std::function<Status(SfqClient&)>& request) {
    Tenant& t = tenants_[i];
    for (int attempt = 0; attempt < 16; ++attempt) {
      const Status status = request(*t.client);
      if (status.ok()) return "";
      if (!IsSever(status)) {
        return std::string(what) + " failed on " + t.name + ": " +
               status.ToString();
      }
      if (std::string why = Sever(t, what); !why.empty()) return why;
    }
    return std::string(what) + " on " + t.name +
           " never succeeded through the faults";
  }

 private:
  struct Tenant {
    Tenant(std::string name_in, OverflowPolicy policy_in)
        : name(std::move(name_in)), policy(policy_in) {}

    std::string name;
    OverflowPolicy policy;
    std::optional<SfqClient> client;
    uint64_t acked_items = 0;
    uint64_t last_epoch = 0;
    uint64_t process = 0;  ///< server_restarts when last_epoch was read
  };

  std::string Reconnect(Tenant& t, const char* when, bool kill = false) {
    Result<SfqClient> client = rig_.reconnect(kill);
    if (!client.ok()) {
      return std::string("reconnect failed during ") + when + ": " +
             client.status().ToString();
    }
    t.client.emplace(std::move(*client));
    return "";
  }

  std::string Sever(Tenant& t, const char* when) {
    ++it_->counts.server_severs;
    return Reconnect(t, when);
  }

  /// A top-k read that may be severed.
  std::string Query(Tenant& t, uint64_t k) {
    uint64_t epoch = 0;
    const auto top = t.client->TopK(t.name, k, &epoch);
    if (IsSever(top.status())) return Sever(t, "query");
    if (!top.ok()) return "query failed: " + top.status().ToString();
    return CheckEpoch(t, epoch);
  }

  /// Epochs never move backwards within one server process.
  std::string CheckEpoch(Tenant& t, uint64_t epoch) {
    const uint64_t process = it_->counts.server_restarts;
    if (process == t.process && epoch < t.last_epoch) {
      return "epoch went backwards on " + t.name;
    }
    t.last_epoch = epoch;
    t.process = process;
    return "";
  }

  Iteration* it_;
  ServerRig rig_;
  std::vector<Tenant> tenants_;
};

/// `bounds` is what both server campaigns hold their sketches to: the
/// FuzzProgram defaults (k 10, epsilon 0.2, width scale 1) at `seed`.
FuzzProgram ServerBounds(uint64_t seed) {
  FuzzProgram bounds;
  bounds.seed = seed;
  return bounds;
}

// ---------------------------------------------------------------------------
// Server campaign: a real SfqServer behind real client connections.
// ---------------------------------------------------------------------------

Status RunServerIteration(Iteration* it) {
  // Seeded workload: one zipf stream, every tenant receives all of it.
  Xoshiro256 rng(it->Seed(3));
  const size_t n = 16384 + static_cast<size_t>(rng.UniformBelow(16384));
  auto gen = ZipfGenerator::Make(2000, 1.0, it->Seed(0));
  STREAMFREQ_RETURN_NOT_OK(gen.status());
  const Stream stream = gen->Take(n);
  const FuzzProgram bounds = ServerBounds(it->Seed(11));
  STREAMFREQ_ASSIGN_OR_RETURN(
      VerifySketchPlan plan,
      PlanVerifyCountSketch(SetupFor(bounds, Oracle(stream))));

  ServerOptions server_options;
  server_options.socket_path = it->scratch + ".sock";
  auto server = SfqServer::Start(server_options);
  if (!server.ok()) return it->CleanError(server.status());

  // Connect only fails if the listener is gone, which no schedule here
  // does on purpose: that IS a dead server.
  const auto reconnect = [&](bool) {
    return SfqClient::Connect(server_options.socket_path);
  };
  ServerDriver driver(it, {reconnect,
                           {{"shed", OverflowPolicy::kShed},
                            {"sample", OverflowPolicy::kSample}},
                           /*chunk_items=*/1024,
                           /*query_every=*/8});
  std::string ledger;
  {
    ArmedSchedule armed(it);
    STREAMFREQ_RETURN_NOT_OK(armed.status());
    if (std::string why = driver.CreateAndIngest(stream, plan.params);
        !why.empty()) {
      return it->Fail(std::move(why));
    }
    // Seal in-process (the harness owns the server), then reconcile while
    // the faults are still armed: the numbers must already be exact.
    (*server)->service().SealAll();
    ledger = (*server)->service().TenantsJson();
    if (std::string why = driver.CheckLedger(ledger, stream.size());
        !why.empty()) {
      return it->Fail(std::move(why));
    }
  }  // failpoints disarm here; the server itself is still up

  if (std::string why = driver.CheckSealed(ledger, stream, plan.params,
                                           bounds, plan.lemma_width);
      !why.empty()) {
    return it->Fail(std::move(why));
  }
  it->counts.server_requests = (*server)->Stats().requests;
  (*server)->RequestStop();
  server->reset();
  std::remove(server_options.socket_path.c_str());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Kill-restart campaign: a real, durable `sfq serve` process that keeps
// dying — at armed failpoints (crash == std::_Exit at the site) and under
// real SIGKILLs — and must keep coming back with its ledger intact.
// ---------------------------------------------------------------------------

/// One forked `sfq serve` child and the files it serves from. Destruction
/// kills it and removes them, whatever the verdict.
struct ChildServer {
  std::string socket_path;
  std::string data_dir;
  pid_t pid = -1;
  int last_wstatus = 0;

  ~ChildServer() {
    Kill();
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
    std::remove(socket_path.c_str());
  }

  /// Non-blocking liveness probe; reaps the child when it has exited and
  /// remembers how it died (for diagnostics on unexpected deaths).
  bool Alive() {
    if (pid < 0) return false;
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      pid = -1;
      last_wstatus = wstatus;
      return false;
    }
    return true;
  }

  std::string DeathReason() const {
    if (WIFEXITED(last_wstatus)) {
      return "exit status " + std::to_string(WEXITSTATUS(last_wstatus));
    }
    if (WIFSIGNALED(last_wstatus)) {
      return "signal " + std::to_string(WTERMSIG(last_wstatus));
    }
    return "unknown wait status " + std::to_string(last_wstatus);
  }

  /// SIGKILL + reap (no-op when already gone).
  void Kill() {
    if (pid < 0) return;
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    pid = -1;
  }

  /// Forks and execs `binary serve --socket ... --data-dir ...`. An empty
  /// failpoint spec launches a clean (recovery-only) server. Child output
  /// goes to /dev/null so campaign output stays readable.
  Status Spawn(const std::string& binary, const std::string& failpoints,
               uint64_t seed, const std::string& fsync_policy) {
    // Everything that allocates happens before the fork: a child of a
    // process that has run threads may make only async-signal-safe calls
    // until it execs.
    std::vector<std::string> args = {binary,        "serve",
                                     "--socket",    socket_path,
                                     "--data-dir",  data_dir,
                                     "--snapshot-every", "2048",
                                     "--fsync",     fsync_policy,
                                     "--seed",      std::to_string(seed)};
    if (!failpoints.empty()) {
      args.push_back("--failpoints");
      args.push_back(failpoints);
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid = ::fork();
    if (pid < 0) return Status::Internal("chaos: fork failed");
    if (pid > 0) return Status::OK();
    const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }

  /// Polls until the socket accepts a connection. A child that dies before
  /// binding is an error — the caller decides whether that death was an
  /// armed crash (relaunch) or a bug (fail the iteration).
  Result<SfqClient> WaitReady() {
    for (int attempt = 0; attempt < 2000; ++attempt) {
      auto client = SfqClient::Connect(socket_path);
      if (client.ok()) return client;
      if (!Alive()) {
        return Status::IoError("server process died before becoming ready (" +
                               DeathReason() + ")");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Status::IoError("server never became ready on " + socket_path);
  }
};

Status RunRestartIteration(Iteration* it) {
  // Seeded workload, sized so one iteration (including a couple of process
  // restarts) stays well under a second.
  Xoshiro256 rng(it->Seed(13));
  const size_t n = 4096 + static_cast<size_t>(rng.UniformBelow(4096));
  auto gen = ZipfGenerator::Make(2000, 1.0, it->Seed(17));
  STREAMFREQ_RETURN_NOT_OK(gen.status());
  const Stream stream = gen->Take(n);
  const FuzzProgram bounds = ServerBounds(it->Seed(19));
  STREAMFREQ_ASSIGN_OR_RETURN(
      VerifySketchPlan plan,
      PlanVerifyCountSketch(SetupFor(bounds, Oracle(stream))));

  // Rotate the WAL durability policy across iterations. Process kills (the
  // only death this campaign inflicts) preserve the page cache, so acked <=
  // offered must hold under every policy — including kBatch, whose bounded
  // ack-durability window only matters against a machine crash.
  const char* kFsyncPolicies[] = {"always", "never", "batch"};
  const std::string fsync_policy = kFsyncPolicies[rng.UniformBelow(3)];
  // One randomized chunk boundary takes a REAL SIGKILL (50% of
  // iterations), on top of whatever the armed schedule does.
  constexpr size_t kChunkItems = 512;
  const uint64_t kill_at =
      rng.UniformBelow((stream.size() + kChunkItems - 1) / kChunkItems * 2);

  ChildServer child;
  child.socket_path = it->scratch + ".sock";
  child.data_dir = it->scratch + ".data";
  std::error_code ec;
  std::filesystem::remove_all(child.data_dir, ec);
  std::remove(child.socket_path.c_str());
  // Masked to 63 bits: the CLI seed flag parses as a signed integer.
  STREAMFREQ_RETURN_NOT_OK(child.Spawn(it->options.server_binary,
                                       it->schedule, it->Seed(1) >> 1,
                                       fsync_policy));
  if (auto ready = child.WaitReady(); !ready.ok()) {
    // Fresh dir, no tenants: nothing can fire before the bind, so a death
    // here is a bug, not an armed crash.
    return it->Fail("server never came up: " + ready.status().ToString());
  }

  const std::string tenant = "dur";
  // Relaunches the daemon WITHOUT failpoints over the same data dir, waits
  // for it, and records what recovery reported.
  const auto relaunch = [&]() -> Result<SfqClient> {
    ++it->counts.crash_kills;
    ++it->counts.server_restarts;
    std::remove(child.socket_path.c_str());
    STREAMFREQ_RETURN_NOT_OK(child.Spawn(it->options.server_binary,
                                         /*failpoints=*/"", 0, fsync_policy));
    STREAMFREQ_ASSIGN_OR_RETURN(SfqClient client, child.WaitReady());
    // A crash before the create was applied leaves no tenant — that is
    // the correct recovery of an unacknowledged create, not an error.
    auto info = client.RecoveryInfo(tenant);
    if (info.ok() && info->find("\"recovered\":true") != std::string::npos) {
      ++it->counts.recoveries;
    }
    return client;
  };
  // After a sever the child may be mid-exit (connection already dropped,
  // process not yet reapable), so poll liveness and the socket together
  // instead of trusting one snapshot of either.
  const auto reconnect = [&](bool kill) -> Result<SfqClient> {
    if (kill && child.Alive()) {
      child.Kill();
      return relaunch();
    }
    for (int attempt = 0; attempt < 400; ++attempt) {
      if (!child.Alive()) return relaunch();
      auto client = SfqClient::Connect(child.socket_path);
      if (client.ok()) return client;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Status::IoError("server alive but unreachable on " +
                           child.socket_path);
  };
  ServerDriver driver(it, {reconnect, {{tenant, OverflowPolicy::kShed}},
                           kChunkItems, /*query_every=*/4, kill_at});
  if (std::string why = driver.CreateAndIngest(stream, plan.params);
      !why.empty()) {
    return it->Fail(std::move(why));
  }

  // Seal and read the ledger through the schedule (the first process may
  // still be alive with benign faults armed).
  std::string statsz;
  std::string why = driver.Retry(0, "seal", [&](SfqClient& client) {
    STREAMFREQ_RETURN_NOT_OK(client.Seal(tenant).status());
    STREAMFREQ_ASSIGN_OR_RETURN(statsz, client.Statsz());
    return Status::OK();
  });
  if (why.empty()) why = driver.CheckLedger(statsz, stream.size());
  if (why.empty()) {
    why = driver.CheckSealed(statsz, stream, plan.params, bounds,
                             plan.lemma_width);
  }
  if (!why.empty()) return it->Fail(std::move(why));
  it->counts.server_requests = static_cast<uint64_t>(
      std::max<int64_t>(0, TenantJsonField(statsz, "server", "requests")));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Merge-tree campaign: ingest and delta shipping under the dist.* sites.
// ---------------------------------------------------------------------------

Status RunTreeIteration(Iteration* it) {
  const FuzzProgram program = it->Program();
  STREAMFREQ_ASSIGN_OR_RETURN(Stream stream, MaterializeStream(program));

  // Size the sketch for the full stream; degraded runs are judged against
  // the covered (effective) stream, as in the library campaign.
  STREAMFREQ_ASSIGN_OR_RETURN(
      VerifySketchPlan plan,
      PlanVerifyCountSketch(SetupFor(program, Oracle(stream))));

  // Randomized topology: flat star, balanced, or ragged random tree over
  // fanout 1..8 and depth 1..4.
  Xoshiro256 rng(it->Seed(11));
  const uint64_t workers = 2 + rng.UniformBelow(7);
  Result<TreeTopology> topo_result = [&]() -> Result<TreeTopology> {
    const uint64_t shape = rng.UniformBelow(3);
    if (shape == 0) return BuildBalancedTree(workers, 0);  // flat star
    if (shape == 1) return BuildBalancedTree(workers, 2 + rng.UniformBelow(3));
    return BuildRandomTree(workers, 1 + rng.UniformBelow(8),
                           1 + rng.UniformBelow(4), &rng);
  }();
  STREAMFREQ_RETURN_NOT_OK(topo_result.status());
  const TreeTopology& topo = *topo_result;

  const size_t tracked = std::max<size_t>(16, 2 * program.k);
  Result<MergeTreeSim> sim_result =
      MergeTreeSim::Make(*topo_result, plan.params, tracked);
  STREAMFREQ_RETURN_NOT_OK(sim_result.status());
  MergeTreeSim& sim = *sim_result;

  ArmedSchedule armed(it);
  STREAMFREQ_RETURN_NOT_OK(armed.status());
  const Status status = [&]() -> Status {
    // Stripe the stream across the leaves in contiguous slices, then offer
    // interleaved batches with shipping rounds mixed in — deltas are in
    // flight while other leaves are still ingesting.
    const uint64_t leaves = topo.leaves.size();
    const uint64_t slice = (stream.size() + leaves - 1) / leaves;
    std::vector<uint64_t> offsets(leaves, 0);
    const uint64_t batch = 128 + rng.UniformBelow(4) * 128;
    const uint64_t epoch_at = rng.UniformBelow(stream.size() + 1);
    uint64_t offered_so_far = 0;
    bool epoch_marked = false;
    bool exhausted = false;
    while (!exhausted) {
      exhausted = true;
      for (uint64_t li = 0; li < leaves; ++li) {
        const uint64_t begin = li * slice;
        const uint64_t end = std::min<uint64_t>(begin + slice, stream.size());
        const uint64_t len = end > begin ? end - begin : 0;
        if (offsets[li] >= len) continue;
        exhausted = false;
        const uint64_t leaf = topo.leaves[li];
        const uint64_t n = std::min<uint64_t>(batch, len - offsets[li]);
        if (!sim.alive(leaf)) {
          offsets[li] = len;  // a dead leaf's remaining slice is never offered
          continue;
        }
        const Status offer = sim.Offer(
            leaf, std::span<const ItemId>(stream.data() + begin + offsets[li],
                                          n));
        offsets[li] += n;
        offered_so_far += n;
        if (!offer.ok() && !offer.IsNotFound()) return it->CleanError(offer);
        if (!epoch_marked && offered_so_far >= epoch_at) {
          sim.MarkEpoch();
          epoch_marked = true;
        }
      }
      if (rng.UniformBelow(2) == 0) {
        const Result<bool> round = sim.ShipRound();
        if (!round.ok()) {
          return it->Fail("ship round: " + round.status().ToString());
        }
      }
    }
    sim.Seal();
    const Status drained = sim.Drain(64 + 8 * topo.max_depth());
    if (!drained.ok()) return it->Fail("drain: " + drained.ToString());

    // Exercise the root query surface (crash = failure; values are checked
    // below through the guarantee machinery).
    (void)sim.ApproxTop(program.k);
    const Result<std::vector<ItemCount>> change = sim.MaxChange(program.k);
    if (!change.ok()) {
      return it->Fail("max-change: " + change.status().ToString());
    }

    // Conservation and composition at every node, and bit-identity of
    // every node's sketch against its covered-prefix reference.
    if (const Status invariants = sim.CheckInvariants(); !invariants.ok()) {
      return it->Fail(invariants.ToString());
    }

    Stream effective;
    for (const CoverageEntry& cov : sim.RootCovered()) {
      const std::vector<ItemId>& items = sim.LeafIngested(cov.leaf_id);
      effective.insert(effective.end(), items.begin(),
                       items.begin() + static_cast<ptrdiff_t>(cov.count));
    }
    if (std::string why = CheckEffectiveStream(sim.root_sketch(), effective,
                                               program, plan.lemma_width);
        !why.empty()) {
      return it->Fail(std::move(why));
    }

    // Loss-free runs must be bit-identical to a flat one-shot Merge of all
    // leaf sketches over the full stream.
    const DistLedger root = sim.root_ledger();
    if (root.offered != stream.size() || root.rejected != 0 ||
        root.dropped != 0 || root.ingested != stream.size()) {
      return Status::OK();
    }
    STREAMFREQ_ASSIGN_OR_RETURN(CountSketch flat,
                                CountSketch::Make(plan.params));
    for (uint64_t leaf : topo.leaves) {
      STREAMFREQ_ASSIGN_OR_RETURN(CountSketch leaf_sketch,
                                  CountSketch::Make(plan.params));
      leaf_sketch.BatchAdd(std::span<const ItemId>(sim.LeafIngested(leaf)));
      STREAMFREQ_RETURN_NOT_OK(flat.Merge(leaf_sketch));
    }
    if (!BitIdentical(sim.root_sketch(), flat)) {
      return it->Fail("loss-free root sketch differs from flat one-shot merge");
    }
    it->counts.identity_checks = 1;
    return Status::OK();
  }();

  // Every exit, verdict or not, reports what the tree did.
  const MergeTreeStats& stats = sim.stats();
  it->counts.deltas_shipped = stats.deltas_shipped;
  it->counts.delta_dedups = stats.delta_dedups;
  it->counts.severed_links = stats.severed_links;
  it->counts.nodes_lost = stats.nodes_lost;
  const DistLedger root = sim.root_ledger();
  it->counts.dropped_items = root.rejected + root.dropped;
  return status;
}

// ---------------------------------------------------------------------------
// Schedules: each campaign draws its clauses; ChaosSchedule seeds and joins.
// ---------------------------------------------------------------------------

struct ScheduleDraw {
  Xoshiro256 rng;
  std::vector<std::string> clauses;

  bool Chance(uint64_t percent) { return rng.UniformBelow(100) < percent; }
  /// A crash clause's fire budget, 1..max.
  std::string Budget(uint64_t max) {
    return std::to_string(1 + rng.UniformBelow(max));
  }
  void Add(std::string clause) { clauses.push_back(std::move(clause)); }
};

void LibraryClauses(ScheduleDraw* d) {
  // Crash clauses ALWAYS carry a fire budget: an unbounded always-crash
  // worker would requeue and respawn forever.
  if (d->Chance(35)) {
    d->Add("ingestor.worker_batch=crash*" + d->Budget(3));
  } else if (d->Chance(25)) {
    d->Add("ingestor.worker_batch=stall:1@0.02");
  }
  if (d->Chance(20)) d->Add("batch_queue.push=error@0.02");
  if (d->Chance(20)) d->Add("batch_queue.pop=stall:1@0.02");
  if (d->Chance(25)) d->Add("ingestor.publish=error@0.5");
  if (d->Chance(30)) {
    d->Add(std::string("sketch_io.write=") +
           (d->Chance(50) ? "torn*1" : "error*1"));
  }
  if (d->Chance(20)) d->Add("sketch_io.rename=error*1");
  if (d->Chance(30)) {
    d->Add(std::string("sketch_io.read=") +
           (d->Chance(50) ? "bitflip*1" : "error*1"));
  }
}

void ServerClauses(ScheduleDraw* d) {
  // Connection-level faults: each severs one conversation; the drivers
  // reconnect and reconciliation trusts the server-side ledger.
  if (d->Chance(40)) d->Add("server.accept=error@0.1");
  if (d->Chance(40)) d->Add("server.read=error@0.03");
  if (d->Chance(40)) d->Add("server.write=error@0.03");
  // Staleness: snapshot refreshes withheld on a coin flip.
  if (d->Chance(40)) d->Add("server.publish=error@0.5");
  // Back-pressure behind the protocol: stalled queues arm the tenants'
  // shed/sample admission control, crashed workers force respawns.
  if (d->Chance(25)) d->Add("ingestor.worker_batch=crash*" + d->Budget(2));
  if (d->Chance(20)) d->Add("batch_queue.pop=stall:1@0.02");
  if (d->Chance(20)) d->Add("ingestor.publish=error@0.5");
}

void RestartClauses(ScheduleDraw* d) {
  // Exactly one process-death clause, probability-throttled and *1-budgeted
  // (each iteration dies at most once at a failpoint; the real SIGKILL in
  // the driver is on top). Each site leaves a different on-disk shape:
  //   wal.append       death before the record hits the journal
  //   wal.fsync        record written but not yet forced (page cache)
  //   snapshot.publish death before the snapshot's commit rename
  //   sketch_io.write  death mid-blob-write (temp file only)
  //   sketch_io.rename temp fully written, rename never happened
  static constexpr const char* kDeathSites[] = {
      "wal.append", "wal.fsync", "snapshot.publish", "sketch_io.write",
      "sketch_io.rename"};
  const std::string death = kDeathSites[d->rng.UniformBelow(5)];
  d->Add(death + "=crash@0.08*1");
  // Benign companions: severed acks (the applied-but-unacked ambiguity)
  // and, when the death site leaves wal.append free, one torn journal
  // record — which poisons the store into loud rejections, not corruption.
  if (d->Chance(25)) d->Add("server.write=error@0.02");
  if (d->Chance(15) && death != "wal.append") d->Add("wal.append=torn@0.05*1");
}

void TreeClauses(ScheduleDraw* d) {
  // Admission faults at the leaves: rejected batches and recorded sheds —
  // the mass the conservation ledger must carry up the tree.
  if (d->Chance(30)) {
    d->Add("dist.ingest=error@0.05");
  } else if (d->Chance(25)) {
    d->Add("dist.ingest=torn@0.05");
  }
  // Uplink frame faults: severed, torn, or bit-flipped in flight. Torn and
  // flipped frames must die at the CRC and count as severs, never as
  // applied garbage.
  if (d->Chance(35)) {
    d->Add("dist.ship=error@0.08");
  } else if (d->Chance(25)) {
    d->Add("dist.ship=torn@0.06");
  } else if (d->Chance(20)) {
    d->Add("dist.ship=bitflip@0.05");
  }
  // Dropped deliveries re-ack the OLD seqno; lost acks force verbatim
  // resends — both must dedup exactly.
  if (d->Chance(30)) d->Add("dist.deliver=error@0.08");
  if (d->Chance(35)) d->Add("dist.ack=error@0.1");
  // Node loss ALWAYS carries a budget: an unbounded crash clause would
  // eventually kill every node and leave nothing to assert.
  if (d->Chance(30)) d->Add("dist.node=crash@0.02*" + d->Budget(2));
}

/// Everything the engine needs to know about a campaign.
struct CampaignDef {
  const char* tag;               ///< names its scratch files
  uint64_t schedule_salt;        ///< tells its schedule seeds apart
  void (*clauses)(ScheduleDraw*);
  const char* fallback;          ///< the clause when none was drawn
  Status (*run)(Iteration*);
  bool fuzz_program;             ///< its workload is a replayable program
};

const CampaignDef& Def(ChaosCampaign campaign) {
  static const CampaignDef kDefs[] = {
      {"lib", 1, LibraryClauses, "ingestor.worker_batch=crash*1",
       RunLibraryIteration, true},
      {"srv", 5, ServerClauses, "server.write=error@0.05", RunServerIteration,
       false},
      // Never empty: it always draws its death clause.
      {"rst", 9, RestartClauses, "", RunRestartIteration, false},
      {"tree", 13, TreeClauses, "dist.ack=error@0.1", RunTreeIteration, true},
  };
  return kDefs[static_cast<size_t>(campaign)];
}

/// The per-iteration counters the engine sums into the campaign report.
constexpr uint64_t ChaosReport::*kCounters[] = {
    &ChaosReport::fault_fires,     &ChaosReport::worker_respawns,
    &ChaosReport::dropped_items,   &ChaosReport::io_round_trips,
    &ChaosReport::io_faults,       &ChaosReport::server_requests,
    &ChaosReport::server_severs,   &ChaosReport::stale_serves,
    &ChaosReport::server_restarts, &ChaosReport::crash_kills,
    &ChaosReport::recoveries,      &ChaosReport::identity_checks,
    &ChaosReport::deltas_shipped,  &ChaosReport::delta_dedups,
    &ChaosReport::severed_links,   &ChaosReport::nodes_lost,
};

}  // namespace

std::string ChaosSchedule(ChaosCampaign campaign, uint64_t seed,
                          uint64_t index) {
  const CampaignDef& def = Def(campaign);
  ScheduleDraw draw{
      Xoshiro256(seed ^ kScheduleSalt ^ ((index + def.schedule_salt) * kMix)),
      {}};
  def.clauses(&draw);
  if (draw.clauses.empty()) draw.Add(def.fallback);
  std::string spec;
  for (const std::string& clause : draw.clauses) {
    if (!spec.empty()) spec += ';';
    spec += clause;
  }
  return spec;
}

Result<ChaosReport> RunChaosCampaign(const ChaosOptions& options) {
  if (options.iterations == 0) {
    return Status::InvalidArgument("chaos: iterations must be >= 1");
  }
  if (options.campaign == ChaosCampaign::kServerRestart &&
      options.server_binary.empty()) {
    return Status::InvalidArgument(
        "chaos: --server-restart needs the sfq binary path");
  }
  std::string io_dir = options.io_dir;
  if (io_dir.empty()) {
    std::error_code ec;
    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path(ec);
    if (ec) return Status::IoError("chaos: no temp directory: " + ec.message());
    io_dir = tmp.string();
  }
  const CampaignDef& def = Def(options.campaign);
  // The pid keeps concurrent campaigns with one seed out of each other's
  // sockets and data dirs.
  const std::string scratch = io_dir + "/sfq_chaos_" + def.tag + "_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(options.seed) + "_";

  ChaosReport report;
  for (uint64_t index = 0; index < options.iterations; ++index) {
    Iteration it(options, index,
                 options.failpoints.empty()
                     ? ChaosSchedule(options.campaign, options.seed, index)
                     : options.failpoints,
                 scratch + std::to_string(index));
    STREAMFREQ_RETURN_NOT_OK(def.run(&it));

    ++report.iterations;
    for (const auto counter : kCounters) report.*counter += it.counts.*counter;
    if (it.counts.fault_fires > 0 || it.counts.crash_kills > 0) {
      ++report.faulted_iterations;
    }
    switch (it.outcome) {
      case ChaosOutcome::kVerified:
        ++report.verified;
        break;
      case ChaosOutcome::kCleanError:
        ++report.clean_errors;
        break;
      case ChaosOutcome::kGuaranteeFailure:
        ++report.guarantee_failures;
        report.failures.push_back(
            {index, def.fuzz_program ? FormatProgram(it.Program()) : "",
             it.schedule, it.detail});
        break;
    }
  }
  return report;
}

}  // namespace streamfreq
