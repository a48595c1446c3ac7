#include "server/service.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <span>
#include <utility>
#include <vector>

#include "util/failpoint.h"

namespace streamfreq {

namespace {

// Bounds on per-tenant knobs: a hostile or confused client must not be able
// to ask one tenant for unbounded threads or candidate slots.
constexpr uint64_t kMaxTenantThreads = 16;
constexpr uint64_t kMaxTracked = 4096;
constexpr uint64_t kMaxBatchItems = uint64_t{1} << 20;

void AppendJsonKey(std::string* out, const char* key, uint64_t value) {
  out->append("\"");
  out->append(key);
  out->append("\":");
  out->append(std::to_string(value));
}

void AppendJsonBool(std::string* out, const char* key, bool value) {
  out->append("\"");
  out->append(key);
  out->append("\":");
  out->append(value ? "true" : "false");
}

// Resolves the wire geometry: zero means the library default, so the wire
// never carries magic dimensions.
CountSketchParams ResolveParams(const TenantSpec& spec) {
  CountSketchParams params;
  if (spec.depth > 0) params.depth = static_cast<size_t>(spec.depth);
  if (spec.width > 0) params.width = static_cast<size_t>(spec.width);
  params.seed = spec.seed;
  return params;
}

IngestOptions ToIngestOptions(const TenantSpec& spec) {
  IngestOptions options;
  options.threads = static_cast<size_t>(spec.threads);
  options.batch_items = static_cast<size_t>(spec.batch_items);
  options.queue_batches = static_cast<size_t>(spec.queue_batches);
  options.publish_every_batches =
      static_cast<size_t>(spec.publish_every_batches);
  options.push_timeout_ms = spec.push_timeout_ms;
  options.overflow_policy = spec.policy;
  options.sample_keep_one_in = static_cast<size_t>(spec.sample_keep_one_in);
  return options;
}

// ValidTenantName admits "." and ".." (dots are legal name bytes); as
// directory names those escape the data_dir, so durable mode refuses them.
bool SafeDurableTenantName(const std::string& name) {
  return name != "." && name != "..";
}

}  // namespace

/// One tenant namespace. The ingestor pointer is set once at construction
/// and never reassigned (the ingestor itself is internally synchronized);
/// everything mutable sits behind the tenant mutex.
struct SketchService::Tenant {
  Tenant(TenantSpec spec_in, CountSketchParams params_in,
         std::unique_ptr<ParallelIngestor<CountSketch>> ingestor_in,
         std::unique_ptr<SpaceSaving> candidates_in,
         std::unique_ptr<TenantStore> store_in = nullptr,
         TenantRecovery recovery_in = {}, uint64_t base_ingested_in = 0)
      : spec(std::move(spec_in)),
        params(params_in),
        ingestor(std::move(ingestor_in)),
        store(std::move(store_in)),
        recovery(recovery_in),
        base_ingested(base_ingested_in) {
    MutexLock lock(mu);
    candidates = std::move(candidates_in);
  }

  const TenantSpec spec;
  const CountSketchParams params;  ///< resolved geometry (defaults applied)
  const std::unique_ptr<ParallelIngestor<CountSketch>> ingestor;
  /// Durability engine (journal + snapshots); null when the service has no
  /// data_dir. Internally synchronized.
  const std::unique_ptr<TenantStore> store;
  const TenantRecovery recovery;  ///< what startup recovery found
  /// Items already folded into the ingestor's recovered seed sketch; the
  /// ingestor's own items_ingested counts only post-recovery work, so the
  /// conservation law reads base_ingested + items_ingested.
  const uint64_t base_ingested;

  mutable Mutex mu;
  /// All-time heavy-hitter candidates; top-k scores them on the snapshot.
  std::unique_ptr<SpaceSaving> candidates SFQ_GUARDED_BY(mu);
  /// Marked snapshot for max-change (kMarkEpoch copies, kMaxChange
  /// subtracts — the paper's two-pass algorithm across live epochs).
  std::unique_ptr<CountSketch> marked SFQ_GUARDED_BY(mu);
  uint64_t marked_epoch SFQ_GUARDED_BY(mu) = 0;
  /// Serving cache backing the server.publish degraded path.
  const CountSketch* served SFQ_GUARDED_BY(mu) = nullptr;
  uint64_t served_epoch SFQ_GUARDED_BY(mu) = 0;
  /// Admission bookkeeping (see the header's conservation contract).
  uint64_t offered_items SFQ_GUARDED_BY(mu) = 0;
  uint64_t rejected_items SFQ_GUARDED_BY(mu) = 0;
  uint64_t rejected_requests SFQ_GUARDED_BY(mu) = 0;
  uint64_t queries SFQ_GUARDED_BY(mu) = 0;
  uint64_t stale_serves SFQ_GUARDED_BY(mu) = 0;
  uint64_t snapshot_failures SFQ_GUARDED_BY(mu) = 0;
  bool sealed SFQ_GUARDED_BY(mu) = false;

  /// The durable ledger + candidate triples, for the snapshotter.
  LedgerSample SampleLedger() SFQ_REQUIRES(mu) {
    LedgerSample sample;
    sample.rejected_items = rejected_items;
    sample.rejected_requests = rejected_requests;
    sample.queries = queries;
    sample.stale_serves = stale_serves;
    sample.sealed = sealed;
    sample.candidate_capacity = candidates->capacity();
    sample.candidates = candidates->Entries();
    return sample;
  }

  /// The ids a top-k or max-change query scores: a slate three times
  /// wider than k, of the items the tracker counts highest.
  std::vector<ItemId> CandidateSlate(uint64_t k) SFQ_REQUIRES(mu) {
    std::vector<ItemId> ids;
    for (const ItemCount& c : candidates->Candidates(3 * k)) {
      ids.push_back(c.item);
    }
    return ids;
  }

  /// The snapshot a query answers from: refreshes the serving cache unless
  /// the server.publish failpoint holds it back (stale is fine, wrong
  /// never is — the cached pointer stays valid for the ingestor's
  /// lifetime).
  const CountSketch* Serving(uint64_t* epoch) SFQ_REQUIRES(mu) {
    if (const FailDecision fp = SFQ_FAILPOINT("server.publish");
        fp.action == FailAction::kError && served != nullptr) {
      ++stale_serves;
      *epoch = served_epoch;
      return served;
    }
    served = ingestor->Snapshot();
    served_epoch = ingestor->SnapshotEpoch();
    *epoch = served_epoch;
    return served;
  }
};

Response SketchService::Handle(const Request& request) {
  if (OpcodeNeedsTenant(request.op) && !ValidTenantName(request.tenant)) {
    return Response::FromStatus(Status::InvalidArgument(
        std::string(OpcodeName(request.op)) + ": missing or invalid tenant"));
  }
  switch (request.op) {
    case Opcode::kPing:
      return Response{};
    case Opcode::kCreateTenant:
      return CreateTenant(request);
    case Opcode::kDropTenant:
      return DropTenant(request);
    case Opcode::kStatsz:
    case Opcode::kShutdown:
      return Response::FromStatus(Status::Unimplemented(
          std::string(OpcodeName(request.op)) + ": server-level request"));
    default:
      break;
  }
  const std::shared_ptr<Tenant> tenant = Find(request.tenant);
  if (tenant == nullptr) {
    return Response::FromStatus(
        Status::NotFound("unknown tenant: " + request.tenant));
  }
  switch (request.op) {
    case Opcode::kIngest:
      return Ingest(*tenant, request);
    case Opcode::kSeal:
      return Seal(*tenant);
    case Opcode::kTopK:
      return TopK(*tenant, request);
    case Opcode::kEstimate:
      return Estimate(*tenant, request);
    case Opcode::kMarkEpoch:
      return MarkEpoch(*tenant);
    case Opcode::kMaxChange:
      return MaxChange(*tenant, request);
    case Opcode::kExport:
      return Export(*tenant);
    case Opcode::kRecoveryInfo:
      return RecoveryInfo(*tenant);
    default:
      return Response::FromStatus(Status::Internal(
          std::string("unhandled opcode: ") + OpcodeName(request.op)));
  }
}

Response SketchService::CreateTenant(const Request& request) {
  const TenantSpec& spec = request.spec;
  if (spec.threads == 0 || spec.threads > kMaxTenantThreads) {
    return Response::FromStatus(Status::InvalidArgument(
        "create: threads must be in [1, " +
        std::to_string(kMaxTenantThreads) + "]"));
  }
  if (spec.batch_items == 0 || spec.batch_items > kMaxBatchItems) {
    return Response::FromStatus(
        Status::InvalidArgument("create: batch_items out of range"));
  }
  if (spec.queue_batches == 0) {
    return Response::FromStatus(
        Status::InvalidArgument("create: queue_batches must be >= 1"));
  }
  if (spec.tracked == 0 || spec.tracked > kMaxTracked) {
    return Response::FromStatus(Status::InvalidArgument(
        "create: tracked must be in [1, " + std::to_string(kMaxTracked) +
        "]"));
  }

  const CountSketchParams params = ResolveParams(spec);

  std::unique_ptr<TenantStore> store;
  if (durable()) {
    if (!SafeDurableTenantName(request.tenant)) {
      return Response::FromStatus(Status::InvalidArgument(
          "create: tenant name is not a safe directory name: " +
          request.tenant));
    }
    // Check the registry before touching the disk: a duplicate create must
    // not disturb the existing tenant's directory. (TenantStore::Create
    // independently refuses a directory that already holds a snapshot, so
    // the lock-free window between this check and the emplace below cannot
    // produce two stores over one directory.)
    if (Find(request.tenant) != nullptr) {
      return Response::FromStatus(
          Status::InvalidArgument("tenant already exists: " + request.tenant));
    }
    auto created = TenantStore::Create(
        options_.data_dir + "/" + request.tenant, spec, params,
        options_.fsync, options_.snapshot_every_items);
    if (!created.ok()) return Response::FromStatus(created.status());
    store = std::move(*created);
  }

  auto ingestor = ParallelIngestor<CountSketch>::Make(
      [params]() { return CountSketch::Make(params); }, ToIngestOptions(spec));
  if (!ingestor.ok()) return Response::FromStatus(ingestor.status());
  auto candidates = SpaceSaving::Make(static_cast<size_t>(spec.tracked));
  if (!candidates.ok()) return Response::FromStatus(candidates.status());

  auto tenant = std::make_shared<Tenant>(
      spec, params, std::move(*ingestor),
      std::make_unique<SpaceSaving>(std::move(*candidates)), std::move(store));

  MutexLock lock(mu_);
  const auto [it, inserted] = tenants_.emplace(request.tenant, tenant);
  if (!inserted) {
    // The losing ingestor drains its (empty) workers on destruction.
    return Response::FromStatus(
        Status::InvalidArgument("tenant already exists: " + request.tenant));
  }
  Response resp;
  resp.epoch = tenant->ingestor->SnapshotEpoch();
  return resp;
}

Response SketchService::DropTenant(const Request& request) {
  std::shared_ptr<Tenant> tenant;
  {
    MutexLock lock(mu_);
    const auto it = tenants_.find(request.tenant);
    if (it == tenants_.end()) {
      return Response::FromStatus(
          Status::NotFound("unknown tenant: " + request.tenant));
    }
    tenant = it->second;
    tenants_.erase(it);
  }
  // Drain outside the registry lock; in-flight handlers still hold valid
  // shared_ptrs and finish against the sealed ingestor.
  Result<CountSketch> merged = tenant->ingestor->Finish();
  if (tenant->store != nullptr) {
    // The tenant is gone from the registry; its durable state goes with it.
    // Best-effort: a directory that survives in full re-registers the
    // tenant on restart (drop-then-crash keeps the data), while a partial
    // leftover fails recovery loudly instead of resurrecting stale state.
    std::error_code ec;
    std::filesystem::remove_all(tenant->store->dir(), ec);
  }
  if (!merged.ok()) return Response::FromStatus(merged.status());
  return Response{};
}

Response SketchService::Ingest(Tenant& tenant, const Request& request) {
  {
    MutexLock lock(tenant.mu);
    tenant.offered_items += request.items.size();
    if (tenant.sealed) {
      tenant.rejected_items += request.items.size();
      ++tenant.rejected_requests;
      return Response::FromStatus(
          Status::InvalidArgument("ingest: tenant is sealed"));
    }
  }
  // WAL-first: the batch is journaled (and folded into the durable
  // accumulator) before the live ingestor sees it, so everything the
  // client can observe as acknowledged is recoverable. A journal failure
  // rejects the request before any live state changes, keeping the
  // conservation law exact on both sides of a crash.
  if (tenant.store != nullptr) {
    const Status journaled =
        tenant.store->Append(std::span<const ItemId>(request.items));
    if (!journaled.ok()) {
      MutexLock lock(tenant.mu);
      tenant.rejected_items += request.items.size();
      ++tenant.rejected_requests;
      return Response::FromStatus(journaled);
    }
  }
  const Status status =
      tenant.ingestor->Ingest(std::span<const ItemId>(request.items));
  {
    MutexLock lock(tenant.mu);
    if (!status.ok()) {
      tenant.rejected_items += request.items.size();
      ++tenant.rejected_requests;
      if (tenant.store != nullptr) {
        // Journaled but not applied live: recovery would replay a batch
        // the ledger counted as rejected. Poison the store so the
        // divergence is bounded at this request (shed/sample tenants —
        // the ones under the conservation contract — never take this
        // branch: their ingest path cannot fail mid-request).
        tenant.store->Poison();
      }
      return Response::FromStatus(status);
    }
    tenant.candidates->BatchAdd(std::span<const ItemId>(request.items));
  }
  if (tenant.store != nullptr && tenant.store->SnapshotDue()) {
    MaybeSnapshot(tenant);
  }
  Response resp;
  resp.value = static_cast<Count>(request.items.size());
  return resp;
}

Response SketchService::Seal(Tenant& tenant) {
  // Finish drains the queue and publishes the final fold; afterwards the
  // tenant serves read-only traffic from an exact snapshot.
  Result<CountSketch> merged = tenant.ingestor->Finish();
  uint64_t epoch;
  {
    MutexLock lock(tenant.mu);
    tenant.sealed = true;
    // Pin the serving cache to the final snapshot so post-seal queries are
    // exact even when server.publish withholds refreshes.
    tenant.served = tenant.ingestor->Snapshot();
    tenant.served_epoch = tenant.ingestor->SnapshotEpoch();
    epoch = tenant.served_epoch;
  }
  // Persist the sealed state so a post-seal restart recovers a read-only
  // tenant with its final ledger.
  if (tenant.store != nullptr) MaybeSnapshot(tenant);
  if (!merged.ok()) return Response::FromStatus(merged.status());
  Response resp;
  resp.epoch = epoch;
  return resp;
}

Response SketchService::TopK(Tenant& tenant, const Request& request) {
  if (request.k == 0) {
    return Response::FromStatus(
        Status::InvalidArgument("topk: k must be >= 1"));
  }
  MutexLock lock(tenant.mu);
  ++tenant.queries;
  Response resp;
  const CountSketch* snapshot = tenant.Serving(&resp.epoch);
  // Score a wider candidate slate than k on the snapshot, then keep the
  // best k: Space-Saving's own counts are upper bounds with merge slack,
  // the sketch estimates are the paper's unbiased median.
  resp.entries = RankCandidates(tenant.CandidateSlate(request.k), *snapshot,
                                static_cast<size_t>(request.k),
                                /*absolute=*/false);
  return resp;
}

Response SketchService::Estimate(Tenant& tenant, const Request& request) {
  MutexLock lock(tenant.mu);
  ++tenant.queries;
  Response resp;
  const CountSketch* snapshot = tenant.Serving(&resp.epoch);
  resp.value = snapshot->Estimate(request.item);
  return resp;
}

Response SketchService::MarkEpoch(Tenant& tenant) {
  MutexLock lock(tenant.mu);
  ++tenant.queries;
  Response resp;
  const CountSketch* snapshot = tenant.Serving(&resp.epoch);
  tenant.marked = std::make_unique<CountSketch>(*snapshot);
  tenant.marked_epoch = resp.epoch;
  return resp;
}

Response SketchService::MaxChange(Tenant& tenant, const Request& request) {
  if (request.k == 0) {
    return Response::FromStatus(
        Status::InvalidArgument("maxchange: k must be >= 1"));
  }
  MutexLock lock(tenant.mu);
  ++tenant.queries;
  if (tenant.marked == nullptr) {
    return Response::FromStatus(Status::InvalidArgument(
        "maxchange: no marked epoch (send mark first)"));
  }
  Response resp;
  const CountSketch* snapshot = tenant.Serving(&resp.epoch);
  auto ranked = RankChanges(tenant.CandidateSlate(request.k), *snapshot,
                            *tenant.marked, static_cast<size_t>(request.k));
  if (!ranked.ok()) return Response::FromStatus(ranked.status());
  resp.entries = std::move(*ranked);
  return resp;
}

Response SketchService::Export(Tenant& tenant) {
  MutexLock lock(tenant.mu);
  ++tenant.queries;
  Response resp;
  const CountSketch* snapshot = tenant.Serving(&resp.epoch);
  snapshot->SerializeTo(&resp.blob);
  return resp;
}

void SketchService::MaybeSnapshot(Tenant& tenant) {
  LedgerSample sample;
  {
    MutexLock lock(tenant.mu);
    sample = tenant.SampleLedger();
  }
  // Candidate triples and ledger are sampled under the tenant lock while
  // appends continue under the store lock, so a snapshot's candidates may
  // trail its sketch by the batches in flight — benign for an approximate
  // structure (replay re-adds everything past the snapshot seqno).
  const Status status = tenant.store->WriteSnapshot(sample);
  if (!status.ok()) {
    MutexLock lock(tenant.mu);
    ++tenant.snapshot_failures;
  }
}

Response SketchService::RecoveryInfo(Tenant& tenant) {
  if (tenant.store == nullptr) {
    return Response::FromStatus(Status::InvalidArgument(
        "recoveryinfo: tenant is not durable (no data dir)"));
  }
  std::string out = "{";
  AppendJsonBool(&out, "recovered", tenant.recovery.recovered);
  out += ",";
  AppendJsonKey(&out, "snapshot_seqno", tenant.recovery.snapshot_seqno);
  out += ",";
  AppendJsonKey(&out, "replayed_records", tenant.recovery.replayed_records);
  out += ",";
  AppendJsonKey(&out, "replayed_items", tenant.recovery.replayed_items);
  out += ",";
  AppendJsonKey(&out, "duplicates_skipped",
                tenant.recovery.duplicates_skipped);
  out += ",";
  AppendJsonBool(&out, "torn_tail", tenant.recovery.torn_tail);
  out += ",";
  AppendJsonKey(&out, "discarded_bytes", tenant.recovery.discarded_bytes);
  out += ",";
  AppendJsonKey(&out, "base_items", tenant.recovery.base_items);
  out += ",";
  AppendJsonKey(&out, "last_seqno", tenant.store->last_seqno());
  out += ",";
  AppendJsonKey(&out, "durable_items", tenant.store->durable_items());
  out += ",";
  AppendJsonKey(&out, "snapshots_written", tenant.store->snapshots_written());
  out += ",";
  AppendJsonBool(&out, "poisoned", tenant.store->poisoned());
  out += "}";
  Response resp;
  resp.blob = std::move(out);
  return resp;
}

Status SketchService::Recover() {
  if (!durable()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(options_.data_dir, ec);
  if (ec) {
    return Status::IoError("recover: cannot create data dir: " +
                           options_.data_dir + ": " + ec.message());
  }
  std::filesystem::directory_iterator it(options_.data_dir, ec);
  if (ec) {
    return Status::IoError("recover: cannot list data dir: " +
                           options_.data_dir + ": " + ec.message());
  }
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (!ValidTenantName(name) || !SafeDurableTenantName(name)) {
      MutexLock lock(mu_);
      recovery_failures_[name] = "not a valid tenant name";
      continue;
    }
    const Status recovered = RecoverTenant(name, entry.path().string());
    if (!recovered.ok()) {
      MutexLock lock(mu_);
      recovery_failures_[name] = recovered.ToString();
    }
  }
  return Status::OK();
}

Status SketchService::RecoverTenant(const std::string& name,
                                    const std::string& dir) {
  STREAMFREQ_ASSIGN_OR_RETURN(
      TenantStore::Opened opened,
      TenantStore::Open(dir, options_.fsync, options_.snapshot_every_items));
  const TenantSpec spec = opened.state.spec;
  const CountSketchParams params = opened.sketch.params();
  // Seed the ingestor's accumulator with the recovered sketch: linearity
  // makes (recovered state + replayed live stream) bit-identical to one
  // uninterrupted ingest of the same items.
  auto ingestor = ParallelIngestor<CountSketch>::Make(
      [params]() { return CountSketch::Make(params); }, ToIngestOptions(spec),
      std::move(opened.sketch));
  if (!ingestor.ok()) return ingestor.status();

  auto tenant = std::make_shared<Tenant>(
      spec, params, std::move(*ingestor),
      std::make_unique<SpaceSaving>(std::move(opened.candidates)),
      std::move(opened.store), opened.recovery, opened.state.durable_items);
  {
    MutexLock lock(tenant->mu);
    // Derived ledger: everything durable counts as offered-and-ingested,
    // persisted rejections count as offered-and-rejected. Requests in
    // flight at the crash (offered, never journaled) are forgotten on BOTH
    // sides of the equation, so conservation holds by construction.
    tenant->offered_items =
        opened.state.rejected_items + opened.state.durable_items;
    tenant->rejected_items = opened.state.rejected_items;
    tenant->rejected_requests = opened.state.rejected_requests;
    tenant->queries = opened.state.queries;
    tenant->stale_serves = opened.state.stale_serves;
    tenant->sealed = opened.state.sealed;
    if (opened.state.sealed) {
      // A recovered sealed tenant serves read-only from its seed snapshot.
      tenant->served = tenant->ingestor->Snapshot();
      tenant->served_epoch = tenant->ingestor->SnapshotEpoch();
    }
  }
  MutexLock lock(mu_);
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

std::map<std::string, std::string> SketchService::recovery_failures() const {
  MutexLock lock(mu_);
  return recovery_failures_;
}

std::shared_ptr<SketchService::Tenant> SketchService::Find(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::string SketchService::TenantsJson() const {
  std::vector<std::pair<std::string, std::shared_ptr<Tenant>>> tenants;
  {
    MutexLock lock(mu_);
    tenants.assign(tenants_.begin(), tenants_.end());
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, tenant] : tenants) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{";
    const IngestStats stats = tenant->ingestor->Stats();
    out += "\"policy\":\"";
    out += PolicyName(tenant->spec.policy);
    out += "\",";
    AppendJsonKey(&out, "depth", tenant->params.depth);
    out += ",";
    AppendJsonKey(&out, "width", tenant->params.width);
    out += ",";
    AppendJsonKey(&out, "seed", tenant->params.seed);
    out += ",";
    AppendJsonKey(&out, "threads", tenant->spec.threads);
    out += ",";
    AppendJsonKey(&out, "epoch", tenant->ingestor->SnapshotEpoch());
    out += ",";
    AppendJsonKey(&out, "items_ingested", stats.items_ingested);
    out += ",";
    AppendJsonKey(&out, "dropped_items", stats.DroppedItems());
    out += ",";
    AppendJsonKey(&out, "shed_items", stats.shed_items);
    out += ",";
    AppendJsonKey(&out, "sampled_items_dropped", stats.sampled_items_dropped);
    out += ",";
    AppendJsonKey(&out, "abandoned_items", stats.abandoned_items);
    out += ",";
    AppendJsonKey(&out, "deadline_misses", stats.deadline_misses);
    out += ",";
    AppendJsonKey(&out, "worker_respawns", stats.worker_respawns);
    out += ",";
    AppendJsonKey(&out, "publish_failures", stats.publish_failures);
    out += ",";
    if (tenant->store != nullptr) {
      AppendJsonBool(&out, "durable", true);
      out += ",";
      AppendJsonKey(&out, "base_ingested", tenant->base_ingested);
      out += ",";
      AppendJsonKey(&out, "wal_seqno", tenant->store->last_seqno());
      out += ",";
      AppendJsonKey(&out, "durable_items", tenant->store->durable_items());
      out += ",";
      AppendJsonKey(&out, "snapshots_written",
                    tenant->store->snapshots_written());
      out += ",";
      AppendJsonBool(&out, "poisoned", tenant->store->poisoned());
      out += ",";
    }
    MutexLock lock(tenant->mu);
    AppendJsonKey(&out, "offered_items", tenant->offered_items);
    out += ",";
    AppendJsonKey(&out, "rejected_items", tenant->rejected_items);
    out += ",";
    AppendJsonKey(&out, "rejected_requests", tenant->rejected_requests);
    out += ",";
    AppendJsonKey(&out, "queries", tenant->queries);
    out += ",";
    AppendJsonKey(&out, "stale_serves", tenant->stale_serves);
    out += ",";
    AppendJsonKey(&out, "snapshot_failures", tenant->snapshot_failures);
    out += ",";
    out += "\"sealed\":";
    out += tenant->sealed ? "true" : "false";
    out += "}";
  }
  out += "}";
  return out;
}

void SketchService::SealAll() {
  std::vector<std::shared_ptr<Tenant>> tenants;
  {
    MutexLock lock(mu_);
    for (const auto& [name, tenant] : tenants_) tenants.push_back(tenant);
  }
  for (const std::shared_ptr<Tenant>& tenant : tenants) {
    const Response resp = Seal(*tenant);
    // Shutdown-path drain: an already-sealed tenant or a degraded drain is
    // fine here; the per-tenant counters carry the detail.
    (void)resp;
  }
}

size_t SketchService::TenantCount() const {
  MutexLock lock(mu_);
  return tenants_.size();
}

}  // namespace streamfreq
