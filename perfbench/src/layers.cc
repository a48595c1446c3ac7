// The layer replay of the traced run. The workloads call the library
// through its outermost entry points (a socket, a fleet simulation), so
// the layers behind them are measured here by replaying the
// workload's own batches, in the workload's own configuration, through
// each layer's public entry points with a span around every call. Every
// workload replays every layer, so each per-layer metric has one
// definition: the cost of that entry point on this workload's input.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "concurrent/parallel_ingestor.h"
#include "core/space_saving.h"
#include "core/top_k_tracker.h"
#include "dist/delta.h"
#include "dist/merge_tree.h"
#include "dist/tree.h"
#include "hash/batch_hash.h"
#include "hash/random.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "server/snapshotter.h"
#include "server/wal.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

using streamfreq::CountSketch;
using streamfreq::Opcode;
using streamfreq::Request;
using streamfreq::Response;

constexpr int kReps = 32;           // repetitions of whole-sketch calls
constexpr int kQueryEvery = 8;      // as in the workloads
constexpr uint64_t kLeaves = 16;    // replay fleet: the tree-lowskew shape
constexpr uint64_t kFanout = 4;
constexpr uint64_t kDistWaves = 16;
const char* const kTenant = "replay";

volatile uint64_t g_sink = 0;

uint64_t TotalItems(const LayerConfig& cfg) {
  uint64_t n = 0;
  for (const auto& b : cfg.batches) n += b.size();
  return n;
}

double MedianUs(const Tracer& t, const char* name) {
  return Median(t.Durations(name)) / 1e3;
}

CountSketch MakeSketch(const LayerConfig& cfg) {
  auto sketch = CountSketch::Make(cfg.params);
  SFQ_CHECK_OK(sketch.status());
  return std::move(sketch).ValueOrDie();
}

void ReplayHash(const LayerConfig& cfg, Tracer* t, Report* r) {
  streamfreq::SplitMix64 seeder(cfg.params.seed);
  std::vector<streamfreq::CarterWegmanHash> bucket_hash, sign_hash;
  for (size_t row = 0; row < cfg.params.depth; ++row) {
    bucket_hash.emplace_back(seeder);
    sign_hash.emplace_back(seeder);
  }
  size_t widest = 0;
  for (const auto& b : cfg.batches) widest = std::max(widest, b.size());
  std::vector<uint64_t> buckets(widest);
  std::vector<int64_t> signs(widest);
  for (size_t i = 0; i < cfg.batches.size(); ++i) {
    ScopedSpan span(t, "hash.BucketsAndSigns", -1, i);
    for (size_t row = 0; row < cfg.params.depth; ++row) {
      streamfreq::batch_hash::BucketsAndSigns(
          bucket_hash[row], sign_hash[row], cfg.batches[i], cfg.params.width,
          buckets.data(), signs.data());
      g_sink = g_sink + buckets[0] + static_cast<uint64_t>(signs[0]);
    }
  }
  r->Set("hash.bucket_sign_ns_per_item",
         t->TotalNs("hash.BucketsAndSigns") /
             static_cast<double>(TotalItems(cfg)),
         "ns");
}

CountSketch ReplayCore(const LayerConfig& cfg, Tracer* t, Checks* checks,
                       Report* r) {
  const double items = static_cast<double>(TotalItems(cfg));
  CountSketch sketch = MakeSketch(cfg);
  for (size_t i = 0; i < cfg.batches.size(); ++i) {
    ScopedSpan span(t, "core.CountSketch::BatchAdd", -1, i);
    sketch.BatchAdd(cfg.batches[i]);
  }
  r->Set("core.sketch_batchadd_ns_per_item",
         t->TotalNs("core.CountSketch::BatchAdd") / items, "ns");

  auto tracker = streamfreq::SpaceSaving::Make(cfg.tracked);
  SFQ_CHECK_OK(tracker.status());
  for (size_t i = 0; i < cfg.batches.size(); ++i) {
    ScopedSpan span(t, "core.SpaceSaving::BatchAdd", -1, i);
    tracker->BatchAdd(cfg.batches[i]);
  }
  r->Set("core.spacesaving_batchadd_ns_per_item",
         t->TotalNs("core.SpaceSaving::BatchAdd") / items, "ns");

  auto topk = streamfreq::CountSketchTopK::Make(cfg.params, cfg.tracked);
  SFQ_CHECK_OK(topk.status());
  uint64_t inserted = 0;
  for (size_t i = 0; i < cfg.batches.size(); ++i) {
    ScopedSpan span(t, "core.CountSketchTopK::AddTracked", -1, i);
    for (ItemId item : cfg.batches[i]) {
      inserted += topk->AddTracked(item).inserted;
    }
  }
  t->Count("core.topk_inserted", static_cast<double>(inserted));
  r->Set("core.topk_addtracked_ns_per_item",
         t->TotalNs("core.CountSketchTopK::AddTracked") / items, "ns");
  r->Set("core.topk_insert_frac", static_cast<double>(inserted) / items,
         "frac");
  checks->Check(SketchBytes(topk->sketch()) == SketchBytes(sketch),
                "replay: APPROXTOP sketch differs from BatchAdd");

  // Whole-probe-set ops: no single sub-microsecond call is timed.
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(t, "core.CountSketch::Estimate[probes]", -1, rep);
    Count sum = 0;
    for (ItemId id : cfg.probes) sum += sketch.Estimate(id);
    g_sink = g_sink + static_cast<uint64_t>(sum);
  }
  r->Set("core.estimate_ns",
         Median(t->Durations("core.CountSketch::Estimate[probes]")) /
             static_cast<double>(cfg.probes.size()),
         "ns");

  CountSketch target = MakeSketch(cfg);
  std::string blob;
  for (int rep = 0; rep < kReps; ++rep) {
    bool ok = true;
    {
      ScopedSpan span(t, "core.CountSketch::Merge", -1, rep);
      ok = target.Merge(sketch).ok();
    }
    {
      ScopedSpan span(t, "core.CountSketch::Subtract", -1, rep);
      ok = target.Subtract(sketch).ok() && ok;
    }
    blob.clear();
    {
      ScopedSpan span(t, "core.CountSketch::SerializeTo", -1, rep);
      sketch.SerializeTo(&blob);
    }
    checks->Op(ok);
  }
  r->Set("core.merge_us", MedianUs(*t, "core.CountSketch::Merge"), "us");
  r->Set("core.subtract_us", MedianUs(*t, "core.CountSketch::Subtract"), "us");
  r->Set("core.serialize_us", MedianUs(*t, "core.CountSketch::SerializeTo"),
         "us");
  return sketch;
}

void ReplayConcurrent(const LayerConfig& cfg, const CountSketch& sequential,
                      Tracer* t, Checks* checks, Report* r) {
  const streamfreq::TenantSpec spec = BenchTenantSpec(cfg.params, cfg.tracked);
  streamfreq::IngestOptions options;
  options.threads = spec.threads;
  options.batch_items = spec.batch_items;
  options.queue_batches = spec.queue_batches;
  options.publish_every_batches = spec.publish_every_batches;
  auto ingestor = streamfreq::ParallelIngestor<CountSketch>::Make(
      streamfreq::MakeSharedParamsFactory<CountSketch>(cfg.params), options);
  SFQ_CHECK_OK(ingestor.status());
  uint64_t queued = 0;
  const size_t slate = std::min(cfg.probes.size(), cfg.k * 3);
  for (size_t i = 0; i < cfg.batches.size(); ++i) {
    bool ok = true;
    {
      ScopedSpan span(t, "concurrent.ParallelIngestor::Ingest", -1, i);
      ok = (*ingestor)->Ingest(cfg.batches[i]).ok();
    }
    checks->Op(ok);
    queued += (cfg.batches[i].size() + options.batch_items - 1) /
              options.batch_items;
    if (i % kQueryEvery == kQueryEvery - 1) {
      // What a topk does on the serving side: read the latest published
      // snapshot and score a k*3 candidate slate on it.
      ScopedSpan span(t, "concurrent.Snapshot+Estimate[slate]", -1, i);
      const CountSketch* snapshot = (*ingestor)->Snapshot();
      Count sum = 0;
      for (size_t p = 0; p < slate; ++p) {
        sum += snapshot->Estimate(cfg.probes[p]);
      }
      g_sink = g_sink + static_cast<uint64_t>(sum);
    }
  }
  auto merged = (*ingestor)->Finish();
  checks->Check(merged.ok() && SketchBytes(*merged) == SketchBytes(sequential),
                "replay: parallel ingest differs from sequential BatchAdd");
  const double publishes =
      static_cast<double>((*ingestor)->SnapshotEpoch() - 1);
  std::vector<double> call_ns =
      t->Durations("concurrent.ParallelIngestor::Ingest");
  r->Set("concurrent.ingest_call_us_p50", Quantile(call_ns, 0.5) / 1e3, "us");
  r->Set("concurrent.ingest_call_us_p90", Quantile(call_ns, 0.9) / 1e3, "us");
  r->Set("concurrent.publishes_per_batch",
         publishes / static_cast<double>(queued), "count");
  r->Set("concurrent.snapshot_read_us",
         MedianUs(*t, "concurrent.Snapshot+Estimate[slate]"), "us");
}

uint64_t SnapshotsWritten(const std::string& tenants_json) {
  const std::string needle = "\"snapshots_written\":";
  const size_t at = tenants_json.find(needle);
  SFQ_CHECK(at != std::string::npos) << "no snapshots_written in statsz";
  return std::stoull(tenants_json.substr(at + needle.size()));
}

void ReplayServer(const LayerConfig& cfg, const std::string& dir, Tracer* t,
                  Checks* checks, Report* r) {
  const streamfreq::TenantSpec spec = BenchTenantSpec(cfg.params, cfg.tracked);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // The service in-process: dispatch, WAL-first ingest, tracker, publish.
  uint64_t snapshots = 0;
  {
    streamfreq::ServiceOptions options;
    options.data_dir = dir + "/service";
    options.fsync = streamfreq::WalFsync::kNever;
    streamfreq::SketchService service(options);
    Request create;
    create.op = Opcode::kCreateTenant;
    create.tenant = kTenant;
    create.spec = spec;
    checks->Check(service.Handle(create).ok(), "replay: CreateTenant failed");
    const uint64_t before = SnapshotsWritten(service.TenantsJson());
    for (size_t i = 0; i < cfg.batches.size(); ++i) {
      Request ingest;
      ingest.op = Opcode::kIngest;
      ingest.tenant = kTenant;
      ingest.items.assign(cfg.batches[i].begin(), cfg.batches[i].end());
      Response resp;
      {
        ScopedSpan span(t, "server.SketchService::Handle[ingest]", -1, i);
        resp = service.Handle(ingest);
      }
      checks->Op(resp.ok());
      if (i % kQueryEvery == kQueryEvery - 1) {
        Request topk;
        topk.op = Opcode::kTopK;
        topk.tenant = kTenant;
        topk.k = cfg.k;
        {
          ScopedSpan span(t, "server.SketchService::Handle[topk]", -1, i);
          resp = service.Handle(topk);
        }
        checks->Op(resp.ok() && WellFormedTopK(resp.entries, cfg.k));
      }
    }
    snapshots = SnapshotsWritten(service.TenantsJson()) - before;
    service.SealAll();
  }

  // The codec: request decode and the CRC frame, on the ingest payloads.
  double frame_bytes = 0;
  for (size_t i = 0; i < cfg.batches.size(); ++i) {
    Request ingest;
    ingest.op = Opcode::kIngest;
    ingest.tenant = kTenant;
    ingest.items.assign(cfg.batches[i].begin(), cfg.batches[i].end());
    std::string payload;
    ingest.EncodeTo(&payload);
    bool ok = true;
    {
      ScopedSpan span(t, "server.Request::Decode", -1, i);
      ok = Request::Decode(payload).ok();
    }
    std::string decoded;
    {
      ScopedSpan span(t, "server.EncodeFrame+DecodeFrame", -1, i);
      const std::string frame = streamfreq::EncodeFrame(payload);
      frame_bytes += static_cast<double>(frame.size());
      ok = streamfreq::DecodeFrame(frame, &decoded).ok() && ok;
    }
    checks->Op(ok && decoded == payload);
  }

  // The journal alone, and a snapshot publish through the tenant store.
  {
    auto wal = streamfreq::WalWriter::Open(dir + "/replay.wal",
                                           streamfreq::WalFsync::kNever);
    SFQ_CHECK_OK(wal.status());
    for (size_t i = 0; i < cfg.batches.size(); ++i) {
      bool ok = true;
      {
        ScopedSpan span(t, "server.WalWriter::Append", -1, i);
        ok = wal->Append(i + 1, cfg.batches[i]).ok();
      }
      checks->Op(ok);
    }
    auto store = streamfreq::TenantStore::Create(
        dir + "/store", spec, cfg.params, streamfreq::WalFsync::kNever, 0);
    SFQ_CHECK_OK(store.status());
    auto tracker = streamfreq::SpaceSaving::Make(cfg.tracked);
    SFQ_CHECK_OK(tracker.status());
    for (const auto& b : cfg.batches) {
      checks->Op((*store)->Append(b).ok());
      tracker->BatchAdd(b);
    }
    streamfreq::LedgerSample ledger;
    ledger.candidate_capacity = tracker->capacity();
    ledger.candidates = tracker->Entries();
    for (int rep = 0; rep < kReps / 2; ++rep) {
      bool ok = true;
      {
        ScopedSpan span(t, "server.TenantStore::WriteSnapshot", -1, rep);
        ok = (*store)->WriteSnapshot(ledger).ok();
      }
      checks->Op(ok);
    }
  }

  // The same ingests over the socket: client encode, transport, server
  // decode and dispatch, response.
  {
    streamfreq::ServerOptions options;
    options.socket_path = dir + "/r.sock";
    options.service.data_dir = dir + "/server";
    options.service.fsync = streamfreq::WalFsync::kNever;
    auto server = streamfreq::SfqServer::Start(options);
    SFQ_CHECK_OK(server.status());
    {
      auto client = streamfreq::SfqClient::Connect(options.socket_path);
      SFQ_CHECK_OK(client.status());
      checks->Check(client->CreateTenant(kTenant, spec).ok(),
                    "replay: CreateTenant over the socket failed");
      for (size_t i = 0; i < cfg.batches.size(); ++i) {
        bool ok = true;
        {
          ScopedSpan span(t, "server.SfqClient::Ingest", -1, i);
          ok = client->Ingest(kTenant, cfg.batches[i]).ok();
        }
        checks->Op(ok);
      }
    }
    (*server)->RequestStop();
  }
  std::filesystem::remove_all(dir);

  const double rpc = MedianUs(*t, "server.SfqClient::Ingest");
  const double handle = MedianUs(*t, "server.SketchService::Handle[ingest]");
  r->Set("server.rpc_ingest_us", rpc, "us");
  r->Set("server.handle_ingest_us", handle, "us");
  r->Set("server.transport_us", rpc - handle, "us");
  r->Set("server.handle_topk_us",
         MedianUs(*t, "server.SketchService::Handle[topk]"), "us");
  r->Set("server.request_decode_us", MedianUs(*t, "server.Request::Decode"),
         "us");
  r->Set("server.frame_ns_per_byte",
         t->TotalNs("server.EncodeFrame+DecodeFrame") / frame_bytes, "ns");
  r->Set("server.wal_append_us", MedianUs(*t, "server.WalWriter::Append"),
         "us");
  r->Set("server.snapshot_us",
         MedianUs(*t, "server.TenantStore::WriteSnapshot"), "us");
  r->Set("server.snapshots", static_cast<double>(snapshots), "count");
}

void ReplayDist(const LayerConfig& cfg, Tracer* t, Checks* checks,
                Report* r) {
  auto topo = streamfreq::BuildBalancedTree(kLeaves, kFanout);
  SFQ_CHECK_OK(topo.status());
  auto sim = streamfreq::MergeTreeSim::Make(*topo, cfg.params, cfg.tracked);
  SFQ_CHECK_OK(sim.status());

  // A mirror of leaf 0's uplink through the public DeltaChannel: the sim
  // does not expose its frames, so delta bytes are measured here.
  const uint64_t leaf0 = topo->leaves[0];
  CountSketch leaf_sketch = MakeSketch(cfg);
  streamfreq::DeltaChannel channel(leaf0, MakeSketch(cfg));
  auto leaf_tracker = streamfreq::SpaceSaving::Make(cfg.tracked);
  SFQ_CHECK_OK(leaf_tracker.status());
  streamfreq::DistLedger leaf_ledger;
  double delta_bytes = 0;

  uint64_t admitted = 0;
  std::vector<double> lag, union_size;
  for (uint64_t w = 0; w < kDistWaves; ++w) {
    bool ok = true;
    for (uint64_t l = 0; l < kLeaves; ++l) {
      const auto& batch = cfg.batches[(w * kLeaves + l) % cfg.batches.size()];
      ScopedSpan span(t, "dist.MergeTreeSim::Offer", -1, w);
      ok = sim->Offer(topo->leaves[l], batch).ok() && ok;
      admitted += batch.size();
    }
    uint64_t covered = 0;
    for (const auto& c : sim->RootCovered()) covered += c.count;
    lag.push_back(static_cast<double>(admitted - covered));
    {
      ScopedSpan span(t, "dist.MergeTreeSim::ShipRound", -1, w);
      ok = sim->ShipRound().ok() && ok;
    }
    std::vector<ItemCount> answer;
    {
      ScopedSpan span(t, "dist.MergeTreeSim::ApproxTop", -1, w);
      answer = sim->ApproxTop(cfg.k);
    }
    checks->Op(ok && WellFormedTopK(answer, cfg.k));
    union_size.push_back(static_cast<double>(sim->ApproxTop(SIZE_MAX).size()));

    const auto& batch = cfg.batches[(w * kLeaves) % cfg.batches.size()];
    leaf_sketch.BatchAdd(batch);
    leaf_tracker->BatchAdd(batch);
    leaf_ledger.offered += batch.size();
    leaf_ledger.ingested += batch.size();
    std::vector<ItemId> candidates;
    for (const ItemCount& c : leaf_tracker->Candidates(cfg.tracked)) {
      candidates.push_back(c.item);
    }
    auto payload = channel.Ship(leaf_sketch, leaf_ledger,
                                {{leaf0, leaf_ledger.ingested}}, candidates,
                                false);
    ok = payload.ok() && payload->has_value();
    if (ok) {
      delta_bytes +=
          static_cast<double>(streamfreq::EncodeFrame(**payload).size());
      ok = channel.Acked(channel.next_seqno() - 1).ok();
    }
    checks->Op(ok);
  }
  const streamfreq::Status inv = sim->CheckInvariants();
  checks->Check(inv.ok(), "replay: MergeTreeSim invariants: " + inv.ToString());
  checks->Check(sim->stats().delta_dedups == 0,
                "replay: fault-free fleet deduplicated a delta");

  r->Set("dist.offer_us", MedianUs(*t, "dist.MergeTreeSim::Offer"), "us");
  r->Set("dist.ship_round_us", MedianUs(*t, "dist.MergeTreeSim::ShipRound"),
         "us");
  r->Set("dist.root_query_us", MedianUs(*t, "dist.MergeTreeSim::ApproxTop"),
         "us");
  r->Set("dist.deltas_shipped",
         static_cast<double>(sim->stats().deltas_shipped) / kDistWaves,
         "count");
  r->Set("dist.delta_dedups", static_cast<double>(sim->stats().delta_dedups),
         "count");
  r->Set("dist.delta_bytes_per_item",
         delta_bytes / static_cast<double>(leaf_ledger.ingested), "B");
  r->Set("dist.candidates_shipped", Median(union_size), "count");
  r->Set("dist.root_lag_items", Median(lag), "items");
}

}  // namespace

void ReplayLayers(const LayerConfig& config, const std::string& workdir,
                  Tracer* tracer, Checks* checks, Report* report) {
  ReplayHash(config, tracer, report);
  const CountSketch sketch = ReplayCore(config, tracer, checks, report);
  ReplayConcurrent(config, sketch, tracer, checks, report);
  ReplayServer(config, workdir + "/replay", tracer, checks, report);
  ReplayDist(config, tracer, checks, report);
}

}  // namespace perfbench
