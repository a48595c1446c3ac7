// sfq — command-line front end for the streamfreq library.
//
// Subcommands:
//   generate   synthesize a workload and write a binary trace
//   topk       run the Count-Sketch top-k algorithm over a trace
//   suite      run the full algorithm suite over a trace and score it
//   maxchange  find the largest frequency changes between two traces
//   sketch     build a Count-Sketch from a trace and save it (checksummed);
//              --threads N ingests the trace through the parallel sharded
//              pipeline (src/concurrent/), identical output by linearity
//   inspect    print the parameters of a saved sketch file
//   estimate   point-query a saved sketch file
//   verify     seeded differential fuzzing of every algorithm's guarantees
//              against the exact oracle (src/verify/); failing programs are
//              shrunk and printed as replayable --program lines
//   chaos      replay seeded fuzz programs under randomized failpoint
//              schedules (src/verify/chaos.h): every iteration must end in
//              a clean error Status or a sketch passing its guarantee
//              checker over the effective stream (docs/ROBUSTNESS.md);
//              --server runs the campaign against an in-process sketch
//              server instead (the server.* failpoint sites);
//              --server-restart forks real durable `sfq serve` processes,
//              kills them at durability failpoints and with real SIGKILLs,
//              and asserts crash recovery (WAL replay + snapshots) keeps
//              the conservation ledger and the exact sketch;
//              --tree drives the distributed merge tree (src/dist/) under
//              the dist.* failpoint sites: severed/torn uplinks, dropped
//              deliveries, lost acks, permanent node loss — every
//              iteration must end clean or with a root sketch bit-equal
//              to the covered-prefix reference (docs/DISTRIBUTED.md)
//   aggregate  fork a merge-tree fleet of ingest workers and relays that
//              ship Count-Sketch deltas over unix sockets up to a root in
//              this process, then answer global top-k (docs/DISTRIBUTED.md)
//   serve      run the long-lived multi-tenant sketch server on a local
//              socket (src/server/; protocol in docs/SERVER.md);
//              --data-dir makes tenants durable: every accepted batch is
//              journaled (WAL) before it is applied, epoch snapshots bound
//              replay, and startup recovers all tenants before serving
//   client     one request against a running server (ping, create, ingest,
//              topk, estimate, mark, maxchange, seal, export, recoveryinfo,
//              statsz, shutdown); --retries N arms transport-level retry
//              with deterministic backoff
//
// Examples:
//   sfq generate --kind zipf --z 1.1 --m 100000 --n 1000000 --out q.trace
//   sfq topk --trace q.trace --k 10 --width 4096
//   sfq maxchange --before day1.trace --after day2.trace --k 20
//   sfq sketch --trace q.trace --out q.skf && sfq inspect --sketch q.skf
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <span>
#include <string>

#include "concurrent/parallel_ingestor.h"
#include "core/count_sketch.h"
#include "dist/aggregate.h"
#include "core/max_change.h"
#include "core/sketch_io.h"
#include "core/top_k_tracker.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/suite.h"
#include "core/phi_heavy_hitters.h"
#include "core/typed.h"
#include "stream/exact_counter.h"
#include "stream/flow_traffic.h"
#include "stream/text_io.h"
#include "stream/trace.h"
#include "stream/zipf.h"
#include "eval/report.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/wal.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "verify/chaos.h"
#include "verify/fuzz.h"
#include "verify/program.h"
#include "verify/violation.h"

namespace streamfreq {
namespace {

int Fail(const Status& status) {
  std::cerr << "sfq: " << status.ToString() << "\n";
  return 1;
}

void PrintUsage() {
  std::cout <<
      "usage: sfq <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate  --kind zipf|uniform|flows --n N [--m M] [--z Z]\n"
      "            [--alpha A] [--seed S] --out FILE\n"
      "  topk      --trace FILE [--k K] [--depth T] [--width B]\n"
      "            [--tracked L] [--seed S]\n"
      "  suite     --trace FILE [--k K] [--budget BYTES]\n"
      "  maxchange --before FILE --after FILE [--k K] [--depth T]\n"
      "            [--width B] [--tracked L]\n"
      "  sketch    --trace FILE --out FILE [--depth T] [--width B] [--seed S]\n"
      "            [--threads N] [--batch ITEMS]   (parallel ingestion)\n"
      "            [--failpoints SPEC] [--push-timeout-ms MS]\n"
      "            [--overflow block|shed|sample] [--json FILE]\n"
      "            (degraded modes; see docs/ROBUSTNESS.md)\n"
      "  inspect   --sketch FILE\n"
      "  estimate  --sketch FILE --item ID\n"
      "  words     --text FILE [--k K] [--depth T] [--width B]\n"
      "            [--min-length L]\n"
      "  hh        --trace FILE [--phi F]   (phi-heavy-hitters report)\n"
      "  verify    [--seed S] [--iters N] [--algo NAME] [--width-scale W]\n"
      "            [--shrink BOOL] [--json FILE] [--program \"LINE\"]\n"
      "            (differential guarantee fuzzing; see docs/VERIFICATION.md)\n"
      "  chaos     [--seed S] [--iters N] [--failpoints SPEC] [--io BOOL]\n"
      "            [--server BOOL] [--server-restart BOOL] [--tree BOOL]\n"
      "            [--json FILE]\n"
      "            (fault-injection campaign; see docs/ROBUSTNESS.md and,\n"
      "             for --tree, docs/DISTRIBUTED.md)\n"
      "  aggregate [--workers N] [--fanout F] [--items N] [--m M] [--z Z]\n"
      "            [--seed S] [--delta-every N] [--tracked L] [--k K]\n"
      "            [--depth T] [--width B] [--json FILE]\n"
      "            (forked merge-tree fleet; see docs/DISTRIBUTED.md)\n"
      "  serve     --socket PATH [--data-dir DIR]\n"
      "            [--fsync always|never|batch]\n"
      "            [--snapshot-every ITEMS] [--failpoints SPEC] [--seed S]\n"
      "            (multi-tenant sketch server; see docs/SERVER.md)\n"
      "  client    --socket PATH --op OP [--tenant T] [--trace FILE]\n"
      "            [--k K] [--item ID] [--depth T] [--width B] [--seed S]\n"
      "            [--threads N] [--overflow block|shed|sample]\n"
      "            [--push-timeout-ms MS] [--tracked L] [--out FILE]\n"
      "            [--retries N] [--backoff-ms MS]\n"
      "            (OP: ping create drop ingest seal topk estimate mark\n"
      "             maxchange export recoveryinfo statsz shutdown)\n";
}

Result<CountSketchParams> SketchParamsFromFlags(const Flags& flags) {
  CountSketchParams p;
  STREAMFREQ_ASSIGN_OR_RETURN(const int64_t depth, flags.GetInt("depth", 5));
  STREAMFREQ_ASSIGN_OR_RETURN(const int64_t width, flags.GetInt("width", 4096));
  STREAMFREQ_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed", 1));
  if (depth <= 0 || width <= 0) {
    return Status::InvalidArgument("--depth and --width must be positive");
  }
  p.depth = static_cast<size_t>(depth);
  p.width = static_cast<size_t>(width);
  p.seed = static_cast<uint64_t>(seed);
  return p;
}

Result<Stream> LoadTrace(const Flags& flags, const std::string& flag_name) {
  const std::string path = flags.GetString(flag_name, "");
  if (path.empty()) {
    return Status::InvalidArgument("--" + flag_name + " is required");
  }
  return ReadTrace(path);
}

int CmdGenerate(const Flags& flags) {
  const std::string kind = flags.GetString("kind", "zipf");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
  auto n = flags.GetInt("n", 1000000);
  auto m = flags.GetInt("m", 100000);
  auto z = flags.GetDouble("z", 1.0);
  auto alpha = flags.GetDouble("alpha", 1.2);
  auto seed = flags.GetInt("seed", 1);
  for (const Status& s :
       {n.status(), m.status(), z.status(), alpha.status(), seed.status()}) {
    if (!s.ok()) return Fail(s);
  }

  Stream stream;
  if (kind == "zipf") {
    auto gen = ZipfGenerator::Make(static_cast<uint64_t>(*m), *z,
                                   static_cast<uint64_t>(*seed));
    if (!gen.ok()) return Fail(gen.status());
    stream = gen->Take(static_cast<size_t>(*n));
    std::cout << "generated " << gen->Describe() << ", n=" << *n << "\n";
  } else if (kind == "uniform") {
    auto gen = UniformGenerator::Make(static_cast<uint64_t>(*m),
                                      static_cast<uint64_t>(*seed));
    if (!gen.ok()) return Fail(gen.status());
    stream = gen->Take(static_cast<size_t>(*n));
    std::cout << "generated " << gen->Describe() << ", n=" << *n << "\n";
  } else if (kind == "flows") {
    FlowTrafficSpec spec;
    spec.pareto_alpha = *alpha;
    spec.seed = static_cast<uint64_t>(*seed);
    auto gen = FlowTrafficGenerator::Make(spec);
    if (!gen.ok()) return Fail(gen.status());
    stream = gen->Take(static_cast<size_t>(*n));
    std::cout << "generated " << gen->Describe() << ", n=" << *n << "\n";
  } else {
    return Fail(Status::InvalidArgument("unknown --kind: " + kind));
  }

  const Status s = WriteTrace(out, stream);
  if (!s.ok()) return Fail(s);
  std::cout << "wrote " << out << " (" << stream.size() << " items)\n";
  return 0;
}

int CmdTopK(const Flags& flags) {
  auto stream = LoadTrace(flags, "trace");
  if (!stream.ok()) return Fail(stream.status());
  auto params = SketchParamsFromFlags(flags);
  if (!params.ok()) return Fail(params.status());
  auto k = flags.GetInt("k", 10);
  if (!k.ok()) return Fail(k.status());
  auto tracked = flags.GetInt("tracked", 2 * *k);
  if (!tracked.ok()) return Fail(tracked.status());

  auto algo = CountSketchTopK::Make(*params, static_cast<size_t>(*tracked));
  if (!algo.ok()) return Fail(algo.status());
  algo->AddAll(*stream);

  ExactCounter oracle;
  oracle.AddAll(*stream);
  const auto truth = oracle.TopK(static_cast<size_t>(*k));
  const auto candidates = algo->Candidates(static_cast<size_t>(*k));
  const PrecisionRecall pr = ComputePrecisionRecall(candidates, truth);

  TablePrinter table({"rank", "item", "estimate", "true count"});
  int rank = 0;
  for (const ItemCount& ic : candidates) {
    table.AddRowValues(++rank, ic.item, ic.count, oracle.CountOf(ic.item));
  }
  table.Print(std::cout);
  std::cout << "recall@" << *k << "=" << pr.recall << " precision@" << *k
            << "=" << pr.precision << " space="
            << algo->SpaceBytes() / 1024 << "KiB\n";
  return 0;
}

int CmdSuite(const Flags& flags) {
  auto stream = LoadTrace(flags, "trace");
  if (!stream.ok()) return Fail(stream.status());
  auto k = flags.GetInt("k", 10);
  auto budget = flags.GetInt("budget", 64 * 1024);
  auto seed = flags.GetInt("seed", 1);
  for (const Status& s : {k.status(), budget.status(), seed.status()}) {
    if (!s.ok()) return Fail(s);
  }

  Workload workload;
  workload.stream = *std::move(stream);
  workload.oracle.AddAll(workload.stream);
  workload.description = flags.GetString("trace", "");

  SuiteSpec spec;
  spec.space_budget_bytes = static_cast<size_t>(*budget);
  spec.k = static_cast<size_t>(*k);
  spec.seed = static_cast<uint64_t>(*seed);
  spec.expected_stream_length = workload.stream.size();
  auto suite = MakeDefaultSuite(spec);
  if (!suite.ok()) return Fail(suite.status());

  TablePrinter table(
      {"algorithm", "recall", "precision", "ARE", "space KiB", "Mitems/s"});
  for (const auto& algo : *suite) {
    const RunResult r = RunAndScore(*algo, workload, spec.k);
    table.AddRowValues(r.algorithm, r.topk_quality.recall,
                       r.topk_quality.precision, r.are_topk,
                       static_cast<double>(r.space_bytes) / 1024.0,
                       r.items_per_second / 1e6);
  }
  table.Print(std::cout);
  return 0;
}

int CmdMaxChange(const Flags& flags) {
  auto before = LoadTrace(flags, "before");
  if (!before.ok()) return Fail(before.status());
  auto after = LoadTrace(flags, "after");
  if (!after.ok()) return Fail(after.status());
  auto params = SketchParamsFromFlags(flags);
  if (!params.ok()) return Fail(params.status());
  auto k = flags.GetInt("k", 10);
  if (!k.ok()) return Fail(k.status());
  auto tracked = flags.GetInt("tracked", 10 * *k);
  if (!tracked.ok()) return Fail(tracked.status());

  auto changes =
      MaxChangeDetector::Run(*params, static_cast<size_t>(*tracked), *before,
                             *after, static_cast<size_t>(*k));
  if (!changes.ok()) return Fail(changes.status());
  TablePrinter table({"item", "before", "after", "delta"});
  for (const ChangeResult& c : *changes) {
    table.AddRowValues(c.item, c.count_s1, c.count_s2, c.Delta());
  }
  table.Print(std::cout);
  return 0;
}

Result<OverflowPolicy> ParseOverflowPolicy(const std::string& name) {
  if (name == "block") return OverflowPolicy::kBlock;
  if (name == "shed") return OverflowPolicy::kShed;
  if (name == "sample") return OverflowPolicy::kSample;
  return Status::InvalidArgument("--overflow must be block, shed, or sample");
}

int CmdSketch(const Flags& flags) {
  auto stream = LoadTrace(flags, "trace");
  if (!stream.ok()) return Fail(stream.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
  auto params = SketchParamsFromFlags(flags);
  if (!params.ok()) return Fail(params.status());
  auto threads = flags.GetInt("threads", 1);
  if (!threads.ok()) return Fail(threads.status());
  auto batch = flags.GetInt("batch", 8192);
  if (!batch.ok()) return Fail(batch.status());
  auto push_timeout = flags.GetInt("push-timeout-ms", 0);
  if (!push_timeout.ok()) return Fail(push_timeout.status());
  if (*threads <= 0 || *batch <= 0 || *push_timeout < 0) {
    return Fail(Status::InvalidArgument(
        "--threads and --batch must be positive, --push-timeout-ms >= 0"));
  }
  auto overflow = ParseOverflowPolicy(flags.GetString("overflow", "block"));
  if (!overflow.ok()) return Fail(overflow.status());

  // Fault injection (for chaos drills and docs/ROBUSTNESS.md examples);
  // requires a build with STREAMFREQ_FAILPOINTS=ON to have any effect.
  ScopedFailpoints failpoints(flags.GetString("failpoints", ""),
                              params->seed);
  if (!failpoints.status().ok()) return Fail(failpoints.status());

  Result<CountSketch> sketch = Status::Internal("unset");
  IngestStats stats;
  if (*threads > 1) {
    // Parallel sharded ingestion: per-thread sketches from the same params
    // and seed, folded at the end — identical counters by linearity.
    IngestOptions opts;
    opts.threads = static_cast<size_t>(*threads);
    opts.batch_items = static_cast<size_t>(*batch);
    opts.push_timeout_ms = static_cast<uint64_t>(*push_timeout);
    opts.overflow_policy = *overflow;
    auto ingestor = ParallelIngestor<CountSketch>::Make(
        MakeSharedParamsFactory<CountSketch>(*params), opts);
    if (!ingestor.ok()) return Fail(ingestor.status());
    const Status ingest_status =
        (*ingestor)->Ingest(std::span<const ItemId>(*stream));
    sketch = (*ingestor)->Finish();
    stats = (*ingestor)->Stats();
    if (!ingest_status.ok()) return Fail(ingest_status);
  } else {
    sketch = CountSketch::Make(*params);
    if (sketch.ok()) {
      sketch->BatchAdd(std::span<const ItemId>(*stream));
      stats.items_ingested = stream->size();
    }
  }
  if (!sketch.ok()) return Fail(sketch.status());
  const Status s = WriteSketchFile(out, *sketch);
  if (!s.ok()) return Fail(s);
  std::cout << "wrote " << out << " (t=" << sketch->depth()
            << ", b=" << sketch->width() << ", "
            << sketch->SpaceBytes() / 1024 << " KiB of counters, ingested with "
            << *threads << " thread" << (*threads == 1 ? "" : "s") << ")\n";
  // Degraded-mode accounting: anyone consuming this sketch downstream
  // widens its accuracy bounds by exactly the dropped mass reported here.
  if (stats.DroppedItems() > 0 || stats.worker_respawns > 0 ||
      stats.deadline_misses > 0 || stats.publish_failures > 0) {
    std::cout << "DEGRADED ingest: dropped=" << stats.DroppedItems()
              << " (shed=" << stats.shed_items
              << ", sampled_away=" << stats.sampled_items_dropped
              << ", abandoned=" << stats.abandoned_items
              << "), deadline_misses=" << stats.deadline_misses
              << ", worker_respawns=" << stats.worker_respawns << "\n";
  }

  std::vector<JsonField> fields;
  fields.push_back(JsonField::Integer("depth",
                                      static_cast<int64_t>(sketch->depth())));
  fields.push_back(JsonField::Integer("width",
                                      static_cast<int64_t>(sketch->width())));
  fields.push_back(JsonField::Integer("threads", *threads));
  fields.push_back(JsonField::Integer(
      "items_offered", static_cast<int64_t>(stream->size())));
  fields.push_back(JsonField::Integer(
      "items_ingested", static_cast<int64_t>(stats.items_ingested)));
  fields.push_back(JsonField::Integer(
      "dropped_items", static_cast<int64_t>(stats.DroppedItems())));
  fields.push_back(JsonField::Integer(
      "shed_items", static_cast<int64_t>(stats.shed_items)));
  fields.push_back(JsonField::Integer(
      "sampled_items_dropped",
      static_cast<int64_t>(stats.sampled_items_dropped)));
  fields.push_back(JsonField::Integer(
      "abandoned_items", static_cast<int64_t>(stats.abandoned_items)));
  fields.push_back(JsonField::Integer(
      "deadline_misses", static_cast<int64_t>(stats.deadline_misses)));
  fields.push_back(JsonField::Integer(
      "worker_respawns", static_cast<int64_t>(stats.worker_respawns)));
  fields.push_back(JsonField::Integer(
      "publish_failures", static_cast<int64_t>(stats.publish_failures)));
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    const Status js = WriteJsonReport(json_path, "sketch", fields);
    if (!js.ok()) return Fail(js);
    std::cout << "(json: " << json_path << ")\n";
  }
  EmitJsonReport("sketch", fields, std::cout);
  return 0;
}

int CmdInspect(const Flags& flags) {
  const std::string path = flags.GetString("sketch", "");
  if (path.empty()) return Fail(Status::InvalidArgument("--sketch is required"));
  auto sketch = ReadSketchFile(path);
  if (!sketch.ok()) return Fail(sketch.status());
  std::cout << "depth (t):  " << sketch->depth() << "\n"
            << "width (b):  " << sketch->width() << "\n"
            << "seed:       " << sketch->seed() << "\n"
            << "family:     " << static_cast<int>(sketch->params().family)
            << "\n"
            << "estimator:  " << static_cast<int>(sketch->params().estimator)
            << "\n"
            << "space:      " << sketch->SpaceBytes() / 1024 << " KiB\n";
  return 0;
}

int CmdEstimate(const Flags& flags) {
  const std::string path = flags.GetString("sketch", "");
  if (path.empty()) return Fail(Status::InvalidArgument("--sketch is required"));
  if (!flags.Has("item")) return Fail(Status::InvalidArgument("--item is required"));
  auto item = flags.GetInt("item", 0);
  if (!item.ok()) return Fail(item.status());
  auto sketch = ReadSketchFile(path);
  if (!sketch.ok()) return Fail(sketch.status());
  std::cout << sketch->Estimate(static_cast<ItemId>(*item)) << "\n";
  return 0;
}

int CmdWords(const Flags& flags) {
  const std::string path = flags.GetString("text", "");
  if (path.empty()) return Fail(Status::InvalidArgument("--text is required"));
  auto params = SketchParamsFromFlags(flags);
  if (!params.ok()) return Fail(params.status());
  auto k = flags.GetInt("k", 10);
  if (!k.ok()) return Fail(k.status());
  auto min_length = flags.GetInt("min-length", 1);
  if (!min_length.ok()) return Fail(min_length.status());

  auto topk = StringTopK::Make(*params, static_cast<size_t>(2 * *k));
  if (!topk.ok()) return Fail(topk.status());

  TextReaderOptions options;
  options.min_token_length = static_cast<size_t>(*min_length);
  auto tokens = ForEachToken(path, options, [&](const std::string& token) {
    topk->Add(token);
  });
  if (!tokens.ok()) return Fail(tokens.status());

  std::cout << "processed " << *tokens << " tokens from " << path << "\n";
  TablePrinter table({"rank", "word", "estimate"});
  int rank = 0;
  for (const KeyCount& kc : topk->Candidates(static_cast<size_t>(*k))) {
    table.AddRowValues(++rank, kc.key, kc.count);
  }
  table.Print(std::cout);
  std::cout << "summary memory: " << topk->SpaceBytes() / 1024 << " KiB\n";
  return 0;
}

int CmdHeavyHitters(const Flags& flags) {
  auto stream = LoadTrace(flags, "trace");
  if (!stream.ok()) return Fail(stream.status());
  auto phi = flags.GetDouble("phi", 0.01);
  if (!phi.ok()) return Fail(phi.status());

  auto hh = PhiHeavyHitters::Make(*phi);
  if (!hh.ok()) return Fail(hh.status());
  for (ItemId q : *stream) hh->Add(q);

  TablePrinter table({"item", "count upper", "count lower", "status"});
  for (const PhiHeavyHitter& r : hh->Report()) {
    table.AddRowValues(r.item, r.count_upper, r.count_lower,
                       r.guaranteed ? "guaranteed" : "possible");
  }
  table.Print(std::cout);
  std::cout << "phi=" << *phi << " n=" << hh->StreamLength()
            << " threshold=" << *phi * static_cast<double>(hh->StreamLength())
            << " space=" << hh->SpaceBytes() / 1024 << "KiB\n";
  return 0;
}

int CmdVerify(const Flags& flags) {
  auto seed = flags.GetInt("seed", 42);
  auto iters = flags.GetInt("iters", 200);
  auto width_scale = flags.GetDouble("width-scale", 1.0);
  auto shrink = flags.GetBool("shrink", true);
  for (const Status& s :
       {seed.status(), iters.status(), width_scale.status(),
        shrink.status()}) {
    if (!s.ok()) return Fail(s);
  }
  if (*iters <= 0) {
    return Fail(Status::InvalidArgument("--iters must be positive"));
  }
  if (!(*width_scale > 0.0)) {
    return Fail(Status::InvalidArgument("--width-scale must be positive"));
  }

  FuzzOptions options;
  options.seed = static_cast<uint64_t>(*seed);
  options.iterations = static_cast<size_t>(*iters);
  options.algorithm_filter = flags.GetString("algo", "");
  options.width_scale = *width_scale;
  options.shrink = *shrink;
  const FuzzDriver driver(options);

  // Replay mode: one program line, full violation detail, no fuzzing.
  const std::string program_line = flags.GetString("program", "");
  if (!program_line.empty()) {
    auto program = ParseProgram(program_line);
    if (!program.ok()) return Fail(program.status());
    auto result = driver.RunProgram(*program);
    if (!result.ok()) return Fail(result.status());
    std::cout << "program: " << FormatProgram(*program) << "\n"
              << "checks run: " << result->checks << "\n";
    for (const Violation& v : result->violations) {
      std::cout << "VIOLATION " << FormatViolation(v) << "\n";
    }
    if (result->violations.empty()) {
      std::cout << "all guarantees hold\n";
      return 0;
    }
    return 1;
  }

  auto report = driver.Run();
  if (!report.ok()) return Fail(report.status());

  TablePrinter table({"algorithm", "checks", "violations"});
  for (const auto& [name, checks] : report->checks_by_algorithm) {
    const auto it = report->violations_by_algorithm.find(name);
    const size_t violations =
        it == report->violations_by_algorithm.end() ? 0 : it->second;
    table.AddRowValues(name, checks, violations);
  }
  EmitTable(table, "verify", std::cout);
  std::cout << "programs=" << report->programs << " checks=" << report->checks
            << " violations=" << report->violations << " seed=" << *seed
            << " width-scale=" << *width_scale << "\n";
  for (const FuzzFailure& failure : report->failures) {
    std::cout << "FAIL (" << failure.violations.size() << " violation"
              << (failure.violations.size() == 1 ? "" : "s") << "):\n";
    for (size_t i = 0; i < failure.violations.size() && i < 4; ++i) {
      std::cout << "  " << FormatViolation(failure.violations[i]) << "\n";
    }
    std::cout << "  replay: sfq verify --program \""
              << FormatProgram(failure.minimal) << "\"\n";
  }

  std::vector<JsonField> fields;
  fields.push_back(JsonField::Integer("seed", *seed));
  fields.push_back(
      JsonField::Integer("programs", static_cast<int64_t>(report->programs)));
  fields.push_back(
      JsonField::Integer("checks", static_cast<int64_t>(report->checks)));
  fields.push_back(JsonField::Integer(
      "violations", static_cast<int64_t>(report->violations)));
  fields.push_back(JsonField::Number("width_scale", *width_scale));
  for (const auto& [name, checks] : report->checks_by_algorithm) {
    fields.push_back(JsonField::Integer("checks." + name,
                                        static_cast<int64_t>(checks)));
  }
  for (const auto& [name, violations] : report->violations_by_algorithm) {
    fields.push_back(JsonField::Integer("violations." + name,
                                        static_cast<int64_t>(violations)));
  }
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    const Status s = WriteJsonReport(json_path, "verify", fields);
    if (!s.ok()) return Fail(s);
    std::cout << "(json: " << json_path << ")\n";
  }
  EmitJsonReport("verify", fields, std::cout);
  return report->Pass() ? 0 : 1;
}

// One `sfq chaos` report line: its table label (null: JSON only), its
// JSON key, its field.
struct ChaosMetric {
  const char* label;
  const char* key;
  uint64_t ChaosReport::*field;
};

// The lines every campaign reports first.
constexpr ChaosMetric kChaosCommon[] = {
    {"iterations", "iterations", &ChaosReport::iterations},
    {"verified", "verified", &ChaosReport::verified},
    {"clean errors", "clean_errors", &ChaosReport::clean_errors},
    {"guarantee failures", "guarantee_failures",
     &ChaosReport::guarantee_failures},
    {"fault fires", "fault_fires", &ChaosReport::fault_fires},
    {"faulted iterations", "faulted_iterations",
     &ChaosReport::faulted_iterations},
    {"worker respawns", "worker_respawns", &ChaosReport::worker_respawns},
    {"dropped items", "dropped_items", &ChaosReport::dropped_items},
};
constexpr ChaosMetric kIoRoundTrips{nullptr, "io_round_trips",
                                    &ChaosReport::io_round_trips};
constexpr ChaosMetric kIoFaults{nullptr, "io_faults", &ChaosReport::io_faults};
constexpr ChaosMetric kRequests{"server requests", "server_requests",
                                &ChaosReport::server_requests};
constexpr ChaosMetric kSevers{"connection severs", "server_severs",
                              &ChaosReport::server_severs};
constexpr ChaosMetric kIdentity{"identity checks", "identity_checks",
                                &ChaosReport::identity_checks};

// Each campaign's flag (none for the library campaign) and the lines it
// reports after the common ones.
struct ChaosView {
  ChaosCampaign campaign;
  const char* flag;
  std::vector<ChaosMetric> metrics;
};

const std::vector<ChaosView>& ChaosViews() {
  static const std::vector<ChaosView> kViews = {
      {ChaosCampaign::kLibrary,
       nullptr,
       {{"io round trips", "io_round_trips", &ChaosReport::io_round_trips},
        {"io faults", "io_faults", &ChaosReport::io_faults}}},
      {ChaosCampaign::kServer,
       "server",
       {kIoRoundTrips, kIoFaults, kRequests, kSevers,
        {"stale serves", "stale_serves", &ChaosReport::stale_serves}}},
      {ChaosCampaign::kServerRestart,
       "server-restart",
       {kIoRoundTrips, kIoFaults, kRequests, kSevers,
        {nullptr, "stale_serves", &ChaosReport::stale_serves},
        {"server restarts", "server_restarts", &ChaosReport::server_restarts},
        {"process deaths", "crash_kills", &ChaosReport::crash_kills},
        {"recoveries", "recoveries", &ChaosReport::recoveries}, kIdentity}},
      {ChaosCampaign::kTree,
       "tree",
       {kIoRoundTrips, kIoFaults,
        {"deltas shipped", "deltas_shipped", &ChaosReport::deltas_shipped},
        {"delta dedups", "delta_dedups", &ChaosReport::delta_dedups},
        {"severed links", "severed_links", &ChaosReport::severed_links},
        {"nodes lost", "nodes_lost", &ChaosReport::nodes_lost}, kIdentity}},
  };
  return kViews;
}

int CmdChaos(const Flags& flags) {
  auto seed = flags.GetInt("seed", 42);
  auto iters = flags.GetInt("iters", 200);
  auto io = flags.GetBool("io", true);
  for (const Status& s : {seed.status(), iters.status(), io.status()}) {
    if (!s.ok()) return Fail(s);
  }
  if (*iters <= 0) {
    return Fail(Status::InvalidArgument("--iters must be positive"));
  }

  ChaosOptions options;
  options.seed = static_cast<uint64_t>(*seed);
  options.iterations = static_cast<uint64_t>(*iters);
  options.failpoints = flags.GetString("failpoints", "");
  options.exercise_io = *io;
  // The library campaign unless one campaign flag picks another.
  const ChaosView* view = &ChaosViews().front();
  int chosen = 0;
  for (const ChaosView& candidate : ChaosViews()) {
    if (candidate.flag == nullptr) continue;
    auto on = flags.GetBool(candidate.flag, false);
    if (!on.ok()) return Fail(on.status());
    if (*on) {
      view = &candidate;
      ++chosen;
    }
  }
  if (chosen > 1) {
    return Fail(Status::InvalidArgument(
        "chaos: give at most one of --server, --server-restart, --tree"));
  }
  options.campaign = view->campaign;
  if (options.campaign == ChaosCampaign::kServerRestart) {
    // The campaign forks fresh `sfq serve` processes from this very image.
    std::error_code ec;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec) {
      return Fail(Status::IoError(
          "chaos: cannot resolve /proc/self/exe: " + ec.message()));
    }
    options.server_binary = self.string();
  }
  auto report = RunChaosCampaign(options);
  if (!report.ok()) return Fail(report.status());

  TablePrinter table({"metric", "value"});
  std::vector<JsonField> fields;
  fields.push_back(JsonField::Integer("seed", *seed));
  std::vector<ChaosMetric> metrics(std::begin(kChaosCommon),
                                   std::end(kChaosCommon));
  metrics.insert(metrics.end(), view->metrics.begin(), view->metrics.end());
  for (const ChaosMetric& m : metrics) {
    if (m.label != nullptr) table.AddRowValues(m.label, *report.*m.field);
    fields.push_back(JsonField::Integer(
        m.key, static_cast<int64_t>(*report.*m.field)));
  }
  EmitTable(table, "chaos", std::cout);
  const std::string campaign_flag =
      view->flag == nullptr ? "" : std::string(" --") + view->flag + " true";
  for (const ChaosFailure& failure : report->failures) {
    std::cout << "FAIL iteration " << failure.index << ": " << failure.detail
              << "\n  schedule: " << failure.schedule
              << "\n  replay: sfq chaos --seed " << *seed
              << " --iters " << (failure.index + 1) << campaign_flag
              << (options.failpoints.empty()
                      ? ""
                      : " --failpoints \"" + options.failpoints + "\"")
              << "\n  program: " << failure.program << "\n";
  }
  std::cout << (report->Passed() ? "CHAOS PASS" : "CHAOS FAIL") << ": "
            << report->verified << " verified + " << report->clean_errors
            << " clean errors / " << report->iterations << " iterations, "
            << report->fault_fires << " fault fires (seed=" << *seed
            << ")\n";

  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    const Status s = WriteJsonReport(json_path, "chaos", fields);
    if (!s.ok()) return Fail(s);
    std::cout << "(json: " << json_path << ")\n";
  }
  EmitJsonReport("chaos", fields, std::cout);
  return report->Passed() ? 0 : 1;
}

int CmdAggregate(const Flags& flags) {
  AggregateOptions options;
  auto workers = flags.GetInt("workers", 4);
  auto fanout = flags.GetInt("fanout", 0);
  auto items = flags.GetInt("items", 200000);
  auto universe = flags.GetInt("m", 1 << 20);
  auto z = flags.GetDouble("z", 1.1);
  auto seed = flags.GetInt("seed", 42);
  auto delta_every = flags.GetInt("delta-every", 16384);
  auto tracked = flags.GetInt("tracked", 64);
  auto topk = flags.GetInt("k", 10);
  for (const Status& s :
       {workers.status(), fanout.status(), items.status(), universe.status(),
        z.status(), seed.status(), delta_every.status(), tracked.status(),
        topk.status()}) {
    if (!s.ok()) return Fail(s);
  }
  if (*workers <= 0 || *items < 0 || *universe <= 0 || *delta_every <= 0 ||
      *tracked <= 0 || *topk <= 0 || *fanout < 0) {
    return Fail(Status::InvalidArgument("aggregate: flags must be positive"));
  }
  options.workers = static_cast<uint64_t>(*workers);
  options.fanout = static_cast<uint64_t>(*fanout);
  options.items = static_cast<uint64_t>(*items);
  options.universe = static_cast<uint64_t>(*universe);
  options.zipf_z = *z;
  options.seed = static_cast<uint64_t>(*seed);
  options.delta_every = static_cast<uint64_t>(*delta_every);
  options.tracked = static_cast<size_t>(*tracked);
  options.topk = static_cast<size_t>(*topk);
  auto params = SketchParamsFromFlags(flags);
  if (!params.ok()) return Fail(params.status());
  options.params = *params;

  std::error_code ec;
  const std::filesystem::path socket_dir =
      std::filesystem::temp_directory_path(ec) /
      ("sfq_agg_" + std::to_string(::getpid()));
  if (ec) return Fail(Status::IoError("aggregate: no temp dir"));
  std::filesystem::create_directories(socket_dir, ec);
  if (ec) {
    return Fail(Status::IoError("aggregate: cannot create socket dir: " +
                                socket_dir.string()));
  }
  options.socket_dir = socket_dir.string();
  auto report = RunAggregate(options);
  std::filesystem::remove_all(socket_dir, ec);
  if (!report.ok()) return Fail(report.status());

  // Score the root's answers: the per-worker substreams are deterministic
  // in (seed, leaf), so the exact global counts are recomputable here.
  ExactCounter exact;
  for (uint64_t leaf = 0; leaf < report->leaves; ++leaf) {
    auto stream = WorkerStreamItems(options, leaf);
    if (!stream.ok()) return Fail(stream.status());
    for (const ItemId id : *stream) exact.Add(id);
  }

  TablePrinter table({"rank", "item", "root estimate", "exact"});
  int rank = 1;
  for (const ItemCount& entry : report->topk) {
    table.AddRowValues(rank++, entry.item, entry.count,
                       exact.CountOf(entry.item));
  }
  EmitTable(table, "aggregate", std::cout);

  uint64_t covered_total = 0;
  for (const CoverageEntry& c : report->covered) covered_total += c.count;
  std::cout << "aggregate: " << report->nodes << " nodes (" << report->leaves
            << " leaves, depth " << report->depth << "), ingested "
            << report->ledger.ingested << "/" << report->ledger.offered
            << " offered, " << report->deltas_applied
            << " deltas applied at the root (" << report->delta_dedups
            << " dedups)\n";

  std::vector<JsonField> fields;
  fields.push_back(JsonField::Integer("workers", *workers));
  fields.push_back(JsonField::Integer("fanout", *fanout));
  fields.push_back(JsonField::Integer(
      "nodes", static_cast<int64_t>(report->nodes)));
  fields.push_back(JsonField::Integer(
      "depth", static_cast<int64_t>(report->depth)));
  fields.push_back(JsonField::Integer(
      "offered", static_cast<int64_t>(report->ledger.offered)));
  fields.push_back(JsonField::Integer(
      "ingested", static_cast<int64_t>(report->ledger.ingested)));
  fields.push_back(JsonField::Integer(
      "covered", static_cast<int64_t>(covered_total)));
  fields.push_back(JsonField::Integer(
      "deltas_applied", static_cast<int64_t>(report->deltas_applied)));
  fields.push_back(JsonField::Integer(
      "delta_dedups", static_cast<int64_t>(report->delta_dedups)));
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    const Status s = WriteJsonReport(json_path, "aggregate", fields);
    if (!s.ok()) return Fail(s);
    std::cout << "(json: " << json_path << ")\n";
  }
  EmitJsonReport("aggregate", fields, std::cout);
  return 0;
}

int CmdServe(const Flags& flags) {
  const std::string socket = flags.GetString("socket", "");
  if (socket.empty()) {
    return Fail(Status::InvalidArgument("--socket is required"));
  }
  auto seed = flags.GetInt("seed", 1);
  if (!seed.ok()) return Fail(seed.status());
  auto snapshot_every = flags.GetInt("snapshot-every", 1 << 16);
  if (!snapshot_every.ok()) return Fail(snapshot_every.status());
  if (*snapshot_every < 0) {
    return Fail(Status::InvalidArgument("--snapshot-every must be >= 0"));
  }
  auto fsync = WalFsyncFromName(flags.GetString("fsync", "always"));
  if (!fsync.ok()) return Fail(fsync.status());
  // Optional fault drills: arm the server.* (and any other) sites for the
  // whole serving session, same spec grammar as `sfq chaos`. In the serve
  // binary — and only here — a `crash` action is a real process death
  // (std::_Exit at the site), which is what the kill-restart chaos
  // campaign leans on.
  FailpointRegistry::SetCrashKillsProcess(true);
  ScopedFailpoints failpoints(flags.GetString("failpoints", ""),
                              static_cast<uint64_t>(*seed));
  if (!failpoints.status().ok()) return Fail(failpoints.status());

  ServerOptions options;
  options.socket_path = socket;
  options.service.data_dir = flags.GetString("data-dir", "");
  options.service.fsync = *fsync;
  options.service.snapshot_every_items = static_cast<uint64_t>(*snapshot_every);
  auto server = SfqServer::Start(options);
  if (!server.ok()) return Fail(server.status());
  if (!options.service.data_dir.empty()) {
    std::cout << "sfq serve: durable under " << options.service.data_dir
              << " (fsync=" << WalFsyncName(*fsync) << ", "
              << (*server)->service().TenantCount()
              << " tenants recovered)\n";
    for (const auto& [name, detail] :
         (*server)->service().recovery_failures()) {
      std::cout << "sfq serve: RECOVERY FAILED for tenant " << name << ": "
                << detail << "\n";
    }
  }
  std::cout << "sfq serve: listening on " << socket << std::endl;
  (*server)->Wait();
  const ServerStats stats = (*server)->Stats();
  std::cout << "sfq serve: shut down after " << stats.requests
            << " requests over " << stats.connections_accepted
            << " connections (" << stats.protocol_errors
            << " protocol errors)\n";
  return 0;
}

int CmdClient(const Flags& flags) {
  const std::string socket = flags.GetString("socket", "");
  if (socket.empty()) {
    return Fail(Status::InvalidArgument("--socket is required"));
  }
  auto op = OpcodeFromName(flags.GetString("op", "ping"));
  if (!op.ok()) return Fail(op.status());
  const std::string tenant = flags.GetString("tenant", "");
  auto k = flags.GetInt("k", 10);
  auto item = flags.GetInt("item", 0);
  if (!k.ok()) return Fail(k.status());
  if (!item.ok()) return Fail(item.status());

  auto retries = flags.GetInt("retries", 0);
  auto backoff = flags.GetInt("backoff-ms", 50);
  if (!retries.ok()) return Fail(retries.status());
  if (!backoff.ok()) return Fail(backoff.status());
  if (*retries < 0 || *backoff < 0) {
    return Fail(Status::InvalidArgument(
        "--retries and --backoff-ms must be >= 0"));
  }
  RetryOptions retry;
  retry.retries = static_cast<uint32_t>(*retries);
  retry.backoff_ms = static_cast<uint64_t>(*backoff);
  auto retry_seed = flags.GetInt("seed", 1);
  if (retry_seed.ok()) retry.seed = static_cast<uint64_t>(*retry_seed);

  auto client = SfqClient::Connect(socket, retry);
  if (!client.ok()) return Fail(client.status());

  switch (*op) {
    case Opcode::kPing: {
      const Status status = client->Ping();
      if (!status.ok()) return Fail(status);
      std::cout << "PONG\n";
      return 0;
    }
    case Opcode::kCreateTenant: {
      TenantSpec spec;
      auto depth = flags.GetInt("depth", 0);
      auto width = flags.GetInt("width", 0);
      auto seed = flags.GetInt("seed", 1);
      auto threads = flags.GetInt("threads", 2);
      auto timeout = flags.GetInt("push-timeout-ms", 0);
      auto tracked = flags.GetInt("tracked", 64);
      for (const Status& s :
           {depth.status(), width.status(), seed.status(), threads.status(),
            timeout.status(), tracked.status()}) {
        if (!s.ok()) return Fail(s);
      }
      auto policy = PolicyFromName(flags.GetString("overflow", "block"));
      if (!policy.ok()) return Fail(policy.status());
      spec.depth = static_cast<uint64_t>(*depth);
      spec.width = static_cast<uint64_t>(*width);
      spec.seed = static_cast<uint64_t>(*seed);
      spec.threads = static_cast<uint64_t>(*threads);
      spec.push_timeout_ms = static_cast<uint64_t>(*timeout);
      spec.policy = *policy;
      spec.tracked = static_cast<uint64_t>(*tracked);
      const Status status = client->CreateTenant(tenant, spec);
      if (!status.ok()) return Fail(status);
      std::cout << "created tenant " << tenant << "\n";
      return 0;
    }
    case Opcode::kDropTenant: {
      const Status status = client->DropTenant(tenant);
      if (!status.ok()) return Fail(status);
      std::cout << "dropped tenant " << tenant << "\n";
      return 0;
    }
    case Opcode::kIngest: {
      auto stream = LoadTrace(flags, "trace");
      if (!stream.ok()) return Fail(stream.status());
      const Status status =
          client->Ingest(tenant, std::span<const ItemId>(*stream));
      if (!status.ok()) return Fail(status);
      std::cout << "ingested " << stream->size() << " items into " << tenant
                << "\n";
      return 0;
    }
    case Opcode::kSeal: {
      auto epoch = client->Seal(tenant);
      if (!epoch.ok()) return Fail(epoch.status());
      std::cout << "sealed " << tenant << " at epoch " << *epoch << "\n";
      return 0;
    }
    case Opcode::kTopK: {
      uint64_t epoch = 0;
      auto entries =
          client->TopK(tenant, static_cast<uint64_t>(*k), &epoch);
      if (!entries.ok()) return Fail(entries.status());
      std::cout << "top-" << *k << " of " << tenant << " (epoch " << epoch
                << "):\n";
      for (const ItemCount& entry : *entries) {
        std::cout << "  " << entry.item << "\t" << entry.count << "\n";
      }
      return 0;
    }
    case Opcode::kEstimate: {
      uint64_t epoch = 0;
      auto estimate = client->Estimate(
          tenant, static_cast<ItemId>(*item), &epoch);
      if (!estimate.ok()) return Fail(estimate.status());
      std::cout << *estimate << "\n";
      return 0;
    }
    case Opcode::kMarkEpoch: {
      auto epoch = client->MarkEpoch(tenant);
      if (!epoch.ok()) return Fail(epoch.status());
      std::cout << "marked " << tenant << " at epoch " << *epoch << "\n";
      return 0;
    }
    case Opcode::kMaxChange: {
      auto entries = client->MaxChange(tenant, static_cast<uint64_t>(*k));
      if (!entries.ok()) return Fail(entries.status());
      std::cout << "max-change top-" << *k << " of " << tenant << ":\n";
      for (const ItemCount& entry : *entries) {
        std::cout << "  " << entry.item << "\t" << entry.count << "\n";
      }
      return 0;
    }
    case Opcode::kExport: {
      const std::string out = flags.GetString("out", "");
      if (out.empty()) {
        return Fail(Status::InvalidArgument("--out is required for export"));
      }
      auto sketch = client->Export(tenant);
      if (!sketch.ok()) return Fail(sketch.status());
      const Status status = WriteSketchFile(out, *sketch);
      if (!status.ok()) return Fail(status);
      std::cout << "exported " << tenant << " to " << out << "\n";
      return 0;
    }
    case Opcode::kRecoveryInfo: {
      auto info = client->RecoveryInfo(tenant);
      if (!info.ok()) return Fail(info.status());
      std::cout << *info << "\n";
      return 0;
    }
    case Opcode::kStatsz: {
      auto statsz = client->Statsz();
      if (!statsz.ok()) return Fail(statsz.status());
      std::cout << *statsz << "\n";
      return 0;
    }
    case Opcode::kShutdown: {
      const Status status = client->Shutdown();
      if (!status.ok()) return Fail(status);
      std::cout << "server shutting down\n";
      return 0;
    }
  }
  return Fail(Status::InvalidArgument("unsupported --op"));
}

int Main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) return Fail(flags.status());
  if (flags->positional().empty()) {
    PrintUsage();
    return 1;
  }
  const std::string& command = flags->positional()[0];
  if (command == "generate") return CmdGenerate(*flags);
  if (command == "topk") return CmdTopK(*flags);
  if (command == "suite") return CmdSuite(*flags);
  if (command == "maxchange") return CmdMaxChange(*flags);
  if (command == "sketch") return CmdSketch(*flags);
  if (command == "inspect") return CmdInspect(*flags);
  if (command == "estimate") return CmdEstimate(*flags);
  if (command == "words") return CmdWords(*flags);
  if (command == "hh") return CmdHeavyHitters(*flags);
  if (command == "verify") return CmdVerify(*flags);
  if (command == "chaos") return CmdChaos(*flags);
  if (command == "aggregate") return CmdAggregate(*flags);
  if (command == "serve") return CmdServe(*flags);
  if (command == "client") return CmdClient(*flags);
  PrintUsage();
  return Fail(Status::InvalidArgument("unknown command: " + command));
}

}  // namespace
}  // namespace streamfreq

int main(int argc, char** argv) { return streamfreq::Main(argc, argv); }
