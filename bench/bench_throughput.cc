// E7 -- update/query throughput per algorithm (google-benchmark).
//
// Streams a pregenerated Zipf(1) trace through each algorithm at a common
// ~64 KiB budget and reports items/second; also measures Count-Sketch
// point-query latency vs depth, the batched read path (EstimateBatch,
// RankCandidates), the BatchAdd fast path, and parallel sharded ingestion
// (src/concurrent/) across thread counts.
//
// Expected shape: counter algorithms (Misra-Gries amortized O(1),
// Space-Saving O(log c)) and plain sampling lead; sketches pay t hashed
// counter touches per update; Count-Sketch queries pay an extra median;
// parallel ingestion scales with cores (per-thread sketches, merge at end).
//
// Extra flags (parsed before google-benchmark's own):
//   --threads=1,2,4,8   thread counts for the BM_ParallelIngest family
//   --batch=8192        items per batch for BatchAdd/parallel benchmarks
//   --json <path>       additionally write the recorded trajectory JSON
//                       (schema streamfreq-bench-v1: every finished row's
//                       name + items_per_second + the compiled-in SIMD
//                       backend) to <path>. Under --benchmark_repetitions
//                       the fastest repetition per benchmark is kept and
//                       aggregate rows are ignored. This is the format
//                       committed as BENCH_throughput.json at the repo
//                       root and gated by tools/bench_gate.py via
//                       scripts/check.sh --bench; docs/PERFORMANCE.md
//                       documents how to read it.
// Items/sec per thread count also lands in google-benchmark's own report
// via --benchmark_format=json (each BM_ParallelIngest/threads:N row
// carries items_per_second).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "concurrent/parallel_ingestor.h"
#include "core/count_min.h"
#include "core/count_sketch.h"
#include "core/space_saving.h"
#include "eval/suite.h"
#include "eval/workload.h"
#include "hash/batch_hash.h"
#include "util/logging.h"

namespace streamfreq {
namespace {

const Workload& SharedWorkload() {
  static const Workload* workload = [] {
    auto w = MakeZipfWorkload(100000, 1.0, 1 << 18, 424242);
    SFQ_CHECK_OK(w.status());
    return new Workload(std::move(*w));
  }();
  return *workload;
}

SuiteSpec BenchSpec() {
  SuiteSpec spec;
  spec.space_budget_bytes = 64 * 1024;
  spec.k = 100;
  spec.seed = 1;
  spec.expected_stream_length = SharedWorkload().n();
  return spec;
}

void BM_Update(benchmark::State& state) {
  const AlgorithmKind kind = static_cast<AlgorithmKind>(state.range(0));
  const Workload& w = SharedWorkload();
  for (auto _ : state) {
    state.PauseTiming();
    auto algo = MakeAlgorithm(kind, BenchSpec());
    SFQ_CHECK_OK(algo.status());
    state.ResumeTiming();
    (*algo)->AddAll(w.stream);
    benchmark::DoNotOptimize(*algo);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.stream.size()));
  state.SetLabel([&] {
    auto algo = MakeAlgorithm(kind, BenchSpec());
    return algo.ok() ? (*algo)->Name() : "?";
  }());
}

BENCHMARK(BM_Update)
    ->Arg(static_cast<int>(AlgorithmKind::kCountSketchTopK))
    ->Arg(static_cast<int>(AlgorithmKind::kCountMinTopK))
    ->Arg(static_cast<int>(AlgorithmKind::kCountMinConservativeTopK))
    ->Arg(static_cast<int>(AlgorithmKind::kMisraGries))
    ->Arg(static_cast<int>(AlgorithmKind::kLossyCounting))
    ->Arg(static_cast<int>(AlgorithmKind::kSpaceSaving))
    ->Arg(static_cast<int>(AlgorithmKind::kStreamSummarySpaceSaving))
    ->Arg(static_cast<int>(AlgorithmKind::kStickySampling))
    ->Arg(static_cast<int>(AlgorithmKind::kSampling))
    ->Arg(static_cast<int>(AlgorithmKind::kConciseSampling))
    ->Arg(static_cast<int>(AlgorithmKind::kCountingSampling))
    ->Unit(benchmark::kMillisecond);

// Raw Count-Sketch Add cost vs depth (no heap).
void BM_CountSketchAdd(benchmark::State& state) {
  CountSketchParams p;
  p.depth = static_cast<size_t>(state.range(0));
  p.width = 4096;
  p.seed = 3;
  auto sketch = CountSketch::Make(p);
  SFQ_CHECK_OK(sketch.status());
  const Workload& w = SharedWorkload();
  size_t i = 0;
  for (auto _ : state) {
    sketch->Add(w.stream[i]);
    if (++i == w.stream.size()) i = 0;
  }
  benchmark::DoNotOptimize(*sketch);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CountSketchAdd)->Arg(1)->Arg(3)->Arg(5)->Arg(8)->Arg(16);

// Point-query cost vs depth, one id at a time: a scalar hash per row, then
// the branch-free median network (the nth_element it replaced mispredicted
// its way to most of the cost).
void BM_CountSketchEstimate(benchmark::State& state) {
  CountSketchParams p;
  p.depth = static_cast<size_t>(state.range(0));
  p.width = 4096;
  p.seed = 3;
  auto sketch = CountSketch::Make(p);
  SFQ_CHECK_OK(sketch.status());
  const Workload& w = SharedWorkload();
  for (ItemId q : w.stream) sketch->Add(q);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch->Estimate(w.stream[i]));
    if (++i == w.stream.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CountSketchEstimate)->Arg(1)->Arg(3)->Arg(5)->Arg(8)->Arg(16);

// The read path's shape in the merge tree: the 5 x 2048 Carter-Wegman
// sketch a tree-lowskew node holds, loaded with the shared stream, and
// 4096 distinct ids to score.
struct ReadPathFixture {
  CountSketch sketch;
  std::vector<ItemId> ids;
};

const ReadPathFixture& SharedReadPath() {
  static const ReadPathFixture* fixture = [] {
    CountSketchParams p;
    p.depth = 5;
    p.width = 2048;
    p.seed = 3;
    auto sketch = CountSketch::Make(p);
    SFQ_CHECK_OK(sketch.status());
    const Workload& w = SharedWorkload();
    sketch->BatchAdd(w.stream);
    std::vector<ItemId> ids(w.stream.begin(), w.stream.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    SFQ_CHECK_GE(ids.size(), size_t{4096});
    ids.resize(4096);
    return new ReadPathFixture{std::move(*sketch), std::move(ids)};
  }();
  return *fixture;
}

// Batched point queries: one hashing pass per row and block, one median
// network per block. Items/s counts ids estimated.
void BM_CountSketchEstimateBatch(benchmark::State& state) {
  const ReadPathFixture& f = SharedReadPath();
  std::vector<Count> out(f.ids.size());
  for (auto _ : state) {
    f.sketch.EstimateBatch(f.ids, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.ids.size()));
}
BENCHMARK(BM_CountSketchEstimateBatch);

// A root top-100 over 4096 candidates: batch estimates, selection to k,
// then a sort of the k kept. Items/s counts candidates ranked.
void BM_RankCandidates(benchmark::State& state) {
  const ReadPathFixture& f = SharedReadPath();
  for (auto _ : state) {
    std::vector<ItemCount> top = RankCandidates(f.ids, f.sketch, 100, false);
    benchmark::DoNotOptimize(top.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.ids.size()));
}
BENCHMARK(BM_RankCandidates);

// Merge cost: linear in t*b, the distributed-aggregation primitive.
void BM_CountSketchMerge(benchmark::State& state) {
  CountSketchParams p;
  p.depth = 5;
  p.width = static_cast<size_t>(state.range(0));
  p.seed = 3;
  auto a = CountSketch::Make(p);
  auto b = CountSketch::Make(p);
  SFQ_CHECK_OK(a.status());
  SFQ_CHECK_OK(b.status());
  for (ItemId q : SharedWorkload().stream) b->Add(q);
  for (auto _ : state) {
    SFQ_CHECK_OK(a->Merge(*b));
    benchmark::DoNotOptimize(*a);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(p.depth * p.width *
                                               sizeof(int64_t)));
}
BENCHMARK(BM_CountSketchMerge)->Arg(1024)->Arg(16384)->Arg(262144);

// The BatchAdd fast path vs item-at-a-time Add at several batch sizes.
void BM_CountSketchBatchAdd(benchmark::State& state) {
  CountSketchParams p;
  p.depth = 5;
  p.width = 4096;
  p.seed = 3;
  auto sketch = CountSketch::Make(p);
  SFQ_CHECK_OK(sketch.status());
  const Workload& w = SharedWorkload();
  const size_t batch = static_cast<size_t>(state.range(0));
  size_t offset = 0;
  for (auto _ : state) {
    const size_t take = std::min(batch, w.stream.size() - offset);
    sketch->BatchAdd(std::span<const ItemId>(w.stream.data() + offset, take));
    offset = offset + take == w.stream.size() ? 0 : offset + take;
  }
  benchmark::DoNotOptimize(*sketch);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_CountSketchBatchAdd)->Arg(256)->Arg(4096)->Arg(65536);

// Space-Saving BatchAdd (one merge-and-select pass per batch) at
// (capacity, batch): the server's tracker geometry, the merge-tree leaf
// geometry, and one-item batches, where the O(capacity) selection per
// batch dominates. Recorded in BENCH_throughput.json.
void BM_SpaceSavingBatchAdd(benchmark::State& state) {
  auto summary = SpaceSaving::Make(static_cast<size_t>(state.range(0)));
  SFQ_CHECK_OK(summary.status());
  const Workload& w = SharedWorkload();
  const size_t batch = static_cast<size_t>(state.range(1));
  size_t offset = 0;
  for (auto _ : state) {
    const size_t take = std::min(batch, w.stream.size() - offset);
    summary->BatchAdd(std::span<const ItemId>(w.stream.data() + offset, take));
    offset = offset + take == w.stream.size() ? 0 : offset + take;
  }
  benchmark::DoNotOptimize(*summary);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  state.SetLabel(summary->Name());
}
BENCHMARK(BM_SpaceSavingBatchAdd)
    ->Args({128, 512})
    ->Args({512, 4096})
    ->Args({4096, 1});

// Scalar-vs-SIMD BatchAdd, per hash family — the rows recorded in
// BENCH_throughput.json and regression-gated by tools/bench_gate.py. One
// fixed 8192-item batch isolates the kernel cost from span bookkeeping.
void BM_CountSketchBatchAddBackend(benchmark::State& state, HashFamily family,
                                   bool scalar) {
  CountSketchParams p;
  p.depth = 5;
  p.width = 4096;
  p.seed = 3;
  p.family = family;
  auto sketch = CountSketch::Make(p);
  SFQ_CHECK_OK(sketch.status());
  const Workload& w = SharedWorkload();
  constexpr size_t kBatch = 8192;
  size_t offset = 0;
  for (auto _ : state) {
    const size_t take = std::min(kBatch, w.stream.size() - offset);
    const std::span<const ItemId> span(w.stream.data() + offset, take);
    if (scalar) {
      sketch->BatchAddScalar(span);
    } else {
      sketch->BatchAdd(span);
    }
    offset = offset + take == w.stream.size() ? 0 : offset + take;
  }
  benchmark::DoNotOptimize(*sketch);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.SetLabel(scalar ? "scalar" : batch_hash::BackendName());
}
BENCHMARK_CAPTURE(BM_CountSketchBatchAddBackend, cw_scalar,
                  HashFamily::kCarterWegman, true);
BENCHMARK_CAPTURE(BM_CountSketchBatchAddBackend, cw_simd,
                  HashFamily::kCarterWegman, false);
BENCHMARK_CAPTURE(BM_CountSketchBatchAddBackend, ms_scalar,
                  HashFamily::kMultiplyShift, true);
BENCHMARK_CAPTURE(BM_CountSketchBatchAddBackend, ms_simd,
                  HashFamily::kMultiplyShift, false);
BENCHMARK_CAPTURE(BM_CountSketchBatchAddBackend, tab_scalar,
                  HashFamily::kTabulation, true);
BENCHMARK_CAPTURE(BM_CountSketchBatchAddBackend, tab_simd,
                  HashFamily::kTabulation, false);

// Same split for Count-Min (bucket hashes only, no signs).
void BM_CountMinBatchAddBackend(benchmark::State& state, bool scalar) {
  CountMinParams p;
  p.depth = 4;
  p.width = 4096;
  p.seed = 3;
  auto sketch = CountMin::Make(p);
  SFQ_CHECK_OK(sketch.status());
  const Workload& w = SharedWorkload();
  constexpr size_t kBatch = 8192;
  size_t offset = 0;
  for (auto _ : state) {
    const size_t take = std::min(kBatch, w.stream.size() - offset);
    const std::span<const ItemId> span(w.stream.data() + offset, take);
    if (scalar) {
      sketch->BatchAddScalar(span);
    } else {
      sketch->BatchAdd(span);
    }
    offset = offset + take == w.stream.size() ? 0 : offset + take;
  }
  benchmark::DoNotOptimize(*sketch);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.SetLabel(scalar ? "scalar" : batch_hash::BackendName());
}
BENCHMARK_CAPTURE(BM_CountMinBatchAddBackend, scalar, true);
BENCHMARK_CAPTURE(BM_CountMinBatchAddBackend, simd, false);

// Parallel sharded ingestion end-to-end: shard the trace across N workers
// (thread-local sketches, final merge) and measure whole-stream wall time.
void BM_ParallelIngest(benchmark::State& state, size_t threads, size_t batch) {
  const Workload& w = SharedWorkload();
  CountSketchParams p;
  p.depth = 5;
  p.width = 4096;
  p.seed = 3;
  for (auto _ : state) {
    auto ingestor = ParallelIngestor<CountSketch>::Make(
        MakeSharedParamsFactory<CountSketch>(p),
        IngestOptions{.threads = threads, .batch_items = batch});
    SFQ_CHECK_OK(ingestor.status());
    SFQ_CHECK_OK((*ingestor)->Ingest(std::span<const ItemId>(w.stream)));
    auto merged = (*ingestor)->Finish();
    SFQ_CHECK_OK(merged.status());
    benchmark::DoNotOptimize(*merged);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.stream.size()));
  state.counters["threads"] = static_cast<double>(threads);
}

// Parses "--threads=1,2,8" / "--batch=8192" out of argv (removing them so
// benchmark::Initialize only sees its own flags).
struct IngestFlags {
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  size_t batch = 8192;
  std::string json_path;  // empty = no trajectory JSON
};

IngestFlags ParseIngestFlags(int* argc, char** argv) {
  IngestFlags flags;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < *argc) {
      flags.json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      flags.json_path = arg.substr(7);
    } else if (arg.rfind("--threads=", 0) == 0) {
      flags.thread_counts.clear();
      std::string list = arg.substr(10);
      size_t pos = 0;
      while (pos < list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string tok = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        const long v = std::strtol(tok.c_str(), nullptr, 10);
        if (v > 0) flags.thread_counts.push_back(static_cast<size_t>(v));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      if (flags.thread_counts.empty()) flags.thread_counts = {1};
    } else if (arg.rfind("--batch=", 0) == 0) {
      const long v = std::strtol(arg.c_str() + 8, nullptr, 10);
      if (v > 0) flags.batch = static_cast<size_t>(v);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return flags;
}

/// Console reporter that additionally records every finished run's name and
/// items/second, then writes the streamfreq-bench-v1 trajectory JSON that
/// tools/bench_gate.py consumes (see docs/PERFORMANCE.md for the format).
class TrajectoryReporter final : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    std::string label;
    double items_per_second;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Skip aggregate rows (_mean/_median/...) so --benchmark_repetitions
      // never produces duplicate or synthetic entry names. Repetitions of
      // the same benchmark keep the BEST rate: on a loaded single-core box
      // interference only ever slows a run down, so max-of-N is the least
      // noisy estimate and keeps the regression gate from tripping on
      // transient load.
      if (run.error_occurred || !run.aggregate_name.empty()) continue;
      const auto it = run.counters.find("items_per_second");
      if (it == run.counters.end()) continue;
      const std::string name = run.benchmark_name();
      bool merged = false;
      for (Entry& e : entries_) {
        if (e.name == name) {
          e.items_per_second = std::max(e.items_per_second, it->second.value);
          merged = true;
          break;
        }
      }
      if (!merged) entries_.push_back({name, run.report_label, it->second.value});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  /// Writes the collected entries as JSON; returns false on I/O failure.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"streamfreq-bench-v1\",\n"
                 "  \"bench\": \"bench_throughput\",\n"
                 "  \"simd_backend\": \"%s\",\n"
                 "  \"entries\": [",
                 batch_hash::BackendName());
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f,
                   "%s\n    {\"name\": \"%s\", \"label\": \"%s\", "
                   "\"items_per_second\": %.6e}",
                   i == 0 ? "" : ",", entries_[i].name.c_str(),
                   entries_[i].label.c_str(), entries_[i].items_per_second);
    }
    std::fprintf(f, "\n  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace
}  // namespace streamfreq

int main(int argc, char** argv) {
  const streamfreq::IngestFlags flags =
      streamfreq::ParseIngestFlags(&argc, argv);
  for (const size_t t : flags.thread_counts) {
    benchmark::RegisterBenchmark(
        ("BM_ParallelIngest/threads:" + std::to_string(t) +
         "/batch:" + std::to_string(flags.batch))
            .c_str(),
        [t, &flags](benchmark::State& state) {
          streamfreq::BM_ParallelIngest(state, t, flags.batch);
        })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  streamfreq::TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!flags.json_path.empty() && !reporter.WriteJson(flags.json_path)) {
    std::fprintf(stderr, "bench_throughput: cannot write %s\n",
                 flags.json_path.c_str());
    return 1;
  }
  return 0;
}
