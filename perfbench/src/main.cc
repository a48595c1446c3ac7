// perfbench: runs one named workload in this process and prints its
// metrics, one `name value unit` line each, then the result JSON as the
// last line of stdout. Exits 1 when any op or output check failed.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--trace-out FILE] [--corrupt]
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: the workload runs in alternating untraced and traced slices
// (the items_per_s difference is the tracing overhead), then its batches
// are replayed through every layer (layers.cc); the spans go to
// --trace-out.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv, std::string* trace_out) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      *trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workdir.empty()) Usage("--workdir is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

void PrintSelfTime(const Tracer& tracer) {
  std::printf("# self time by layer in the traced slices\n");
  double total = 0;
  const auto by_layer = tracer.SelfTimeByLayer();
  for (const auto& [layer, agg] : by_layer) total += agg.second;
  for (const auto& [layer, agg] : by_layer) {
    std::printf("#   %-12s spans %-9llu self_ms %-12.3f share %.4f\n",
                layer.c_str(), static_cast<unsigned long long>(agg.first),
                agg.second / 1e6, total > 0 ? agg.second / total : 0.0);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string trace_out;
  const Args args = Parse(argc, argv, &trace_out);
  const std::map<std::string, void (*)(const Args&, Tracer*, WorkloadResult*)>
      workloads = {{"serve-zipf", RunServeZipf},
                   {"tree-lowskew", RunTreeLowSkew}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) Usage("unknown workload '" + args.workload + "'");
  std::filesystem::create_directories(args.workdir);

  Tracer workload_tracer;
  WorkloadResult result;
  it->second(args, args.trace ? &workload_tracer : nullptr, &result);

  Report report;
  if (!args.trace) {
    AddEndToEnd(result.ops[0], result.checks, result.setup_s, &report);
    report.Set("topk_recall", result.topk_recall, "frac");
    report.Set("peak_rss_mb", result.peak_rss_mb, "MiB");
  } else {
    PrintSelfTime(workload_tracer);
    const double untraced = result.ops[0].ItemsPerSecond();
    const double traced = result.ops[1].ItemsPerSecond();
    std::printf("# items_per_s untraced %.6g traced %.6g\n", untraced, traced);
    report.Set("bench.trace_overhead_pct",
               untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0.0,
               "%");
    Tracer replay_tracer;
    ReplayLayers(result.layers, args.workdir, &replay_tracer, &result.checks,
                 &report);
    if (!trace_out.empty()) {
      workload_tracer.Absorb(replay_tracer);
      if (!workload_tracer.WriteTsv(trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      }
    }
  }
  for (const std::string& failure : result.checks.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::fputs(report.Lines().c_str(), stdout);
  std::printf("%s\n", report.Json(result.checks).c_str());
  return result.checks.failed() == 0 ? 0 : 1;
}
