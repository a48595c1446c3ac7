// The workloads and the layer replay.
//
// Every workload generates its streams from the seed before any timed
// region, sets itself up several times (setup_s is the median), warms up,
// then measures for `seconds`: as one untraced phase, or in the traced run
// as alternating untraced and traced slices (the difference in their
// items_per_s is the tracing overhead). A run is a sequence of episodes of
// fixed work; output checks run untimed after each one and count as ops.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/count_sketch.h"
#include "server/protocol.h"
#include "trace.h"

namespace perfbench {

struct Phase {
  double seconds = 0;
  bool traced = false;
};

/// One untraced phase of `seconds`, or (trace mode) alternating untraced
/// and traced slices of about half a second that add up to `seconds`.
std::vector<Phase> PhasesFor(const Args& args);

/// Warm-up before the first measured phase.
double WarmupSeconds(const Args& args);

/// The tenant configuration of serve-zipf, and of every layer replay of
/// the ingestor and the server: two ingest threads, 1024-item queued
/// batches, blocking admission. Each worker publishes a snapshot every 32
/// queued batches, so a topk reads state at most a few tens of thousands
/// of items old. The ingestor's SnapshotCell retains every publication
/// until the tenant is dropped: at the TenantSpec default of one per
/// batch, a tenant holds a 160 KiB sketch copy per 512-item request.
streamfreq::TenantSpec BenchTenantSpec(
    const streamfreq::CountSketchParams& params, size_t tracked);

/// What the layer replay needs from a workload: its own configuration and
/// its own batches.
struct LayerConfig {
  streamfreq::CountSketchParams params;
  size_t tracked = 0;  ///< candidate slots (Space-Saving, APPROXTOP heap)
  size_t k = 0;        ///< top-k of the workload's queries
  std::vector<std::span<const ItemId>> batches;
  std::vector<ItemId> probes;  ///< fixed probe set for Estimate
};

struct WorkloadResult {
  /// ops[0] = untraced op log; ops[1] = traced op log (empty untraced).
  std::array<OpLog, 2> ops;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  double topk_recall = 0;
  Checks checks;
  /// The input the workload generated, held once: `streams` (one per
  /// client or leaf) and LayerConfig::batches are views into it.
  Stream input;
  std::vector<std::span<const ItemId>> streams;
  LayerConfig layers;
};

void RunServeZipf(const Args& args, Tracer* tracer, WorkloadResult* result);
void RunTreeLowSkew(const Args& args, Tracer* tracer, WorkloadResult* result);

/// Replays the workload's batches through every layer's public entry
/// points with spans, and sets each per-layer metric from them.
void ReplayLayers(const LayerConfig& config, const std::string& workdir,
                  Tracer* tracer, Checks* checks, Report* report);

}  // namespace perfbench
