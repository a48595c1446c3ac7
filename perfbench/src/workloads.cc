#include <algorithm>

#include "workloads.h"

namespace perfbench {

std::vector<Phase> PhasesFor(const Args& args) {
  if (!args.trace) return {Phase{args.seconds, false}};
  // Untraced and traced slices alternate, so drift in the machine's speed
  // during the run falls on both sides of the overhead comparison alike.
  constexpr double kSliceSeconds = 0.5;
  const int slices =
      2 * std::max(1, static_cast<int>(args.seconds / (2 * kSliceSeconds)));
  std::vector<Phase> phases;
  for (int i = 0; i < slices; ++i) {
    phases.push_back(Phase{args.seconds / slices, i % 2 == 1});
  }
  return phases;
}

streamfreq::TenantSpec BenchTenantSpec(
    const streamfreq::CountSketchParams& params, size_t tracked) {
  streamfreq::TenantSpec spec;
  spec.depth = params.depth;
  spec.width = params.width;
  spec.seed = params.seed;
  spec.threads = 2;
  spec.batch_items = 1024;
  spec.queue_batches = 64;
  spec.publish_every_batches = 32;
  spec.policy = streamfreq::OverflowPolicy::kBlock;
  spec.tracked = tracked;
  return spec;
}

double WarmupSeconds(const Args& args) {
  return std::min(1.0, args.seconds / 10);
}

}  // namespace perfbench
