// Shared plumbing for the perfbench workloads: arguments, op records and
// their end-to-end summaries, output checks, the result line, and stream
// and oracle helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/count_sketch.h"
#include "stream/exact_counter.h"
#include "stream/types.h"

namespace perfbench {

using streamfreq::Count;
using streamfreq::ItemCount;
using streamfreq::ItemId;
using streamfreq::Stream;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for sockets, durable tenant state and span files.
  /// Relative to the working directory, so socket paths stay short.
  std::string workdir;
  /// Self-test: deliberately corrupt answers and sketches before they are
  /// checked. The run must then fail.
  bool corrupt = false;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile with linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One timed ingest or query operation.
struct OpRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t items = 0;  ///< items acknowledged by the op (0 for queries)
  bool query = false;
};

/// The measured ops of a run, folded in one episode at a time. Each
/// episode's end-to-end figures are kept, and the run reports the median
/// over its episodes: a swing in the machine's speed that lasts less than
/// half the run moves fewer than half of them. The log grows by a few
/// numbers per episode, not per op.
class OpLog {
 public:
  /// Folds in one episode's ops, or the part of one that fell in a phase.
  /// No op outside `ops` may overlap them in time. Busy time is the union
  /// of their intervals: gaps between ops (checks, episode set-up) are not
  /// counted, and concurrent ops count once.
  void Add(std::vector<OpRecord> ops);

  /// Items acknowledged per second of busy time, over every episode.
  double ItemsPerSecond() const;

  /// Per-episode figures by metric name: items_per_s, ingest_p50_us,
  /// ingest_p90_us, query_p50_us, query_p90_us.
  const std::map<std::string, std::vector<double>>& figures() const {
    return figures_;
  }

 private:
  std::map<std::string, std::vector<double>> figures_;
  int64_t busy_ns_ = 0;
  uint64_t items_ = 0;
};

/// Ok ops, failed ops and failed output checks. Every output check counts
/// as one attempted op, so a failing check lowers ok_ops_frac.
class Checks {
 public:
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Check(bool ok, const std::string& what);
  /// Folds in the tally of another thread.
  void Absorb(const Checks& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Named metrics with units, printed one per line and as the result JSON.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Human-readable `name value unit` lines.
  std::string Lines() const;
  /// The single-line result object.
  std::string Json(const Checks& checks) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The end-to-end metrics every workload reports from its op log, checks
/// and set-up samples (topk_recall and peak_rss_mb are set by the caller).
void AddEndToEnd(const OpLog& ops, const Checks& checks,
                 const std::vector<double>& setup_s, Report* report);

/// The serialized form of `sketch`: equal bytes means equal sketches.
std::string SketchBytes(const streamfreq::CountSketch& sketch);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// `n` i.i.d. Zipf(z) draws over `universe` items. Call it before any
/// thread starts: it forks.
Stream ZipfStream(uint64_t universe, double z, uint64_t seed, size_t n);

/// True when `answer` is a well-formed top-k answer: 1..k entries, counts
/// non-increasing, no item twice.
bool WellFormedTopK(const std::vector<ItemCount>& answer, size_t k);

/// Share of the exact top-k that appears in `answer`.
double Recall(const std::vector<ItemCount>& exact_top,
              const std::vector<ItemCount>& answer);

/// Deliberate damage for the self-test: reverses a top-k answer.
void CorruptAnswer(std::vector<ItemCount>* answer);

/// The `count` most frequent items of the first `window` items of
/// `stream`: a fixed probe set, chosen before any timed region.
std::vector<ItemId> ProbeSet(std::span<const ItemId> stream, size_t window,
                             size_t count);

/// The `op`-th `chunk`-item slice of `base`, wrapping around its end.
inline std::span<const ItemId> ChunkAt(std::span<const ItemId> base,
                                       size_t chunk, uint64_t op) {
  const size_t chunks = base.size() / chunk;
  return base.subspan((op % chunks) * chunk, chunk);
}

}  // namespace perfbench
