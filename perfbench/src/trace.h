// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer; the layer is the span name's prefix before the first dot
// and matches a module in src/ (hash, core, concurrent, server, dist), with
// `bench` for the benchmark's own op spans. Each span keeps its name,
// start, end, parent span and op id; counts ride along by name. Nothing is
// written until the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< string literal: layer.Entry
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the owning Tracer, -1 for a root
  uint64_t op = 0;      ///< spans of one op share this id
};

class Tracer {
 public:
  /// Starts a span; returns its index.
  int64_t Begin(const char* name, int64_t parent, uint64_t op);
  void End(int64_t index);
  void Count(const std::string& name, double delta) { counts_[name] += delta; }

  /// Appends another thread's spans (re-basing their parent indices).
  void Absorb(const Tracer& other);

  /// Durations in nanoseconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Summed duration in nanoseconds of every span called `name`.
  double TotalNs(const std::string& name) const;

  /// Self time per layer: each span's duration minus the time its child
  /// spans cover, summed by layer. Returns layer -> {spans, self ns}.
  std::map<std::string, std::pair<uint64_t, double>> SelfTimeByLayer() const;

  /// Writes every span and count as tab-separated lines.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = -1,
             uint64_t op = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench
