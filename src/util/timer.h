// Wall-clock timing helpers for benchmarks and the experiment runner.
#pragma once

#include <chrono>
#include <cstdint>

namespace streamfreq {

/// A monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in nanoseconds since construction or last Reset().
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
        .count();
  }

  /// Elapsed time in seconds (floating point).
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace streamfreq
