#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>

#include "stream/zipf.h"
#include "util/logging.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void OpLog::Add(std::vector<OpRecord> ops) {
  if (ops.empty()) return;
  std::sort(ops.begin(), ops.end(), [](const OpRecord& a, const OpRecord& b) {
    return a.start_ns < b.start_ns;
  });
  int64_t busy_ns = 0;
  uint64_t items = 0;
  int64_t cover_start = ops[0].start_ns;
  int64_t cover_end = ops[0].end_ns;
  std::vector<double> ingest_us, query_us;
  for (const OpRecord& op : ops) {
    items += op.items;
    const double us = static_cast<double>(op.end_ns - op.start_ns) / 1e3;
    (op.query ? query_us : ingest_us).push_back(us);
    if (op.start_ns > cover_end) {
      busy_ns += cover_end - cover_start;
      cover_start = op.start_ns;
      cover_end = op.end_ns;
    } else {
      cover_end = std::max(cover_end, op.end_ns);
    }
  }
  busy_ns += cover_end - cover_start;
  busy_ns_ += busy_ns;
  items_ += items;
  if (busy_ns > 0) {
    figures_["items_per_s"].push_back(static_cast<double>(items) * 1e9 /
                                      static_cast<double>(busy_ns));
  }
  if (!ingest_us.empty()) {
    figures_["ingest_p50_us"].push_back(Quantile(ingest_us, 0.5));
    figures_["ingest_p90_us"].push_back(Quantile(ingest_us, 0.9));
  }
  if (!query_us.empty()) {
    figures_["query_p50_us"].push_back(Quantile(query_us, 0.5));
    figures_["query_p90_us"].push_back(Quantile(query_us, 0.9));
  }
}

double OpLog::ItemsPerSecond() const {
  return busy_ns_ > 0 ? static_cast<double>(items_) * 1e9 /
                            static_cast<double>(busy_ns_)
                      : 0.0;
}

void Checks::Check(bool ok, const std::string& what) {
  Op(ok);
  if (!ok) failures_.push_back(what);
}

void Checks::Absorb(const Checks& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = {value, unit};
}

namespace {

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";  // rejected by run.py
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::Lines() const {
  std::string out;
  for (const auto& [name, vu] : values_) {
    out += name + " " + FormatNumber(vu.first) + " " + vu.second + "\n";
  }
  return out;
}

std::string Report::Json(const Checks& checks) const {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + FormatNumber(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

void AddEndToEnd(const OpLog& ops, const Checks& checks,
                 const std::vector<double>& setup_s, Report* report) {
  report->Set("setup_s", Median(setup_s), "s");
  for (const char* name : {"items_per_s", "ingest_p50_us", "ingest_p90_us",
                           "query_p50_us", "query_p90_us"}) {
    const auto it = ops.figures().find(name);
    report->Set(name, it == ops.figures().end() ? 0.0 : Median(it->second),
                name == std::string("items_per_s") ? "1/s" : "us");
  }
  const double attempted = static_cast<double>(checks.attempted());
  const double failed = static_cast<double>(checks.failed());
  report->Set("ok_ops_frac",
              attempted == 0 ? 0.0 : (attempted - failed) / attempted, "frac");
}

std::string SketchBytes(const streamfreq::CountSketch& sketch) {
  std::string out;
  sketch.SerializeTo(&out);
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Stream ZipfStream(uint64_t universe, double z, uint64_t seed, size_t n) {
  // The sampler runs in a child process and sends the stream back over a
  // pipe. Its alias tables (about 40 MiB at 2^20 items) then never count
  // toward this process's peak RSS, which peak_rss_mb reports.
  int fds[2];
  SFQ_CHECK(pipe(fds) == 0) << "pipe failed";
  const pid_t pid = fork();
  SFQ_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    close(fds[0]);
    auto gen = streamfreq::ZipfGenerator::Make(universe, z, seed);
    if (!gen.ok()) _exit(1);
    const Stream stream = gen->Take(n);
    const char* p = reinterpret_cast<const char*>(stream.data());
    size_t left = n * sizeof(ItemId);
    while (left > 0) {
      const ssize_t w = write(fds[1], p, left);
      if (w <= 0) _exit(1);
      p += w;
      left -= static_cast<size_t>(w);
    }
    _exit(0);
  }
  close(fds[1]);
  Stream stream(n);
  char* p = reinterpret_cast<char*>(stream.data());
  size_t left = n * sizeof(ItemId);
  while (left > 0) {
    const ssize_t r = read(fds[0], p, left);
    if (r <= 0) break;
    p += r;
    left -= static_cast<size_t>(r);
  }
  close(fds[0]);
  int status = 0;
  SFQ_CHECK(waitpid(pid, &status, 0) == pid) << "waitpid failed";
  SFQ_CHECK(left == 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "Zipf stream generation failed";
  return stream;
}

bool WellFormedTopK(const std::vector<ItemCount>& answer, size_t k) {
  if (answer.empty() || answer.size() > k) return false;
  std::set<ItemId> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    if (i > 0 && answer[i].count > answer[i - 1].count) return false;
    if (!seen.insert(answer[i].item).second) return false;
  }
  return true;
}

double Recall(const std::vector<ItemCount>& exact_top,
              const std::vector<ItemCount>& answer) {
  if (exact_top.empty()) return 0.0;
  std::set<ItemId> got;
  for (const ItemCount& c : answer) got.insert(c.item);
  size_t hits = 0;
  for (const ItemCount& c : exact_top) hits += got.count(c.item);
  return static_cast<double>(hits) / static_cast<double>(exact_top.size());
}

void CorruptAnswer(std::vector<ItemCount>* answer) {
  std::reverse(answer->begin(), answer->end());
  if (answer->size() == 1) (*answer)[0].item ^= 1;
}

std::vector<ItemId> ProbeSet(std::span<const ItemId> stream, size_t window,
                             size_t count) {
  streamfreq::ExactCounter head;
  for (size_t i = 0; i < std::min(window, stream.size()); ++i) {
    head.Add(stream[i]);
  }
  std::vector<ItemId> probes;
  for (const ItemCount& c : head.TopK(count)) probes.push_back(c.item);
  return probes;
}

}  // namespace perfbench
