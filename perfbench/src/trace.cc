#include "trace.h"

#include <cstdio>
#include <cstring>

#include "common.h"

namespace perfbench {

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t op) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

void Tracer::Absorb(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  for (const auto& [name, value] : other.counts_) counts_[name] += value;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

double Tracer::TotalNs(const std::string& name) const {
  double total = 0;
  for (double d : Durations(name)) total += d;
  return total;
}

std::map<std::string, std::pair<uint64_t, double>> Tracer::SelfTimeByLayer()
    const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, std::pair<uint64_t, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const char* dot = std::strchr(span.name, '.');
    const std::string layer = dot == nullptr
                                  ? std::string(span.name)
                                  : std::string(span.name, dot - span.name);
    auto& [n, self_ns] = out[layer];
    ++n;
    self_ns += static_cast<double>(span.end_ns - span.start_ns) - child_ns[i];
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "#span\tindex\tname\tparent\top\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "span\t%zu\t%s\t%lld\t%llu\t%lld\t%lld\n", i, s.name,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const auto& [name, value] : counts_) {
    std::fprintf(f, "count\t%s\t%.17g\n", name.c_str(), value);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
