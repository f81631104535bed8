#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

int Trace::begin(const char* name, std::uint64_t id, int parent) {
  if (!enabled_) return -1;
  const auto now = Clock::now();
  spans_.push_back(Span{name, id, parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

double Trace::end(int index) {
  if (!enabled_ || index < 0) return 0.0;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.stop = Clock::now();
  return ms_between(span.start, span.stop);
}

void Trace::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"unit\":\"us\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double start = std::chrono::duration<double, std::micro>(
                             s.start - origin_).count();
    const double stop = std::chrono::duration<double, std::micro>(
                            s.stop - origin_).count();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"id\":%llu,\"parent\":%d,"
                  "\"start\":%.3f,\"end\":%.3f}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<unsigned long long>(s.id), s.parent, start,
                  stop);
    out << buf;
  }
  out << "\n]}\n";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string digest_hex(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string metric_line(const std::string& name, double value,
                        const std::string& unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-34s %14.6g %s", name.c_str(), value,
                unit.c_str());
  return buf;
}

}  // namespace perfbench
