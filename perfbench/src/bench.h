// Shared pieces of netpp_perfbench, the repo benchmark: run options, the
// result a workload reports, the in-memory span trace, and small statistics
// and digest helpers. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  /// Worker threads for the sharded workload, capped at nproc.
  std::size_t workers = 1;
};

/// Spans kept in memory and written out at exit. Every span of one
/// episode, window or query carries that unit's id; `parent` is the index
/// of the enclosing span (-1 for a root).
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (or -1 when tracing is off).
  int begin(const char* name, std::uint64_t id, int parent = -1);
  /// Closes span `index`, returning its duration in ms (0 when off).
  double end(int index);

  /// Writes every span as JSON to `path`.
  void write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    int parent;
    Clock::time_point start;
    Clock::time_point stop;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What one workload run reports. Metric names must match BENCHMARK.json:
/// `end_to_end` for the untraced run, `per_layer` for the traced one.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure messages
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Human-readable lines printed before the result (workload-specific
  /// metric names, generator shares, digests).
  std::vector<std::string> notes;
  /// Extra context recorded in the result file (counts, digests).
  std::map<std::string, std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& message, std::uint64_t count = 1) {
    failed += count;
    if (errors.size() < 8) errors.push_back(message);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Linear-interpolated percentile (q in [0, 100]) of `values`.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

/// FNV-1a over `text`, and the same printed as 16 hex digits.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);
[[nodiscard]] std::string digest_hex(const std::string& text);
/// A double in hexfloat form, so digests compare bit for bit.
[[nodiscard]] std::string hexfloat(double v);

/// Mixes a run seed with a stream index into an independent 64-bit seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// "name value unit" line for the human-readable block.
[[nodiscard]] std::string metric_line(const std::string& name, double value,
                                      const std::string& unit);

// The three workloads (one translation unit each).
Result run_poisson_fabric(const Options& opt, Trace& trace);
Result run_standing_sharded(const Options& opt, Trace& trace);
Result run_whatif_serve(const Options& opt, Trace& trace);

}  // namespace perfbench
