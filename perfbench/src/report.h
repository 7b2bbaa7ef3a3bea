// Result plumbing shared by every workload: the command-line
// arguments, the named metrics a run reports, small statistics helpers
// and the one-line JSON the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans (empty: do not write).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run of a workload reports. An operation is a frame for the
// live workloads and a simulation job for the simulator workloads; a
// failed operation is one whose output is missing or wrong.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  // Value of a metric added earlier (0 when absent).
  [[nodiscard]] double get(const std::string& name) const;
  // Count `n` operations, `bad` of them failed.
  void count(std::int64_t n, std::int64_t bad);
};

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// 64-bit FNV-1a, chainable through `h`.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = kFnvBasis);

// The benchmark's last line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string result_json(const Outcome& out);

}  // namespace pb
