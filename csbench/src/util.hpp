// Shared helpers of the csdac benchmark program: clocks, order statistics,
// metric records, process memory, registry counter deltas and the
// machine-context stamp printed with every result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace csbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

/// Tail of a latency sample: the highest percentile up to p99 that has at
/// least ten samples beyond it. When the run holds 20 time windows of at
/// least 1000 samples each, the median of the windows' p99, so one burst
/// of outside interference (a hypervisor steal episode) does not set the
/// whole run's tail. `at` gives each sample's completion time (any
/// monotone clock).
double tail_latency(const std::vector<double>& values,
                    const std::vector<double>& at);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One run's verdict: the final JSON line of the benchmark.
struct Outcome {
  bool correct = true;
  /// Empty unless the measurement itself is untrustworthy (the open-loop
  /// generator fell behind its schedule); outputs may still be correct.
  std::string invalid;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// Records a failed operation (a wrong or missing result) with a reason
  /// on stderr; a failure always makes the run incorrect.
  void fail(const std::string& why);
};

/// Options shared by every workload, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< csdac_serve executable
  std::string out_dir;    ///< scratch + artifacts (inside the checkout)
  std::string ref_path;   ///< recorded design digests
  std::string git_sha;
  int nproc = 1;
};

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double peak_rss_mb(int pid = 0);

/// Aggregate CPU time counters of the machine (first line of /proc/stat).
std::vector<long long> cpu_times();

/// Machine context that changes kernel speed, as one JSON object,
/// including the hypervisor steal share of CPU time since `cpu_at_start`.
std::string machine_stamp(const RunConfig& cfg,
                          const std::vector<long long>& cpu_at_start);

/// Counter values by registry name, from the in-process registry.
std::map<std::string, std::int64_t> local_counters();

/// Counter values by registry name, parsed from a Prometheus exposition
/// produced by obs::MetricsSnapshot::to_prometheus (prefix "csdac",
/// "_total" suffix). Only unlabeled counters of `names` are looked up.
std::map<std::string, std::int64_t> prometheus_counters(
    const std::string& text, const std::vector<std::string>& names);

/// b[name] - a[name] (missing entries count as 0).
std::int64_t delta(const std::map<std::string, std::int64_t>& a,
                   const std::map<std::string, std::int64_t>& b,
                   const std::string& name);

inline double ratio(double num, double den, double if_empty) {
  return den > 0.0 ? num / den : if_empty;
}

}  // namespace csbench
