#include "util.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "mathx/simd.hpp"
#include "obs/metrics.hpp"

#ifndef CSBENCH_BUILD_TYPE
#define CSBENCH_BUILD_TYPE "unknown"
#endif

namespace csbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double tail_latency(const std::vector<double>& values,
                    const std::vector<double>& at) {
  constexpr std::size_t kWindows = 20, kMinPerWindow = 1000;
  const std::size_t n = values.size();
  if (n >= kWindows * kMinPerWindow) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return at[a] < at[b]; });
    std::vector<double> window_p99;
    for (std::size_t w = 0; w < kWindows; ++w) {
      std::vector<double> v;
      for (std::size_t k = w * n / kWindows; k < (w + 1) * n / kWindows; ++k) {
        v.push_back(values[order[k]]);
      }
      window_p99.push_back(quantile(std::move(v), 0.99));
    }
    return median(window_p99);
  }
  const double q = std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
  return quantile(values, std::max(0.5, q));
}

void Outcome::fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "csbench: FAILED: %s\n", why.c_str());
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0.0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::vector<long long> cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::vector<long long> t;
  for (long long v; in.peek() != '\n' && in >> v;) t.push_back(v);
  return t;
}

std::string machine_stamp(const RunConfig& cfg,
                          const std::vector<long long>& cpu_at_start) {
  // Steal is the 8th field: time a vCPU was runnable but the host ran
  // someone else. It moves latency much more than its share suggests.
  const std::vector<long long> now = cpu_times();
  long long total = 0, steal = 0;
  for (std::size_t i = 0; i < now.size() && i < cpu_at_start.size(); ++i) {
    total += now[i] - cpu_at_start[i];
    if (i == 7) steal = now[i] - cpu_at_start[i];
  }
  const auto backend = csdac::mathx::simd_backend();
  std::ostringstream s;
  s << "{\"nproc\":" << cfg.nproc << ",\"simd_backend\":\""
    << csdac::mathx::simd_backend_name(backend)
    << "\",\"simd_lanes\":" << csdac::mathx::simd_lane_width(backend)
    << ",\"build_type\":\"" << CSBENCH_BUILD_TYPE << "\",\"git_sha\":\""
    << cfg.git_sha << "\",\"steal_frac\":"
    << ratio(static_cast<double>(steal), static_cast<double>(total), 0.0)
    << "}";
  return s.str();
}

std::map<std::string, std::int64_t> local_counters() {
  std::map<std::string, std::int64_t> out;
  for (const auto& c : csdac::obs::Registry::global().snapshot().counters) {
    if (c.labels.empty()) out[c.name] = c.value;
  }
  return out;
}

std::map<std::string, std::int64_t> prometheus_counters(
    const std::string& text, const std::vector<std::string>& names) {
  std::map<std::string, std::string> wanted;  // exposition name -> registry
  for (const auto& n : names) {
    wanted[csdac::obs::prometheus_name("csdac", n) + "_total"] = n;
  }
  std::map<std::string, std::int64_t> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const auto it = wanted.find(line.substr(0, sp));
    if (it == wanted.end()) continue;
    out[it->second] = std::stoll(line.substr(sp + 1));
  }
  return out;
}

std::int64_t delta(const std::map<std::string, std::int64_t>& a,
                   const std::map<std::string, std::int64_t>& b,
                   const std::string& name) {
  const auto ia = a.find(name);
  const auto ib = b.find(name);
  return (ib == b.end() ? 0 : ib->second) - (ia == a.end() ? 0 : ia->second);
}

}  // namespace csbench
