// csbench: the csdac benchmark program. One run measures one workload for
// a fixed time and prints, as its last line, one JSON object with the
// verdict and the metrics:
//
//   csbench --workload design_flow|serve_hot|serve_mixed --seed N
//           --seconds S --trace 0|1 --serve-bin PATH --out-dir DIR
//           --ref FILE [--git-sha SHA]
//   csbench --record-design-ref --ref FILE   (re-records the digests)
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a separate traced run, whose spans are written to
// DIR/trace-<workload>-<seed>.json as a Chrome trace.
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "design.hpp"
#include "serve_load.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace {

using namespace csbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "csbench: %s\nusage: csbench --workload "
               "design_flow|serve_hot|serve_mixed --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --out-dir DIR --ref FILE "
               "[--git-sha SHA]\n       csbench --record-design-ref --ref "
               "FILE\n",
               why);
  std::exit(2);
}

std::string result_json(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.git_sha = "unknown";
  bool record = false;
  try {
    for (int a = 1; a < argc; ++a) {
      const auto value = [&]() -> std::string {
        if (a + 1 >= argc) usage("missing value");
        return argv[++a];
      };
      if (!std::strcmp(argv[a], "--workload")) cfg.workload = value();
      else if (!std::strcmp(argv[a], "--seed")) cfg.seed = std::stoull(value());
      else if (!std::strcmp(argv[a], "--seconds"))
        cfg.seconds = std::stod(value());
      else if (!std::strcmp(argv[a], "--trace")) cfg.trace = value() == "1";
      else if (!std::strcmp(argv[a], "--serve-bin")) cfg.serve_bin = value();
      else if (!std::strcmp(argv[a], "--out-dir")) cfg.out_dir = value();
      else if (!std::strcmp(argv[a], "--ref")) cfg.ref_path = value();
      else if (!std::strcmp(argv[a], "--git-sha")) cfg.git_sha = value();
      else if (!std::strcmp(argv[a], "--record-design-ref")) record = true;
      else usage((std::string("unknown argument ") + argv[a]).c_str());
    }
  } catch (const std::logic_error&) {  // std::stoull / std::stod
    usage("malformed number");
  }
  if (cfg.ref_path.empty()) usage("--ref is required");
  std::signal(SIGPIPE, SIG_IGN);  // a dropped connection is a failed request
  if (record) return record_design_reference(cfg);
  if (cfg.workload != "design_flow" && cfg.workload != "serve_hot" &&
      cfg.workload != "serve_mixed") {
    usage("unknown workload");
  }
  if (cfg.serve_bin.empty() || cfg.out_dir.empty()) {
    usage("--serve-bin and --out-dir are required");
  }
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");

  const std::vector<long long> cpu_at_start = cpu_times();
  try {
    TraceSession trace;
    TraceSession* traced = cfg.trace ? &trace : nullptr;
    Outcome o = cfg.workload == "design_flow" ? design_flow(cfg, traced)
                                              : serve_workload(cfg, traced);
    trace.stop();
    const std::string stamp = machine_stamp(cfg, cpu_at_start);
    const std::string result = result_json(o);
    const std::string tag = cfg.workload + "-" + std::to_string(cfg.seed) +
                            (cfg.trace ? "-trace" : "");
    if (cfg.trace) {
      const std::string path = cfg.out_dir + "/trace-" + tag + ".json";
      if (!trace.write(path)) throw std::runtime_error("cannot write " + path);
      std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                  trace.spans().size());
    }
    std::ofstream(cfg.out_dir + "/result-" + tag + ".json")
        << "{\"machine\": " << stamp << ", \"valid\": "
        << (o.invalid.empty() ? "true" : "false") << ", \"result\": " << result
        << "}\n";
    if (!o.invalid.empty()) std::printf("INVALID RUN: %s\n", o.invalid.c_str());
    std::printf("machine: %s\n%s\n", stamp.c_str(), result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csbench: %s\n", e.what());
    return 1;
  }
}
