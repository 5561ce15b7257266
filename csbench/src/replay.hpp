// In-process replay of a serve request stream through the same public
// functions the server calls — runtime::parse_json + serve::parse_request,
// runtime::job_key, Scheduler::submit (whose executor runs the hot get,
// execute_job and encode_value + put), serve::emit_result — with no
// sockets, so each layer's cost can be read off by itself.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "serve_load.hpp"

namespace csbench {

struct ReplayResult {
  // Per request (summed over its jobs), microseconds.
  std::vector<double> parse_us, key_us, sched_wait_us, emit_us;
  std::vector<double> lag_us;  ///< replay generator lateness
  // Per event, microseconds: hot-tier lookups, stores, and fresh
  // executions by job kind (set-up computes included).
  std::vector<double> hot_get_us, store_us;
  std::map<std::string, std::vector<double>> compute_us;
};

/// Replays `seconds` of the stream's schedule (a closed-loop stream is
/// paced at a fixed rate) on `threads` submitter threads against an
/// in-process Scheduler configured like the server. Every emitted result
/// is checked against `refs`.
ReplayResult replay_stream(const Stream& stream,
                           const std::vector<std::string>& refs, int threads,
                           double seconds, const std::string& cache_dir,
                           Outcome& out);

}  // namespace csbench
