// The serve workloads: request streams for `serve_hot` (closed loop over
// a key set computed during set-up) and `serve_mixed` (open loop at a
// fixed seeded arrival rate mixing fresh keys, hot repeats and
// near-simultaneous duplicates), driven against a real `csdac_serve
// --listen` child process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace csbench {

class TraceSession;

struct StreamRequest {
  double due_s = 0.0;     ///< open loop: send time after the schedule start
  int conn = 0;           ///< connection that sends it (open loop)
  std::vector<int> jobs;  ///< indices into Stream::jobs, in request order
};

/// A seeded request stream. Jobs are csdac-request/1 job objects (JSON
/// text); every distinct text is a distinct cache key.
struct Stream {
  bool open_loop = false;
  int clients = 1;                ///< client threads, one connection each
  double schedule_s = 0.0;        ///< open loop: length of the schedule
  std::vector<std::string> jobs;  ///< distinct job objects
  std::vector<int> base;          ///< jobs computed during set-up
  std::vector<StreamRequest> requests;
  std::int64_t fresh_unique = 0;  ///< keys first computed inside the run

  std::string request_text(const StreamRequest& r) const;
};

/// True when `reply` is a well-formed reply whose job results are, in
/// order, byte-identical to the references.
bool reply_matches(const std::string& reply, const StreamRequest& req,
                   const std::vector<std::string>& refs);

/// Runs a serve workload (measurement or traced run).
Outcome serve_workload(const RunConfig& cfg, TraceSession* trace);

/// Traced serve/runtime layer probe, 3 s of serve_mixed traffic:
/// real-server counters plus the in-process replay (used by the
/// design_flow traced run).
void serve_layer_probe(const RunConfig& cfg, TraceSession& trace,
                       Outcome& out);

}  // namespace csbench
