// Traced-run support: spans are collected in memory (obs::SpanCollector
// on the global tracer, so the library's own engine/scheduler spans land
// beside the benchmark's layer spans) and written once at exit as a
// Chrome trace_event document that Perfetto / chrome://tracing load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace csbench {

class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession() { stop(); }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Installs the collector (spans are recorded from now on).
  void start();
  /// Removes the collector and moves what it holds into spans().
  void stop();

  const std::vector<csdac::obs::SpanRecord>& spans() const { return spans_; }

  /// Writes every span collected so far as Chrome-trace JSON.
  bool write(const std::string& path) const;

 private:
  csdac::obs::SpanCollector collector_;
  std::vector<csdac::obs::SpanRecord> spans_;
  bool active_ = false;
};

/// Layer a span belongs to: the name up to the first '.', with the
/// parallel engine's "mc.*" spans folded into "engine".
std::string layer_of(std::string_view span_name);

/// Self time per layer, seconds, over the subtree rooted at the span with
/// id `root`: each span's duration minus the part of it its children
/// cover. Spans of worker threads count in full, so a parallel layer's
/// self time can exceed the wall time it spans.
std::map<std::string, double> layer_self_seconds(
    const std::vector<csdac::obs::SpanRecord>& spans, std::uint64_t root);

}  // namespace csbench
