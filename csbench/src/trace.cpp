#include "trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/chrome_trace.hpp"

namespace csbench {

using csdac::obs::SpanRecord;

void TraceSession::start() {
  if (active_) return;
  csdac::obs::Tracer::global().add_sink(&collector_);
  active_ = true;
}

void TraceSession::stop() {
  if (!active_) return;
  csdac::obs::Tracer::global().remove_sink(&collector_);
  active_ = false;
  std::vector<SpanRecord> taken = collector_.take();
  spans_.insert(spans_.end(), std::make_move_iterator(taken.begin()),
                std::make_move_iterator(taken.end()));
}

bool TraceSession::write(const std::string& path) const {
  return csdac::obs::write_chrome_trace(path, spans_, "csbench");
}

std::string layer_of(std::string_view span_name) {
  const std::string layer(span_name.substr(0, span_name.find('.')));
  return layer == "mc" ? "engine" : layer;
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans, std::uint64_t root) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  const SpanRecord* root_span = nullptr;
  for (const SpanRecord& s : spans) {
    children[s.parent].push_back(&s);
    if (s.id == root) root_span = &s;
  }
  std::map<std::string, double> self;
  if (root_span == nullptr) return self;

  std::vector<const SpanRecord*> stack{root_span};
  while (!stack.empty()) {
    const SpanRecord* s = stack.back();
    stack.pop_back();
    const double lo = s->start_us;
    const double hi = s->start_us + s->dur_us;
    std::vector<std::pair<double, double>> cover;
    for (const SpanRecord* c : children[s->id]) {
      stack.push_back(c);
      const double a = std::max(lo, c->start_us);
      const double b = std::min(hi, c->start_us + c->dur_us);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, end = lo;
    for (const auto& [a, b] : cover) {
      if (b <= end) continue;
      covered += b - std::max(a, end);
      end = b;
    }
    self[layer_of(s->name)] += (s->dur_us - covered) * 1e-6;
  }
  return self;
}

}  // namespace csbench
