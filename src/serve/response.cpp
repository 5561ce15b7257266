#include "serve/response.hpp"

#include <optional>
#include <string_view>

#include "arch/weighting.hpp"
#include "core/explorer.hpp"

namespace csdac::serve {

namespace {

/// Flat results: one JSON field per entry of the result's field list.
template <class R>
void emit(bench::JsonWriter& w, const R& v) {
  runtime::fields(v, [&w](const char* name, const auto& x) {
    w.field(name, x);
  });
}

/// A sweep replies with a summary (point counts and the two optima), not
/// the points themselves.
void emit(bench::JsonWriter& w, const runtime::SweepResult& v) {
  w.field("points", static_cast<std::int64_t>(v.points.size()));
  std::int64_t feasible = 0;
  for (const auto& p : v.points) feasible += p.feasible ? 1 : 0;
  w.field("feasible", feasible);
  const auto emit_best = [&w](const char* name,
                              const std::optional<core::DesignPoint>& best) {
    if (!best) return;
    w.key(name).begin_object();
    w.field("vod_cs", best->vod_cs);
    w.field("vod_sw", best->vod_sw);
    w.field("vod_cas", best->vod_cas);
    w.field("area_m2", best->area);
    w.field("f_min_hz", best->f_min_hz);
    w.field("t_settle_s", best->t_settle_s);
    w.end_object();
  };
  emit_best("best_min_area", core::DesignSpaceExplorer::select(
                                 v.points, core::Objective::kMinArea));
  emit_best("best_max_speed", core::DesignSpaceExplorer::select(
                                  v.points, core::Objective::kMaxSpeed));
}

/// Architectures reply with their scheme names, not their u8 tags.
void emit(bench::JsonWriter& w, const runtime::ArchCompareResult& v) {
  w.field("points", static_cast<std::int64_t>(v.points.size()));
  w.key("architectures").begin_array();
  for (const auto& p : v.points) {
    w.begin_object();
    w.field("scheme",
            arch::weighting_name(static_cast<arch::WeightingKind>(p.scheme)));
    runtime::fields(p, [&w](const char* name, const auto& x) {
      if (std::string_view(name) != "scheme") w.field(name, x);
    });
    w.end_object();
  }
  w.end_array();
}

/// SPICE MC nests its solver accounting, the field list from
/// newton_iters on, under "solver".
void emit(bench::JsonWriter& w, const runtime::SpiceMcResult& v) {
  runtime::fields(v, [&w](const char* name, const auto& x) {
    if (std::string_view(name) == "newton_iters") {
      w.key("solver").begin_object();
    }
    w.field(name, x);
  });
  w.end_object();
}

}  // namespace

void emit_result(bench::JsonWriter& w, const runtime::JobValue& value) {
  w.key("result").begin_object();
  std::visit([&w](const auto& v) { emit(w, v); }, value);
  w.end_object();
}

std::string error_frame(std::string_view code, std::string_view message) {
  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", kResponseSchema);
  w.key("error").begin_object();
  w.field("code", code);
  w.field("message", message);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace csdac::serve
