// The `design_flow` workload: one designer running the paper's flow
// (spec -> eq. 9/11 statistical sizing -> INL yield -> switching-sequence
// anneal -> LEF/DEF -> netlist-level mismatch MC -> spectrum) on seeded
// 12-bit design variants, back to back.
#pragma once

#include <cstdint>
#include <string>

#include "util.hpp"

namespace csbench {

class TraceSession;

/// Number of recorded design variants; a run walks a seeded permutation
/// of them, so no design repeats within a run.
inline constexpr int kDesignVariants = 128;

/// Everything one design produced and what it cost, stage by stage.
struct DesignOutput {
  std::string digest;  ///< hash of every design output (hex)
  double wall_s = 0.0;
  double size_s = 0.0, mc_s = 0.0, is_s = 0.0, anneal_s = 0.0,
         lefdef_s = 0.0, spice_s = 0.0, spectrum_s = 0.0;
  double points = 0.0;       ///< design-space grid points evaluated
  double chips = 0.0;        ///< mc.chips_evaluated delta (MC + IS)
  double is_ess_frac = 0.0;  ///< importance-sampling effective sample share
  double proposals = 0.0;    ///< anneal moves proposed (all restarts)
  double anneal_utilization = 0.0;
  // spice.* counter deltas
  double newton_iters = 0.0, device_evals = 0.0, refactorizations = 0.0,
         warm_starts = 0.0, warm_hits = 0.0;
  std::uint64_t root_span = 0;  ///< flow.design span id (traced runs)
  std::string error;            ///< non-empty when a flow check failed

  double stage_sum_s() const {
    return size_s + mc_s + is_s + anneal_s + lefdef_s + spice_s + spectrum_s;
  }
};

/// Runs design variant `index` (0 <= index < kDesignVariants) on
/// `threads` engine workers. `small` runs the same steps at toy sizes (the
/// set-up warm pass, which touches every code path once).
DesignOutput run_design(int index, int threads, bool small = false);

/// Runs the design_flow workload (measurement or traced run).
Outcome design_flow(const RunConfig& cfg, TraceSession* trace);

/// Design-layer metrics of one traced design: the layer probe of the
/// serve workloads' traced runs.
void design_layer_metrics(const RunConfig& cfg, TraceSession& trace,
                          Outcome& out);

/// Recomputes every variant's digest and writes the reference file.
int record_design_reference(const RunConfig& cfg);

}  // namespace csbench
