// SPICE-in-the-loop mismatch Monte Carlo: the netlist-level counterpart of
// dac::inl_yield_mc. Each corner perturbs every MOSFET of the
// transistor-level DAC with per-device threshold and gain errors drawn
// from the Pelgrom model on a deterministic (seed, corner) stream, sweeps
// the full static transfer through MNA DC solves, and judges max|INL|
// against the pass limit.
//
// This is the workload the sparse engine was built for: the per-code
// netlists are constructed once, each keeps a spice::SolverContext so the
// symbolic factorization from corner 0 is replayed numerically at every
// later corner, and each code's Newton solve warm-starts from the same
// code's operating point at the previous corner.
//
// Codes in parallel, corners in sequence, per-code chains: the two
// sequential dependencies (symbolic reuse, warm starts) both run along the
// corner axis of ONE code, and a code's solve reads nothing of another
// code. So within a corner the 2^n solves run on a thread pool, each code
// writing only its own level and solver counters; the corner draws and
// the INL judgement stay on the calling thread. The result is
// bit-identical for any thread count.
#pragma once

#include <cstdint>

#include "core/sizer.hpp"
#include "core/spec.hpp"
#include "mathx/parallel.hpp"
#include "spice/solver.hpp"
#include "tech/tech.hpp"

namespace csdac::dacgen {

struct SpiceMcOptions {
  int chips = 16;            ///< Monte-Carlo corners (chips)
  std::uint64_t seed = 1;    ///< (seed, corner) stream base
  double limit = 0.5;        ///< max|INL| pass limit [LSB]
  double sigma_scale = 1.0;  ///< scales the Pelgrom sigmas (stress knob)
  bool differential = true;
  bool with_caps = false;
  /// Solver knobs for the benches; the runtime job keeps the defaults so
  /// cached results stay reproducible.
  spice::LinearSolverKind solver = spice::LinearSolverKind::kAuto;
  bool warm_start = true;
  /// Engine threads for the per-code solves: 0 = all hardware threads
  /// (the result does not depend on the count, so the default takes
  /// them); a caller with its own budget, like the runtime job, passes it.
  int threads = 0;
};

struct SpiceMcResult {
  std::int64_t chips = 0;  ///< corners actually evaluated
  std::int64_t pass = 0;
  double yield = 0.0;
  double ci95 = 0.0;          ///< Wilson 95 % half-width
  double inl_mean = 0.0;      ///< mean over corners of max|INL| [LSB]
  double inl_worst = 0.0;     ///< worst corner's max|INL| [LSB]
  // Solver-side accounting (also mirrored into the spice.* metrics).
  std::int64_t newton_iters = 0;
  std::int64_t factorizations = 0;
  std::int64_t refactorizations = 0;
  std::int64_t warm_starts = 0;
  std::int64_t warm_start_hits = 0;
  std::int64_t device_evals = 0;
  double warm_start_hit_rate = 0.0;  ///< hits / starts (0 when no starts)
};

/// Runs the netlist-level mismatch MC for a sized cell. Deterministic for
/// fixed inputs and any thread count (codes in parallel, corners in
/// sequence, (seed, corner) device streams), so the result is cacheable by
/// the runtime layer. `run_stats`, when given, receives the corners run
/// and the worker count used. A ConvergenceError reaches the caller as the
/// lowest failing code's, as in a serial sweep.
SpiceMcResult spice_mismatch_mc(const core::DacSpec& spec,
                                const core::SizedCell& cell,
                                const tech::MosTechParams& tech,
                                const SpiceMcOptions& opts = {},
                                mathx::RunStats* run_stats = nullptr);

}  // namespace csdac::dacgen
