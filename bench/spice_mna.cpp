// Dense-vs-sparse MNA engine scaling on the transistor-level DAC arrays,
// plus the Monte-Carlo warm-start study. Three questions, one table each:
//
//  1. How does one DC operating-point solve scale with resolution when the
//     dense O(n^3) elimination is replaced by the min-degree sparse LU
//     with symbolic reuse? (The paper's full 12-bit segmented array is the
//     headline row: the sparse path must be >= 10x there.)
//  2. What does symbolic-factorization reuse buy within a corner sweep —
//     factorizations vs numeric refactorizations?
//  3. What does corner-to-corner Newton warm starting buy in iterations
//     and wall time for the SPICE-in-the-loop mismatch MC?
//
// Cross-checks are built in: the dense and sparse solutions must agree to
// 1e-9 on every node, and warm-start MC must produce the identical yield
//.. both are correctness bugs if violated, so the bench aborts.
//
//   bench_spice_mna [--smoke]
//
// --smoke drops the largest arrays so CI stays fast.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sizer.hpp"
#include "dacgen/dacgen.hpp"
#include "dacgen/spice_mc.hpp"
#include "spice/devices.hpp"
#include "spice/solver.hpp"
#include "tech/tech.hpp"

using namespace csdac;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SolveTiming {
  double wall_s = 0.0;
  spice::SolveStats stats;
};

/// Times `reps` independent DC solves of the same built circuit under one
/// solver policy; sparse solves share a context so the symbolic work is
/// paid once, which is exactly how the MC loop uses the engine.
SolveTiming time_dc(spice::Circuit& ckt, spice::LinearSolverKind kind,
                    int reps) {
  SolveTiming t;
  spice::SolverContext ctx;
  spice::NewtonOptions o;
  o.solver = kind;
  o.sparse_threshold = 1;
  o.context = &ctx;
  o.stats = &t.stats;
  const double t0 = now_s();
  for (int r = 0; r < reps; ++r) (void)spice::solve_dc(ckt, o);
  t.wall_s = (now_s() - t0) / reps;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_spice_mna [--smoke]\n");
      return 2;
    }
  }
  const tech::MosTechParams& t = tech::generic_035um().nmos;

  bench::print_header("SPICE-MNA",
                      "sparse engine scaling, symbolic reuse, warm starts");

  // --- 1. Dense vs sparse DC solve across array resolutions --------------
  std::printf("\nDC operating point, cascode segmented array, dense vs "
              "sparse (avg per solve):\n");
  bench::print_row({"nbits", "cells", "unknowns", "dense_ms", "sparse_ms",
                    "speedup", "lu_ops"},
                   10);
  struct Pt {
    int nbits, binary;
  };
  std::vector<Pt> sizes = {{6, 2}, {8, 3}, {10, 3}};
  if (!smoke) sizes.push_back({12, 4});  // the paper's full array
  double headline_speedup = 0.0;
  for (const auto& s : sizes) {
    core::DacSpec spec;
    spec.nbits = s.nbits;
    spec.binary_bits = s.binary;
    const core::CellSizer sizer(t, spec);
    const core::SizedCell cell = sizer.size_cascode(0.25, 0.2, 0.2);
    const dacgen::TransistorLevelDac dac(spec, cell, t);
    auto bc = dac.build((1 << s.nbits) / 2);
    const int n = bc.circuit->num_unknowns();

    // The MC loop pays the symbolic factorization once per topology and
    // then replays it for thousands of corner solves — so the sparse
    // steady state (what reuse actually delivers) needs several reps to
    // show through, while one rep would bill the whole symbolic setup to
    // a single solve.
    const int reps = s.nbits >= 10 ? 4 : 10;
    const SolveTiming dense =
        time_dc(*bc.circuit, spice::LinearSolverKind::kDense, reps);
    const SolveTiming sparse =
        time_dc(*bc.circuit, spice::LinearSolverKind::kSparse, reps);

    // Equivalence guard: both policies must land on the same solution.
    const auto xd = spice::solve_dc(
        *bc.circuit,
        [] {
          spice::NewtonOptions o;
          o.solver = spice::LinearSolverKind::kDense;
          return o;
        }());
    const auto xs = spice::solve_dc(
        *bc.circuit,
        [] {
          spice::NewtonOptions o;
          o.solver = spice::LinearSolverKind::kSparse;
          o.sparse_threshold = 1;
          return o;
        }());
    double max_dx = 0.0;
    for (std::size_t i = 0; i < xd.x.size(); ++i) {
      max_dx = std::max(max_dx, std::fabs(xd.x[i] - xs.x[i]));
    }
    if (max_dx > 1e-9) {
      std::fprintf(stderr,
                   "FATAL: dense/sparse solutions diverge (%.3e) at %d "
                   "bits\n",
                   max_dx, s.nbits);
      return 1;
    }

    const double speedup =
        sparse.wall_s > 0.0 ? dense.wall_s / sparse.wall_s : 0.0;
    headline_speedup = speedup;  // last (largest) row
    bench::print_row(
        {std::to_string(s.nbits),
         std::to_string(spec.num_unary() + spec.binary_bits),
         std::to_string(n), bench::fmt(dense.wall_s * 1e3, "%.2f"),
         bench::fmt(sparse.wall_s * 1e3, "%.2f"),
         bench::fmt(speedup, "%.1fx"),
         std::to_string(sparse.stats.factorizations +
                        sparse.stats.refactorizations)},
        10);
  }
  std::printf("headline (largest array) sparse speedup: %.1fx\n",
              headline_speedup);

  // --- 2 + 3. Symbolic reuse and warm starts in the mismatch MC ----------
  core::DacSpec mc_spec;
  mc_spec.nbits = smoke ? 5 : 6;
  mc_spec.binary_bits = 2;
  const core::CellSizer mc_sizer(t, mc_spec);
  const core::SizedCell mc_cell = mc_sizer.size_cascode(0.25, 0.2, 0.2);
  dacgen::SpiceMcOptions mo;
  mo.chips = smoke ? 4 : 8;
  mo.seed = 1000;
  mo.solver = spice::LinearSolverKind::kSparse;
  // Serial, like the dense/sparse reference above: the warm-start speedup
  // is measured on one thread, not mixed with the per-code parallelism.
  mo.threads = 1;

  std::printf("\nSPICE mismatch MC (%d-bit, %d corners), warm start off vs "
              "on:\n",
              mc_spec.nbits, static_cast<int>(mo.chips));
  mo.warm_start = false;
  const double c0 = now_s();
  const auto cold = dacgen::spice_mismatch_mc(mc_spec, mc_cell, t, mo);
  const double cold_s = now_s() - c0;
  mo.warm_start = true;
  const double w0 = now_s();
  const auto warm = dacgen::spice_mismatch_mc(mc_spec, mc_cell, t, mo);
  const double warm_s = now_s() - w0;

  if (warm.yield != cold.yield || warm.pass != cold.pass) {
    std::fprintf(stderr,
                 "FATAL: warm-start changed the MC verdict (yield %.4f vs "
                 "%.4f)\n",
                 warm.yield, cold.yield);
    return 1;
  }

  bench::print_row({"mode", "newton_it", "factor", "refactor", "dev_evals",
                    "wall_ms", "hit_rate"},
                   11);
  const auto mc_row = [&](const char* mode, const dacgen::SpiceMcResult& r,
                          double wall) {
    bench::print_row({mode, std::to_string(r.newton_iters),
                      std::to_string(r.factorizations),
                      std::to_string(r.refactorizations),
                      std::to_string(r.device_evals),
                      bench::fmt(wall * 1e3, "%.1f"),
                      bench::fmt(r.warm_start_hit_rate, "%.2f")},
                     11);
  };
  mc_row("cold", cold, cold_s);
  mc_row("warm", warm, warm_s);
  const double iter_reduction =
      warm.newton_iters > 0
          ? static_cast<double>(cold.newton_iters) /
                static_cast<double>(warm.newton_iters)
          : 0.0;
  std::printf("warm-start Newton-iteration reduction: %.2fx "
              "(yield identical: %.4f)\n",
              iter_reduction, warm.yield);
  if (iter_reduction <= 1.0) {
    std::fprintf(stderr,
                 "FATAL: warm starting did not reduce Newton iterations\n");
    return 1;
  }
  return 0;
}
