// Wall-clock gates. They run alone (`ctest -L perf`, RUN_SERIAL) and stay
// out of the sanitizer tiers, whose `-L unit` filter does not select them.
// Each compares two paths timed in the same process, interleaved, by the
// median of repeated runs, so a slow or shared machine moves both sides.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/sizer.hpp"
#include "dacgen/dacgen.hpp"
#include "spice/solver.hpp"
#include "tech/tech.hpp"

namespace csdac::spice {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// One DC operating point of the paper's full 12-bit, b = 4 array at
// mid-scale (530 unknowns): the sparse engine must be >= 10x faster than
// the dense solver. Each policy keeps its own context across the reps, so
// the sparse side replays its symbolic factorization as in the MC loop.
TEST(SparseSpeedup, DcOnThe12BitArrayIsTenTimesFasterThanDense) {
  const auto& mos = tech::generic_035um().nmos;
  const core::DacSpec spec;
  const core::SizedCell cell =
      core::CellSizer(mos, spec).size_cascode(0.25, 0.2, 0.2);
  auto built = dacgen::TransistorLevelDac(spec, cell, mos)
                   .build((1 << spec.nbits) / 2);

  SolverContext dense_ctx, sparse_ctx;
  NewtonOptions dense, sparse;
  dense.solver = LinearSolverKind::kDense;
  dense.context = &dense_ctx;
  sparse.solver = LinearSolverKind::kSparse;
  sparse.context = &sparse_ctx;
  const auto time_solve = [&](const NewtonOptions& opts) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)solve_dc(*built.circuit, opts);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  constexpr int kReps = 7;
  std::vector<double> dense_s, sparse_s;
  for (int r = 0; r < kReps; ++r) {
    dense_s.push_back(time_solve(dense));
    sparse_s.push_back(time_solve(sparse));
  }
  const double speedup = median(dense_s) / median(sparse_s);
  std::printf("dense %.2f ms, sparse %.3f ms per solve: %.1fx\n",
              median(dense_s) * 1e3, median(sparse_s) * 1e3, speedup);
  EXPECT_GE(speedup, 10.0);
}

}  // namespace
}  // namespace csdac::spice
