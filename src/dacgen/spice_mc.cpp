#include "dacgen/spice_mc.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dac/static_analysis.hpp"
#include "dacgen/dacgen.hpp"
#include "mathx/parallel.hpp"
#include "mathx/rng.hpp"
#include "obs/metrics.hpp"
#include "spice/devices.hpp"

namespace csdac::dacgen {
namespace {

struct SpiceMcMetrics {
  obs::Counter& mc_runs;
  obs::Gauge& warm_start_hit_rate;

  static SpiceMcMetrics& get() {
    static SpiceMcMetrics m{
        obs::Registry::global().counter(
            "spice.mc_runs", "SPICE-in-the-loop mismatch MC invocations"),
        obs::Registry::global().gauge(
            "spice.warm_start_hit_rate",
            "warm-start hits / warm starts of the last spice MC run"),
    };
    return m;
  }
};

}  // namespace

SpiceMcResult spice_mismatch_mc(const core::DacSpec& spec,
                                const core::SizedCell& cell,
                                const tech::MosTechParams& tech,
                                const SpiceMcOptions& opts,
                                mathx::RunStats* run_stats) {
  if (opts.chips < 1) throw std::invalid_argument("spice_mc: chips < 1");
  if (!(opts.sigma_scale >= 0.0)) {
    throw std::invalid_argument("spice_mc: sigma_scale < 0");
  }

  DacGenOptions gen;
  gen.differential = opts.differential;
  gen.with_caps = opts.with_caps;
  gen.sigma_unit = 0.0;  // mismatch comes from the per-device draws below
  const TransistorLevelDac dac(spec, cell, tech, gen);

  const int n_codes = 1 << spec.nbits;
  const double v_term = spec.v_out_min + spec.v_swing;

  // Per-code state, built ONCE: the netlist, its solver context (pattern +
  // symbolic factors survive the whole corner sweep), the warm-start
  // operating point and the code's own solver counters. The per-code
  // device sequences are identical by construction, so one set of
  // per-device draws applies to every code.
  struct CodeState {
    TransistorLevelDac::BuiltCircuit bc;
    spice::SolverContext ctx;
    std::vector<spice::Mosfet*> mosfets;
    std::vector<double> x_prev;
    spice::SolveStats stats;
  };
  // Each code is a chain along the corner axis; the pool runs the codes of
  // one corner side by side, a chunk of codes per claim.
  constexpr std::int64_t kCodeChunk = 8;
  mathx::ThreadPool pool(mathx::clamp_threads_to_items(opts.threads, n_codes));
  std::vector<CodeState> codes(static_cast<std::size_t>(n_codes));
  pool.for_each(0, n_codes, [&](std::int64_t c) {
    CodeState& cs = codes[static_cast<std::size_t>(c)];
    cs.bc = dac.build(static_cast<int>(c));
    for (const auto& dev : cs.bc.circuit->devices()) {
      if (auto* m = dynamic_cast<spice::Mosfet*>(dev.get())) {
        cs.mosfets.push_back(m);
      }
    }
  }, kCodeChunk);
  const std::size_t n_devices = codes[0].mosfets.size();
  // Per-device Pelgrom sigmas from the geometry (same for every code).
  std::vector<double> sigma_vt(n_devices), sigma_beta(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i) {
    const auto& g = codes[0].mosfets[i]->geometry();
    const double area = g.w * g.l * g.m;
    const double root = std::sqrt(area);
    sigma_vt[i] = opts.sigma_scale * tech.a_vt / root;
    sigma_beta[i] = opts.sigma_scale * tech.a_beta / root;
  }

  SpiceMcResult res;
  std::vector<double> levels(static_cast<std::size_t>(n_codes));
  std::vector<double> dvt(n_devices), bscale(n_devices);

  for (int corner = 0; corner < opts.chips; ++corner) {
    // One chip = one (seed, corner) stream, drawn in device order: dvt
    // then relative beta error per device. Identical draws reach every
    // code's copy of the same physical transistor.
    mathx::Xoshiro256 rng =
        mathx::stream_rng(opts.seed, static_cast<std::uint64_t>(corner));
    for (std::size_t i = 0; i < n_devices; ++i) {
      dvt[i] = sigma_vt[i] * mathx::normal(rng);
      bscale[i] = 1.0 + sigma_beta[i] * mathx::normal(rng);
    }

    pool.for_each(0, n_codes, [&](std::int64_t c) {
      CodeState& cs = codes[static_cast<std::size_t>(c)];
      for (std::size_t i = 0; i < n_devices; ++i) {
        cs.mosfets[i]->set_mismatch(dvt[i], bscale[i]);
      }
      spice::NewtonOptions nopts;
      nopts.solver = opts.solver;
      nopts.context = &cs.ctx;
      nopts.stats = &cs.stats;
      if (opts.warm_start && !cs.x_prev.empty()) nopts.x0 = &cs.x_prev;
      const spice::Solution sol = spice::solve_dc(*cs.bc.circuit, nopts);
      cs.x_prev = sol.x;
      const double i_out = (v_term - sol.v(cs.bc.out_p)) / spec.r_load;
      levels[static_cast<std::size_t>(c)] = i_out / spec.i_lsb();
    }, kCodeChunk);

    dac::detail::count_chip_eval();
    const dac::StaticSummary s = dac::analyze_levels_summary(
        levels, dac::InlReference::kBestFit);
    res.chips += 1;
    if (s.inl_max <= opts.limit) res.pass += 1;
    res.inl_mean += s.inl_max;
    if (s.inl_max > res.inl_worst) res.inl_worst = s.inl_max;
  }

  // Integer sums: independent of the order the codes ran in.
  for (const CodeState& cs : codes) {
    res.newton_iters += cs.stats.newton_iters;
    res.factorizations += cs.stats.factorizations;
    res.refactorizations += cs.stats.refactorizations;
    res.warm_starts += cs.stats.warm_starts;
    res.warm_start_hits += cs.stats.warm_start_hits;
    res.device_evals += cs.stats.device_evals;
  }
  // Moving a code's state out frees its netlist and factors on the pool
  // rather than in the vector's serial destructor.
  pool.for_each(0, n_codes, [&](std::int64_t c) {
    [[maybe_unused]] const CodeState released =
        std::move(codes[static_cast<std::size_t>(c)]);
  }, kCodeChunk);

  res.yield = static_cast<double>(res.pass) / static_cast<double>(res.chips);
  res.ci95 = mathx::wilson_half_width(res.pass, res.chips);
  res.inl_mean /= static_cast<double>(res.chips);
  res.warm_start_hit_rate =
      res.warm_starts > 0 ? static_cast<double>(res.warm_start_hits) /
                                static_cast<double>(res.warm_starts)
                          : 0.0;
  if (run_stats) {
    run_stats->evaluated = res.chips;
    run_stats->threads = pool.threads();
  }

  SpiceMcMetrics& m = SpiceMcMetrics::get();
  m.mc_runs.add(1);
  m.warm_start_hit_rate.set(res.warm_start_hit_rate);
  return res;
}

}  // namespace csdac::dacgen
