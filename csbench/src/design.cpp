#include "design.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench_json.hpp"
#include "core/explorer.hpp"
#include "dac/dac_model.hpp"
#include "dac/dynamic.hpp"
#include "dac/rare_event.hpp"
#include "dac/spectrum.hpp"
#include "dac/static_analysis.hpp"
#include "dacgen/spice_mc.hpp"
#include "layout/floorplan.hpp"
#include "layout/gradient.hpp"
#include "layout/lefdef.hpp"
#include "layout/switching.hpp"
#include "mathx/hash.hpp"
#include "mathx/rng.hpp"
#include "obs/span.hpp"
#include "runtime/json.hpp"
#include "serve_load.hpp"
#include "tech/tech.hpp"
#include "trace.hpp"

namespace csbench {
namespace {

namespace core = csdac::core;
namespace dac = csdac::dac;
namespace layout = csdac::layout;
namespace mathx = csdac::mathx;
using csdac::obs::ScopedSpan;

/// Per-variant inputs. Every field is drawn from the variant's own stream,
/// so a variant is the same design on every run and machine.
struct Variant {
  double inl_yield = 0.997;   ///< yield target fed to the eq. 9/11 sizer
  double grad_amp = 0.01;     ///< gradient amplitude of the anneal set
  std::uint64_t mc_seed = 0, anneal_seed = 0, spice_seed = 0,
                spectrum_seed = 0;
};

Variant make_variant(int index) {
  mathx::Xoshiro256 rng = mathx::stream_rng(0xC5DAC2003ull,
                                            static_cast<std::uint64_t>(index));
  Variant v;
  v.inl_yield = mathx::uniform(rng, 0.95, 0.999);
  v.grad_amp = mathx::uniform(rng, 0.005, 0.02);
  v.mc_seed = rng();
  v.anneal_seed = rng();
  v.spice_seed = rng();
  v.spectrum_seed = rng();
  return v;
}

/// Work sizes of one design. The full sizes keep every kernel in the
/// regime the flow runs it in while one design stays under half a second,
/// so a 30 s run's median rests on ~60 designs; `small` is the set-up
/// warm pass.
struct Sizes {
  int grid_steps, mc_chips, is_chips, anneal_iters, spice_bits, spice_chips,
      spectrum_samples;
};
/// Fixed so the designs (and their digests) do not depend on the machine;
/// the restarts run in parallel on the engine threads.
constexpr int kAnnealRestarts = 4;
constexpr Sizes kFull{16, 12288, 4096, 6000, 8, 2, 4096};
constexpr Sizes kSmall{8, 2048, 1024, 2000, 6, 1, 1024};

double lap(Clock::time_point& mark) {
  const auto now = Clock::now();
  const double s = std::chrono::duration<double>(now - mark).count();
  mark = now;
  return s;
}

std::map<int, std::string> load_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  csdac::runtime::JsonValue doc;
  std::string err;
  if (!csdac::runtime::parse_json(buf.str(), doc, &err)) {
    throw std::runtime_error(path + ": " + err);
  }
  std::map<int, std::string> ref;
  if (const auto* v = doc.find("digests"); v && v->is_object()) {
    for (const auto& [k, d] : v->obj) ref[std::stoi(k)] = d.str;
  }
  if (ref.size() != static_cast<std::size_t>(kDesignVariants)) {
    throw std::runtime_error(path + ": expected " +
                             std::to_string(kDesignVariants) + " digests");
  }
  return ref;
}

/// Seeded permutation of the variant indices.
std::vector<int> variant_order(std::uint64_t seed) {
  std::vector<int> order(kDesignVariants);
  std::iota(order.begin(), order.end(), 0);
  mathx::Xoshiro256 rng = mathx::stream_rng(seed, 0xD351);
  for (int i = kDesignVariants - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        mathx::uniform_index(rng, static_cast<std::uint64_t>(i) + 1));
    std::swap(order[i], order[j]);
  }
  return order;
}

/// Checks one finished design against the recorded digest and the
/// stage-accounting invariant; returns false (with the reason logged)
/// when the design counts as a failed operation.
bool check_design(const DesignOutput& d, int index,
                  const std::map<int, std::string>& ref, Outcome& out) {
  if (!d.error.empty()) {
    out.fail("design " + std::to_string(index) + ": " + d.error);
    return false;
  }
  const auto it = ref.find(index);
  if (it == ref.end() || it->second != d.digest) {
    out.fail("design " + std::to_string(index) + ": digest " + d.digest +
             " does not match the recorded reference");
    return false;
  }
  // Stage attribution must never claim more time than elapsed.
  if (d.stage_sum_s() > d.wall_s) {
    out.fail("design " + std::to_string(index) + ": stage times sum to " +
             std::to_string(d.stage_sum_s()) + " s > wall " +
             std::to_string(d.wall_s) + " s");
    return false;
  }
  return true;
}

/// Per-layer design metrics: median over the traced designs.
struct LayerMetric {
  const char* name;
  const char* unit;
  double (*of)(const DesignOutput&);
};
const LayerMetric kDesignLayers[] = {
    {"core.size_s", "s", [](const DesignOutput& d) { return d.size_s; }},
    {"core.points", "count", [](const DesignOutput& d) { return d.points; }},
    {"dac.mc_s", "s", [](const DesignOutput& d) { return d.mc_s; }},
    {"dac.chips", "count", [](const DesignOutput& d) { return d.chips; }},
    {"dac.chips_per_s", "1/s",
     [](const DesignOutput& d) {
       return ratio(d.chips, d.mc_s + d.is_s, 0.0);
     }},
    {"dac.is_s", "s", [](const DesignOutput& d) { return d.is_s; }},
    {"dac.is_ess_frac", "ratio",
     [](const DesignOutput& d) { return d.is_ess_frac; }},
    {"dac.spectrum_s", "s", [](const DesignOutput& d) { return d.spectrum_s; }},
    {"layout.anneal_s", "s", [](const DesignOutput& d) { return d.anneal_s; }},
    {"layout.proposals_per_s", "1/s",
     [](const DesignOutput& d) { return ratio(d.proposals, d.anneal_s, 0.0); }},
    {"layout.anneal_utilization", "ratio",
     [](const DesignOutput& d) { return d.anneal_utilization; }},
    {"layout.lefdef_s", "s", [](const DesignOutput& d) { return d.lefdef_s; }},
    {"spice.mc_s", "s", [](const DesignOutput& d) { return d.spice_s; }},
    {"spice.newton_iters", "count",
     [](const DesignOutput& d) { return d.newton_iters; }},
    {"spice.device_evals", "count",
     [](const DesignOutput& d) { return d.device_evals; }},
    {"spice.refactorizations", "count",
     [](const DesignOutput& d) { return d.refactorizations; }},
    {"spice.warm_hit_frac", "ratio",
     [](const DesignOutput& d) {
       return ratio(d.warm_hits, d.warm_starts, 0.0);
     }},
    {"flow.stage_sum_frac", "ratio",
     [](const DesignOutput& d) {
       return ratio(d.stage_sum_s(), d.wall_s, 0.0);
     }},
};

/// Adds the design-layer metrics and each layer's span self time of traced
/// designs, and checks that the caller-thread layers fit inside each
/// design's flow.design span.
void add_design_layers(const std::vector<DesignOutput>& traced,
                       const TraceSession& trace, Outcome& out) {
  for (const LayerMetric& m : kDesignLayers) {
    std::vector<double> v;
    for (const DesignOutput& d : traced) v.push_back(m.of(d));
    out.add(m.name, m.unit, median(v));
  }
  std::map<std::string, std::vector<double>> self;
  const std::vector<std::string> layers = {"flow",   "core",  "dac",
                                           "layout", "spice", "engine"};
  for (const DesignOutput& d : traced) {
    const auto selfs = layer_self_seconds(trace.spans(), d.root_span);
    double caller_thread = 0.0;
    for (const auto& l : layers) {
      const auto it = selfs.find(l);
      const double s = it == selfs.end() ? 0.0 : it->second;
      self[l].push_back(s);
      if (l != "engine") caller_thread += s;
    }
    // Everything but the engine's workers runs on the designer's thread
    // inside flow.design: those self times cannot exceed its wall time.
    if (caller_thread > d.wall_s * 1.001 + 1e-4) {
      out.fail("traced design: layer self times sum to " +
               std::to_string(caller_thread) + " s > traced wall " +
               std::to_string(d.wall_s) + " s");
    }
  }
  for (const auto& l : layers) {
    out.add("self." + l + "_s", "s", median(self[l]));
  }
}

}  // namespace

DesignOutput run_design(int index, int threads, bool small) {
  const Variant v = make_variant(index);
  const Sizes& z = small ? kSmall : kFull;
  const auto tech = csdac::tech::generic_035um().nmos;
  DesignOutput d;
  mathx::ByteWriter digest;

  const auto c0 = local_counters();
  const auto t0 = Clock::now();
  auto mark = t0;
  {
    ScopedSpan root("flow.design");
    root.attr("variant", index);
    d.root_span = root.id();

    core::DacSpec spec;  // 12-bit, 4 binary + 8 thermometer bits
    spec.inl_yield = v.inl_yield;
    const core::CellSizer sizer(tech, spec);
    core::SizedCell cell;
    {
      ScopedSpan span("core.size");
      const core::DesignSpaceExplorer ex(sizer);
      const core::GridAxis g{0.05, 0.6, z.grid_steps};
      const auto pt = ex.optimize_cascode(
          g, g, g, core::MarginPolicy::kStatistical,
          core::Objective::kMaxSpeed, 0.5, core::SigmaAggregation::kMax,
          threads);
      if (!pt) {
        d.error = "no feasible design point";
        return d;
      }
      cell = sizer.size_cascode(pt->vod_cs, pt->vod_sw, pt->vod_cas,
                                core::MarginPolicy::kStatistical);
      d.points = static_cast<double>(z.grid_steps) * z.grid_steps *
                 z.grid_steps;
    }
    d.size_s = lap(mark);
    digest.f64(cell.cell.vod_cs);
    digest.f64(cell.cell.vod_sw);
    digest.f64(cell.cell.vod_cas);
    digest.f64(cell.cell.active_area());

    const double sigma = sizer.sigma_unit();
    {
      ScopedSpan span("dac.mc");
      const auto y = dac::inl_yield_mc(spec, sigma, z.mc_chips, v.mc_seed,
                                       0.5, dac::InlReference::kBestFit,
                                       threads);
      digest.i64(y.chips);
      digest.i64(y.pass);
    }
    d.mc_s = lap(mark);
    {
      ScopedSpan span("dac.is");
      const auto y = dac::inl_yield_is(spec, sigma, 2.2, 8, z.is_chips,
                                       v.mc_seed + 1, 0.5,
                                       dac::InlReference::kBestFit, threads);
      d.is_ess_frac = y.ess_fraction;
      digest.f64(y.yield);
      digest.f64(y.ess);
    }
    d.is_s = lap(mark);

    {
      ScopedSpan span("layout.anneal");
      const layout::ArrayGeometry geo{16, 16};
      layout::AnnealOptions opts;
      opts.iterations = z.anneal_iters;
      opts.seed = v.anneal_seed;
      opts.restarts = kAnnealRestarts;
      opts.threads = threads;
      mathx::RunStats stats;
      const auto seq = layout::optimize_sequence(
          geo, spec.num_unary(), layout::standard_gradients(v.grad_amp),
          spec.unary_weight(), opts, &stats);
      d.proposals = static_cast<double>(opts.iterations) * opts.restarts;
      d.anneal_utilization = stats.utilization;
      for (int s : seq) digest.i32(s);
    }
    d.anneal_s = lap(mark);
    {
      ScopedSpan span("layout.lefdef");
      // Cell pitch follows the sized cell: sqrt(area) with 3x routing
      // overhead, on a 0.1 um grid.
      layout::FloorplanOptions fopts;
      const double pitch_um =
          std::ceil(std::sqrt(cell.cell.active_area()) * 3e6 * 10.0) / 10.0;
      fopts.cs_cell_w_um = pitch_um;
      fopts.cs_cell_h_um = pitch_um;
      const layout::Floorplan fp = layout::build_floorplan(spec, fopts);
      const std::string lef = layout::floorplan_lef(fp);
      const std::string def = layout::floorplan_def(fp);
      const layout::DefDesign parsed = layout::parse_def(def);
      if (parsed.components.size() != fp.def.components.size() ||
          parsed.nets.size() != fp.def.nets.size() || lef.empty()) {
        d.error = "DEF round trip lost components or nets";
        return d;
      }
      digest.bytes(def.data(), def.size());
      digest.u64(lef.size());
    }
    d.lefdef_s = lap(mark);

    {
      ScopedSpan span("spice.mc");
      // Netlist-level check on a reduced-resolution array sized at the
      // same overdrives (2^bits MNA solves per corner).
      core::DacSpec small_spec;
      small_spec.nbits = z.spice_bits;
      small_spec.binary_bits = z.spice_bits / 2 - 1;
      small_spec.inl_yield = v.inl_yield;
      const core::CellSizer small_sizer(tech, small_spec);
      const core::SizedCell small_cell = small_sizer.size_cascode(
          cell.cell.vod_cs, cell.cell.vod_sw, cell.cell.vod_cas,
          core::MarginPolicy::kStatistical);
      csdac::dacgen::SpiceMcOptions so;
      so.chips = z.spice_chips;
      so.seed = v.spice_seed;
      const auto r = csdac::dacgen::spice_mismatch_mc(small_spec, small_cell,
                                                      tech, so);
      digest.i64(r.chips);
      digest.i64(r.pass);
      digest.f64(r.inl_worst);
    }
    d.spice_s = lap(mark);

    {
      ScopedSpan span("dac.spectrum");
      mathx::Xoshiro256 rng = mathx::stream_rng(v.spectrum_seed, 0);
      const dac::SegmentedDac model(
          spec, dac::draw_source_errors(spec, sigma, rng));
      dac::DynamicParams dyn;
      dyn.oversample = 8;
      const dac::DynamicSimulator sim(model, dyn);
      const auto codes = dac::sine_codes(spec, z.spectrum_samples, 127);
      const auto wave = sim.waveform_differential(codes, nullptr);
      std::vector<double> sampled;
      for (std::size_t i = dyn.oversample - 1; i < wave.size();
           i += dyn.oversample) {
        sampled.push_back(wave[i]);
      }
      const dac::SpectrumResult s = dac::analyze_spectrum(sampled, dyn.fs);
      if (!(s.sfdr_db > 0.0) || !std::isfinite(s.sfdr_db)) {
        d.error = "spectrum has no finite SFDR";
        return d;
      }
      digest.f64(s.sfdr_db);
    }
    d.spectrum_s = lap(mark);
  }
  d.wall_s = seconds_since(t0);
  const auto c1 = local_counters();
  d.chips = static_cast<double>(delta(c0, c1, "mc.chips_evaluated"));
  d.newton_iters = static_cast<double>(delta(c0, c1, "spice.newton_iters"));
  d.device_evals = static_cast<double>(delta(c0, c1, "spice.device_evals"));
  d.refactorizations =
      static_cast<double>(delta(c0, c1, "spice.refactorizations"));
  d.warm_starts = static_cast<double>(delta(c0, c1, "spice.warm_starts"));
  d.warm_hits = static_cast<double>(delta(c0, c1, "spice.warm_start_hits"));
  d.digest = mathx::hash128(digest.data().data(), digest.data().size()).hex();
  return d;
}

void design_layer_metrics(const RunConfig& cfg, TraceSession& trace,
                          Outcome& out) {
  const auto ref = load_reference(cfg.ref_path);
  const int index = variant_order(cfg.seed).front();
  std::vector<DesignOutput> traced;
  trace.start();
  DesignOutput d = run_design(index, cfg.nproc);
  trace.stop();
  ++out.attempted;
  if (check_design(d, index, ref, out)) traced.push_back(std::move(d));
  add_design_layers(traced, trace, out);
}

Outcome design_flow(const RunConfig& cfg, TraceSession* trace) {
  Outcome out;
  const auto ref = load_reference(cfg.ref_path);

  // Set-up: the warm pass runs every step once at toy size (lazy tables,
  // dispatch, first-touch pages). Repeated, median reported.
  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    const DesignOutput warm = run_design(i, cfg.nproc, /*small=*/true);
    setups.push_back(seconds_since(t0));
    if (!warm.error.empty()) out.fail("set-up design: " + warm.error);
  }

  const std::vector<int> order = variant_order(cfg.seed);
  std::vector<double> walls, traced_walls, untraced_walls;
  std::vector<DesignOutput> traced;
  const auto start = Clock::now();
  for (int k = 0; k < kDesignVariants && seconds_since(start) < cfg.seconds;
       ++k) {
    // Traced runs alternate traced and untraced designs, so the overhead
    // of tracing is measured on the same variants mix in the same process.
    const bool traced_design = trace != nullptr && k % 2 == 0;
    if (traced_design) trace->start();
    DesignOutput d = run_design(order[k], cfg.nproc);
    if (traced_design) trace->stop();
    ++out.attempted;
    if (!check_design(d, order[k], ref, out)) continue;
    walls.push_back(d.wall_s);
    if (traced_design) {
      traced_walls.push_back(d.wall_s);
      traced.push_back(std::move(d));
    } else {
      untraced_walls.push_back(d.wall_s);
    }
  }
  const double elapsed = seconds_since(start);
  std::printf("design_flow: %zu designs in %.2f s; design_s median %.4f s\n",
              walls.size(), elapsed, median(walls));

  if (trace == nullptr) {
    out.add("setup_s", "s", median(setups));
    out.add("op_p50_ms", "ms", median(walls) * 1e3);
    std::vector<double> finished(walls.size());  // completion order
    std::iota(finished.begin(), finished.end(), 0.0);
    out.add("op_tail_ms", "ms", tail_latency(walls, finished) * 1e3);
    out.add("ops_per_s", "1/s", static_cast<double>(walls.size()) / elapsed);
    out.add("peak_rss_mb", "MB", peak_rss_mb());
    return out;
  }
  add_design_layers(traced, *trace, out);
  out.add("trace_overhead_frac", "ratio",
          ratio(median(traced_walls), median(untraced_walls), 1.0) - 1.0);
  // Serve/runtime layers: a short mixed-traffic probe, so every traced
  // run reports every layer.
  serve_layer_probe(cfg, *trace, out);
  return out;
}

int record_design_reference(const RunConfig& cfg) {
  csdac::bench::JsonWriter w;
  w.begin_object();
  w.field("schema", "csbench-design-ref/1");
  w.key("digests").begin_object();
  for (int i = 0; i < kDesignVariants; ++i) {
    const DesignOutput d = run_design(i, cfg.nproc);
    if (!d.error.empty()) {
      std::fprintf(stderr, "variant %d: %s\n", i, d.error.c_str());
      return 1;
    }
    w.field(std::to_string(i), d.digest);
    std::printf("variant %2d  %s  %.3f s\n", i, d.digest.c_str(), d.wall_s);
    std::fflush(stdout);
  }
  w.end_object();
  w.end_object();
  std::ofstream out(cfg.ref_path, std::ios::binary);
  out << w.str() << "\n";
  return out ? 0 : 1;
}

}  // namespace csbench
