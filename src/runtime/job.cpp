#include "runtime/job.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "arch/ete.hpp"
#include "arch/instruments.hpp"
#include "dac/dac_model.hpp"
#include "dac/spectrum.hpp"
#include "mathx/rng.hpp"

namespace csdac::runtime {

namespace {

// The wire codec behind the cache key and the result payload: one put()
// and one get() overload set, picking the wire type from the C++ type and
// recursing through the field lists of job.hpp.

template <class T>
concept U8 = std::is_enum_v<T> || std::same_as<T, std::uint8_t>;

void put(mathx::ByteWriter& w, bool v) { w.boolean(v); }
void put(mathx::ByteWriter& w, std::int32_t v) { w.i32(v); }
void put(mathx::ByteWriter& w, std::int64_t v) { w.i64(v); }
void put(mathx::ByteWriter& w, std::uint64_t v) { w.u64(v); }
void put(mathx::ByteWriter& w, double v) { w.f64(v); }
template <U8 T>
void put(mathx::ByteWriter& w, T v) {
  w.u8(static_cast<std::uint8_t>(v));
}
template <HasFields T>
void put(mathx::ByteWriter& w, const T& v);
template <class E>
void put(mathx::ByteWriter& w, const std::vector<E>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const E& e : v) put(w, e);
}
template <HasFields T>
void put(mathx::ByteWriter& w, const T& v) {
  fields(v, [&w](const char*, const auto& x) { put(w, x); });
}

// get() reads what put() wrote; a short buffer latches the reader's
// failure flag, which decode_value checks once at the end.
void get(mathx::ByteReader& r, bool& v) { v = r.boolean(); }
void get(mathx::ByteReader& r, std::int32_t& v) { v = r.i32(); }
void get(mathx::ByteReader& r, std::int64_t& v) { v = r.i64(); }
void get(mathx::ByteReader& r, double& v) { v = r.f64(); }
template <U8 T>
void get(mathx::ByteReader& r, T& v) {
  v = static_cast<T>(r.u8());
}
template <HasFields T>
void get(mathx::ByteReader& r, T& v);
template <class E>
void get(mathx::ByteReader& r, std::vector<E>& v) {
  // Encoded bytes per element, from its field list: a count the remaining
  // bytes cannot hold fails the read before anything is allocated.
  static const std::size_t elem_bytes = [] {
    mathx::ByteWriter w;
    put(w, E{});
    return w.size();
  }();
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / elem_bytes) {
    r.fail();
    return;
  }
  v.resize(n);
  for (E& e : v) get(r, e);
}
template <HasFields T>
void get(mathx::ByteReader& r, T& v) {
  fields(v, [&r](const char*, auto& x) { get(r, x); });
}

/// One entry per job kind, in wire-tag order: fn(std::type_identity<J>).
template <class Fn, std::size_t... I>
constexpr auto kind_table(Fn fn, std::index_sequence<I...>) {
  return std::array{
      fn(std::type_identity<std::variant_alternative_t<I, Job>>{})...};
}
template <class Fn>
constexpr auto kind_table(Fn fn) {
  return kind_table(fn, std::make_index_sequence<std::variant_size_v<Job>>{});
}

constexpr auto kKindNames =
    kind_table([](auto t) { return decltype(t)::type::kName; });

template <class J>
bool decode_as(mathx::ByteReader& r, JobValue& out) {
  using R = typename J::Result;
  if (r.u8() != kResultVersion<R>) return false;
  R v;
  get(r, v);
  if (!r.done()) return false;
  out = std::move(v);
  return true;
}

}  // namespace

std::string_view kind_name(JobKind kind) {
  const auto i = static_cast<std::size_t>(kind) - 1;
  return i < kKindNames.size() ? kKindNames[i] : "unknown";
}

bool job_from_name(std::string_view name, Job& out) {
  static constexpr auto kMakers = kind_table([](auto t) {
    return +[]() -> Job { return typename decltype(t)::type{}; };
  });
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) {
      out = kMakers[i]();
      return true;
    }
  }
  return false;
}

void canonical_inputs(const Job& job, mathx::ByteWriter& w) {
  w.str(kEngineVersion);
  w.u8(static_cast<std::uint8_t>(job_kind(job)));
  std::visit([&w](const auto& j) { put(w, j); }, job);
}

mathx::HashKey128 job_key(const Job& job) {
  mathx::ByteWriter w;
  canonical_inputs(job, w);
  return w.hash();
}

void encode_value(const JobValue& value, mathx::ByteWriter& w) {
  std::visit(
      [&w](const auto& v) {
        w.u8(kResultVersion<std::remove_cvref_t<decltype(v)>>);
        put(w, v);
      },
      value);
}

bool decode_value(JobKind kind, mathx::ByteReader& r, JobValue& out) {
  static constexpr auto kDecoders = kind_table([](auto t) {
    return &decode_as<typename decltype(t)::type>;
  });
  const auto i = static_cast<std::size_t>(kind) - 1;
  return i < kDecoders.size() && kDecoders[i](r, out);
}

namespace {

YieldResult run(const InlYieldJob& j, int threads, mathx::RunStats* stats) {
  dac::YieldEstimate y;
  if (j.adaptive) {
    dac::AdaptiveMcOptions o;
    o.max_chips = j.chips;
    o.min_chips = j.min_chips;
    o.batch = j.batch;
    o.ci_half_width = j.ci_half_width;
    o.threads = threads;
    y = j.dnl ? dac::dnl_yield_mc_adaptive(j.spec, j.sigma_unit, o, j.seed,
                                           j.limit)
              : dac::inl_yield_mc_adaptive(j.spec, j.sigma_unit, o, j.seed,
                                           j.limit, j.ref);
  } else {
    y = j.dnl ? dac::dnl_yield_mc(j.spec, j.sigma_unit, j.chips, j.seed,
                                  j.limit, threads)
              : dac::inl_yield_mc(j.spec, j.sigma_unit, j.chips, j.seed,
                                  j.limit, j.ref, threads);
  }
  if (stats) *stats = y.stats;
  return {.chips = y.chips, .pass = y.pass, .yield = y.yield, .ci95 = y.ci95};
}

CalYieldResult run(const CalYieldJob& j, int threads, mathx::RunStats* stats) {
  const dac::CalibratedYield y = dac::calibration_yield_mc(
      j.spec, j.sigma_unit, j.cal, j.chips, j.seed, j.limit, threads);
  if (stats) *stats = y.stats;
  return {.chips = y.chips, .yield_before = y.yield_before,
          .yield_after = y.yield_after};
}

SweepResult run(const SweepBasicJob& j, int threads, mathx::RunStats* stats) {
  const core::DesignSpaceExplorer ex(core::CellSizer(j.tech, j.spec));
  return {ex.sweep_basic(j.cs, j.sw, j.policy, j.fixed_margin, threads,
                         stats)};
}

SweepResult run(const SweepCascodeJob& j, int threads, mathx::RunStats* stats) {
  const core::DesignSpaceExplorer ex(core::CellSizer(j.tech, j.spec));
  return {ex.sweep_cascode(j.cs, j.sw, j.cas, j.policy, j.fixed_margin,
                           j.agg, threads, stats)};
}

SpectrumSummary run(const SpectrumJob& j, int threads, mathx::RunStats* stats) {
  (void)threads;  // waveform synthesis is inherently sequential
  j.spec.validate();
  j.dyn.validate();
  if (j.n_samples < 8 || j.cycles < 1) {
    throw std::invalid_argument("spectrum job: bad record shape");
  }
  dac::SourceErrors errors;
  if (j.sigma_unit > 0.0) {
    mathx::Xoshiro256 rng = mathx::stream_rng(j.seed, 0);
    errors = dac::draw_source_errors(j.spec, j.sigma_unit, rng);
  } else {
    errors = dac::ideal_sources(j.spec);
  }
  const dac::SegmentedDac model(j.spec, std::move(errors));
  const dac::DynamicSimulator sim(model, j.dyn);
  const auto codes = dac::sine_codes(j.spec, j.n_samples, j.cycles);
  mathx::Xoshiro256 jitter_rng = mathx::stream_rng(j.seed, 1);
  mathx::Xoshiro256* rng_ptr =
      j.dyn.jitter_sigma > 0.0 ? &jitter_rng : nullptr;
  const auto wave = j.differential ? sim.waveform_differential(codes, rng_ptr)
                                   : sim.waveform(codes, rng_ptr);
  // Resample at the end of each sample period (settled value), as the
  // Fig. 8 bench does.
  std::vector<double> sampled;
  sampled.reserve(static_cast<std::size_t>(j.n_samples));
  const auto step = static_cast<std::size_t>(j.dyn.oversample);
  for (std::size_t i = step - 1; i < wave.size(); i += step) {
    sampled.push_back(wave[i]);
  }
  const dac::SpectrumResult s = dac::analyze_spectrum(sampled, j.dyn.fs);
  if (stats) {
    stats->evaluated = static_cast<std::int64_t>(sampled.size());
    stats->threads = 1;
  }
  return {.sfdr_db = s.sfdr_db, .sndr_db = s.sndr_db, .thd_db = s.thd_db,
          .enob = s.enob};
}

IsYieldResult run(const InlYieldIsJob& j, int threads, mathx::RunStats* stats) {
  const dac::IsYieldEstimate y =
      dac::inl_yield_is(j.spec, j.sigma_unit, j.sigma_scale, j.modes, j.chips,
                        j.seed, j.limit, j.ref, threads);
  if (stats) *stats = y.stats;
  return {.chips = y.chips, .fails = y.fails, .yield = y.yield,
          .ci95 = y.ci95, .ess = y.ess, .ess_fraction = y.ess_fraction,
          .log_weight_max = y.log_weight_max,
          .log_weight_min = y.log_weight_min, .low_ess = y.low_ess};
}

StratYieldResult run(const InlYieldStratJob& j, int threads,
                     mathx::RunStats* stats) {
  const dac::StratYieldEstimate y = dac::inl_yield_stratified(
      j.spec, j.sigma_unit, j.strata, j.chips, j.seed, j.limit, j.ref,
      threads);
  if (stats) *stats = y.stats;
  return {.chips = y.chips, .pairs = y.pairs, .strata = y.strata,
          .yield = y.yield, .ci95 = y.ci95};
}

BridgeYieldResult run(const InlYieldBridgeJob& j, int threads,
                      mathx::RunStats* stats) {
  (void)threads;  // closed form; nothing to parallelize
  const dac::BridgeYieldEstimate y =
      dac::inl_yield_bridge(j.spec, j.sigma_unit, j.limit);
  if (stats) {
    stats->evaluated = 0;  // no chips drawn: that is the whole point
    stats->threads = 1;
  }
  return {.yield = y.yield, .c = y.c, .sigma_inl = y.sigma_inl};
}

/// Resolves the scheme-param defaults against the spec: segmented 0 means
/// the spec's own binary split; optimized 0 means "same cell count as the
/// spec's segmented architecture" so comparisons stay cell- and
/// area-matched.
arch::WeightingScheme resolve_weighting(const core::DacSpec& spec,
                                        arch::WeightingKind kind, int param) {
  int p = param;
  if (kind == arch::WeightingKind::kSegmented && p == 0) p = spec.binary_bits;
  if (kind == arch::WeightingKind::kOptimized && p == 0) {
    const int b = spec.binary_bits;
    p = ((1 << (spec.nbits - b)) - 1) + b;
  }
  if ((kind == arch::WeightingKind::kBinary ||
       kind == arch::WeightingKind::kUnary) &&
      p != 0) {
    throw std::invalid_argument("weighting scheme takes no parameter");
  }
  return arch::make_weighting(kind, spec.nbits, p);
}

void check_record_shape(int n_samples, int cycles) {
  if (n_samples < 32 || cycles < 1 || cycles >= n_samples / 2) {
    throw std::invalid_argument("arch job: bad record shape");
  }
}

DynSpectrumResult run(const DynSpectrumJob& j, int threads,
                      mathx::RunStats* stats) {
  j.spec.validate();
  j.timing.validate();
  check_record_shape(j.n_samples, j.cycles);
  if (j.chips < 1 || (j.adaptive && (j.min_chips < 1 || j.batch < 1))) {
    throw std::invalid_argument("dyn_spectrum job: bad chip counts");
  }
  const arch::CellArray arr(
      resolve_weighting(j.spec, j.scheme, j.scheme_param));
  const double v_lsb = j.spec.i_lsb() * j.spec.r_load;
  const arch::ArchSimulator sim(arr, j.timing, v_lsb);
  const std::vector<int> codes =
      dac::sine_codes(j.spec, j.n_samples, j.cycles);

  // Per-chip metrics land in index-addressed slots, so the means below are
  // reduced sequentially in chip order — bit-identical for any thread
  // count, like every other cached job.
  std::vector<double> sfdr(static_cast<std::size_t>(j.chips), 0.0);
  std::vector<double> sndr(static_cast<std::size_t>(j.chips), 0.0);
  std::vector<double> ete(static_cast<std::size_t>(j.chips), 0.0);
  const auto item = [&](std::int64_t i) -> bool {
    mathx::Xoshiro256 rng =
        mathx::stream_rng(j.seed, static_cast<std::uint64_t>(i));
    const arch::CellTiming t =
        arch::draw_cell_timing(arr.cells(), j.timing, rng);
    const dac::SpectrumResult s = sim.spectrum(codes, t, j.cycles);
    const arch::EtePrediction p =
        arch::ete_predict(arr, t, v_lsb, j.timing.fs, codes, j.cycles);
    const auto slot = static_cast<std::size_t>(i);
    sfdr[slot] = s.sfdr_db;
    sndr[slot] = s.sndr_db;
    ete[slot] = p.sfdr_db;
    return s.sfdr_db >= j.sfdr_limit_db;
  };
  mathx::EarlyStopOptions o;
  o.max_items = j.chips;
  o.min_items = j.adaptive
                    ? std::min<std::int64_t>(j.min_chips, j.chips)
                    : j.chips;
  o.batch = j.adaptive ? j.batch : j.chips;
  o.ci_half_width = j.adaptive ? j.ci_half_width : 0.0;
  const mathx::YieldRun y = mathx::adaptive_yield_run(o, threads, item);
  dac::detail::count_chip_evals(y.evaluated);

  DynSpectrumResult r;
  r.chips = y.evaluated;
  r.pass = y.passed;
  r.yield = y.yield;
  r.ci95 = y.ci95;
  r.cells = arr.cells();
  r.sfdr_min_db = sfdr[0];
  double sfdr_sum = 0.0, sndr_sum = 0.0, ete_sum = 0.0;
  for (std::int64_t i = 0; i < y.evaluated; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    sfdr_sum += sfdr[slot];
    sndr_sum += sndr[slot];
    ete_sum += ete[slot];
    r.sfdr_min_db = std::min(r.sfdr_min_db, sfdr[slot]);
  }
  const double denom = static_cast<double>(y.evaluated);
  r.sfdr_mean_db = sfdr_sum / denom;
  r.sndr_mean_db = sndr_sum / denom;
  r.ete_sfdr_mean_db = ete_sum / denom;
  if (stats) *stats = y.stats;

  auto& m = arch::arch_instruments();
  m.dyn_runs.add(1);
  m.last_sfdr_db.set(r.sfdr_mean_db);
  m.last_yield.set(r.yield);
  return r;
}

ArchCompareResult run(const ArchCompareJob& j, int threads,
                      mathx::RunStats* stats) {
  j.spec.validate();
  j.timing.validate();
  check_record_shape(j.n_samples, j.cycles);
  if (j.chips < 1 || j.dyn_chips < 1) {
    throw std::invalid_argument("arch_compare job: bad chip counts");
  }
  if (!std::isfinite(j.sigma_unit) || j.sigma_unit < 0.0) {
    throw std::invalid_argument("arch_compare job: bad sigma_unit");
  }
  if (j.seg_lo < 1 || j.seg_hi < j.seg_lo || j.seg_hi >= j.spec.nbits) {
    throw std::invalid_argument("arch_compare job: bad segment range");
  }

  std::vector<arch::WeightingScheme> schemes;
  schemes.push_back(arch::make_weighting(arch::WeightingKind::kBinary,
                                         j.spec.nbits));
  if (j.include_unary) {
    schemes.push_back(arch::make_weighting(arch::WeightingKind::kUnary,
                                           j.spec.nbits));
  }
  for (int b = j.seg_lo; b <= j.seg_hi; ++b) {
    schemes.push_back(arch::make_weighting(arch::WeightingKind::kSegmented,
                                           j.spec.nbits, b));
  }
  schemes.push_back(resolve_weighting(j.spec, arch::WeightingKind::kOptimized,
                                      j.opt_cells));

  const std::vector<int> codes =
      dac::sine_codes(j.spec, j.n_samples, j.cycles);
  const double v_lsb = j.spec.i_lsb() * j.spec.r_load;
  const int total_units = (1 << j.spec.nbits) - 1;
  const int n_codes = 1 << j.spec.nbits;

  ArchCompareResult res;
  std::int64_t total_evals = 0;
  int run_threads = 1;
  for (std::size_t a = 0; a < schemes.size(); ++a) {
    const arch::CellArray arr(schemes[a]);
    ArchPoint p;
    p.scheme = static_cast<std::uint8_t>(arr.scheme().kind);
    p.param = arr.scheme().param;
    p.cells = arr.cells();
    p.activity = arch::switching_activity(arr, codes);

    // Cell c spans the unit interval [offset[c], offset[c+1]) of a shared
    // per-chip unit-error pool: every architecture sees the SAME wafer
    // (common random numbers), so yield differences between schemes are
    // not resampling noise.
    const auto& w = arr.weights();
    std::vector<int> offset(w.size() + 1, 0);
    for (std::size_t c = 0; c < w.size(); ++c) offset[c + 1] = offset[c] + w[c];

    struct Ws {
      std::vector<double> prefix;
      std::vector<double> levels;
      std::vector<std::uint8_t> on;
    };
    std::vector<std::uint8_t> pass(static_cast<std::size_t>(j.chips), 0);
    const mathx::RunStats rs = mathx::parallel_for_workspace(
        j.chips, threads,
        [&] {
          Ws ws;
          ws.prefix.resize(static_cast<std::size_t>(total_units) + 1);
          ws.levels.resize(static_cast<std::size_t>(n_codes));
          return ws;
        },
        [&](Ws& ws, std::int64_t chip) {
          mathx::Xoshiro256 rng =
              mathx::stream_rng(j.seed, static_cast<std::uint64_t>(chip));
          ws.prefix[0] = 0.0;
          for (int u = 0; u < total_units; ++u) {
            ws.prefix[static_cast<std::size_t>(u) + 1] =
                ws.prefix[static_cast<std::size_t>(u)] +
                j.sigma_unit * mathx::normal(rng);
          }
          for (int code = 0; code < n_codes; ++code) {
            arr.encode(code, ws.on);
            double level = 0.0;
            for (std::size_t c = 0; c < w.size(); ++c) {
              if (!ws.on[c]) continue;
              level += w[c] +
                       (ws.prefix[static_cast<std::size_t>(offset[c + 1])] -
                        ws.prefix[static_cast<std::size_t>(offset[c])]);
            }
            ws.levels[static_cast<std::size_t>(code)] = level;
          }
          const dac::StaticSummary s = dac::analyze_levels_summary(
              ws.levels, dac::InlReference::kBestFit);
          dac::detail::count_chip_eval();
          pass[static_cast<std::size_t>(chip)] = s.inl_max < j.limit ? 1 : 0;
        });
    run_threads = std::max(run_threads, rs.threads);
    total_evals += j.chips;
    std::int64_t passed = 0;
    for (std::uint8_t f : pass) passed += f;
    p.inl_yield = static_cast<double>(passed) / j.chips;
    p.inl_ci95 = mathx::wilson_half_width(passed, j.chips);

    // Timing MC on a distinct stream lane (per-architecture cell counts
    // differ, so timing draws cannot be shared across schemes).
    const arch::ArchSimulator sim(arr, j.timing, v_lsb);
    double sfdr_sum = 0.0, ete_sum = 0.0;
    for (int d = 0; d < j.dyn_chips; ++d) {
      mathx::Xoshiro256 rng = mathx::stream_rng(
          j.seed ^ 0x74696d696e67ULL,
          (static_cast<std::uint64_t>(a) << 32) |
              static_cast<std::uint64_t>(d));
      const arch::CellTiming t =
          arch::draw_cell_timing(arr.cells(), j.timing, rng);
      sfdr_sum += sim.spectrum(codes, t, j.cycles).sfdr_db;
      ete_sum +=
          arch::ete_predict(arr, t, v_lsb, j.timing.fs, codes, j.cycles)
              .sfdr_db;
    }
    p.sfdr_db = sfdr_sum / j.dyn_chips;
    p.ete_sfdr_db = ete_sum / j.dyn_chips;
    total_evals += j.dyn_chips;
    res.points.push_back(p);
  }
  if (stats) {
    stats->evaluated = total_evals;
    stats->threads = run_threads;
  }
  arch::arch_instruments().compare_runs.add(1);
  return res;
}

SpiceMcResult run(const SpiceMcJob& j, int threads, mathx::RunStats* stats) {
  j.spec.validate();
  if (j.chips < 1) throw std::invalid_argument("spice_mc job: chips < 1");
  if (!std::isfinite(j.sigma_scale) || j.sigma_scale < 0.0) {
    throw std::invalid_argument("spice_mc job: bad sigma_scale");
  }
  const core::CellSizer sizer(j.tech, j.spec);
  const core::SizedCell cell =
      j.cascode ? sizer.size_cascode(j.vod_cs, j.vod_sw, j.vod_cas)
                : sizer.size_basic(j.vod_cs, j.vod_sw);
  dacgen::SpiceMcOptions o;
  o.chips = j.chips;
  o.seed = j.seed;
  o.limit = j.limit;
  o.sigma_scale = j.sigma_scale;
  o.differential = j.differential;
  o.with_caps = j.with_caps;
  o.threads = threads;
  return dacgen::spice_mismatch_mc(j.spec, cell, j.tech, o, stats);
}

}  // namespace

JobValue execute_job(const Job& job, int threads, mathx::RunStats* stats) {
  return std::visit(
      [&](const auto& j) -> JobValue {
        static_assert(
            std::is_same_v<decltype(run(j, threads, stats)),
                           typename std::remove_cvref_t<decltype(j)>::Result>,
            "each kind's run() returns its declared Result");
        return run(j, threads, stats);
      },
      job);
}

}  // namespace csdac::runtime
