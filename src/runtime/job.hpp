// Typed jobs of the runtime layer. A job is a pure, fully-specified unit
// of work: its result is determined by nothing but the fields serialized
// into its cache key (plus the engine version tag), and is bit-identical
// for any thread count — the property the whole caching design rests on,
// inherited from the mathx parallel engine's (seed, index) stream
// discipline. Thread count, cache location and trace settings are
// execution options and deliberately NOT part of the key.
//
// Every job kind is declared once, here: its struct carries the wire tag,
// the kind name and the result type, and one field list per struct (the
// `fields` overloads below) drives the cache key, the result codec, the
// flat reply JSON and the key-coverage test. A field list's order IS the
// wire order: reordering, inserting or removing an entry changes keys or
// payloads (tests/runtime/wire_golden_test.cpp pins both).
#pragma once

#include <concepts>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "arch/dyn_sim.hpp"
#include "arch/weighting.hpp"
#include "core/explorer.hpp"
#include "core/spec.hpp"
#include "dac/calibration.hpp"
#include "dac/dynamic.hpp"
#include "dac/rare_event.hpp"
#include "dac/static_analysis.hpp"
#include "dacgen/spice_mc.hpp"
#include "mathx/hash.hpp"
#include "mathx/parallel.hpp"
#include "tech/tech.hpp"

namespace csdac::runtime {

/// Version tag hashed into every cache key. Bump whenever ANY numeric
/// behavior of a job changes (kernel arithmetic, RNG streams, defaults
/// that leak into results): stale entries then miss naturally instead of
/// serving results the current code would not reproduce.
inline constexpr std::string_view kEngineVersion = "csdac-engine/1";

/// Wire tag of each kind, hashed into its keys. Tag N is alternative N - 1
/// of `Job` (checked below).
enum class JobKind : std::uint8_t {
  kInlYield = 1,
  kCalYield = 2,
  kSweepBasic = 3,
  kSweepCascode = 4,
  kSpectrum = 5,
  kInlYieldIs = 6,
  kInlYieldStrat = 7,
  kInlYieldBridge = 8,
  kDynSpectrum = 9,
  kArchCompare = 10,
  kSpiceMc = 11,
};

// --- Field lists -----------------------------------------------------------
//
// `fields(s, f)` calls f(name, member) for every wire-relevant member of
// `s` in wire order; S is T or const T, so one list serves readers and
// writers. Wire types follow the C++ type: int -> i32, int64_t -> i64,
// uint64_t -> u64, double -> f64, bool -> boolean, enums and uint8_t ->
// u8, nested structs recurse, std::vector -> u32 count + elements.

template <class S, class T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

// Shared parameter structs of the lower layers. Adding a field here
// (because it gained influence on results) is a key change for every job
// that embeds the struct, which is exactly right.

template <FieldsOf<core::DacSpec> S, class F>
void fields(S& s, F&& f) {
  f("nbits", s.nbits);
  f("binary_bits", s.binary_bits);
  f("vdd", s.vdd);
  f("v_swing", s.v_swing);
  f("v_out_min", s.v_out_min);
  f("r_load", s.r_load);
  f("c_load", s.c_load);
  f("c_int", s.c_int);
  f("inl_yield", s.inl_yield);
  f("r_load_tol", s.r_load_tol);
}

template <FieldsOf<tech::MosTechParams> S, class F>
void fields(S& s, F&& f) {
  f("type", s.type);
  f("kp", s.kp);
  f("vt0", s.vt0);
  f("lambda_l", s.lambda_l);
  f("gamma", s.gamma);
  f("phi_2f", s.phi_2f);
  f("cox", s.cox);
  f("cgso", s.cgso);
  f("cgdo", s.cgdo);
  f("cj", s.cj);
  f("cjsw", s.cjsw);
  f("l_diff", s.l_diff);
  f("a_vt", s.a_vt);
  f("a_beta", s.a_beta);
  f("l_min", s.l_min);
  f("w_min", s.w_min);
}

template <FieldsOf<core::GridAxis> S, class F>
void fields(S& s, F&& f) {
  f("lo", s.lo);
  f("hi", s.hi);
  f("steps", s.steps);
}

template <FieldsOf<dac::CalibrationOptions> S, class F>
void fields(S& s, F&& f) {
  f("range_lsb", s.range_lsb);
  f("bits", s.bits);
  f("measure_noise_lsb", s.measure_noise_lsb);
}

template <FieldsOf<dac::DynamicParams> S, class F>
void fields(S& s, F&& f) {
  f("fs", s.fs);
  f("oversample", s.oversample);
  f("tau", s.tau);
  f("rout_unit", s.rout_unit);
  f("binary_skew", s.binary_skew);
  f("jitter_sigma", s.jitter_sigma);
  f("feedthrough_lsb", s.feedthrough_lsb);
}

template <FieldsOf<arch::TimingParams> S, class F>
void fields(S& s, F&& f) {
  f("fs", s.fs);
  f("oversample", s.oversample);
  f("tau", s.tau);
  f("sigma_t", s.sigma_t);
  f("asym_sigma", s.asym_sigma);
}

template <FieldsOf<core::DesignPoint> S, class F>
void fields(S& s, F&& f) {
  f("vod_cs", s.vod_cs);
  f("vod_sw", s.vod_sw);
  f("vod_cas", s.vod_cas);
  f("feasible", s.feasible);
  f("margin", s.margin);
  f("area", s.area);
  f("f_min_hz", s.f_min_hz);
  f("t_settle_s", s.t_settle_s);
  f("rout_unit", s.rout_unit);
}

/// kSpiceMc reuses the runner's own result struct (fixed-width fields).
using SpiceMcResult = dacgen::SpiceMcResult;

template <FieldsOf<SpiceMcResult> S, class F>
void fields(S& s, F&& f) {
  f("chips", s.chips);
  f("pass", s.pass);
  f("yield", s.yield);
  f("ci95", s.ci95);
  f("inl_mean", s.inl_mean);
  f("inl_worst", s.inl_worst);
  f("newton_iters", s.newton_iters);
  f("factorizations", s.factorizations);
  f("refactorizations", s.refactorizations);
  f("warm_starts", s.warm_starts);
  f("warm_start_hits", s.warm_start_hits);
  f("device_evals", s.device_evals);
  f("warm_start_hit_rate", s.warm_start_hit_rate);
}

// --- Results ---------------------------------------------------------------
//
// A flat result's field names are also its reply JSON keys.

/// Payload schema version of result type R, the first byte of its cached
/// payload. A format change specializes it for that type alone, so only
/// that kind's entries miss (the reader rejects, the caller recomputes and
/// overwrites).
template <class R>
inline constexpr std::uint8_t kResultVersion = 1;

struct YieldResult {
  std::int64_t chips = 0;  ///< chips actually evaluated
  std::int64_t pass = 0;
  double yield = 0.0;
  double ci95 = 0.0;
};

template <FieldsOf<YieldResult> S, class F>
void fields(S& s, F&& f) {
  f("chips", s.chips);
  f("pass", s.pass);
  f("yield", s.yield);
  f("ci95", s.ci95);
}

struct CalYieldResult {
  std::int64_t chips = 0;
  double yield_before = 0.0;
  double yield_after = 0.0;
};

template <FieldsOf<CalYieldResult> S, class F>
void fields(S& s, F&& f) {
  f("chips", s.chips);
  f("yield_before", s.yield_before);
  f("yield_after", s.yield_after);
}

struct SweepResult {
  std::vector<core::DesignPoint> points;  ///< row-major over the axes
};

template <FieldsOf<SweepResult> S, class F>
void fields(S& s, F&& f) {
  f("points", s.points);
}

struct SpectrumSummary {
  double sfdr_db = 0.0;
  double sndr_db = 0.0;
  double thd_db = 0.0;
  double enob = 0.0;
};

template <FieldsOf<SpectrumSummary> S, class F>
void fields(S& s, F&& f) {
  f("sfdr_db", s.sfdr_db);
  f("sndr_db", s.sndr_db);
  f("thd_db", s.thd_db);
  f("enob", s.enob);
}

struct IsYieldResult {
  std::int64_t chips = 0;
  std::int64_t fails = 0;  ///< raw failures under the inflated proposal
  double yield = 0.0;      ///< 1 - self-normalized failure probability
  double ci95 = 0.0;       ///< delta-method 95 % half-width
  double ess = 0.0;
  double ess_fraction = 0.0;
  double log_weight_max = 0.0;
  double log_weight_min = 0.0;
  bool low_ess = false;  ///< ess_fraction below the trust threshold
};

template <FieldsOf<IsYieldResult> S, class F>
void fields(S& s, F&& f) {
  f("chips", s.chips);
  f("fails", s.fails);
  f("yield", s.yield);
  f("ci95", s.ci95);
  f("ess", s.ess);
  f("ess_fraction", s.ess_fraction);
  f("log_weight_max", s.log_weight_max);
  f("log_weight_min", s.log_weight_min);
  f("low_ess", s.low_ess);
}

struct StratYieldResult {
  std::int64_t chips = 0;
  std::int64_t pairs = 0;
  std::int32_t strata = 0;
  double yield = 0.0;
  double ci95 = 0.0;
};

template <FieldsOf<StratYieldResult> S, class F>
void fields(S& s, F&& f) {
  f("chips", s.chips);
  f("pairs", s.pairs);
  f("strata", s.strata);
  f("yield", s.yield);
  f("ci95", s.ci95);
}

struct BridgeYieldResult {
  double yield = 0.0;
  double c = 0.0;          ///< normalized excursion limit
  double sigma_inl = 0.0;  ///< bridge scale [LSB]
};

template <FieldsOf<BridgeYieldResult> S, class F>
void fields(S& s, F&& f) {
  f("yield", s.yield);
  f("c", s.c);
  f("sigma_inl", s.sigma_inl);
}

struct DynSpectrumResult {
  std::int64_t chips = 0;  ///< chips actually evaluated
  std::int64_t pass = 0;
  double yield = 0.0;
  double ci95 = 0.0;
  double sfdr_mean_db = 0.0;  ///< waveform-MC mean in-band SFDR
  double sfdr_min_db = 0.0;
  double sndr_mean_db = 0.0;
  double ete_sfdr_mean_db = 0.0;  ///< ETE-predicted mean SFDR (cross-check)
  std::int32_t cells = 0;         ///< resolved cell count of the weighting
};

template <FieldsOf<DynSpectrumResult> S, class F>
void fields(S& s, F&& f) {
  f("chips", s.chips);
  f("pass", s.pass);
  f("yield", s.yield);
  f("ci95", s.ci95);
  f("sfdr_mean_db", s.sfdr_mean_db);
  f("sfdr_min_db", s.sfdr_min_db);
  f("sndr_mean_db", s.sndr_mean_db);
  f("ete_sfdr_mean_db", s.ete_sfdr_mean_db);
  f("cells", s.cells);
}

struct ArchPoint {
  std::uint8_t scheme = 0;  ///< arch::WeightingKind
  std::int32_t param = 0;   ///< resolved split / cell budget
  std::int32_t cells = 0;
  double inl_yield = 0.0;
  double inl_ci95 = 0.0;
  double sfdr_db = 0.0;      ///< mean waveform-MC SFDR over dyn_chips
  double ete_sfdr_db = 0.0;  ///< mean ETE-predicted SFDR, same draws
  double activity = 0.0;     ///< timing-distortion proxy sum w^2 N
};

template <FieldsOf<ArchPoint> S, class F>
void fields(S& s, F&& f) {
  f("scheme", s.scheme);
  f("param", s.param);
  f("cells", s.cells);
  f("inl_yield", s.inl_yield);
  f("inl_ci95", s.inl_ci95);
  f("sfdr_db", s.sfdr_db);
  f("ete_sfdr_db", s.ete_sfdr_db);
  f("activity", s.activity);
}

struct ArchCompareResult {
  std::vector<ArchPoint> points;
};

template <FieldsOf<ArchCompareResult> S, class F>
void fields(S& s, F&& f) {
  f("points", s.points);
}

// --- Jobs ------------------------------------------------------------------

/// Monte-Carlo INL (or DNL) parametric yield. With `adaptive`, `chips` is
/// the hard cap and the Wilson-CI early-stopping rule decides the actual
/// count — still thread-count invariant, so still cacheable.
struct InlYieldJob {
  static constexpr JobKind kKind = JobKind::kInlYield;
  static constexpr std::string_view kName = "inl_yield";
  using Result = YieldResult;

  core::DacSpec spec;
  double sigma_unit = 0.0;
  int chips = 1000;
  std::uint64_t seed = 0;
  double limit = 0.5;  ///< pass limit [LSB]
  dac::InlReference ref = dac::InlReference::kBestFit;
  bool dnl = false;  ///< judge max|DNL| instead of max|INL| (best-fit ref)
  bool adaptive = false;
  int min_chips = 128;
  int batch = 128;
  double ci_half_width = 0.0;
};

template <FieldsOf<InlYieldJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("sigma_unit", s.sigma_unit);
  f("chips", s.chips);
  f("seed", s.seed);
  f("limit", s.limit);
  f("ref", s.ref);
  f("dnl", s.dnl);
  f("adaptive", s.adaptive);
  f("min_chips", s.min_chips);
  f("batch", s.batch);
  f("ci_half_width", s.ci_half_width);
}

/// Calibration-in-the-loop yield (pre/post trim).
struct CalYieldJob {
  static constexpr JobKind kKind = JobKind::kCalYield;
  static constexpr std::string_view kName = "cal_yield";
  using Result = CalYieldResult;

  core::DacSpec spec;
  double sigma_unit = 0.0;
  dac::CalibrationOptions cal;
  int chips = 1000;
  std::uint64_t seed = 0;
  double limit = 0.5;
};

template <FieldsOf<CalYieldJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("sigma_unit", s.sigma_unit);
  f("cal", s.cal);
  f("chips", s.chips);
  f("seed", s.seed);
  f("limit", s.limit);
}

/// Basic-cell design-space grid (row-major DesignPoint output).
struct SweepBasicJob {
  static constexpr JobKind kKind = JobKind::kSweepBasic;
  static constexpr std::string_view kName = "sweep_basic";
  using Result = SweepResult;

  core::DacSpec spec;
  tech::MosTechParams tech;
  core::GridAxis cs;
  core::GridAxis sw;
  core::MarginPolicy policy = core::MarginPolicy::kStatistical;
  double fixed_margin = 0.5;
};

template <FieldsOf<SweepBasicJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("tech", s.tech);
  f("cs", s.cs);
  f("sw", s.sw);
  f("policy", s.policy);
  f("fixed_margin", s.fixed_margin);
}

/// Cascode-cell design-space volume.
struct SweepCascodeJob {
  static constexpr JobKind kKind = JobKind::kSweepCascode;
  static constexpr std::string_view kName = "sweep_cascode";
  using Result = SweepResult;

  core::DacSpec spec;
  tech::MosTechParams tech;
  core::GridAxis cs;
  core::GridAxis sw;
  core::GridAxis cas;
  core::MarginPolicy policy = core::MarginPolicy::kStatistical;
  double fixed_margin = 0.5;
  core::SigmaAggregation agg = core::SigmaAggregation::kMax;
};

template <FieldsOf<SweepCascodeJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("tech", s.tech);
  f("cs", s.cs);
  f("sw", s.sw);
  f("cas", s.cas);
  f("policy", s.policy);
  f("fixed_margin", s.fixed_margin);
  f("agg", s.agg);
}

/// Behavioral-model spectrum of a coherent sine capture (Fig. 8 style):
/// one mismatch draw, dynamic waveform synthesis, DFT metrics.
struct SpectrumJob {
  static constexpr JobKind kKind = JobKind::kSpectrum;
  static constexpr std::string_view kName = "spectrum";
  using Result = SpectrumSummary;

  core::DacSpec spec;
  double sigma_unit = 0.0;  ///< 0 = ideal (mismatch-free) sources
  std::uint64_t seed = 0;   ///< mismatch stream (and jitter stream if any)
  dac::DynamicParams dyn;
  int n_samples = 1024;
  int cycles = 181;  ///< coprime with n_samples for coherent capture
  bool differential = true;
};

template <FieldsOf<SpectrumJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("sigma_unit", s.sigma_unit);
  f("seed", s.seed);
  f("dyn", s.dyn);
  f("n_samples", s.n_samples);
  f("cycles", s.cycles);
  f("differential", s.differential);
}

/// Importance-sampled INL yield (rare-event tail): the mismatch draw is
/// tilted along the first `modes` bridge modes by `sigma_scale` and each
/// chip reweighted by the exact likelihood ratio (dac::inl_yield_is).
struct InlYieldIsJob {
  static constexpr JobKind kKind = JobKind::kInlYieldIs;
  static constexpr std::string_view kName = "inl_yield_is";
  using Result = IsYieldResult;

  core::DacSpec spec;
  double sigma_unit = 0.0;
  double sigma_scale = 2.2;  ///< first-mode tilt, >= 1 (1 = plain MC)
  int modes = 8;             ///< tilted bridge modes, >= 1
  int chips = 1000;
  std::uint64_t seed = 0;
  double limit = 0.5;  ///< pass limit [LSB]
  dac::InlReference ref = dac::InlReference::kBestFit;
};

template <FieldsOf<InlYieldIsJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("sigma_unit", s.sigma_unit);
  f("sigma_scale", s.sigma_scale);
  f("modes", s.modes);
  f("chips", s.chips);
  f("seed", s.seed);
  f("limit", s.limit);
  f("ref", s.ref);
}

/// Stratified + antithetic INL yield (dac::inl_yield_stratified):
/// half-normal first-mode magnitude over `strata` equal-probability bins,
/// reflected within the bin for the antithetic pair member.
struct InlYieldStratJob {
  static constexpr JobKind kKind = JobKind::kInlYieldStrat;
  static constexpr std::string_view kName = "inl_yield_strat";
  using Result = StratYieldResult;

  core::DacSpec spec;
  double sigma_unit = 0.0;
  int strata = 16;
  int chips = 1000;  ///< rounded down to a whole number of pairs
  std::uint64_t seed = 0;
  double limit = 0.5;
  dac::InlReference ref = dac::InlReference::kBestFit;
};

template <FieldsOf<InlYieldStratJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("sigma_unit", s.sigma_unit);
  f("strata", s.strata);
  f("chips", s.chips);
  f("seed", s.seed);
  f("limit", s.limit);
  f("ref", s.ref);
}

/// Closed-form Brownian-bridge INL-excursion surrogate (no sampling;
/// dac::inl_yield_bridge). sigma_unit must be > 0.
struct InlYieldBridgeJob {
  static constexpr JobKind kKind = JobKind::kInlYieldBridge;
  static constexpr std::string_view kName = "inl_yield_bridge";
  using Result = BridgeYieldResult;

  core::DacSpec spec;
  double sigma_unit = 0.0;
  double limit = 0.5;
};

template <FieldsOf<InlYieldBridgeJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("sigma_unit", s.sigma_unit);
  f("limit", s.limit);
}

/// Mismatch-MC yield over the timing-limited SFDR of an arbitrary cell
/// weighting (arch::ArchSimulator): each chip draws per-cell skew and
/// rise/fall asymmetry from the (seed, chip) stream, synthesizes the
/// oversampled waveform, and passes when in-band SFDR >= sfdr_limit_db.
/// The ETE prediction runs on the same draws as a cross-check. With
/// `adaptive`, Wilson-CI early stopping as in InlYieldJob.
struct DynSpectrumJob {
  static constexpr JobKind kKind = JobKind::kDynSpectrum;
  static constexpr std::string_view kName = "dyn_spectrum";
  using Result = DynSpectrumResult;

  core::DacSpec spec;
  arch::WeightingKind scheme = arch::WeightingKind::kSegmented;
  /// Segmented: binary split (0 = spec default). Optimized: cell budget
  /// (0 = match the default segmented cell count). Binary/unary: must be 0.
  int scheme_param = 0;
  arch::TimingParams timing;
  int n_samples = 256;
  int cycles = 21;  ///< coprime with n_samples for coherent capture
  double sfdr_limit_db = 60.0;
  int chips = 32;
  std::uint64_t seed = 0;
  bool adaptive = false;
  int min_chips = 8;
  int batch = 8;
  double ci_half_width = 0.0;
};

template <FieldsOf<DynSpectrumJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("scheme", s.scheme);
  f("scheme_param", s.scheme_param);
  f("timing", s.timing);
  f("n_samples", s.n_samples);
  f("cycles", s.cycles);
  f("sfdr_limit_db", s.sfdr_limit_db);
  f("chips", s.chips);
  f("seed", s.seed);
  f("adaptive", s.adaptive);
  f("min_chips", s.min_chips);
  f("batch", s.batch);
  f("ci_half_width", s.ci_half_width);
}

/// Architecture-comparison sweep: binary, segmented splits in
/// [seg_lo, seg_hi], optionally unary, and the optimized weighting, each
/// reporting amplitude-INL yield (common-random-numbers unit pool shared
/// across architectures) and timing-limited SFDR side by side.
struct ArchCompareJob {
  static constexpr JobKind kKind = JobKind::kArchCompare;
  static constexpr std::string_view kName = "arch_compare";
  using Result = ArchCompareResult;

  core::DacSpec spec;
  double sigma_unit = 0.0;  ///< relative unit-current mismatch sigma
  arch::TimingParams timing;
  int n_samples = 256;
  int cycles = 21;
  int chips = 200;     ///< amplitude-INL MC chips per architecture
  int dyn_chips = 4;   ///< timing-MC waveform draws per architecture
  std::uint64_t seed = 0;
  double limit = 0.5;  ///< INL pass limit [LSB]
  int seg_lo = 2;
  int seg_hi = 6;
  bool include_unary = false;
  int opt_cells = 0;  ///< 0 = match the default segmented cell count
};

template <FieldsOf<ArchCompareJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("sigma_unit", s.sigma_unit);
  f("timing", s.timing);
  f("n_samples", s.n_samples);
  f("cycles", s.cycles);
  f("chips", s.chips);
  f("dyn_chips", s.dyn_chips);
  f("seed", s.seed);
  f("limit", s.limit);
  f("seg_lo", s.seg_lo);
  f("seg_hi", s.seg_hi);
  f("include_unary", s.include_unary);
  f("opt_cells", s.opt_cells);
}

/// SPICE-in-the-loop mismatch MC (dacgen::spice_mismatch_mc): each corner
/// perturbs every transistor of the netlist-level DAC with Pelgrom
/// Vth/beta draws from the (seed, corner) stream and judges max|INL| on
/// MNA-solved transfer functions. The unit cell is sized inside the job
/// from (spec, tech, vod_*), so the job stays fully value-specified.
struct SpiceMcJob {
  static constexpr JobKind kKind = JobKind::kSpiceMc;
  static constexpr std::string_view kName = "spice_mc";
  using Result = SpiceMcResult;

  core::DacSpec spec;
  tech::MosTechParams tech;
  double vod_cs = 0.25;
  double vod_sw = 0.2;
  double vod_cas = 0.2;  ///< ignored when cascode = false
  bool cascode = true;
  int chips = 16;  ///< Monte-Carlo corners
  std::uint64_t seed = 0;
  double limit = 0.5;        ///< max|INL| pass limit [LSB]
  double sigma_scale = 1.0;  ///< scales the Pelgrom sigmas
  bool differential = true;
  bool with_caps = false;
};

template <FieldsOf<SpiceMcJob> S, class F>
void fields(S& s, F&& f) {
  f("spec", s.spec);
  f("tech", s.tech);
  f("vod_cs", s.vod_cs);
  f("vod_sw", s.vod_sw);
  f("vod_cas", s.vod_cas);
  f("cascode", s.cascode);
  f("chips", s.chips);
  f("seed", s.seed);
  f("limit", s.limit);
  f("sigma_scale", s.sigma_scale);
  f("differential", s.differential);
  f("with_caps", s.with_caps);
}

/// True for every struct with a field list (the codec recurses into these).
template <class T>
concept HasFields = requires(T& t) { fields(t, [](const char*, auto&) {}); };

using Job = std::variant<InlYieldJob, CalYieldJob, SweepBasicJob,
                         SweepCascodeJob, SpectrumJob, InlYieldIsJob,
                         InlYieldStratJob, InlYieldBridgeJob, DynSpectrumJob,
                         ArchCompareJob, SpiceMcJob>;

static_assert(
    []<std::size_t... I>(std::index_sequence<I...>) {
      return ((std::variant_alternative_t<I, Job>::kKind ==
               static_cast<JobKind>(I + 1)) &&
              ...);
    }(std::make_index_sequence<std::variant_size_v<Job>>{}),
    "Job alternative I must carry wire tag I + 1: the tags are hashed into "
    "every cache key");

inline JobKind job_kind(const Job& job) {
  return static_cast<JobKind>(job.index() + 1);
}

std::string_view kind_name(JobKind kind);

/// Default-constructed job of the kind called `name` (a kind_name value);
/// false when no kind has that name.
bool job_from_name(std::string_view name, Job& out);

using JobValue =
    std::variant<YieldResult, CalYieldResult, SweepResult, SpectrumSummary,
                 IsYieldResult, StratYieldResult, BridgeYieldResult,
                 DynSpectrumResult, ArchCompareResult, SpiceMcResult>;

// --- Key and result codec --------------------------------------------------

/// Appends the canonical input bytes (engine version, kind tag, every
/// result-determining parameter in field-list order) to `w`.
void canonical_inputs(const Job& job, mathx::ByteWriter& w);

/// The job's cache key: hash128 of canonical_inputs.
mathx::HashKey128 job_key(const Job& job);

/// Result payload codec (the cache adds its own corruption framing).
void encode_value(const JobValue& value, mathx::ByteWriter& w);

/// Strict decode for `kind`; false on any mismatch (schema drift, trailing
/// bytes) — the caller then recomputes.
bool decode_value(JobKind kind, mathx::ByteReader& r, JobValue& out);

/// Executes the job fresh on `threads` engine workers (0 = hardware
/// concurrency). Fills `stats` with the engine run record when non-null.
JobValue execute_job(const Job& job, int threads, mathx::RunStats* stats);

}  // namespace csdac::runtime
