#include "serve/request.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "arch/weighting.hpp"
#include "core/accuracy.hpp"
#include "tech/tech.hpp"

namespace csdac::serve {

namespace {

[[noreturn]] void bad_job(const std::string& msg) {
  throw RequestError("bad_job", msg);
}

std::int64_t bounded_int(const runtime::JsonValue& job, std::string_view key,
                         std::int64_t def, std::int64_t lo, std::int64_t hi) {
  const std::int64_t v = job.int_or(key, def);
  if (v < lo || v > hi) {
    bad_job("'" + std::string(key) + "' out of range [" + std::to_string(lo) +
            ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// Range- and finiteness-checked number field. JSON cannot spell inf/nan
/// literally, but "1e999" parses to +inf — without this check such a value
/// sails through every one-sided comparison and asserts server-side
/// instead of answering a structured error.
double bounded_number(const runtime::JsonValue& job, std::string_view key,
                      double def, double lo, double hi) {
  const double v = job.number_or(key, def);
  if (!std::isfinite(v) || v < lo || v > hi) {
    bad_job("'" + std::string(key) + "' must be a finite number in [" +
            std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// Overrides each int/double member of `s` whose field-list name `obj`
/// carries; the others keep their values.
template <class T>
void read_fields(const runtime::JsonValue& obj, T& s) {
  runtime::fields(s, [&obj](const char* name, auto& x) {
    if constexpr (std::is_same_v<decltype(x), int&>) {
      x = static_cast<int>(obj.int_or(name, x));
    } else {
      x = obj.number_or(name, x);
    }
  });
}

core::DacSpec parse_spec(const runtime::JsonValue& job) {
  core::DacSpec spec;  // paper's 12-bit defaults
  if (const auto* s = job.find("spec")) {
    if (!s->is_object()) bad_job("'spec' must be an object");
    read_fields(*s, spec);
  }
  try {
    spec.validate();
  } catch (const std::exception& e) {
    bad_job(std::string("bad spec: ") + e.what());
  }
  return spec;
}

double parse_sigma(const runtime::JsonValue& job, const core::DacSpec& spec,
                   double def_mult) {
  if (const auto* abs = job.find("sigma_unit")) {
    if (!abs->is_number() || abs->num < 0) bad_job("bad sigma_unit");
    return abs->num;
  }
  const double mult = job.number_or("sigma_mult", def_mult);
  if (mult < 0) bad_job("bad sigma_mult");
  return mult * core::unit_sigma_spec(spec.nbits, spec.inl_yield);
}

core::GridAxis parse_axis(const runtime::JsonValue& job, const char* key) {
  core::GridAxis a;
  if (const auto* ax = job.find(key)) {
    if (!ax->is_object()) {
      bad_job(std::string("'") + key + "' must be an object");
    }
    read_fields(*ax, a);
  }
  if (a.steps < 1 || a.steps > kMaxAxisSteps || !(a.lo <= a.hi)) {
    bad_job(std::string("bad axis ") + key);
  }
  return a;
}

core::MarginPolicy parse_policy(const runtime::JsonValue& job) {
  const std::string p = job.string_or("policy", "statistical");
  if (p == "none") return core::MarginPolicy::kNone;
  if (p == "fixed") return core::MarginPolicy::kFixedMargin;
  if (p == "statistical") return core::MarginPolicy::kStatistical;
  bad_job("bad policy '" + p + "'");
}

dac::InlReference parse_ref(const runtime::JsonValue& job) {
  const std::string ref = job.string_or("ref", "bestfit");
  if (ref == "endpoint") return dac::InlReference::kEndpoint;
  if (ref == "bestfit") return dac::InlReference::kBestFit;
  bad_job("bad ref '" + ref + "'");
}

tech::MosTechParams parse_tech(const runtime::JsonValue& job) {
  const std::string t = job.string_or("tech", "generic_035um");
  if (t == "generic_035um") return tech::generic_035um().nmos;
  if (t == "generic_025um") return tech::generic_025um().nmos;
  bad_job("bad tech '" + t + "'");
}

/// Shared parse of the arch-job timing fields + record shape. The waveform
/// cost is n_samples * oversample points per chip, so both are capped and
/// their product is checked against the same ceiling as "spectrum".
arch::TimingParams parse_timing(const runtime::JsonValue& job,
                                int n_samples) {
  arch::TimingParams t;
  t.fs = bounded_number(job, "fs", t.fs, 1.0, 1e12);
  t.oversample =
      static_cast<int>(bounded_int(job, "oversample", t.oversample, 2, 256));
  t.tau = bounded_number(job, "tau", t.tau, 1e-15, 1.0);
  t.sigma_t = bounded_number(job, "sigma_t", 0.0, 0.0, 1.0);
  t.asym_sigma = bounded_number(job, "asym_sigma", 0.0, 0.0, 1.0);
  try {
    t.validate();  // cross-field rules (sigma vs period)
  } catch (const std::exception& e) {
    bad_job(std::string("bad timing params: ") + e.what());
  }
  if (static_cast<std::int64_t>(n_samples) * t.oversample > kMaxWavePoints) {
    bad_job("n_samples * oversample exceeds the waveform ceiling");
  }
  return t;
}

/// Record shape shared by dyn_spectrum / arch_compare: cycles must leave
/// the fundamental strictly inside the first Nyquist zone.
int parse_cycles(const runtime::JsonValue& job, int n_samples, int def) {
  return static_cast<int>(
      bounded_int(job, "cycles", def, 1, n_samples / 2 - 1));
}

arch::WeightingKind parse_scheme(const runtime::JsonValue& job) {
  const std::string s = job.string_or("scheme", "segmented");
  arch::WeightingKind kind;
  if (!arch::parse_weighting_kind(s, kind)) {
    bad_job("bad scheme '" + s + "'");
  }
  return kind;
}

// Per-kind field parsing and validation; parse_job has set j.spec.

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::InlYieldJob& j) {
  j.sigma_unit = parse_sigma(job, spec, 1.0);
  j.chips = static_cast<int>(bounded_int(job, "chips", 1000, 1, kMaxChips));
  j.seed = static_cast<std::uint64_t>(job.int_or("seed", 1000));
  j.limit = job.number_or("limit", 0.5);
  j.ref = parse_ref(job);
  j.adaptive = job.bool_or("adaptive", false);
  j.min_chips = static_cast<int>(
      bounded_int(job, "min_chips", j.min_chips, 1, kMaxChips));
  j.batch =
      static_cast<int>(bounded_int(job, "batch", j.batch, 1, kMaxChips));
  j.ci_half_width = job.number_or("ci_half_width", j.ci_half_width);
}

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::CalYieldJob& j) {
  j.sigma_unit = parse_sigma(job, spec, 1.0);
  j.cal.range_lsb = job.number_or("cal_range_lsb", j.cal.range_lsb);
  j.cal.bits = static_cast<int>(
      bounded_int(job, "cal_bits", j.cal.bits, 1, 24));
  j.cal.measure_noise_lsb =
      job.number_or("cal_noise_lsb", j.cal.measure_noise_lsb);
  j.chips = static_cast<int>(bounded_int(job, "chips", 1000, 1, kMaxChips));
  j.seed = static_cast<std::uint64_t>(job.int_or("seed", 1000));
  j.limit = job.number_or("limit", 0.5);
}

void parse(const runtime::JsonValue& job, const core::DacSpec& /*spec*/,
           runtime::SweepBasicJob& j) {
  j.tech = parse_tech(job);
  j.cs = parse_axis(job, "cs");
  j.sw = parse_axis(job, "sw");
  j.policy = parse_policy(job);
  j.fixed_margin = job.number_or("fixed_margin", j.fixed_margin);
}

void parse(const runtime::JsonValue& job, const core::DacSpec& /*spec*/,
           runtime::SweepCascodeJob& j) {
  j.tech = parse_tech(job);
  j.cs = parse_axis(job, "cs");
  j.sw = parse_axis(job, "sw");
  j.cas = parse_axis(job, "cas");
  j.policy = parse_policy(job);
  j.fixed_margin = job.number_or("fixed_margin", j.fixed_margin);
  const std::string agg = job.string_or("agg", "max");
  if (agg == "rss") j.agg = core::SigmaAggregation::kRss;
  else if (agg != "max") bad_job("bad agg '" + agg + "'");
}

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::SpectrumJob& j) {
  // Spectrum questions default to the mismatch-free converter; ask for
  // matching effects with sigma_mult/sigma_unit.
  j.sigma_unit = parse_sigma(job, spec, 0.0);
  j.seed = static_cast<std::uint64_t>(job.int_or("seed", 2003));
  j.dyn.fs = bounded_number(job, "fs", j.dyn.fs, 1.0, 1e12);
  j.dyn.oversample = static_cast<int>(
      bounded_int(job, "oversample", j.dyn.oversample, 2, 256));
  j.dyn.tau = bounded_number(job, "tau", j.dyn.tau, 1e-15, 1.0);
  j.dyn.rout_unit =
      bounded_number(job, "rout_unit", j.dyn.rout_unit, 1e-3, 1e18);
  j.dyn.binary_skew =
      bounded_number(job, "binary_skew", j.dyn.binary_skew, 0.0, 1.0);
  j.dyn.jitter_sigma =
      bounded_number(job, "jitter_sigma", j.dyn.jitter_sigma, 0.0, 1.0);
  j.dyn.feedthrough_lsb = bounded_number(job, "feedthrough_lsb",
                                         j.dyn.feedthrough_lsb, -1e3, 1e3);
  try {
    j.dyn.validate();  // cross-field rules (skew vs period, ...)
  } catch (const std::exception& e) {
    bad_job(std::string("bad dynamic params: ") + e.what());
  }
  j.n_samples = static_cast<int>(
      bounded_int(job, "n_samples", j.n_samples, 8, kMaxSamples));
  if (static_cast<std::int64_t>(j.n_samples) * j.dyn.oversample >
      kMaxWavePoints) {
    bad_job("n_samples * oversample exceeds the waveform ceiling");
  }
  j.cycles = static_cast<int>(
      bounded_int(job, "cycles", j.cycles, 1, kMaxSamples));
  j.differential = job.bool_or("differential", true);
}

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::InlYieldIsJob& j) {
  j.sigma_unit = parse_sigma(job, spec, 1.0);
  j.sigma_scale = job.number_or("sigma_scale", j.sigma_scale);
  if (!(j.sigma_scale >= 1.0 && j.sigma_scale <= kMaxSigmaScale)) {
    bad_job("'sigma_scale' out of range [1, 8]");
  }
  j.modes = static_cast<int>(bounded_int(job, "modes", j.modes, 1,
                                         kMaxIsModes));
  j.chips = static_cast<int>(bounded_int(job, "chips", 1000, 1, kMaxChips));
  j.seed = static_cast<std::uint64_t>(job.int_or("seed", 1000));
  j.limit = job.number_or("limit", 0.5);
  j.ref = parse_ref(job);
}

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::InlYieldStratJob& j) {
  j.sigma_unit = parse_sigma(job, spec, 1.0);
  j.strata =
      static_cast<int>(bounded_int(job, "strata", j.strata, 1, kMaxStrata));
  j.chips = static_cast<int>(bounded_int(job, "chips", 1000, 2, kMaxChips));
  if (j.chips / 2 < j.strata) bad_job("fewer chip pairs than strata");
  if (spec.num_unary() < 2) {
    bad_job("inl_yield_strat needs a thermometer segment (num_unary >= 2)");
  }
  j.seed = static_cast<std::uint64_t>(job.int_or("seed", 1000));
  j.limit = job.number_or("limit", 0.5);
  j.ref = parse_ref(job);
}

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::DynSpectrumJob& j) {
  if (spec.nbits > kMaxArchBits) {
    bad_job("dyn_spectrum supports nbits <= " +
            std::to_string(kMaxArchBits));
  }
  j.scheme = parse_scheme(job);
  j.scheme_param = static_cast<int>(
      bounded_int(job, "scheme_param", 0, 0, (1 << spec.nbits) - 1));
  if ((j.scheme == arch::WeightingKind::kBinary ||
       j.scheme == arch::WeightingKind::kUnary) &&
      j.scheme_param != 0) {
    bad_job("scheme_param only applies to segmented/optimized schemes");
  }
  if (j.scheme == arch::WeightingKind::kSegmented &&
      j.scheme_param >= spec.nbits) {
    bad_job("segmented scheme_param must be < nbits");
  }
  if (j.scheme == arch::WeightingKind::kOptimized &&
      j.scheme_param != 0 && j.scheme_param < spec.nbits) {
    bad_job("optimized scheme_param (cell budget) must be >= nbits");
  }
  j.n_samples = static_cast<int>(
      bounded_int(job, "n_samples", j.n_samples, 32, kMaxDynSamples));
  j.cycles = parse_cycles(job, j.n_samples, j.cycles);
  j.timing = parse_timing(job, j.n_samples);
  j.sfdr_limit_db =
      bounded_number(job, "sfdr_limit_db", j.sfdr_limit_db, 0.0, 200.0);
  j.chips =
      static_cast<int>(bounded_int(job, "chips", j.chips, 1, kMaxDynChips));
  j.seed = static_cast<std::uint64_t>(job.int_or("seed", 1000));
  j.adaptive = job.bool_or("adaptive", false);
  j.min_chips = static_cast<int>(
      bounded_int(job, "min_chips", j.min_chips, 1, kMaxDynChips));
  j.batch = static_cast<int>(
      bounded_int(job, "batch", j.batch, 1, kMaxDynChips));
  j.ci_half_width =
      bounded_number(job, "ci_half_width", j.ci_half_width, 0.0, 1.0);
}

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::ArchCompareJob& j) {
  if (spec.nbits > kMaxArchBits) {
    bad_job("arch_compare supports nbits <= " +
            std::to_string(kMaxArchBits));
  }
  j.sigma_unit = parse_sigma(job, spec, 1.0);
  j.n_samples = static_cast<int>(
      bounded_int(job, "n_samples", j.n_samples, 32, kMaxDynSamples));
  j.cycles = parse_cycles(job, j.n_samples, j.cycles);
  j.timing = parse_timing(job, j.n_samples);
  j.chips = static_cast<int>(
      bounded_int(job, "chips", j.chips, 1, kMaxArchChips));
  j.dyn_chips = static_cast<int>(
      bounded_int(job, "dyn_chips", j.dyn_chips, 1, 64));
  j.seed = static_cast<std::uint64_t>(job.int_or("seed", 1000));
  j.limit = bounded_number(job, "limit", j.limit, 1e-6, 1e3);
  j.seg_lo = static_cast<int>(
      bounded_int(job, "seg_lo", j.seg_lo, 1, spec.nbits - 1));
  j.seg_hi = static_cast<int>(
      bounded_int(job, "seg_hi", std::min(j.seg_hi, spec.nbits - 1), 1,
                  spec.nbits - 1));
  if (j.seg_hi < j.seg_lo) bad_job("seg_hi must be >= seg_lo");
  j.include_unary = job.bool_or("include_unary", false);
  if (j.include_unary && spec.nbits > 10) {
    bad_job("include_unary supports nbits <= 10 (cell count explodes)");
  }
  j.opt_cells = static_cast<int>(
      bounded_int(job, "opt_cells", 0, 0, (1 << spec.nbits) - 1));
  if (j.opt_cells != 0 && j.opt_cells < spec.nbits) {
    bad_job("opt_cells must be 0 (default) or >= nbits");
  }
}

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::SpiceMcJob& j) {
  if (spec.nbits > kMaxSpiceBits) {
    bad_job("spice_mc supports nbits <= " + std::to_string(kMaxSpiceBits));
  }
  j.tech = parse_tech(job);
  j.vod_cs = bounded_number(job, "vod_cs", j.vod_cs, 0.01, 2.0);
  j.vod_sw = bounded_number(job, "vod_sw", j.vod_sw, 0.01, 2.0);
  j.vod_cas = bounded_number(job, "vod_cas", j.vod_cas, 0.01, 2.0);
  j.cascode = job.bool_or("cascode", true);
  j.chips = static_cast<int>(
      bounded_int(job, "chips", j.chips, 1, kMaxSpiceChips));
  j.seed = static_cast<std::uint64_t>(job.int_or("seed", 1000));
  j.limit = bounded_number(job, "limit", j.limit, 1e-6, 1e3);
  j.sigma_scale =
      bounded_number(job, "sigma_scale", 1.0, 0.0, kMaxSigmaScale);
  j.differential = job.bool_or("differential", true);
  j.with_caps = job.bool_or("with_caps", false);
}

void parse(const runtime::JsonValue& job, const core::DacSpec& spec,
           runtime::InlYieldBridgeJob& j) {
  j.sigma_unit = parse_sigma(job, spec, 1.0);
  if (!(j.sigma_unit > 0.0)) bad_job("inl_yield_bridge needs sigma > 0");
  j.limit = job.number_or("limit", 0.5);
  if (!(j.limit > 0.0)) bad_job("inl_yield_bridge needs limit > 0");
}

}  // namespace

runtime::Job parse_job(const runtime::JsonValue& job) {
  if (!job.is_object()) bad_job("job entries must be objects");
  const std::string kind = job.string_or("kind", "");
  const core::DacSpec spec = parse_spec(job);

  // "dnl_yield" is inl_yield judged on max|DNL| instead of max|INL|.
  const bool dnl = kind == "dnl_yield";
  runtime::Job out;
  if (!runtime::job_from_name(dnl ? "inl_yield" : kind, out)) {
    bad_job("unknown job kind '" + kind + "'");
  }
  std::visit(
      [&](auto& j) {
        j.spec = spec;
        parse(job, spec, j);
      },
      out);
  if (dnl) std::get<runtime::InlYieldJob>(out).dnl = true;
  return out;
}

std::vector<RequestJob> parse_request(const runtime::JsonValue& request) {
  if (!request.is_object()) {
    throw RequestError("bad_request", "request must be a JSON object");
  }
  if (request.string_or("schema", "") != kRequestSchema) {
    throw RequestError("bad_schema", "request schema must be '" +
                                         std::string(kRequestSchema) + "'");
  }
  const auto* jobs = request.find("jobs");
  if (!jobs || !jobs->is_array() || jobs->arr.empty()) {
    throw RequestError("bad_request", "request has no jobs");
  }
  if (static_cast<std::int64_t>(jobs->arr.size()) > kMaxJobsPerRequest) {
    throw RequestError("bad_request",
                       "request exceeds " +
                           std::to_string(kMaxJobsPerRequest) + " jobs");
  }
  std::vector<RequestJob> out;
  out.reserve(jobs->arr.size());
  for (std::size_t i = 0; i < jobs->arr.size(); ++i) {
    RequestJob e;
    e.id = jobs->arr[i].is_object()
               ? jobs->arr[i].string_or("id", "job" + std::to_string(i))
               : "job" + std::to_string(i);
    e.job = parse_job(jobs->arr[i]);
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<RequestJob> parse_request_text(const std::string& text) {
  runtime::JsonValue request;
  std::string err;
  if (!runtime::parse_json(text, request, &err)) {
    throw RequestError("bad_json", err);
  }
  return parse_request(request);
}

}  // namespace csdac::serve
