// Statistical validation of the rare-event yield estimators (importance
// sampling, stratified+antithetic, Brownian-bridge surrogate):
//
//  * agreement — IS and stratified estimates of a mid-yield 8-bit failure
//    probability must land within 3x the combined 95% CI of a much larger
//    brute-force run (unbiasedness, not luck: every budget is fixed-seed);
//  * variance — at the deep-tail operating point the antithetic pairs
//    must beat plain MC variance on the same budget, measured across 40
//    fixed-seed replicates, and importance sampling must need >= 50x
//    fewer chips than brute force at the 12-bit 99.99 %-yield tail;
//  * diagnostics — a deliberately over-inflated proposal must trip the
//    low-ESS flag, the production tilt must not;
//  * determinism — bit-identical results for thread counts {1, 2, 7} and
//    every forced SIMD backend, plus a checked-in fixed-seed golden
//    (tools/gen_golden_static rare) pinning the exact stream derivation;
//  * bridge — Kolmogorov CDF/quantile against published table values
//    (Smirnov 1948), and yield monotone in sigma and in the INL spec.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/spec.hpp"
#include "dac/rare_event.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/rare_event.hpp"
#include "mathx/simd.hpp"

namespace csdac::dac {
namespace {

#include "golden_rare_8bit.inc"

constexpr double kTol = 1e-12;

core::DacSpec spec8() {
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  return spec;
}

IsYieldEstimate golden_is(int threads) {
  return inl_yield_is(spec8(), kGoldenRareSigmaUnit, kGoldenRareSigmaScale,
                      kGoldenRareModes, kGoldenRareChips, kGoldenRareSeed,
                      0.5, InlReference::kBestFit, threads);
}

StratYieldEstimate golden_strat(int threads) {
  return inl_yield_stratified(spec8(), kGoldenRareSigmaUnit,
                              kGoldenRareStrata, kGoldenRareChips,
                              kGoldenRareSeed, 0.5, InlReference::kBestFit,
                              threads);
}

// Restores the dispatch choice a test forced.
struct BackendGuard {
  mathx::SimdBackend saved = mathx::simd_backend();
  ~BackendGuard() { mathx::simd_force_backend(saved); }
};

TEST(GoldenRare, ImportanceSamplingMatchesCheckedIn) {
  const auto is = golden_is(1);
  EXPECT_EQ(is.chips, kGoldenRareChips);
  EXPECT_EQ(is.fails, kGoldenRareIsFails);
  EXPECT_NEAR(is.yield, kGoldenRareIsYield, kTol);
  EXPECT_NEAR(is.ci95, kGoldenRareIsCi95, kTol);
  EXPECT_NEAR(is.ess, kGoldenRareIsEss, kTol * kGoldenRareIsEss);
  EXPECT_NEAR(is.log_weight_max, kGoldenRareIsLogWMax, kTol);
  EXPECT_NEAR(is.log_weight_min, kGoldenRareIsLogWMin, kTol);
  EXPECT_FALSE(is.low_ess);
}

TEST(GoldenRare, StratifiedMatchesCheckedIn) {
  const auto st = golden_strat(1);
  EXPECT_EQ(st.pairs, kGoldenRareStratPairs);
  EXPECT_EQ(st.strata, kGoldenRareStrata);
  EXPECT_NEAR(st.yield, kGoldenRareStratYield, kTol);
  EXPECT_NEAR(st.ci95, kGoldenRareStratCi95, kTol);
}

TEST(GoldenRare, BridgeMatchesCheckedIn) {
  const auto br = inl_yield_bridge(spec8(), kGoldenRareSigmaUnit, 0.5);
  EXPECT_NEAR(br.yield, kGoldenRareBridgeYield, kTol);
  EXPECT_NEAR(br.c, kGoldenRareBridgeC, kTol);
  EXPECT_NEAR(br.sigma_inl, kGoldenRareBridgeSigmaInl, kTol);
  EXPECT_NEAR(mathx::kolmogorov_quantile(0.9999), kGoldenRareC9999, kTol);
}

TEST(RareDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto is1 = golden_is(1);
  const auto st1 = golden_strat(1);
  for (int threads : {2, 7}) {
    const auto is = golden_is(threads);
    EXPECT_EQ(is.fails, is1.fails) << threads << " threads";
    EXPECT_EQ(is.yield, is1.yield) << threads << " threads";
    EXPECT_EQ(is.ci95, is1.ci95) << threads << " threads";
    EXPECT_EQ(is.ess, is1.ess) << threads << " threads";
    EXPECT_EQ(is.log_weight_max, is1.log_weight_max) << threads;
    EXPECT_EQ(is.log_weight_min, is1.log_weight_min) << threads;
    const auto st = golden_strat(threads);
    EXPECT_EQ(st.yield, st1.yield) << threads << " threads";
    EXPECT_EQ(st.ci95, st1.ci95) << threads << " threads";
  }
}

TEST(RareDeterminism, BitIdenticalAcrossSimdBackends) {
  BackendGuard guard;
  const mathx::SimdBackend widest = guard.saved;
  mathx::simd_force_backend(mathx::SimdBackend::kScalar);
  const auto is1 = golden_is(3);
  const auto st1 = golden_strat(3);
  for (mathx::SimdBackend b :
       {mathx::SimdBackend::kSse2, mathx::SimdBackend::kAvx2}) {
    if (b > widest) continue;  // this CPU cannot run the wider kernels
    mathx::simd_force_backend(b);
    const auto is = golden_is(3);
    EXPECT_EQ(is.yield, is1.yield) << mathx::simd_backend_name(b);
    EXPECT_EQ(is.ci95, is1.ci95) << mathx::simd_backend_name(b);
    EXPECT_EQ(is.ess, is1.ess) << mathx::simd_backend_name(b);
    const auto st = golden_strat(3);
    EXPECT_EQ(st.yield, st1.yield) << mathx::simd_backend_name(b);
    EXPECT_EQ(st.ci95, st1.ci95) << mathx::simd_backend_name(b);
  }
}

// Mid-yield case where brute force still resolves the failure probability
// (p ~ 0.4%): the reweighted and stratified estimates must agree with a
// 5x larger brute-force run within 3x the combined CI. Different seeds on
// purpose — the estimators must agree through their CIs, not by sharing
// streams.
TEST(RareAgreement, EstimatorsMatchBruteForceWithinCombinedCi) {
  const core::DacSpec spec = spec8();
  const double sigma = kGoldenRareSigmaUnit;
  const auto bf = inl_yield_mc(spec, sigma, 20000, 11, 0.5,
                               InlReference::kBestFit, 0);
  const auto is = inl_yield_is(spec, sigma, 2.2, 8, 4000, 12, 0.5,
                               InlReference::kBestFit, 0);
  const auto st = inl_yield_stratified(spec, sigma, 16, 4000, 13, 0.5,
                                       InlReference::kBestFit, 0);
  const double p_bf = 1.0 - bf.yield;
  ASSERT_GT(p_bf, 0.0) << "brute force saw no failures — case too deep";
  EXPECT_FALSE(is.low_ess);
  EXPECT_LE(std::fabs((1.0 - is.yield) - p_bf),
            3.0 * std::hypot(is.ci95, bf.ci95))
      << "IS p = " << 1.0 - is.yield << " vs brute force " << p_bf;
  EXPECT_LE(std::fabs((1.0 - st.yield) - p_bf),
            3.0 * std::hypot(st.ci95, bf.ci95))
      << "stratified p = " << 1.0 - st.yield << " vs brute force " << p_bf;
}

// At the deep-tail operating point the failure indicator is driven by the
// first bridge mode, which is exactly what the antithetic reflection
// anticorrelates: across 40 fixed-seed replicates the stratified
// estimator's spread must be below plain MC on the same 512-chip budget.
// (At mid-yield the shared non-first-mode draw correlates the pair
// members positively and the advantage disappears — that regime belongs
// to plain MC or IS, as the docs say.)
TEST(RareVariance, AntitheticBeatsPlainMcOnTheSameBudget) {
  const core::DacSpec spec = spec8();
  const double sigma = kGoldenRareSigmaUnit;
  const int kReplicates = 40;
  const int kBudget = 512;
  double s = 0, s2 = 0, m = 0, m2 = 0;
  for (int r = 0; r < kReplicates; ++r) {
    const auto st = inl_yield_stratified(spec, sigma, 2, kBudget, 100 + r,
                                         0.5, InlReference::kBestFit, 1);
    const auto mc = inl_yield_mc(spec, sigma, kBudget, 5000 + r, 0.5,
                                 InlReference::kBestFit, 1);
    s += st.yield;
    s2 += st.yield * st.yield;
    m += mc.yield;
    m2 += mc.yield * mc.yield;
  }
  const double var_strat = (s2 - s * s / kReplicates) / (kReplicates - 1);
  const double var_mc = (m2 - m * m / kReplicates) / (kReplicates - 1);
  EXPECT_GT(var_mc, 0.0);
  EXPECT_LE(var_strat, var_mc)
      << "antithetic variance " << var_strat << " vs plain MC " << var_mc;
}

// At the paper's 12-bit array with sigma calibrated from the bridge
// surrogate to a 99.99 % yield (failure rate ~1e-4 by construction), the
// production tilt must see the tail, agree with the surrogate, and need
// >= 50x fewer chips than brute force for the same CI. Brute force needs
// no run: its per-chip variance is the Bernoulli p(1 - p).
TEST(RareVariance, ImportanceSamplingCutsTailChipsFiftyfold) {
  const core::DacSpec spec;  // 12-bit, b = 4
  const double sigma =
      0.5 / (mathx::kolmogorov_quantile(0.9999) *
             std::sqrt(spec.unary_weight() *
                       static_cast<double>(spec.num_unary())));
  const auto is = inl_yield_is(spec, sigma, 2.2, 8, 4000, 7, 0.5,
                               InlReference::kEndpoint, 2);
  const auto bridge = inl_yield_bridge(spec, sigma, 0.5);
  EXPECT_GT(is.fails, 0) << "the tilt saw no tail";
  EXPECT_FALSE(is.low_ess);
  const double p = 1.0 - is.yield;
  ASSERT_GT(p, 0.0);
  EXPECT_LE(std::fabs(p - (1.0 - bridge.yield)), 10.0 * is.ci95 + 2e-5)
      << "IS " << p << " vs bridge " << 1.0 - bridge.yield;
  const double z95 = 1.959963984540054;
  const double var_is =
      (is.ci95 / z95) * (is.ci95 / z95) * static_cast<double>(is.chips);
  EXPECT_GE(p * (1.0 - p) / var_is, 50.0);
}

// The ESS diagnostics exist to catch the classic high-dimension IS
// failure: inflate too much, and a handful of huge weights carry the
// whole estimate. The production tilt must stay comfortably above the
// trust threshold; a deliberately over-inflated proposal must trip it.
TEST(RareEss, OverInflatedProposalTripsTheFlag) {
  const core::DacSpec spec = spec8();
  const auto sane = inl_yield_is(spec, kGoldenRareSigmaUnit, 2.2, 8, 2000,
                                 4242, 0.5, InlReference::kBestFit, 1);
  EXPECT_FALSE(sane.low_ess);
  EXPECT_GT(sane.ess_fraction, kEssTrustFraction);
  const auto inflated = inl_yield_is(spec, kGoldenRareSigmaUnit, 8.0, 30,
                                     2000, 4242, 0.5,
                                     InlReference::kBestFit, 1);
  EXPECT_TRUE(inflated.low_ess);
  EXPECT_LT(inflated.ess_fraction, kEssTrustFraction);
  EXPECT_LT(inflated.ess_fraction, sane.ess_fraction);
}

// Smirnov's table of the Kolmogorov law (the bridge max-excursion
// distribution the surrogate is built on): K(0.82757) = 0.5 etc. The
// implementation must reproduce the tabulated quantiles to 1e-4 and
// invert its own CDF.
TEST(RareBridge, KolmogorovCdfMatchesTabulatedValues) {
  const struct {
    double x, p;
  } kTable[] = {{0.82757, 0.50}, {1.22385, 0.90}, {1.35810, 0.95},
                {1.62762, 0.99}};
  for (const auto& row : kTable) {
    EXPECT_NEAR(mathx::kolmogorov_cdf(row.x), row.p, 1e-4) << "x = " << row.x;
    EXPECT_NEAR(mathx::kolmogorov_quantile(row.p), row.x, 1e-4)
        << "p = " << row.p;
  }
  EXPECT_NEAR(mathx::kolmogorov_cdf(mathx::kolmogorov_quantile(0.9999)),
              0.9999, 1e-10);
  EXPECT_EQ(mathx::kolmogorov_cdf(0.0), 0.0);
  EXPECT_NEAR(mathx::kolmogorov_cdf(10.0), 1.0, 1e-15);
}

TEST(RareBridge, SurrogateHitsTabulatedYieldAtCalibratedSigma) {
  const core::DacSpec spec = spec8();
  // Choose sigma so the normalized limit c lands exactly on a tabulated
  // quantile; the surrogate yield must then be the tabulated probability.
  const double denom =
      std::sqrt(spec.unary_weight() * static_cast<double>(spec.num_unary()));
  for (const auto& [x, p] : {std::pair{1.22385, 0.90},
                             std::pair{1.62762, 0.99}}) {
    const auto br = inl_yield_bridge(spec, 0.5 / (x * denom), 0.5);
    EXPECT_NEAR(br.c, x, 1e-12);
    EXPECT_NEAR(br.yield, p, 1e-4) << "c = " << x;
  }
}

TEST(RareBridge, YieldMonotoneInSigmaAndSpec) {
  const core::DacSpec spec = spec8();
  // Base sigma keeps the normalized limit c below ~3.2 everywhere: past
  // c ~ 4.5 the Kolmogorov cdf rounds to exactly 1.0 in double precision
  // and strict monotonicity has nothing left to distinguish.
  double prev = 1.0;
  for (double mult : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double y = inl_yield_bridge(spec, mult * 0.02, 0.5).yield;
    EXPECT_LT(y, prev) << "sigma mult " << mult;
    EXPECT_GT(y, 0.0);
    prev = y;
  }
  prev = 0.0;
  for (double limit : {0.25, 0.5, 1.0, 2.0}) {
    const double y = inl_yield_bridge(spec, 0.02, limit).yield;
    EXPECT_GT(y, prev) << "limit " << limit;
    prev = y;
  }
}

TEST(RareArguments, InvalidInputsThrow) {
  const core::DacSpec spec = spec8();
  EXPECT_THROW(inl_yield_is(spec, 0.01, 0.5, 8, 100, 1), std::invalid_argument);
  EXPECT_THROW(inl_yield_is(spec, 0.01, 2.0, 0, 100, 1),
               std::invalid_argument);
  EXPECT_THROW(inl_yield_is(spec, 0.01, 2.0, 8, 0, 1), std::invalid_argument);
  EXPECT_THROW(inl_yield_is(spec, -0.01, 2.0, 8, 100, 1),
               std::invalid_argument);
  EXPECT_THROW(inl_yield_stratified(spec, 0.01, 0, 100, 1),
               std::invalid_argument);
  EXPECT_THROW(inl_yield_stratified(spec, 0.01, 4, 1, 1),
               std::invalid_argument);
  EXPECT_THROW(inl_yield_stratified(spec, 0.01, 100, 100, 1),
               std::invalid_argument);
  EXPECT_THROW(inl_yield_bridge(spec, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(inl_yield_bridge(spec, 0.01, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace csdac::dac
