// Golden pins of the three wire formats every job kind speaks, and the
// strict result decoder's behavior on hostile bytes:
//
//  * cache keys: job_key(parse_job(request)).hex() for a minimal request
//    (parse defaults flow into the key) and a request that sets every
//    field, per kind plus the dnl_yield alias;
//  * result payloads: encode_value bytes of a result filled with distinct
//    non-zero values, and that decode_value reads them back to the same
//    bytes;
//  * reply JSON: the emit_result text of that same result.
//
// A change to any pinned string means on-disk caches written by an older
// build stop hitting (keys, payloads) or clients see a different reply
// shape (JSON): such a change must bump kEngineVersion or the kind's
// result version byte, never happen by accident.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mathx/alloc_counter.hpp"
#include "runtime/job.hpp"
#include "runtime/json.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace csdac::runtime {
namespace {

std::string to_hex(const std::vector<unsigned char>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (unsigned char b : bytes) {
    s += digits[b >> 4];
    s += digits[b & 15];
  }
  return s;
}

std::vector<unsigned char> from_hex(const std::string& hex) {
  std::vector<unsigned char> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<unsigned char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// --- Cache keys ------------------------------------------------------------

struct KeyCase {
  const char* name;
  const char* request;  ///< one job object
  const char* key_hex;
};

const KeyCase kKeyCases[] = {
    {"inl_yield/defaults", R"({"kind":"inl_yield"})",
     "dd3e5af4be8aee9c057e8a062ffdaa60"},
    {"inl_yield/full",
     R"({"kind":"inl_yield","spec":{"nbits":10,"binary_bits":3,"vdd":3.0,
         "v_swing":0.8,"v_out_min":1.1,"r_load":40,"c_load":3e-12,
         "c_int":1.5e-13,"inl_yield":0.99,"r_load_tol":0.02},
         "sigma_unit":0.004,"chips":700,"seed":77,"limit":0.45,
         "ref":"endpoint","adaptive":true,"min_chips":64,"batch":32,
         "ci_half_width":0.01})",
     "6767884e75d0adf053f03708031756a6"},
    {"dnl_yield/alias",
     R"({"kind":"dnl_yield","sigma_mult":1.2,"chips":500,"seed":5})",
     "f8c25ea73baccf56ec782f333c4a5df6"},
    {"cal_yield/defaults", R"({"kind":"cal_yield"})", "bfc92d6e7086c150724561160999f0f6"},
    {"cal_yield/full",
     R"({"kind":"cal_yield","spec":{"nbits":10,"binary_bits":4},
         "sigma_mult":1.5,"cal_range_lsb":3.0,"cal_bits":5,
         "cal_noise_lsb":0.02,"chips":300,"seed":9,"limit":0.4})",
     "0b7af534cdf6513a19903a91ecf650c5"},
    {"sweep_basic/defaults", R"({"kind":"sweep_basic"})", "5bb07f0456edd2871e2c7378a2b98659"},
    {"sweep_basic/full",
     R"({"kind":"sweep_basic","spec":{"nbits":10},"tech":"generic_025um",
         "cs":{"lo":0.1,"hi":0.8,"steps":7},
         "sw":{"lo":0.15,"hi":0.6,"steps":5},"policy":"fixed",
         "fixed_margin":0.3})",
     "39be85c8bb39580f8d0f597cd1a17acd"},
    {"sweep_cascode/defaults", R"({"kind":"sweep_cascode"})", "a7e97c71f0ef02ca5c960ba8c27ba49f"},
    {"sweep_cascode/full",
     R"({"kind":"sweep_cascode","spec":{"nbits":10},"tech":"generic_025um",
         "cs":{"lo":0.1,"hi":0.8,"steps":7},
         "sw":{"lo":0.15,"hi":0.6,"steps":5},
         "cas":{"lo":0.12,"hi":0.5,"steps":3},"policy":"none",
         "fixed_margin":0.35,"agg":"rss"})",
     "0ec9fff9dfc58981dc5fdcd7234b4fb1"},
    {"spectrum/defaults", R"({"kind":"spectrum"})", "dbb19d0a751f757a3e55f634fed1366c"},
    {"spectrum/full",
     R"({"kind":"spectrum","spec":{"nbits":10,"binary_bits":3},
         "sigma_mult":0.5,"seed":31,"fs":200e6,"oversample":8,
         "tau":0.3e-9,"rout_unit":1e9,"binary_skew":1e-11,
         "jitter_sigma":2e-12,"feedthrough_lsb":0.05,"n_samples":512,
         "cycles":37,"differential":false})",
     "61c1af02d61ffbeaa588edda3beef97a"},
    {"inl_yield_is/defaults", R"({"kind":"inl_yield_is"})", "b6a004ca36dc8d4e21fd214d7eb1b386"},
    {"inl_yield_is/full",
     R"({"kind":"inl_yield_is","spec":{"nbits":10},"sigma_unit":0.003,
         "sigma_scale":2.5,"modes":6,"chips":900,"seed":41,"limit":0.55,
         "ref":"endpoint"})",
     "c5ced19b68ae43f3b074c8a1648ce196"},
    {"inl_yield_strat/defaults", R"({"kind":"inl_yield_strat"})", "6272730f8a189ee1dac296721869650e"},
    {"inl_yield_strat/full",
     R"({"kind":"inl_yield_strat","spec":{"nbits":10},"sigma_unit":0.003,
         "strata":8,"chips":400,"seed":43,"limit":0.6,"ref":"endpoint"})",
     "4053c7476dd27e4112c468103f49251b"},
    {"inl_yield_bridge/defaults", R"({"kind":"inl_yield_bridge"})", "acd48c4b344024690be3dafae29ced2c"},
    {"inl_yield_bridge/full",
     R"({"kind":"inl_yield_bridge","spec":{"nbits":10},"sigma_unit":0.002,
         "limit":0.7})",
     "97e7ea92cb223707b9382ead9fe5507b"},
    {"dyn_spectrum/defaults", R"({"kind":"dyn_spectrum"})", "61ace7e82ebc8e80766f82ec619237ed"},
    {"dyn_spectrum/full",
     R"({"kind":"dyn_spectrum","spec":{"nbits":8,"binary_bits":3},
         "scheme":"optimized","scheme_param":20,"n_samples":128,
         "cycles":13,"fs":250e6,"oversample":12,"tau":0.2e-9,
         "sigma_t":3e-12,"asym_sigma":4e-12,"sfdr_limit_db":55,"chips":24,
         "seed":47,"adaptive":true,"min_chips":4,"batch":6,
         "ci_half_width":0.05})",
     "efb68c89b0b0f3b72256fc2e71d82d76"},
    {"arch_compare/defaults", R"({"kind":"arch_compare"})", "ab9eb4e2b82e56e6ea2c7e52fa496e3f"},
    {"arch_compare/full",
     R"({"kind":"arch_compare","spec":{"nbits":8,"binary_bits":3},
         "sigma_unit":0.01,"n_samples":128,"cycles":11,"fs":250e6,
         "oversample":12,"tau":0.2e-9,"sigma_t":3e-12,"asym_sigma":1e-12,
         "chips":150,"dyn_chips":3,"seed":53,"limit":0.45,"seg_lo":2,
         "seg_hi":5,"include_unary":true,"opt_cells":30})",
     "256c8dca92e6dd3708b6f0efdd7b3eb3"},
    {"spice_mc/minimal",
     R"({"kind":"spice_mc","spec":{"nbits":6,"binary_bits":3}})", "af4052e9354c85d63deebe6486b3ce56"},
    {"spice_mc/full",
     R"({"kind":"spice_mc","spec":{"nbits":5,"binary_bits":2},
         "tech":"generic_025um","vod_cs":0.3,"vod_sw":0.25,"vod_cas":0.22,
         "cascode":false,"chips":7,"seed":59,"limit":0.4,
         "sigma_scale":1.5,"differential":false,"with_caps":true})",
     "d239a262388547f233dfe8f8a1a65fec"},
};

TEST(WireGolden, JobKeysOfFixedRequests) {
  for (const KeyCase& c : kKeyCases) {
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parse_json(c.request, v, &err)) << c.name << ": " << err;
    EXPECT_EQ(job_key(serve::parse_job(v)).hex(), c.key_hex) << c.name;
  }
}

// --- Result payloads and reply JSON -----------------------------------------

struct ValueCase {
  const char* name;
  JobKind kind;
  JobValue value;
  const char* bytes_hex;
  const char* json;
};

core::DesignPoint design_point(double base, bool feasible) {
  core::DesignPoint p;
  p.vod_cs = base + 0.125;
  p.vod_sw = base + 0.25;
  p.vod_cas = base + 0.375;
  p.feasible = feasible;
  p.margin = base + 0.5;
  p.area = base * 1e-9 + 3e-12;
  p.f_min_hz = (base + 1.0) * 1e8;
  p.t_settle_s = base * 1e-9 + 2.5e-10;
  p.rout_unit = base * 1e6 + 7.5e5;
  return p;
}

ArchPoint arch_point(arch::WeightingKind scheme, int base) {
  ArchPoint p;
  p.scheme = static_cast<std::uint8_t>(scheme);
  p.param = base + 1;
  p.cells = base + 2;
  p.inl_yield = 0.5 + 0.0625 * base;
  p.inl_ci95 = 0.015625 * (base + 1);
  p.sfdr_db = 60.5 + base;
  p.ete_sfdr_db = 61.75 + base;
  p.activity = 1234.5 + base;
  return p;
}

std::vector<ValueCase> value_cases() {
  std::vector<ValueCase> cases;

  YieldResult y;
  y.chips = 1001;
  y.pass = 997;
  y.yield = 0.99600399600399603;
  y.ci95 = 0.00390625;
  cases.push_back({"inl_yield", JobKind::kInlYield, y,
       "01e903000000000000e50300000000000023b8b0c543dfef3f00000000000070"
       "3f",
       R"({"result":{"chips":1001,"pass":997,"yield":0.99600399600399603,"ci95":0.00390625}})"});

  CalYieldResult cal;
  cal.chips = 503;
  cal.yield_before = 0.75;
  cal.yield_after = 0.9921875;
  cases.push_back({"cal_yield", JobKind::kCalYield, cal,
       "01f701000000000000000000000000e83f0000000000c0ef3f",
       R"({"result":{"chips":503,"yield_before":0.75,"yield_after":0.9921875}})"});

  SweepResult basic;
  basic.points = {design_point(1.0, true), design_point(2.0, false),
                  design_point(3.0, true)};
  cases.push_back(
      {"sweep_basic", JobKind::kSweepBasic, basic,
       "0103000000000000000000f23f000000000000f43f000000000000f63f010000"
       "00000000f83f05b9479b3d3b113e0000000084d7a7413a8c30e28e79153e0000"
       "0000f0b33a410000000000000140000000000000024000000000000003400000"
       "00000000000440cd47b7c1a434213e00000000a3e1b14168b12b65cd53233e00"
       "00000018fb444100000000000009400000000000000a400000000000000b4001"
       "0000000000000c4018b3cab5aacb293e0000000084d7b741b31c3f59d3ea2b3e"
       "00000000389c4c41",
       R"({"result":{"points":3,"feasible":2,"best_min_area":{"vod_cs":1.125,"vod_sw":1.25,"vod_cas":1.375,"area_m2":1.0030000000000002e-09,"f_min_hz":200000000,"t_settle_s":1.25e-09},"best_max_speed":{"vod_cs":3.125,"vod_sw":3.25,"vod_cas":3.375,"area_m2":3.0030000000000005e-09,"f_min_hz":400000000,"t_settle_s":3.2500000000000006e-09}}})"});

  SweepResult cascode;
  cascode.points = {design_point(4.0, true), design_point(0.5, true)};
  cases.push_back(
      {"sweep_cascode", JobKind::kSweepCascode, cascode,
       "0102000000000000000080104000000000000011400000000000801140010000"
       "000000001240310fef545831313e0000000065cdbd41fe43a9a6ec40323e0000"
       "0000ac1e5241000000000000e43f000000000000e83f000000000000ec3f0100"
       "0000000000f03f749b684e6f48013e00000000a3e1a141e0413adc11c5093e00"
       "000000d0123341",
       R"({"result":{"points":2,"feasible":2,"best_min_area":{"vod_cs":0.625,"vod_sw":0.75,"vod_cas":0.875,"area_m2":5.0300000000000002e-10,"f_min_hz":150000000,"t_settle_s":7.500000000000001e-10},"best_max_speed":{"vod_cs":4.125,"vod_sw":4.25,"vod_cas":4.375,"area_m2":4.0030000000000003e-09,"f_min_hz":500000000,"t_settle_s":4.25e-09}}})"});

  SpectrumSummary spec;
  spec.sfdr_db = 71.25;
  spec.sndr_db = 62.5;
  spec.thd_db = -68.75;
  spec.enob = 10.0625;
  cases.push_back({"spectrum", JobKind::kSpectrum, spec,
       "010000000000d051400000000000404f4000000000003051c000000000002024"
       "40",
       R"({"result":{"sfdr_db":71.25,"sndr_db":62.5,"thd_db":-68.75,"enob":10.0625}})"});

  IsYieldResult is;
  is.chips = 4000;
  is.fails = 37;
  is.yield = 0.99993896484375;
  is.ci95 = 1.52587890625e-05;
  is.ess = 812.5;
  is.ess_fraction = 0.203125;
  is.log_weight_max = 3.375;
  is.log_weight_min = -9.625;
  is.low_ess = true;
  cases.push_back({"inl_yield_is", JobKind::kInlYieldIs, is,
       "01a00f00000000000025000000000000000000000080ffef3f000000000000f0"
       "3e0000000000648940000000000000ca3f0000000000000b4000000000004023"
       "c001",
       R"({"result":{"chips":4000,"fails":37,"yield":0.99993896484375,"ci95":1.52587890625e-05,"ess":812.5,"ess_fraction":0.203125,"log_weight_max":3.375,"log_weight_min":-9.625,"low_ess":true}})"});

  StratYieldResult strat;
  strat.chips = 1024;
  strat.pairs = 512;
  strat.strata = 16;
  strat.yield = 0.998046875;
  strat.ci95 = 0.001953125;
  cases.push_back(
      {"inl_yield_strat", JobKind::kInlYieldStrat, strat,
       "0100040000000000000002000000000000100000000000000000f0ef3f000000"
       "000000603f",
       R"({"result":{"chips":1024,"pairs":512,"strata":16,"yield":0.998046875,"ci95":0.001953125}})"});

  BridgeYieldResult bridge;
  bridge.yield = 0.9970703125;
  bridge.c = 2.96875;
  bridge.sigma_inl = 0.16845703125;
  cases.push_back(
      {"inl_yield_bridge", JobKind::kInlYieldBridge, bridge,
       "010000000000e8ef3f0000000000c00740000000000090c53f",
       R"({"result":{"yield":0.9970703125,"c":2.96875,"sigma_inl":0.16845703125}})"});

  DynSpectrumResult dyn;
  dyn.chips = 48;
  dyn.pass = 45;
  dyn.yield = 0.9375;
  dyn.ci95 = 0.0703125;
  dyn.sfdr_mean_db = 66.25;
  dyn.sfdr_min_db = 58.5;
  dyn.sndr_mean_db = 59.75;
  dyn.ete_sfdr_mean_db = 65.125;
  dyn.cells = 19;
  cases.push_back(
      {"dyn_spectrum", JobKind::kDynSpectrum, dyn,
       "0130000000000000002d00000000000000000000000000ee3f000000000000b2"
       "3f00000000009050400000000000404d400000000000e04d4000000000004850"
       "4013000000",
       R"({"result":{"chips":48,"pass":45,"yield":0.9375,"ci95":0.0703125,"sfdr_mean_db":66.25,"sfdr_min_db":58.5,"sndr_mean_db":59.75,"ete_sfdr_mean_db":65.125,"cells":19}})"});

  ArchCompareResult arch_res;
  arch_res.points = {arch_point(arch::WeightingKind::kBinary, 0),
                     arch_point(arch::WeightingKind::kSegmented, 3),
                     arch_point(arch::WeightingKind::kOptimized, 5)};
  cases.push_back(
      {"arch_compare", JobKind::kArchCompare, arch_res,
       "0103000000010100000002000000000000000000e03f000000000000903f0000"
       "000000404e400000000000e04e4000000000004a934003040000000500000000"
       "0000000000e63f000000000000b03f0000000000c04f40000000000030504000"
       "00000000569340040600000007000000000000000000ea3f000000000000b83f"
       "00000000006050400000000000b0504000000000005e9340",
       R"({"result":{"points":3,"architectures":[{"scheme":"binary","param":1,"cells":2,"inl_yield":0.5,"inl_ci95":0.015625,"sfdr_db":60.5,"ete_sfdr_db":61.75,"activity":1234.5},{"scheme":"segmented","param":4,"cells":5,"inl_yield":0.6875,"inl_ci95":0.0625,"sfdr_db":63.5,"ete_sfdr_db":64.75,"activity":1237.5},{"scheme":"optimized","param":6,"cells":7,"inl_yield":0.8125,"inl_ci95":0.09375,"sfdr_db":65.5,"ete_sfdr_db":66.75,"activity":1239.5}]}})"});

  SpiceMcResult sp;
  sp.chips = 16;
  sp.pass = 13;
  sp.yield = 0.8125;
  sp.ci95 = 0.1796875;
  sp.inl_mean = 0.28125;
  sp.inl_worst = 0.6171875;
  sp.newton_iters = 1348;
  sp.factorizations = 211;
  sp.refactorizations = 97;
  sp.warm_starts = 496;
  sp.warm_start_hits = 451;
  sp.device_evals = 88213;
  sp.warm_start_hit_rate = 0.90625;
  cases.push_back({"spice_mc", JobKind::kSpiceMc, sp,
       "0110000000000000000d00000000000000000000000000ea3f000000000000c7"
       "3f000000000000d23f0000000000c0e33f4405000000000000d3000000000000"
       "006100000000000000f001000000000000c30100000000000095580100000000"
       "00000000000000ed3f",
       R"({"result":{"chips":16,"pass":13,"yield":0.8125,"ci95":0.1796875,"inl_mean":0.28125,"inl_worst":0.6171875,"solver":{"newton_iters":1348,"factorizations":211,"refactorizations":97,"warm_starts":496,"warm_start_hits":451,"device_evals":88213,"warm_start_hit_rate":0.90625}}})"});
  return cases;
}

std::vector<unsigned char> encode(const JobValue& v) {
  mathx::ByteWriter w;
  encode_value(v, w);
  return w.data();
}

TEST(WireGolden, ResultPayloadBytes) {
  for (const ValueCase& c : value_cases()) {
    const std::vector<unsigned char> bytes = encode(c.value);
    EXPECT_EQ(to_hex(bytes), c.bytes_hex) << c.name;
    // The pinned bytes decode under the kind's tag and re-encode to
    // themselves: the decoder reads exactly what the encoder writes.
    const std::vector<unsigned char> golden = from_hex(c.bytes_hex);
    mathx::ByteReader r(golden);
    JobValue out;
    ASSERT_TRUE(decode_value(c.kind, r, out)) << c.name;
    EXPECT_EQ(to_hex(encode(out)), c.bytes_hex) << c.name;
  }
}

TEST(WireGolden, ReplyResultJson) {
  for (const ValueCase& c : value_cases()) {
    bench::JsonWriter w;
    w.begin_object();
    serve::emit_result(w, c.value);
    w.end_object();
    EXPECT_EQ(w.str(), c.json) << c.name;
  }
}

// --- Hostile bytes -----------------------------------------------------------

/// Decodes `bytes` as `kind`, asserting the decoder neither accepts them
/// nor allocates more than a small multiple of their size.
void expect_rejected(JobKind kind, const std::vector<unsigned char>& bytes,
                     const std::string& what) {
  mathx::ByteReader r(bytes);
  JobValue out;
  bool accepted = false;
  std::int64_t allocated = 0;
  {
    mathx::ScopedAllocCounting counting;
    accepted = decode_value(kind, r, out);
    allocated = counting.so_far().bytes;
  }
  EXPECT_FALSE(accepted) << what;
  EXPECT_LE(allocated, static_cast<std::int64_t>(4096 + 8 * bytes.size()))
      << what;
}

/// Every kind's golden payload, each truncation of it, one trailing byte,
/// a wrong version byte and (for the vector-carrying kinds) a vector count
/// of 0xFFFFFFFF must all make the strict decoder return false without
/// sizing an allocation from the hostile count.
TEST(WireGolden, HostileBytesAreRejectedForEveryKind) {
  for (const ValueCase& c : value_cases()) {
    const std::vector<unsigned char> golden = from_hex(c.bytes_hex);
    ASSERT_FALSE(golden.empty()) << c.name;
    for (std::size_t n = 0; n < golden.size(); ++n) {
      expect_rejected(
          c.kind,
          std::vector<unsigned char>(golden.begin(), golden.begin() + n),
          std::string(c.name) + " truncated to " + std::to_string(n));
    }
    std::vector<unsigned char> trailing = golden;
    trailing.push_back(0);
    expect_rejected(c.kind, trailing, std::string(c.name) + " trailing");

    std::vector<unsigned char> version = golden;
    version[0] = static_cast<unsigned char>(version[0] + 1);
    expect_rejected(c.kind, version, std::string(c.name) + " version");

    if (std::holds_alternative<SweepResult>(c.value) ||
        std::holds_alternative<ArchCompareResult>(c.value)) {
      // Byte 0 is the version; the u32 element count follows.
      std::vector<unsigned char> count = golden;
      for (std::size_t i = 1; i < 5; ++i) count[i] = 0xFF;
      expect_rejected(c.kind, count, std::string(c.name) + " count");
    }
  }
}


}  // namespace
}  // namespace csdac::runtime
