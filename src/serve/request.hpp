// Shared request parsing for the design service ("csdac-request/1"):
// one parser used by BOTH the batch front end (tools/csdac_serve on a
// file) and the network server (src/serve/server.*, on frames from
// untrusted sockets). Every schema violation throws RequestError with a
// stable machine-readable code, so the server can answer a structured
// error frame and keep serving — nothing in here calls exit().
//
// Because the network path feeds this parser hostile bytes, all count-like
// fields are clamped against explicit ceilings (kMax*) before they can
// size an allocation or a Monte-Carlo loop.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/job.hpp"
#include "runtime/json.hpp"

namespace csdac::serve {

inline constexpr std::string_view kRequestSchema = "csdac-request/1";

// Abuse ceilings for count-like request fields. Generous for real use
// (the paper's studies run ~1e3 chips and 40-step axes) but small enough
// that a hostile request cannot size an unbounded allocation or loop.
inline constexpr std::int64_t kMaxJobsPerRequest = 4096;
/// Client-supplied trace ids are capped so they embed whole in the
/// fixed-size flight-recorder events (kFlightTraceBytes minus the NUL).
inline constexpr std::size_t kMaxTraceIdBytes = 39;
inline constexpr std::int64_t kMaxChips = 10'000'000;
inline constexpr std::int64_t kMaxAxisSteps = 2048;
inline constexpr std::int64_t kMaxSamples = 1 << 22;
inline constexpr std::int64_t kMaxStrata = 4096;
inline constexpr std::int64_t kMaxIsModes = 64;
inline constexpr double kMaxSigmaScale = 8.0;
// Arch jobs synthesize oversampled waveforms (n_samples * oversample
// points each), so their ceilings are much tighter than the static MC's.
inline constexpr std::int64_t kMaxDynChips = 4096;
inline constexpr std::int64_t kMaxArchChips = 10'000;
inline constexpr std::int64_t kMaxDynSamples = 1 << 14;
inline constexpr std::int64_t kMaxWavePoints = 1 << 20;
inline constexpr std::int64_t kMaxArchBits = 14;
// SPICE-in-the-loop MC solves 2^nbits MNA systems per corner, so both the
// resolution and the corner count get much tighter ceilings than the
// behavioral MC paths.
inline constexpr std::int64_t kMaxSpiceBits = 8;
inline constexpr std::int64_t kMaxSpiceChips = 64;

/// Request-level failure with a stable error code for the wire protocol:
/// "bad_json", "bad_schema", "bad_request" (request envelope), or
/// "bad_job" (a job object's kind/fields/spec).
class RequestError : public std::runtime_error {
 public:
  RequestError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// One entry of a parsed request, in request order (duplicates NOT folded
/// here — dedup is batch mode's / the scheduler's job).
struct RequestJob {
  std::string id;  ///< caller's "id", or "jobN" by position
  runtime::Job job;
};

/// Parses a single job object. Throws RequestError("bad_job", ...).
runtime::Job parse_job(const runtime::JsonValue& job);

/// Validates the envelope (schema tag, jobs array) and parses every job.
std::vector<RequestJob> parse_request(const runtime::JsonValue& request);

/// parse_json + parse_request; throws RequestError("bad_json", ...) on
/// malformed text.
std::vector<RequestJob> parse_request_text(const std::string& text);

}  // namespace csdac::serve
