// End-to-end request tracing: client-supplied trace ids are echoed in the
// reply and land in the flight recorder; server-minted ids fill the gap
// when the client sends none; oversized ids are rejected as bad_request;
// every successful job carries the per-stage latency attribution record
// (and a warm hot-cache hit attributes zero compute, a dedup joiner only
// its wait); trace ids survive a concurrent multi-client storm without
// cross-talk; and a shutdown
// arriving mid-batch still leaves the flight ring and the metrics
// registry dumpable (the regression behind `csdac_serve`'s exit flush).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/json.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/server.hpp"

namespace csdac::serve {
namespace {

/// Server on an ephemeral loopback port, RAM-only cache tiers. Skips the
/// suite when the sandbox forbids binding sockets.
struct ServerFixture {
  std::unique_ptr<Server> server;
  std::string skip_reason;

  ServerFixture() {
    ServerOptions o;
    o.sched.workers = 2;
    o.sched.exec.hot_bytes = 1 << 20;
    try {
      server = std::make_unique<Server>(o);
      server->start();
    } catch (const std::exception& e) {
      skip_reason = e.what();
    }
  }
  ~ServerFixture() {
    if (server) server->stop();
  }

  Client connect() {
    Client c;
    std::string err;
    EXPECT_TRUE(c.connect("127.0.0.1", server->port(), &err)) << err;
    return c;
  }
};

#define REQUIRE_SERVER(fx)                             \
  if (!(fx).server) {                                  \
    GTEST_SKIP() << "cannot run a loopback server: " + \
                        (fx).skip_reason;              \
  }

runtime::JsonValue parse_reply(const std::string& reply) {
  runtime::JsonValue doc;
  std::string err;
  EXPECT_TRUE(runtime::parse_json(reply, doc, &err)) << err << ": " << reply;
  return doc;
}

std::string error_code(const runtime::JsonValue& doc) {
  const auto* error = doc.find("error");
  return error ? error->string_or("code", "") : "";
}

std::string traced_request(const std::string& trace_id, int seed,
                           int chips = 40) {
  std::string req = "{\"schema\":\"csdac-request/1\"";
  if (!trace_id.empty()) req += ",\"trace_id\":\"" + trace_id + "\"";
  req += ",\"jobs\":[{\"id\":\"j\",\"kind\":\"inl_yield\",\"chips\":" +
         std::to_string(chips) + ",\"seed\":" + std::to_string(seed) +
         "}]}";
  return req;
}

constexpr const char* kStageFields[] = {
    "admission_us", "queue_us",     "hot_us",   "disk_us",
    "compute_us",   "store_us",     "serialize_us"};

/// The reply's per-job stage record: every field present, non-negative,
/// and total_us equal to the sum (the invariant csdac-ctl relies on).
const runtime::JsonValue* check_stages(const runtime::JsonValue& doc) {
  const auto* jobs = doc.find("jobs");
  EXPECT_TRUE(jobs && jobs->is_array() && !jobs->arr.empty());
  if (!jobs || !jobs->is_array() || jobs->arr.empty()) return nullptr;
  const auto* stages = jobs->arr[0].find("stages");
  EXPECT_TRUE(stages && stages->is_object());
  if (!stages || !stages->is_object()) return nullptr;
  long long sum = 0;
  for (const char* field : kStageFields) {
    const long long v = stages->int_or(field, -1);
    EXPECT_GE(v, 0) << field;
    sum += v;
  }
  EXPECT_EQ(stages->int_or("total_us", -1), sum);
  return stages;
}

TEST(Tracing, ClientTraceIdIsEchoedWithStages) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(traced_request("t-echo-1", 101), reply),
            FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_EQ(error_code(doc), "");
  EXPECT_EQ(doc.string_or("schema", ""), kResponseSchema);
  EXPECT_EQ(doc.string_or("trace_id", ""), "t-echo-1");
  check_stages(doc);
}

TEST(Tracing, ServerMintsTraceIdWhenClientSendsNone) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(traced_request("", 102), reply), FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_EQ(error_code(doc), "");
  const std::string minted = doc.string_or("trace_id", "");
  EXPECT_EQ(minted.rfind("sv-", 0), 0u) << minted;
  EXPECT_LE(minted.size(), kMaxTraceIdBytes);
}

TEST(Tracing, OversizedTraceIdIsRejectedAndConnectionServes) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  const std::string huge(kMaxTraceIdBytes + 1, 'x');
  ASSERT_EQ(c.call(traced_request(huge, 103), reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "bad_request");
  // A maximum-length id is fine, and the connection still serves.
  const std::string max_id(kMaxTraceIdBytes, 'y');
  ASSERT_EQ(c.call(traced_request(max_id, 103), reply), FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_EQ(error_code(doc), "");
  EXPECT_EQ(doc.string_or("trace_id", ""), max_id);
}

TEST(Tracing, WarmHitAttributesZeroCompute) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(traced_request("t-cold", 104), reply), FrameStatus::kOk);
  // Keep the parsed reply alive: check_stages points into it.
  const runtime::JsonValue cold_doc = parse_reply(reply);
  const auto* cold = check_stages(cold_doc);
  ASSERT_NE(cold, nullptr);
  EXPECT_GT(cold->int_or("compute_us", -1), 0);
  // Same job again: the hot tier answers, so no compute time is spent —
  // but the stage record is still present with the zero attributed.
  ASSERT_EQ(c.call(traced_request("t-warm", 104), reply), FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_EQ(doc.string_or("trace_id", ""), "t-warm");
  const auto* warm = check_stages(doc);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->int_or("compute_us", -1), 0);
}

TEST(Tracing, DedupJoinerBooksItsWaitNotTheSharedCompute) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  // Two identical jobs in one request: the second joins the first one's
  // in-flight execution (the job runs long enough that the join is
  // certain), so one compute serves both.
  const std::string job =
      "{\"kind\":\"inl_yield\",\"chips\":3000,\"seed\":105}";
  const std::string req = "{\"schema\":\"csdac-request/1\",\"jobs\":[" +
                          job + "," + job + "]}";
  std::string reply;
  ASSERT_EQ(c.call(req, reply), FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  ASSERT_EQ(error_code(doc), "");
  const auto* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->int_or("deduped", -1), 1);
  const double wall_us = summary->number_or("wall_s", 0.0) * 1e6;
  const auto* jobs = doc.find("jobs");
  ASSERT_TRUE(jobs && jobs->is_array() && jobs->arr.size() == 2u);
  long long compute_sum = 0, owner_compute = -1;
  for (const runtime::JsonValue& j : jobs->arr) {
    const auto* stages = j.find("stages");
    ASSERT_TRUE(stages && stages->is_object());
    const long long total = stages->int_or("total_us", -1);
    EXPECT_GE(total, 0);
    EXPECT_LE(static_cast<double>(total), wall_us);
    compute_sum += stages->int_or("compute_us", -1);
    if (j.bool_or("deduped", false)) {
      for (const char* stage : {"hot_us", "disk_us", "compute_us",
                                "store_us"}) {
        EXPECT_EQ(stages->int_or(stage, -1), 0) << stage;
      }
    } else {
      owner_compute = stages->int_or("compute_us", -1);
    }
  }
  EXPECT_GT(owner_compute, 0);
  EXPECT_EQ(compute_sum, owner_compute) << "one execution, counted once";
}

TEST(Tracing, ConcurrentStormKeepsTraceIdsStraight) {
  // Collect every span the storm emits: each trace id must appear on
  // the serve, scheduler, AND executor spans — the id propagated
  // through the whole stack, across the worker pool.
  obs::SpanCollector spans;
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  obs::Tracer::global().add_sink(&spans);
  constexpr int kThreads = 6;
  constexpr int kRequests = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&fx, &mismatches, t] {
      Client c = fx.connect();
      std::string reply;
      for (int i = 0; i < kRequests; ++i) {
        const std::string id =
            "st-" + std::to_string(t) + "-" + std::to_string(i);
        // Unique seed per (thread, request): distinct jobs, so the
        // scheduler's single-flight dedup never merges two trace ids.
        const int seed = 1000 + t * kRequests + i;
        if (c.call(traced_request(id, seed, 20), reply) !=
            FrameStatus::kOk) {
          ++mismatches;
          continue;
        }
        const runtime::JsonValue doc = parse_reply(reply);
        if (doc.string_or("trace_id", "") != id ||
            !error_code(doc).empty()) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  obs::Tracer::global().remove_sink(&spans);
  EXPECT_EQ(mismatches.load(), 0);

  // Every request also left a kRequest event with its trace id in the
  // process-wide flight ring (recorded unconditionally, no sink needed).
  std::set<std::string> seen;
  for (const obs::FlightEvent& ev : obs::FlightRecorder::global().snapshot()) {
    if (ev.kind == obs::FlightEventKind::kRequest) {
      seen.emplace(ev.trace_view());
    }
  }
  // And each id must tag the serve, scheduler, and executor spans: the
  // layer names that carried it, collected across all worker threads.
  std::set<std::pair<std::string, std::string>> by_layer;
  for (const obs::SpanRecord& s : spans.take()) {
    for (const auto& [k, v] : s.attrs) {
      if (k == "trace_id") by_layer.emplace(s.name, v);
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRequests; ++i) {
      const std::string id =
          "st-" + std::to_string(t) + "-" + std::to_string(i);
      EXPECT_TRUE(seen.count(id)) << id << " missing from flight ring";
      for (const char* layer : {"serve.request", "sched.job", "exec.job"}) {
        EXPECT_TRUE(by_layer.count({layer, id}))
            << id << " missing from " << layer << " span";
      }
    }
  }
}

TEST(Tracing, ShutdownMidBatchLeavesRecorderAndMetricsDumpable) {
  auto fx = std::make_unique<ServerFixture>();
  REQUIRE_SERVER(*fx);
  // A batch big enough to still be in flight when shutdown lands.
  std::string batch = "{\"schema\":\"csdac-request/1\","
                      "\"trace_id\":\"t-shutdown\",\"jobs\":[";
  for (int j = 0; j < 6; ++j) {
    if (j) batch += ',';
    batch += "{\"id\":\"b" + std::to_string(j) +
             "\",\"kind\":\"inl_yield\",\"chips\":400,\"seed\":" +
             std::to_string(2000 + j) + "}";
  }
  batch += "]}";

  Client worker = fx->connect();
  ASSERT_TRUE(worker.send(batch));
  Client ctl = fx->connect();
  std::string reply;
  ASSERT_EQ(ctl.call("{\"schema\":\"csdac-ctl/1\",\"cmd\":\"shutdown\"}",
                     reply),
            FrameStatus::kOk);
  EXPECT_TRUE(parse_reply(reply).bool_or("ok", false));
  fx->server->wait();
  fx->server->stop();
  fx.reset();  // destructor path: what csdac_serve runs before its flush

  // The flush sequence the tool performs after stop() must still work:
  // the ring snapshots into valid Chrome-trace JSON and the registry
  // still renders an exposition.
  const std::string trace =
      obs::FlightRecorder::global().chrome_trace_json();
  runtime::JsonValue doc;
  std::string err;
  ASSERT_TRUE(runtime::parse_json(trace, doc, &err)) << err;
  const auto* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->is_array());
  EXPECT_FALSE(events->arr.empty());
  EXPECT_NE(obs::Registry::global().snapshot().to_prometheus().find(
                "csdac_serve_requests_total"),
            std::string::npos);
}

}  // namespace
}  // namespace csdac::serve
