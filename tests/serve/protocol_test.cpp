// Protocol-robustness tests for the network server: well-formed requests
// round-trip; malformed payloads (bad JSON, wrong schema, bad jobs, the
// hostile-input corpus under tests/serve/corpus/) get structured error
// frames on a connection that stays open; framing violations (bad magic,
// oversized frames, truncation, mid-request disconnects) drop only that
// connection while the server keeps serving everyone else. Seeded
// mutations of the corpus and of the tools/ sample requests either parse
// or throw RequestError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/json.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/server.hpp"

namespace csdac::serve {
namespace {

namespace fs = std::filesystem;

constexpr const char* kGoodRequest =
    "{\"schema\":\"csdac-request/1\",\"jobs\":[{\"id\":\"q\","
    "\"kind\":\"inl_yield\",\"chips\":40,\"seed\":42}]}";

/// Server on an ephemeral loopback port, RAM-only cache tiers. Skips the
/// suite when the sandbox forbids binding sockets.
struct ServerFixture {
  std::unique_ptr<Server> server;
  std::string skip_reason;

  explicit ServerFixture(std::uint32_t max_frame = kDefaultMaxFrameBytes) {
    ServerOptions o;
    o.max_frame_bytes = max_frame;
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

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Protocol, GoodRequestRoundTrips) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_EQ(doc.string_or("schema", ""), kResponseSchema);
  EXPECT_EQ(error_code(doc), "");
  const auto* jobs = doc.find("jobs");
  ASSERT_TRUE(jobs && jobs->is_array());
  ASSERT_EQ(jobs->arr.size(), 1u);
  EXPECT_EQ(jobs->arr[0].string_or("id", ""), "q");
  const auto* result = jobs->arr[0].find("result");
  ASSERT_TRUE(result);
  const double yield = result->number_or("yield", -1.0);
  EXPECT_GE(yield, 0.0);
  EXPECT_LE(yield, 1.0);
}

TEST(Protocol, PayloadErrorsKeepTheConnectionServing) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  const struct {
    const char* payload;
    const char* code;
  } cases[] = {
      {"{not json", "bad_json"},
      {"{\"schema\":\"csdac-request/7\",\"jobs\":[{}]}", "bad_schema"},
      {"{\"schema\":\"csdac-request/1\",\"jobs\":[]}", "bad_request"},
      {"{\"schema\":\"csdac-request/1\","
       "\"jobs\":[{\"kind\":\"nonsense\"}]}",
       "bad_job"},
      {"{\"schema\":\"csdac-ctl/1\",\"cmd\":\"rm-rf\"}", "bad_ctl"},
  };
  std::string reply;
  for (const auto& tc : cases) {
    ASSERT_EQ(c.call(tc.payload, reply), FrameStatus::kOk) << tc.payload;
    EXPECT_EQ(error_code(parse_reply(reply)), tc.code) << tc.payload;
  }
  // The SAME connection still answers real questions afterwards.
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "");
}

TEST(Protocol, HostileCorpusNeverCrashesOrSucceeds) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  const fs::path corpus(CSDAC_SERVE_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    files.push_back(entry.path());
  }
  ASSERT_GE(files.size(), 10u) << "corpus went missing";

  Client c = fx.connect();
  std::string reply;
  for (const auto& file : files) {
    ASSERT_EQ(c.call(read_file(file), reply), FrameStatus::kOk) << file;
    EXPECT_NE(error_code(parse_reply(reply)), "")
        << file << " was accepted instead of rejected";
  }
  // Still alive, still correct.
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "");
}

// Every corpus file and every tools/*_request.json, mutated 1-4 times
// over by bit flips, byte deletes, inserts of JSON punctuation and
// truncations under a fixed seed: each mutant must parse or throw
// RequestError, never anything else. Raw generator output only (no
// std::*_distribution), so the inputs are the same on every standard
// library.
TEST(Protocol, SeededMutationsParseOrThrowRequestError) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(CSDAC_SERVE_CORPUS_DIR)) {
    files.push_back(entry.path());
  }
  for (const auto& entry : fs::directory_iterator(CSDAC_TOOLS_DIR)) {
    if (entry.path().filename().string().ends_with("_request.json")) {
      files.push_back(entry.path());
    }
  }
  ASSERT_GE(files.size(), 28u) << "corpus or sample requests went missing";
  std::sort(files.begin(), files.end());  // directory order is unspecified

  constexpr int kMutantsPerFile = 750;
  static constexpr char kPunct[] = "{}[]:,\"\\-.0eE";
  std::mt19937_64 rng(0xC5DAC);
  int parsed = 0, rejected = 0;
  for (const fs::path& file : files) {
    const std::string original = read_file(file);
    for (int m = 0; m < kMutantsPerFile; ++m) {
      std::string text = original;
      for (auto edits = 1 + rng() % 4; edits > 0 && !text.empty(); --edits) {
        const std::size_t at = rng() % text.size();
        switch (rng() % 4) {
          case 0: text[at] ^= static_cast<char>(1u << (rng() % 8)); break;
          case 1: text.erase(at, 1); break;
          case 2: text.insert(at, 1, kPunct[rng() % (sizeof(kPunct) - 1)]);
                  break;
          default: text.resize(at); break;
        }
      }
      try {
        parse_request_text(text);
        ++parsed;
      } catch (const RequestError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << file << ": non-RequestError exception "
                      << e.what() << " on input:\n" << text;
      }
    }
  }
  // Both outcomes occur, so the mutants neither all die at the first
  // byte nor all leave the requests intact.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Protocol, BadMagicGetsErrorFrameAndDrop) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  const unsigned char junk[8] = {'H', 'T', 'T', 'P', 1, 0, 0, 0};
  ASSERT_TRUE(c.send_raw(junk, sizeof(junk)));
  std::string reply;
  ASSERT_EQ(c.recv(reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "bad_magic");
  // The server hung up: the next read is EOF (or a reset).
  EXPECT_NE(c.recv(reply), FrameStatus::kOk);
}

TEST(Protocol, OversizedFrameIsRejectedBeforeParsing) {
  ServerFixture fx(/*max_frame=*/4096);
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  const std::string big(8192, 'a');
  ASSERT_TRUE(c.send(big));
  std::string reply;
  ASSERT_EQ(c.recv(reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "frame_too_large");
  EXPECT_NE(c.recv(reply), FrameStatus::kOk);
}

TEST(Protocol, MidRequestDisconnectLeavesServerServing) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  {
    // Claim a frame of 100 bytes, send 10, vanish.
    Client dropper = fx.connect();
    const unsigned char hdr[8] = {'C', 'S', 'F', '1', 100, 0, 0, 0};
    ASSERT_TRUE(dropper.send_raw(hdr, sizeof(hdr)));
    ASSERT_TRUE(dropper.send_raw("partial!!!", 10));
  }
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  EXPECT_EQ(error_code(parse_reply(reply)), "");
}

TEST(Protocol, PingReportsWorkers) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call("{\"schema\":\"csdac-ctl/1\",\"cmd\":\"ping\"}", reply),
            FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_EQ(doc.string_or("schema", ""), std::string(kControlSchema));
  EXPECT_TRUE(doc.bool_or("ok", false));
  EXPECT_EQ(doc.int_or("workers", -1), 2);
}

TEST(Protocol, MetricsCommandReturnsPrometheusText) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(c.call(kGoodRequest, reply), FrameStatus::kOk);
  ASSERT_EQ(
      c.call("{\"schema\":\"csdac-ctl/1\",\"cmd\":\"metrics\"}", reply),
      FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  EXPECT_TRUE(doc.bool_or("ok", false));
  const std::string prom = doc.string_or("prometheus", "");
  EXPECT_NE(prom.find("csdac_serve_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("csdac_serve_connections_total"), std::string::npos);
}

TEST(Protocol, ShutdownCommandStopsTheServer) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  ASSERT_EQ(
      c.call("{\"schema\":\"csdac-ctl/1\",\"cmd\":\"shutdown\"}", reply),
      FrameStatus::kOk);
  EXPECT_TRUE(parse_reply(reply).bool_or("ok", false));
  fx.server->wait();  // returns because shutdown was acknowledged
  EXPECT_TRUE(fx.server->shutdown_requested());
}

TEST(Protocol, RequestEmbedsMetricsWhenAsked) {
  ServerFixture fx;
  REQUIRE_SERVER(fx);
  Client c = fx.connect();
  std::string reply;
  const std::string with_metrics =
      "{\"schema\":\"csdac-request/1\",\"metrics\":true,"
      "\"jobs\":[{\"kind\":\"inl_yield\",\"chips\":40,\"seed\":43}]}";
  ASSERT_EQ(c.call(with_metrics, reply), FrameStatus::kOk);
  const runtime::JsonValue doc = parse_reply(reply);
  const auto* metrics = doc.find("metrics");
  ASSERT_TRUE(metrics && metrics->is_object());
  EXPECT_TRUE(metrics->find("counters"));
}

}  // namespace
}  // namespace csdac::serve
