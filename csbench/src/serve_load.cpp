#include "serve_load.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench_json.hpp"
#include "design.hpp"
#include "mathx/rng.hpp"
#include "obs/span.hpp"
#include "replay.hpp"
#include "runtime/job.hpp"
#include "runtime/json.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "trace.hpp"

extern char** environ;

namespace csbench {
namespace {

namespace fs = std::filesystem;
namespace mathx = csdac::mathx;
using csdac::serve::Client;
using csdac::serve::FrameStatus;

// --- Request streams ---------------------------------------------------------

constexpr int kKinds = 6;
constexpr int kBasePerKind = 4;

/// Job object of `kind` whose cache key is selected by `key`. Sizes are
/// interactive questions, not batch studies: each kind costs at most ~5 ms
/// of single-thread compute, so no one kind dominates the latency tail.
/// The sweep stays small because its cached result holds every grid
/// point, which a hot read decodes in full.
std::string job_text(int kind, std::uint64_t key) {
  char buf[512];
  const auto k = static_cast<unsigned long long>(key);
  switch (kind) {
    case 0:
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"inl_yield\",\"spec\":{\"nbits\":10,"
                    "\"binary_bits\":4},\"sigma_mult\":1.0,\"chips\":800,"
                    "\"seed\":%llu}",
                    k);
      break;
    case 1:
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"inl_yield_is\",\"spec\":{\"nbits\":10,"
                    "\"binary_bits\":4},\"sigma_mult\":0.8,\"chips\":400,"
                    "\"seed\":%llu}",
                    k);
      break;
    case 2: {
      // Sweeps carry no seed: the key moves the upper edge of the axes.
      const double hi = 0.6 + 1e-5 * static_cast<double>(k % 20000);
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"sweep_cascode\",\"cs\":{\"lo\":0.1,"
                    "\"hi\":%.5f,\"steps\":8},\"sw\":{\"lo\":0.1,"
                    "\"hi\":%.5f,\"steps\":8},\"cas\":{\"lo\":0.1,"
                    "\"hi\":%.5f,\"steps\":6}}",
                    hi, hi, hi);
      break;
    }
    case 3:
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"spectrum\",\"sigma_mult\":1.0,\"seed\":%llu,"
                    "\"n_samples\":4096,\"cycles\":1021}",
                    k);
      break;
    case 4:
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"dyn_spectrum\",\"spec\":{\"nbits\":8,"
                    "\"binary_bits\":3},\"chips\":12,\"n_samples\":128,"
                    "\"cycles\":11,\"sigma_t\":2e-12,\"seed\":%llu}",
                    k);
      break;
    default:
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"spice_mc\",\"spec\":{\"nbits\":5,"
                    "\"binary_bits\":2},\"chips\":1,\"seed\":%llu}",
                    k);
      break;
  }
  return buf;
}

/// Appends a job with a key never used before in this stream.
int add_fresh_job(Stream& s, int kind, mathx::Xoshiro256& rng,
                  std::set<std::string>& seen) {
  for (;;) {
    std::string text = job_text(kind, 1 + rng() % 2000000000ull);
    if (seen.insert(text).second) {
      s.jobs.push_back(std::move(text));
      return static_cast<int>(s.jobs.size()) - 1;
    }
  }
}

// Open-loop traffic shape of serve_mixed: requests come in blocks with a
// fixed composition (positions shuffled by the seed), so every seed asks
// the same amount of each kind of work and only keys and timing differ.
// A fifth of the requests wait on a computation; the median request is a
// hot read well clear of that mode, the p99 one a computation.
constexpr double kMixedRate = 120.0;  ///< requests per second, twins included
constexpr int kBlockFresh = 3;   ///< one never-seen key (+ a repeat in half)
constexpr int kBlockHot = 16;    ///< 1-3 repeats of known keys
constexpr int kBlockTwins = 1;   ///< copy of a fresh request, 0.5 ms later
constexpr int kBlock = kBlockFresh + kBlockHot + kBlockTwins;
constexpr double kTwinGap = 0.0005;
constexpr double kLatencyLimitMs = 250.0; ///< goodput limit, serve_mixed
constexpr double kMaxLagP99Us = 20000.0;  ///< generator behind schedule
constexpr int kHotPool = 1024;            ///< closed-loop request pool
/// Traced closed-loop runs alternate traced and untraced requests over
/// each client's first kTraceWindow requests (bounds the trace size).
constexpr std::int64_t kTraceWindow = 4000;

/// `serve_hot` or `serve_mixed` stream for a seed; `seconds` sizes the
/// open-loop schedule.
Stream make_stream(const std::string& workload, std::uint64_t seed,
                   double seconds, int nproc) {
  Stream s;
  std::set<std::string> seen;
  mathx::Xoshiro256 rng =
      mathx::stream_rng(seed, workload == "serve_hot" ? 0x407 : 0x313);
  for (int k = 0; k < kKinds; ++k) {
    for (int i = 0; i < kBasePerKind; ++i) {
      s.base.push_back(add_fresh_job(s, k, rng, seen));
    }
  }
  if (workload == "serve_hot") {
    // Half the cores drive load: the server's connection threads and
    // workers need the rest. Saturating the machine measured contention
    // for cores, with two to three times the run-to-run spread.
    s.clients = std::max(1, nproc / 2);
    for (int i = 0; i < kHotPool; ++i) {
      StreamRequest r;
      const auto jobs = 1 + mathx::uniform_index(rng, 4);
      for (std::uint64_t j = 0; j < jobs; ++j) {
        r.jobs.push_back(s.base[mathx::uniform_index(rng, s.base.size())]);
      }
      s.requests.push_back(std::move(r));
    }
    return s;
  }

  s.open_loop = true;
  s.schedule_s = seconds;
  s.clients = nproc;
  // Poisson arrivals conditioned on their count: exponential gaps scaled
  // so the arrivals fill the schedule.
  const int blocks =
      std::max(1, static_cast<int>(seconds * kMixedRate / kBlock));
  const int arrivals = blocks * (kBlockFresh + kBlockHot);
  std::vector<double> due(static_cast<std::size_t>(arrivals));
  double t = 0.0;
  for (double& d : due) {
    t += -std::log(1.0 - mathx::uniform01(rng));
    d = t;
  }
  const double scale = seconds / (t - std::log(1.0 - mathx::uniform01(rng)));
  for (double& d : due) d *= scale;

  std::vector<int> known = s.base;  // keys a repeat may ask for again
  const auto repeat = [&] {
    return known[mathx::uniform_index(rng, known.size())];
  };
  int fresh_kind = 0, next = 0;
  for (int b = 0; b < blocks; ++b) {
    std::vector<char> fresh_slot(kBlockFresh + kBlockHot, 0);
    std::fill(fresh_slot.begin(), fresh_slot.begin() + kBlockFresh, 1);
    for (int i = static_cast<int>(fresh_slot.size()) - 1; i > 0; --i) {
      const auto j = static_cast<int>(
          mathx::uniform_index(rng, static_cast<std::uint64_t>(i) + 1));
      std::swap(fresh_slot[i], fresh_slot[j]);
    }
    int twins = 0;
    for (const bool fresh : fresh_slot) {
      StreamRequest r;
      r.due_s = due[static_cast<std::size_t>(next)];
      r.conn = next++ % nproc;
      if (fresh) {
        const int id = add_fresh_job(s, fresh_kind++ % kKinds, rng, seen);
        r.jobs.push_back(id);
        if (mathx::uniform01(rng) < 0.5) r.jobs.push_back(repeat());
        known.push_back(id);
        ++s.fresh_unique;
      } else {
        const auto jobs = 1 + mathx::uniform_index(rng, 3);
        for (std::uint64_t j = 0; j < jobs; ++j) r.jobs.push_back(repeat());
      }
      s.requests.push_back(r);
      if (fresh && twins < kBlockTwins) {
        // The same question from another client half a millisecond
        // later: joins the in-flight execution through dedup.
        ++twins;
        r.due_s += kTwinGap;
        r.conn = (r.conn + 1) % nproc;
        s.requests.push_back(std::move(r));
      }
    }
  }
  std::stable_sort(s.requests.begin(), s.requests.end(),
                   [](const StreamRequest& a, const StreamRequest& b) {
                     return a.due_s < b.due_s;
                   });
  return s;
}

/// In-process reference for each listed job: the `"result":{...}` bytes
/// serve::emit_result writes for runtime::execute_job of the job, parsed
/// from the same text the server receives. Computed on `threads` threads;
/// entries of `refs` not listed are left as they are.
void compute_references(const Stream& stream, const std::vector<int>& which,
                        int threads, std::vector<std::string>& refs) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string error;
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < which.size();) {
        const auto j = static_cast<std::size_t>(which[i]);
        try {
          const auto parsed = csdac::serve::parse_request_text(
              "{\"schema\":\"csdac-request/1\",\"jobs\":[" +
              stream.jobs[j] + "]}");
          const auto value =
              csdac::runtime::execute_job(parsed.at(0).job, 1, nullptr);
          csdac::bench::JsonWriter w;
          w.begin_object();
          csdac::serve::emit_result(w, value);
          w.end_object();
          refs[j] = w.str().substr(1, w.str().size() - 2);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(error_mutex);
          error = stream.jobs[j] + ": " + e.what();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  if (!error.empty()) throw std::runtime_error("reference job " + error);
}

// --- Server child process ----------------------------------------------------

const std::vector<std::string> kServerCounters = {
    "mc.chips_evaluated", "sched.submitted",  "sched.dedup_inflight",
    "cache.hot.hits",     "cache.hot.misses", "cache.misses",
    "serve.errors"};

/// A `csdac_serve --listen` child with its disk tier in a fresh
/// directory. The destructor always reaps it.
class ServerProcess {
 public:
  ServerProcess(const RunConfig& cfg, const std::string& dir) {
    fs::create_directories(dir);
    const std::string port_file = dir + "/port";
    const std::string log = dir + "/server.log";
    const std::string workers = std::to_string(cfg.nproc);
    std::vector<std::string> args = {
        cfg.serve_bin, "--listen",        "--host",         "127.0.0.1",
        "--port",      "0",               "--port-file",    port_file,
        "--workers",   workers,           "--max-inflight", "64",
        "--hot-mb",    "64",              "--cache",        dir + "/cache"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc =
        posix_spawn(&pid_, cfg.serve_bin.c_str(), &fa, nullptr, argv.data(),
                    environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + cfg.serve_bin);
    }
    const auto t0 = Clock::now();
    while (port_ == 0) {
      std::ifstream in(port_file);
      std::string line;
      if (in && std::getline(in, line) && !line.empty() && in.good()) {
        port_ = std::stoi(line);
        break;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("csdac_serve exited during start (see " +
                                 log + ")");
      }
      if (seconds_since(t0) > 30.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        throw std::runtime_error("csdac_serve did not report a port");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  int pid() const { return pid_; }

  /// One control-channel command; the reply JSON.
  std::string ctl(const std::string& cmd) const {
    Client c;
    std::string err, reply;
    if (!c.connect("127.0.0.1", port_, &err)) {
      throw std::runtime_error("ctl connect: " + err);
    }
    if (c.call("{\"schema\":\"csdac-ctl/1\",\"cmd\":\"" + cmd + "\"}",
               reply) != FrameStatus::kOk) {
      throw std::runtime_error("ctl " + cmd + " failed");
    }
    return reply;
  }

  /// Unlabeled counters of the server's registry.
  std::map<std::string, std::int64_t> counters() const {
    csdac::runtime::JsonValue doc;
    std::string err;
    if (!csdac::runtime::parse_json(ctl("metrics"), doc, &err)) {
      throw std::runtime_error("ctl metrics reply: " + err);
    }
    return prometheus_counters(doc.string_or("prometheus", ""),
                               kServerCounters);
  }

  /// Asks for a clean shutdown, waits for the exit (escalating to SIGKILL
  /// after 20 s), idempotent.
  void stop() {
    if (pid_ <= 0) return;
    try {
      ctl("shutdown");
    } catch (const std::exception&) {
      kill(pid_, SIGTERM);
    }
    const auto t0 = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 20.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// A started server with warmed key set and one connection per client.
struct Session {
  std::string dir;
  std::unique_ptr<ServerProcess> server;
  std::vector<Client> clients;

  ~Session() {
    clients.clear();
    server.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

/// Set-up as a user pays it: start the server, connect the clients, and
/// compute the base key set through the server.
std::unique_ptr<Session> set_up(const RunConfig& cfg, const Stream& s,
                                const std::vector<std::string>& refs,
                                int index, Outcome& out) {
  auto session = std::make_unique<Session>();
  session->dir = cfg.out_dir + "/serve-" + std::to_string(getpid()) + "-" +
                 std::to_string(index);
  session->server = std::make_unique<ServerProcess>(cfg, session->dir);
  for (int c = 0; c < s.clients; ++c) {
    Client client;
    std::string err;
    if (!client.connect("127.0.0.1", session->server->port(), &err)) {
      throw std::runtime_error("connect: " + err);
    }
    session->clients.push_back(std::move(client));
  }
  StreamRequest warm;
  warm.jobs = s.base;
  std::string reply;
  ++out.attempted;
  if (session->clients[0].call(s.request_text(warm), reply) !=
          FrameStatus::kOk ||
      !reply_matches(reply, warm, refs)) {
    out.fail("set-up request: reply does not match the in-process reference");
  }
  return session;
}

// --- Load generators ---------------------------------------------------------

struct LoadResult {
  std::vector<double> lat_us;  ///< correct replies
  std::vector<double> done_s;  ///< their completion times (run clock)
  std::vector<double> lat_traced_us, lat_untraced_us;
  std::vector<double> lag_us;  ///< open loop: send time - due time
  /// Client latency minus the server's own handling time (the reply's
  /// summary.wall_s): sockets, framing, connection threads and parsing.
  std::vector<double> outside_server_us;
  std::int64_t good = 0;       ///< correct and within the latency limit
  double elapsed_s = 0.0;
};

/// Per-thread tallies, merged after the join (Outcome is not shared).
struct ThreadTally {
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<double> lat, done, lat_traced, lat_untraced, lag,
      outside_server;
};

void merge(std::vector<ThreadTally>& tallies, LoadResult& r, Outcome& out) {
  for (auto& t : tallies) {
    out.attempted += t.attempted;
    for (const auto& f : t.failures) out.fail(f);
    r.lat_us.insert(r.lat_us.end(), t.lat.begin(), t.lat.end());
    r.done_s.insert(r.done_s.end(), t.done.begin(), t.done.end());
    r.lat_traced_us.insert(r.lat_traced_us.end(), t.lat_traced.begin(),
                           t.lat_traced.end());
    r.lat_untraced_us.insert(r.lat_untraced_us.end(), t.lat_untraced.begin(),
                             t.lat_untraced.end());
    r.lag_us.insert(r.lag_us.end(), t.lag.begin(), t.lag.end());
    r.outside_server_us.insert(r.outside_server_us.end(),
                               t.outside_server.begin(),
                               t.outside_server.end());
  }
}

/// The server's handling time of a reply (summary.wall_s), microseconds.
double server_wall_us(const std::string& reply) {
  const auto summary = reply.rfind("\"summary\":");
  const auto key = reply.find("\"wall_s\":", summary);
  if (summary == std::string::npos || key == std::string::npos) return 0.0;
  return std::strtod(reply.c_str() + key + 9, nullptr) * 1e6;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// serve_hot: each client sends its next request as soon as the previous
/// reply arrived, checking every reply against the references inline. In
/// traced runs every other request carries a client span.
LoadResult closed_loop(const Stream& s, const std::vector<std::string>& refs,
                       Session& session, double seconds, bool traced,
                       Outcome& out) {
  std::vector<std::string> texts;
  for (const auto& r : s.requests) texts.push_back(s.request_text(r));
  const int n = static_cast<int>(session.clients.size());
  std::vector<ThreadTally> tallies(static_cast<std::size_t>(n));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ThreadTally& t = tallies[static_cast<std::size_t>(c)];
      Client& client = session.clients[static_cast<std::size_t>(c)];
      std::size_t i = static_cast<std::size_t>(c) * texts.size() /
                      static_cast<std::size_t>(n);
      std::string reply;
      for (std::int64_t k = 0; Clock::now() < deadline; ++k) {
        const StreamRequest& req = s.requests[i];
        const std::string& text = texts[i];
        i = (i + 1) % texts.size();
        const bool in_window = traced && k < kTraceWindow;
        const bool span = in_window && k % 2 == 0;
        const auto t0 = Clock::now();
        FrameStatus st;
        if (span) {
          csdac::obs::ScopedSpan sp("client.request");
          st = client.call(text, reply);
        } else {
          st = client.call(text, reply);
        }
        const auto done = Clock::now();
        const double us = us_between(t0, done);
        ++t.attempted;
        if (st != FrameStatus::kOk) {
          t.failures.push_back(
              "transport: " +
              std::string(csdac::serve::frame_status_name(st)));
          return;  // the connection is unusable after a framing failure
        }
        if (!reply_matches(reply, req, refs)) {
          t.failures.push_back("reply differs from the in-process result: " +
                               reply.substr(0, 200));
          continue;
        }
        t.lat.push_back(us);
        t.done.push_back(us_between(start, done) * 1e-6);
        t.outside_server.push_back(us - server_wall_us(reply));
        if (in_window) (span ? t.lat_traced : t.lat_untraced).push_back(us);
      }
    });
  }
  for (auto& th : threads) th.join();
  LoadResult r;
  r.elapsed_s = seconds_since(start);
  merge(tallies, r, out);
  r.good = static_cast<std::int64_t>(r.lat_us.size());
  return r;
}

/// serve_mixed: every request is sent at its due time whatever the state
/// of earlier ones (pipelined on its connection; the server answers a
/// connection's requests in order) and timed from its due time, so a
/// stall is charged to every request it delays. Replies are kept for
/// verification after the run; the generator's own lateness is recorded.
LoadResult open_loop(const Stream& s, Session& session, bool traced,
                     std::vector<std::string>& replies,
                     std::vector<double>& latency_us,
                     std::vector<double>& done_s, Outcome& out) {
  const int n = static_cast<int>(session.clients.size());
  std::vector<std::vector<int>> mine(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    mine[static_cast<std::size_t>(s.requests[i].conn % n)].push_back(
        static_cast<int>(i));
  }
  std::vector<std::string> texts;
  for (const auto& r : s.requests) texts.push_back(s.request_text(r));
  replies.assign(s.requests.size(), std::string());
  latency_us.assign(s.requests.size(), -1.0);
  done_s.assign(s.requests.size(), 0.0);

  std::vector<ThreadTally> tallies(static_cast<std::size_t>(n));
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double s_after) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s_after));
  };
  const auto hard_stop = at(s.schedule_s + 60.0);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ThreadTally& t = tallies[static_cast<std::size_t>(c)];
      Client& client = session.clients[static_cast<std::size_t>(c)];
      const std::vector<int>& list = mine[static_cast<std::size_t>(c)];
      std::deque<std::pair<int, bool>> outstanding;  // (request, traced)
      std::size_t next = 0;
      std::int64_t sent = 0;
      while (next < list.size() || !outstanding.empty()) {
        const auto now = Clock::now();
        if (now > hard_stop) {
          t.failures.push_back(std::to_string(outstanding.size()) +
                               " requests unanswered 60 s after the "
                               "schedule ended");
          return;
        }
        if (next < list.size() && now >= at(s.requests[list[next]].due_s)) {
          const int i = list[next++];
          const auto due = at(s.requests[i].due_s);
          const bool span = traced && sent++ % 2 == 0;
          bool ok;
          if (span) {
            csdac::obs::ScopedSpan sp("client.send");
            ok = client.send(texts[static_cast<std::size_t>(i)]);
          } else {
            ok = client.send(texts[static_cast<std::size_t>(i)]);
          }
          t.lag.push_back(us_between(due, now));
          ++t.attempted;
          if (!ok) {
            t.failures.push_back("transport: send failed");
            return;
          }
          outstanding.emplace_back(i, span);
          continue;
        }
        // Wait for a reply or the next due time, whichever comes first.
        auto until = now + std::chrono::milliseconds(100);
        if (next < list.size()) {
          until = std::min(until, at(s.requests[list[next]].due_s));
        }
        if (outstanding.empty()) {
          std::this_thread::sleep_until(until);
          continue;
        }
        const auto ns = std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(until - now)
                   .count());
        timespec ts{static_cast<time_t>(ns / 1000000000),
                    static_cast<long>(ns % 1000000000)};
        pollfd pfd{client.fd(), POLLIN, 0};
        if (ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
        std::string reply;
        const FrameStatus st = client.recv(reply);
        const auto done = Clock::now();
        if (st != FrameStatus::kOk) {
          t.failures.push_back(
              "transport: " +
              std::string(csdac::serve::frame_status_name(st)));
          return;
        }
        const auto [i, span] = outstanding.front();
        outstanding.pop_front();
        const double us = us_between(at(s.requests[i].due_s), done);
        latency_us[static_cast<std::size_t>(i)] = us;
        done_s[static_cast<std::size_t>(i)] = us_between(start, done) * 1e-6;
        replies[static_cast<std::size_t>(i)] = std::move(reply);
        (span ? t.lat_traced : t.lat_untraced).push_back(us);
      }
    });
  }
  for (auto& th : threads) th.join();
  LoadResult r;
  r.elapsed_s = seconds_since(start);
  merge(tallies, r, out);  // latencies join r.lat_us after verification
  return r;
}

/// Everything one serve run measured.
struct ServeRun {
  Stream stream;
  std::vector<std::string> refs;
  LoadResult load;
  std::vector<double> setups;
  std::map<std::string, std::int64_t> before, after;
  double server_rss_mb = 0.0;
};

/// Set-up (nine times, median reported), load, counters, verification.
ServeRun run_serve(const RunConfig& cfg, const std::string& workload,
                   double seconds, bool traced, Outcome& out) {
  ServeRun run;
  run.stream = make_stream(workload, cfg.seed, seconds, cfg.nproc);
  const Stream& s = run.stream;
  run.refs.assign(s.jobs.size(), std::string());
  compute_references(s, s.base, cfg.nproc, run.refs);

  std::unique_ptr<Session> session;
  for (int i = 0; i < 9; ++i) {
    session.reset();
    const auto t0 = Clock::now();
    session = set_up(cfg, s, run.refs, i, out);
    run.setups.push_back(seconds_since(t0));
  }
  run.before = session->server->counters();
  std::vector<std::string> replies;
  std::vector<double> latency, done;
  run.load = s.open_loop
                 ? open_loop(s, *session, traced, replies, latency, done, out)
                 : closed_loop(s, run.refs, *session, seconds, traced, out);
  run.after = session->server->counters();
  run.server_rss_mb = peak_rss_mb(session->server->pid());
  session.reset();
  if (!s.open_loop) return run;  // replies were checked as they arrived

  // Fresh keys are verified after the run, so computing their references
  // cannot perturb the schedule.
  std::vector<int> fresh;
  for (int j = 0; j < static_cast<int>(s.jobs.size()); ++j) {
    if (run.refs[static_cast<std::size_t>(j)].empty()) fresh.push_back(j);
  }
  compute_references(s, fresh, cfg.nproc, run.refs);
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    if (latency[i] < 0.0) continue;  // unanswered: already counted as failed
    if (!reply_matches(replies[i], s.requests[i], run.refs)) {
      out.fail("reply differs from the in-process result: " +
               replies[i].substr(0, 200));
      continue;
    }
    run.load.lat_us.push_back(latency[i]);
    run.load.done_s.push_back(done[i]);
    run.load.outside_server_us.push_back(latency[i] -
                                         server_wall_us(replies[i]));
    if (latency[i] <= kLatencyLimitMs * 1e3) ++run.load.good;
  }
  const double lag99 = quantile(run.load.lag_us, 0.99);
  if (lag99 > kMaxLagP99Us) {
    out.invalid = "the generator fell behind its schedule (lag p99 " +
                  std::to_string(lag99) + " us > " +
                  std::to_string(kMaxLagP99Us) + " us)";
  }
  return run;
}

/// Work counts come from the server's process-wide counters, never from
/// summing per-reply `chip_evals`/`stages`: a reply that joined an
/// in-flight execution through dedup reports that execution's work again,
/// so reply sums overcount shared work (2.25-2.75x on an 8-key storm).
void add_counter_metrics(const ServeRun& run, Outcome& out) {
  const auto d = [&](const char* name) {
    return static_cast<double>(delta(run.before, run.after, name));
  };
  const double computes = d("cache.misses");  // every disk miss executes
  out.add("runtime.hot_hit_frac", "ratio",
          ratio(d("cache.hot.hits"),
                d("cache.hot.hits") + d("cache.hot.misses"), 0.0));
  out.add("runtime.dedup_frac", "ratio",
          ratio(d("sched.dedup_inflight"), d("sched.submitted"), 0.0));
  out.add("runtime.useful_compute_frac", "ratio",
          ratio(static_cast<double>(run.stream.fresh_unique), computes, 1.0));
  out.add("mc.chips", "count", d("mc.chips_evaluated"));
  out.add("serve.errors", "count", d("serve.errors"));
}

/// Runs the in-process replay and adds the serve/runtime layer metrics.
void add_layer_metrics(const RunConfig& cfg, const ServeRun& run,
                       double seconds, Outcome& out) {
  const std::string dir = cfg.out_dir + "/replay-" + std::to_string(getpid());
  ReplayResult rp =
      replay_stream(run.stream, run.refs, cfg.nproc, seconds, dir, out);
  std::error_code ec;
  fs::remove_all(dir, ec);
  out.add("serve.parse_us", "us", mean(rp.parse_us));
  out.add("runtime.key_us", "us", mean(rp.key_us));
  out.add("runtime.sched_wait_us", "us", mean(rp.sched_wait_us));
  out.add("runtime.hot_get_us", "us", mean(rp.hot_get_us));
  for (const char* kind : {"inl_yield", "inl_yield_is", "sweep_cascode",
                           "spectrum", "dyn_spectrum", "spice_mc"}) {
    out.add(std::string("runtime.compute_us.") + kind, "us",
            mean(rp.compute_us[kind]));
  }
  out.add("runtime.store_us", "us", mean(rp.store_us));
  out.add("serve.emit_us", "us", mean(rp.emit_us));
  // Latency outside the layers above: client latency minus the server's
  // own handling time, minus request parsing (which precedes it). The
  // replay runs after the load, so on a machine whose speed drifts this
  // difference of two runs can dip below zero.
  out.add("serve.wire_us", "us",
          median(run.load.outside_server_us) - median(rp.parse_us));
  out.add("gen.lag_p99_us", "us",
          quantile(run.stream.open_loop ? run.load.lag_us : rp.lag_us, 0.99));
  add_counter_metrics(run, out);
}

}  // namespace

std::string Stream::request_text(const StreamRequest& r) const {
  std::string text = "{\"schema\":\"csdac-request/1\",\"jobs\":[";
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    if (i > 0) text += ',';
    text += jobs[static_cast<std::size_t>(r.jobs[i])];
  }
  text += "]}";
  return text;
}

bool reply_matches(const std::string& reply, const StreamRequest& req,
                   const std::vector<std::string>& refs) {
  if (reply.rfind("{\"schema\":\"csdac-serve/4\",\"trace_id\":", 0) != 0 ||
      reply.find("\"error\"") != std::string::npos) {
    return false;
  }
  std::size_t pos = 0;
  for (int j : req.jobs) {
    const std::string& ref = refs[static_cast<std::size_t>(j)];
    if (ref.empty()) return false;
    pos = reply.find(ref, pos);
    if (pos == std::string::npos) return false;
    pos += ref.size();
  }
  return true;
}

Outcome serve_workload(const RunConfig& cfg, TraceSession* trace) {
  Outcome out;
  if (trace != nullptr) trace->start();
  ServeRun run = run_serve(cfg, cfg.workload, cfg.seconds, trace != nullptr,
                           out);
  const LoadResult& l = run.load;
  const double p50 = quantile(l.lat_us, 0.5);
  const double p99 = tail_latency(l.lat_us, l.done_s);
  // Open loop: goodput, correct replies within the latency limit per
  // second from the schedule start to the last reply.
  const double per_s = static_cast<double>(l.good) / l.elapsed_s;
  std::printf("%s: %zu requests; req_p50_us %.1f  req_p99_us %.1f  "
              "req_per_s %.2f  server peak_rss_mb %.1f\n",
              cfg.workload.c_str(), l.lat_us.size(), p50, p99, per_s,
              run.server_rss_mb);
  if (trace == nullptr) {
    out.add("setup_s", "s", median(run.setups));
    out.add("op_p50_ms", "ms", p50 * 1e-3);
    out.add("op_tail_ms", "ms", p99 * 1e-3);
    out.add("ops_per_s", "1/s", per_s);
    out.add("peak_rss_mb", "MB", run.server_rss_mb);
    return out;
  }
  out.add("trace_overhead_frac", "ratio",
          ratio(median(l.lat_traced_us), median(l.lat_untraced_us), 1.0) -
              1.0);
  add_layer_metrics(cfg, run, std::min(cfg.seconds, 4.0), out);
  // Design layers: one traced design, so every traced run reports every
  // layer.
  design_layer_metrics(cfg, *trace, out);
  return out;
}

void serve_layer_probe(const RunConfig& cfg, TraceSession& trace,
                       Outcome& out) {
  constexpr double kProbeSeconds = 3.0;
  trace.start();
  const ServeRun run = run_serve(cfg, "serve_mixed", kProbeSeconds, true, out);
  add_layer_metrics(cfg, run, kProbeSeconds, out);
}

}  // namespace csbench
