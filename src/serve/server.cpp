#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace csdac::serve {

namespace {

struct ServeMetrics {
  obs::Counter& connections;
  obs::Counter& requests;
  obs::Counter& errors;
  obs::Counter& rejected;
  obs::Counter& slow;
  obs::Gauge& active;
  obs::Gauge& inflight;
  obs::Histogram& request_us;

  static ServeMetrics& get() {
    obs::Registry& r = obs::Registry::global();
    static ServeMetrics m{
        r.counter("serve.connections", "connections accepted"),
        r.counter("serve.requests", "design requests answered"),
        r.counter("serve.errors", "error frames sent"),
        r.counter("serve.rejected", "connections refused at the cap"),
        r.counter("serve.slow_requests",
                  "requests at or over the slow_us threshold"),
        r.gauge("serve.connections_active", "connections open right now"),
        r.gauge("serve.requests_inflight", "requests being handled"),
        r.histogram("serve.request_us", "request handling latency [us]"),
    };
    return m;
  }
};

/// The per-job pipeline stages, in pipeline order. Every job observes
/// EVERY stage (zeros included) so stage counts always match job counts:
/// a warm pass then shows compute with count > 0 and sum == 0, which is
/// the signal the regression checks key on.
struct JobStages {
  std::int64_t admission_us = 0;
  std::int64_t queue_us = 0;
  std::int64_t hot_us = 0;
  std::int64_t disk_us = 0;
  std::int64_t compute_us = 0;
  std::int64_t store_us = 0;
  std::int64_t serialize_us = 0;

  std::int64_t total_us() const {
    return admission_us + queue_us + hot_us + disk_us + compute_us +
           store_us + serialize_us;
  }
};

constexpr const char* kStageNames[] = {
    "admission", "queue", "hot", "disk",
    "compute",   "store", "serialize", "total",
};
constexpr int kNumStages = 8;

/// serve.stage_us{kind=...,stage=...} histograms for one job kind. The
/// labeled registry lookup takes a mutex, so references are resolved once
/// per kind, on the kind's first job, into a slot indexed by its wire tag
/// — the per-job cost is eight wait-free observe()s.
struct StageHists {
  obs::Histogram* stage[kNumStages] = {};

  static const StageHists& get(runtime::JobKind kind) {
    constexpr std::size_t kKinds = std::variant_size_v<runtime::Job>;
    static std::array<std::once_flag, kKinds> once;
    static std::array<StageHists, kKinds> table;
    const std::size_t k = static_cast<std::size_t>(kind) - 1;
    std::call_once(once[k], [&] {
      const std::string kind_s(runtime::kind_name(kind));
      for (int s = 0; s < kNumStages; ++s) {
        table[k].stage[s] = &obs::Registry::global().histogram(
            "serve.stage_us", {{"kind", kind_s}, {"stage", kStageNames[s]}},
            "per-stage job latency attribution [us]");
      }
    });
    return table[k];
  }

  void observe(const JobStages& j) const {
    const std::int64_t v[kNumStages] = {
        j.admission_us, j.queue_us, j.hot_us,      j.disk_us,
        j.compute_us,   j.store_us, j.serialize_us, j.total_us()};
    for (int s = 0; s < kNumStages; ++s) stage[s]->observe(v[s]);
  }
};

/// The stage record's fields, shared by the reply and the slow log.
void stage_fields(bench::JsonWriter& w, const JobStages& j) {
  w.field("admission_us", j.admission_us);
  w.field("queue_us", j.queue_us);
  w.field("hot_us", j.hot_us);
  w.field("disk_us", j.disk_us);
  w.field("compute_us", j.compute_us);
  w.field("store_us", j.store_us);
  w.field("serialize_us", j.serialize_us);
  w.field("total_us", j.total_us());
}

}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  sched_ = std::make_unique<runtime::Scheduler>(opts_.sched);
  if (opts_.slow_us >= 0 && !opts_.slow_log.empty()) {
    slow_file_ = std::fopen(opts_.slow_log.c_str(), "ab");
    if (!slow_file_) {
      throw std::runtime_error("serve: cannot open slow log " +
                               opts_.slow_log);
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: bad listen address " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: cannot bind " + opts_.host + ":" +
                             std::to_string(opts_.port));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = static_cast<int>(ntohs(bound.sin_port));
}

Server::~Server() {
  stop();
  if (slow_file_) std::fclose(slow_file_);
}

void Server::log_slow_request(const std::string& line) {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  if (!slow_file_) return;
  std::fwrite(line.data(), 1, line.size(), slow_file_);
  std::fputc('\n', slow_file_);
  // Flushed per record: the slow log exists to survive the process dying
  // mid-investigation, and slow requests are rare by definition.
  std::fflush(slow_file_);
}

void Server::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (running_.exchange(false)) {
    // Unblock poll() promptly; the accept loop also checks running_.
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_.store(true, std::memory_order_release);
  }
  cv_stop_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_stop_.wait(lock,
                [this] { return stop_requested_.load(std::memory_order_acquire); });
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void Server::accept_loop() {
  ServeMetrics& m = ServeMetrics::get();
  while (running_.load(std::memory_order_acquire)) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    if (active_ >= opts_.max_connections) {
      write_frame(fd, error_frame("busy", "connection limit reached"));
      ::close(fd);
      ++counters_.rejected;
      m.rejected.add(1);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    ++active_;
    ++counters_.connections;
    m.connections.add(1);
    m.active.set(static_cast<double>(active_));
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(
        [this, fd, id] { handle_connection(fd, id); });
  }
}

void Server::handle_connection(int fd, std::uint64_t conn_id) {
  ServeMetrics& m = ServeMetrics::get();
  std::string payload;
  for (;;) {
    const FrameStatus st = read_frame(fd, payload, opts_.max_frame_bytes);
    if (st == FrameStatus::kClosed) break;
    if (st != FrameStatus::kOk) {
      // The stream position is unknowable after a framing error: answer
      // best-effort and drop the connection (payload errors, by
      // contrast, are clean frames and keep the session below).
      write_frame(fd, error_frame(frame_status_name(st),
                                  "framing error, closing connection"));
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.errors;
      m.errors.add(1);
      break;
    }

    bool shutdown_after = false;
    const std::string reply =
        handle_payload(payload, conn_id, &shutdown_after);
    const bool sent = write_frame(fd, reply);
    if (shutdown_after) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_requested_.store(true, std::memory_order_release);
      }
      cv_stop_.notify_all();
      break;
    }
    if (!sent) break;
  }

  ::close(fd);
  std::lock_guard<std::mutex> lock(mutex_);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
  --active_;
  m.active.set(static_cast<double>(active_));
}

std::string Server::handle_payload(const std::string& payload,
                                   std::uint64_t conn_id,
                                   bool* shutdown_after) {
  ServeMetrics& m = ServeMetrics::get();
  runtime::JsonValue request;
  std::string err;
  if (!runtime::parse_json(payload, request, &err)) {
    obs::FlightRecorder::global().record(obs::FlightEventKind::kError,
                                         "bad_json", {},
                                         obs::trace_now_us(), 0.0);
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.errors;
    m.errors.add(1);
    return error_frame("bad_json", err);
  }
  const std::string schema = request.string_or("schema", "");
  if (schema == kControlSchema) {
    return handle_control(request, shutdown_after);
  }

  try {
    return handle_request(request, conn_id);
  } catch (const RequestError& e) {
    obs::FlightRecorder::global().record(obs::FlightEventKind::kError,
                                         e.code(), {}, obs::trace_now_us(),
                                         0.0);
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.errors;
    m.errors.add(1);
    return error_frame(e.code(), e.what());
  } catch (const std::exception& e) {
    obs::FlightRecorder::global().record(obs::FlightEventKind::kError,
                                         "internal", {}, obs::trace_now_us(),
                                         0.0);
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.errors;
    m.errors.add(1);
    return error_frame("internal", e.what());
  }
}

std::string Server::handle_control(const runtime::JsonValue& request,
                                   bool* shutdown_after) {
  const std::string cmd = request.string_or("cmd", "");
  if (cmd != "ping" && cmd != "metrics" && cmd != "dump" &&
      cmd != "shutdown") {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.errors;
    ServeMetrics::get().errors.add(1);
    return error_frame("bad_ctl", "unknown ctl cmd '" + cmd + "'");
  }
  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", kControlSchema);
  w.field("cmd", cmd);
  w.field("ok", true);
  if (cmd == "ping") {
    w.field("workers", sched_->workers());
    w.field("inflight", sched_->inflight());
  } else if (cmd == "metrics") {
    w.field("prometheus", obs::Registry::global().snapshot().to_prometheus());
  } else if (cmd == "dump") {
    // On-demand flight-recorder dump: the whole ring as one Chrome-trace
    // document (a ring of 4096 fixed-size events renders well under the
    // frame ceiling).
    const obs::FlightRecorder& fr = obs::FlightRecorder::global();
    w.field("events", fr.total_recorded());
    w.field("dropped", fr.dropped());
    w.field("chrome_trace", fr.chrome_trace_json());
  } else {
    *shutdown_after = true;
  }
  w.end_object();
  return w.str();
}

std::string Server::handle_request(const runtime::JsonValue& request,
                                   std::uint64_t conn_id) {
  ServeMetrics& m = ServeMetrics::get();
  const std::vector<RequestJob> jobs = parse_request(request);
  const bool want_metrics = request.bool_or("metrics", false);

  // One trace id per request, end to end: the caller's when supplied
  // (bounded so it embeds in fixed-size flight events), a minted
  // "sv-<conn>-<n>" otherwise. It rides the serve.request span, every
  // sched.job / exec.job span the request fans out to, the reply, the
  // slow log, and the flight recorder.
  std::string trace = request.string_or("trace_id", "");
  if (trace.size() > kMaxTraceIdBytes) {
    throw RequestError("bad_request",
                       "trace_id exceeds " +
                           std::to_string(kMaxTraceIdBytes) + " bytes");
  }
  if (trace.empty()) {
    trace = "sv-" + std::to_string(conn_id) + "-" +
            std::to_string(trace_seq_.fetch_add(1,
                                                std::memory_order_relaxed));
  }

  obs::ScopedSpan span("serve.request");
  span.attr("client", static_cast<std::int64_t>(conn_id))
      .attr("jobs", static_cast<std::int64_t>(jobs.size()))
      .attr("trace_id", trace);
  m.inflight.add(1);
  const auto t0 = std::chrono::steady_clock::now();
  const double flight_start_us = obs::trace_now_us();

  // Submit everything before waiting on anything: within one request the
  // scheduler's in-flight dedup folds duplicates, and across requests two
  // clients asking the same question share one execution (the job then
  // keeps the FIRST submitter's trace id — one execution, one
  // attribution).
  std::vector<runtime::Scheduler::Ticket> tickets;
  tickets.reserve(jobs.size());
  for (const RequestJob& e : jobs) {
    tickets.push_back(sched_->submit(e.job, conn_id, e.id, trace,
                                     span.id()));
  }

  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", kResponseSchema);
  w.field("trace_id", trace);
  w.key("jobs").begin_array();
  std::int64_t deduped = 0, failed = 0, chip_evals = 0;
  std::map<mathx::HashKey128, bool> counted;
  std::vector<JobStages> job_stages(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const runtime::Scheduler::Ticket& t = tickets[i];
    const runtime::JobKind kind = runtime::job_kind(jobs[i].job);
    w.begin_object();
    w.field("id", jobs[i].id);
    w.field("kind", runtime::kind_name(kind));
    w.field("key", t.key.hex());
    deduped += t.deduped ? 1 : 0;
    try {
      const runtime::Scheduler::ResultPtr res = t.future.get();
      w.field("cache", runtime::tier_name(res->tier));
      w.field("deduped", t.deduped);
      w.field("wall_s", res->wall_seconds);
      w.field("evaluated", res->stats.evaluated);
      const auto s0 = std::chrono::steady_clock::now();
      emit_result(w, res->value);
      JobStages& js = job_stages[i];
      if (t.deduped) {
        // A joiner shares another job's execution, whose stage record
        // that job reports: booking it again would count one compute
        // once per duplicate. The joiner's own cost is its wait, from
        // the request's start.
        js.queue_us =
            std::chrono::duration_cast<std::chrono::microseconds>(s0 - t0)
                .count();
      } else {
        js.admission_us = res->stages.admission_us;
        js.queue_us = res->stages.queue_us;
        js.hot_us = res->stages.hot_us;
        js.disk_us = res->stages.disk_us;
        js.compute_us = res->stages.compute_us;
        js.store_us = res->stages.store_us;
      }
      js.serialize_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - s0)
                            .count();
      w.key("stages").begin_object();
      stage_fields(w, js);
      w.end_object();
      StageHists::get(kind).observe(js);
      if (counted.emplace(t.key, true).second) {
        chip_evals += res->stats.evaluated;
      }
    } catch (const std::exception& e) {
      ++failed;
      obs::FlightRecorder::global().record(obs::FlightEventKind::kError,
                                           "job_failed", trace,
                                           obs::trace_now_us(), 0.0);
      w.key("error").begin_object();
      w.field("code", "job_failed");
      w.field("message", e.what());
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  w.key("summary").begin_object();
  w.field("requested", static_cast<std::int64_t>(jobs.size()));
  w.field("deduped", deduped);
  w.field("failed", failed);
  w.field("chip_evals", chip_evals);
  w.field("wall_s", wall);
  w.end_object();
  if (want_metrics) {
    w.key("metrics").raw(obs::Registry::global().snapshot().to_json());
  }
  w.end_object();

  const std::int64_t wall_us = static_cast<std::int64_t>(wall * 1e6);
  obs::FlightRecorder::global().record(
      obs::FlightEventKind::kRequest, "serve.request", trace,
      flight_start_us, static_cast<double>(wall_us),
      static_cast<std::int64_t>(jobs.size()));

  if (opts_.slow_us >= 0 && wall_us >= opts_.slow_us) {
    m.slow.add(1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.slow;
    }
    bench::JsonWriter sl;
    sl.begin_object();
    sl.field("ev", "slow_request");
    sl.field("trace_id", trace);
    sl.field("client", static_cast<std::int64_t>(conn_id));
    sl.field("wall_us", wall_us);
    sl.field("jobs", static_cast<std::int64_t>(jobs.size()));
    sl.field("deduped", deduped);
    sl.field("failed", failed);
    sl.key("job_stages").begin_array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      sl.begin_object();
      sl.field("id", jobs[i].id);
      sl.field("kind",
               runtime::kind_name(runtime::job_kind(jobs[i].job)));
      stage_fields(sl, job_stages[i]);
      sl.end_object();
    }
    sl.end_array();
    sl.end_object();
    log_slow_request(sl.str());
  }

  m.inflight.add(-1);
  m.requests.add(1);
  m.request_us.observe(wall_us);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.requests;
    if (failed > 0) ++counters_.errors;
  }
  span.attr("wall_s", wall).attr("deduped", deduped);
  return w.str();
}

}  // namespace csdac::serve
