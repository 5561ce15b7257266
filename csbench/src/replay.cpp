#include "replay.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

#include "bench_json.hpp"
#include "obs/span.hpp"
#include "runtime/json.hpp"
#include "runtime/scheduler.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace csbench {
namespace {

namespace runtime = csdac::runtime;
using csdac::obs::ScopedSpan;

/// Pace of a closed-loop stream's replay (it has no schedule of its own).
constexpr double kClosedReplayRate = 1000.0;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

void record_exec(const runtime::Job& job, const runtime::ExecResult& e,
                 ReplayResult& r) {
  r.hot_get_us.push_back(static_cast<double>(e.stages.hot_us));
  if (e.tier == runtime::ResultTier::kComputed) {
    r.compute_us[std::string(runtime::kind_name(runtime::job_kind(job)))]
        .push_back(static_cast<double>(e.stages.compute_us));
    r.store_us.push_back(static_cast<double>(e.stages.store_us));
  }
}

void append(ReplayResult& into, ReplayResult& from) {
  const auto cat = [](std::vector<double>& a, std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(into.parse_us, from.parse_us);
  cat(into.key_us, from.key_us);
  cat(into.sched_wait_us, from.sched_wait_us);
  cat(into.emit_us, from.emit_us);
  cat(into.lag_us, from.lag_us);
  cat(into.hot_get_us, from.hot_get_us);
  cat(into.store_us, from.store_us);
  for (auto& [kind, v] : from.compute_us) cat(into.compute_us[kind], v);
}

}  // namespace

ReplayResult replay_stream(const Stream& stream,
                           const std::vector<std::string>& refs, int threads,
                           double seconds, const std::string& cache_dir,
                           Outcome& out) {
  runtime::SchedulerOptions so;  // as csdac_serve --listen configures it
  so.workers = threads;
  so.threads_per_job = 1;
  so.max_inflight_per_client = 64;
  so.exec.cache_dir = cache_dir;
  so.exec.hot_bytes = 64ull << 20;
  runtime::Scheduler sched(so);
  ReplayResult result;

  // Set-up: the base key set, computed and stored through the scheduler.
  {
    StreamRequest warm;
    warm.jobs = stream.base;
    const auto jobs = csdac::serve::parse_request_text(
        stream.request_text(warm));
    std::vector<runtime::Scheduler::Ticket> tickets;
    for (const auto& j : jobs) tickets.push_back(sched.submit(j.job));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      record_exec(jobs[i].job, *tickets[i].future.get(), result);
    }
  }

  struct Planned {
    double due_s;
    int request;
  };
  std::vector<std::vector<Planned>> plan(static_cast<std::size_t>(threads));
  if (stream.open_loop) {
    for (std::size_t i = 0; i < stream.requests.size(); ++i) {
      const StreamRequest& r = stream.requests[i];
      if (r.due_s >= seconds) break;
      plan[static_cast<std::size_t>(r.conn % threads)].push_back(
          {r.due_s, static_cast<int>(i)});
    }
  } else {
    const int n = static_cast<int>(seconds * kClosedReplayRate);
    for (int k = 0; k < n; ++k) {
      plan[static_cast<std::size_t>(k % threads)].push_back(
          {k / kClosedReplayRate,
           k % static_cast<int>(stream.requests.size())});
    }
  }

  std::mutex mutex;  // guards result and out
  const auto start = Clock::now() + std::chrono::milliseconds(10);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ReplayResult mine;
      std::int64_t attempted = 0;
      std::vector<std::string> failures;
      for (const Planned& p : plan[static_cast<std::size_t>(t)]) {
        const StreamRequest& req =
            stream.requests[static_cast<std::size_t>(p.request)];
        const std::string text = stream.request_text(req);
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(p.due_s));
        std::this_thread::sleep_until(due);
        mine.lag_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - due)
                .count());
        ++attempted;
        try {
          ScopedSpan request_span("replay.request");
          auto t0 = Clock::now();
          std::vector<csdac::serve::RequestJob> jobs;
          {
            ScopedSpan span("serve.parse");
            runtime::JsonValue doc;
            std::string err;
            if (!runtime::parse_json(text, doc, &err)) {
              failures.push_back("replay parse: " + err);
              continue;
            }
            jobs = csdac::serve::parse_request(doc);
          }
          mine.parse_us.push_back(us_since(t0));

          t0 = Clock::now();
          {
            ScopedSpan span("runtime.key");
            for (const auto& j : jobs) (void)runtime::job_key(j.job);
          }
          mine.key_us.push_back(us_since(t0));

          // Scheduler wait: submit until the request's last result resolved,
          // minus the longest execution among its jobs (they run in
          // parallel), i.e. the time the request spent queued or handed off.
          t0 = Clock::now();
          std::vector<runtime::Scheduler::Ticket> tickets;
          for (const auto& j : jobs) {
            tickets.push_back(sched.submit(j.job, static_cast<std::uint64_t>(t),
                                           j.id));
          }
          std::vector<runtime::Scheduler::ResultPtr> results;
          double longest_exec_us = 0.0;
          for (auto& ticket : tickets) {
            results.push_back(ticket.future.get());
            longest_exec_us =
                std::max(longest_exec_us, results.back()->wall_seconds * 1e6);
          }
          mine.sched_wait_us.push_back(us_since(t0) - longest_exec_us);
          for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!tickets[i].deduped) {
              record_exec(jobs[i].job, *results[i], mine);
            }
          }

          t0 = Clock::now();
          csdac::bench::JsonWriter w;
          {
            ScopedSpan span("serve.emit");
            w.begin_object();
            w.field("schema", csdac::serve::kResponseSchema);
            w.field("trace_id", "replay");
            w.key("jobs").begin_array();
            for (const auto& res : results) {
              w.begin_object();
              csdac::serve::emit_result(w, res->value);
              w.end_object();
            }
            w.end_array();
            w.end_object();
          }
          mine.emit_us.push_back(us_since(t0));
          if (!reply_matches(w.str(), req, refs)) {
            failures.push_back("replay result differs from the reference");
          }
        } catch (const std::exception& e) {
          failures.push_back(std::string("replay request: ") + e.what());
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      append(result, mine);
      out.attempted += attempted;
      for (const auto& f : failures) out.fail(f);
    });
  }
  for (auto& th : pool) th.join();
  return result;
}

}  // namespace csbench
