#include "mathx/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "mathx/alloc_counter.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace csdac::mathx {

namespace {

/// Engine instruments in the process-wide registry, resolved once. The
/// per-item cost stays on RunStats' plain per-thread vector; the registry
/// sees whole-run aggregates (a few adds per run/wave, never per item).
struct EngineMetrics {
  obs::Counter& runs;
  obs::Counter& items;
  obs::Counter& waves;
  obs::Counter& early_stops;
  obs::Histogram& run_us;
  obs::Histogram& wave_us;

  static EngineMetrics& get() {
    static EngineMetrics m{
        obs::Registry::global().counter(
            "engine.runs", "parallel engine runs (for_each dispatches)"),
        obs::Registry::global().counter(
            "engine.items", "items evaluated by the parallel engine"),
        obs::Registry::global().counter(
            "engine.waves", "adaptive-MC waves (CI-checked batches)"),
        obs::Registry::global().counter(
            "engine.early_stops", "adaptive runs stopped before the cap"),
        obs::Registry::global().histogram(
            "engine.run_us", "parallel engine run wall time [us]"),
        obs::Registry::global().histogram(
            "engine.wave_us", "adaptive-MC wave wall time [us]"),
    };
    return m;
  }
};

}  // namespace

int resolve_threads(int threads) {
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(threads, 1);
}

ThreadPool::ThreadPool(int threads) {
  const int n = resolve_threads(threads);
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int t = 0; t + 1 < n; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    {
      // Per-worker span, nested under whatever span the dispatching
      // thread had open (no-op when no sink is registered).
      obs::ScopedSpan span("engine.worker", span_parent_);
      span.attr("worker", worker);
      work(worker);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --busy_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::work(int worker) {
  while (!failed_.load(std::memory_order_relaxed)) {
    const std::int64_t lo = next_.fetch_add(chunk_);
    if (lo >= end_) return;
    const std::int64_t hi = std::min(lo + chunk_, end_);
    for (std::int64_t i = lo; i < hi; ++i) {
      try {
        (*fn_)(worker, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_ || i < error_index_) {
          error_ = std::current_exception();
          error_index_ = i;
        }
        failed_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

void ThreadPool::for_each(std::int64_t begin, std::int64_t end,
                          const std::function<void(std::int64_t)>& fn,
                          std::int64_t chunk) {
  const std::function<void(int, std::int64_t)> wrapped =
      [&fn](int, std::int64_t i) { fn(i); };
  for_each_indexed(begin, end, wrapped, chunk);
}

void ThreadPool::for_each_indexed(
    std::int64_t begin, std::int64_t end,
    const std::function<void(int, std::int64_t)>& fn, std::int64_t chunk) {
  if (begin >= end) return;
  if (chunk < 1) throw std::invalid_argument("ThreadPool: chunk < 1");
  if (workers_.empty()) {
    obs::ScopedSpan span("engine.worker");
    span.attr("worker", 0);
    for (std::int64_t i = begin; i < end; ++i) fn(0, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    next_.store(begin);
    end_ = end;
    chunk_ = chunk;
    fn_ = &fn;
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    busy_ = static_cast<int>(workers_.size());
    span_parent_ = obs::Tracer::current_span_id();
    ++generation_;
  }
  cv_start_.notify_all();
  {
    obs::ScopedSpan span("engine.worker");  // calling thread is worker 0
    span.attr("worker", 0);
    work(0);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return busy_ == 0; });
  fn_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

namespace {

void finish_stats(RunStats& s, std::chrono::steady_clock::time_point t0) {
  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  s.items_per_second = s.wall_seconds > 0.0
                           ? static_cast<double>(s.evaluated) / s.wall_seconds
                           : 0.0;
}

void fill_utilization(RunStats& s) {
  std::int64_t max_items = 0;
  for (const std::int64_t c : s.per_thread_items) {
    max_items = std::max(max_items, c);
  }
  if (max_items > 0 && !s.per_thread_items.empty()) {
    const double mean = static_cast<double>(s.evaluated) /
                        static_cast<double>(s.per_thread_items.size());
    s.utilization = mean / static_cast<double>(max_items);
  }
}

}  // namespace

RunStats parallel_for(std::int64_t n, int threads,
                      const std::function<void(std::int64_t)>& fn,
                      std::int64_t chunk) {
  // Delegate so per-thread item counts and utilization are reported
  // consistently on every path, including the single-thread one (threads=1
  // yields a one-entry per_thread_items vector, never an empty one).
  const std::function<void(int, std::int64_t)> wrapped =
      [&fn](int, std::int64_t i) { fn(i); };
  return parallel_for_indexed(n, threads, wrapped, chunk);
}

RunStats parallel_for_indexed(std::int64_t n, int threads,
                              const std::function<void(int, std::int64_t)>& fn,
                              std::int64_t chunk, bool count_allocs) {
  const auto t0 = std::chrono::steady_clock::now();
  ThreadPool pool(clamp_threads_to_items(threads, n));
  obs::ScopedSpan span("engine.run");
  span.attr("items", n).attr("threads", pool.threads());
  RunStats s;
  s.threads = pool.threads();
  s.per_thread_items.assign(static_cast<std::size_t>(pool.threads()), 0);
  const std::function<void(int, std::int64_t)> counted =
      [&](int worker, std::int64_t i) {
        ++s.per_thread_items[static_cast<std::size_t>(worker)];
        fn(worker, i);
      };
  std::optional<ScopedAllocCounting> counting;
  if (count_allocs) counting.emplace();
  pool.for_each_indexed(0, n, counted, chunk);
  if (counting) {
    const AllocCounts c = counting->so_far();
    s.alloc_bytes = c.bytes;
    s.alloc_count = c.count;
  }
  s.evaluated = n;
  fill_utilization(s);
  finish_stats(s, t0);
  EngineMetrics& m = EngineMetrics::get();
  m.runs.add(1);
  m.items.add(n);
  m.run_us.observe(static_cast<std::int64_t>(s.wall_seconds * 1e6));
  return s;
}

RunStats parallel_for_blocks_indexed(
    std::int64_t n, int threads, std::int64_t block,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn,
    bool count_allocs) {
  if (block < 1) {
    throw std::invalid_argument("parallel_for_blocks: block < 1");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t nblocks = (n + block - 1) / block;
  ThreadPool pool(clamp_threads_to_items(threads, nblocks));
  obs::ScopedSpan span("engine.run");
  span.attr("items", n).attr("threads", pool.threads()).attr("block", block);
  RunStats s;
  s.threads = pool.threads();
  s.per_thread_items.assign(static_cast<std::size_t>(pool.threads()), 0);
  const std::function<void(int, std::int64_t)> counted =
      [&](int worker, std::int64_t b) {
        const std::int64_t lo = b * block;
        const std::int64_t hi = std::min(lo + block, n);
        s.per_thread_items[static_cast<std::size_t>(worker)] += hi - lo;
        fn(worker, lo, hi);
      };
  std::optional<ScopedAllocCounting> counting;
  if (count_allocs) counting.emplace();
  pool.for_each_indexed(0, nblocks, counted);
  if (counting) {
    const AllocCounts c = counting->so_far();
    s.alloc_bytes = c.bytes;
    s.alloc_count = c.count;
  }
  s.evaluated = n;
  fill_utilization(s);
  finish_stats(s, t0);
  EngineMetrics& m = EngineMetrics::get();
  m.runs.add(1);
  m.items.add(n);
  m.run_us.observe(static_cast<std::int64_t>(s.wall_seconds * 1e6));
  return s;
}

double wilson_half_width(std::int64_t pass, std::int64_t n, double z) {
  if (n <= 0) return 1.0;
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(pass) / nn;
  const double z2 = z * z;
  return z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) /
         (1.0 + z2 / nn);
}

YieldRun adaptive_yield_run(
    const EarlyStopOptions& opts, int threads,
    const std::function<bool(std::int64_t)>& item_passes) {
  const std::function<bool(int, std::int64_t)> wrapped =
      [&item_passes](int, std::int64_t i) { return item_passes(i); };
  return adaptive_yield_run_indexed(opts, threads, wrapped);
}

YieldRun adaptive_yield_run_indexed(
    const EarlyStopOptions& opts, int threads,
    const std::function<bool(int, std::int64_t)>& item_passes,
    bool count_allocs) {
  if (opts.max_items < 1 || opts.batch < 1 || opts.min_items < 1 ||
      opts.ci_half_width < 0.0) {
    throw std::invalid_argument("adaptive_yield_run: bad options");
  }
  const auto t0 = std::chrono::steady_clock::now();
  ThreadPool pool(clamp_threads_to_items(threads, opts.max_items));
  YieldRun r;
  r.stats.threads = pool.threads();
  r.stats.per_thread_items.assign(static_cast<std::size_t>(pool.threads()),
                                  0);
  std::atomic<std::int64_t> passed{0};
  const std::function<void(int, std::int64_t)> counted =
      [&](int worker, std::int64_t i) {
        ++r.stats.per_thread_items[static_cast<std::size_t>(worker)];
        if (item_passes(worker, i)) {
          passed.fetch_add(1, std::memory_order_relaxed);
        }
      };
  std::optional<ScopedAllocCounting> counting;
  if (count_allocs) counting.emplace();
  obs::ScopedSpan run_span("mc.adaptive");
  run_span.attr("max_items", opts.max_items).attr("threads", pool.threads());
  EngineMetrics& m = EngineMetrics::get();
  std::int64_t wave = 0;
  while (r.evaluated < opts.max_items) {
    const std::int64_t batch =
        std::min(opts.batch, opts.max_items - r.evaluated);
    {
      const auto w0 = std::chrono::steady_clock::now();
      obs::ScopedSpan wave_span("mc.wave");
      wave_span.attr("wave", wave).attr("from", r.evaluated)
          .attr("items", batch);
      pool.for_each_indexed(r.evaluated, r.evaluated + batch, counted);
      m.waves.add(1);
      m.items.add(batch);
      m.wave_us.observe(static_cast<std::int64_t>(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - w0)
              .count()));
    }
    ++wave;
    r.evaluated += batch;
    r.passed = passed.load();
    if (opts.ci_half_width > 0.0 && r.evaluated >= opts.min_items &&
        wilson_half_width(r.passed, r.evaluated) <= opts.ci_half_width) {
      r.stats.early_stopped = true;
      m.early_stops.add(1);
      break;
    }
  }
  if (counting) {
    const AllocCounts c = counting->so_far();
    r.stats.alloc_bytes = c.bytes;
    r.stats.alloc_count = c.count;
  }
  r.yield = static_cast<double>(r.passed) / static_cast<double>(r.evaluated);
  r.ci95 = wilson_half_width(r.passed, r.evaluated);
  r.stats.evaluated = r.evaluated;
  r.stats.skipped = opts.max_items - r.evaluated;
  fill_utilization(r.stats);
  finish_stats(r.stats, t0);
  run_span.attr("evaluated", r.evaluated).attr("passed", r.passed)
      .attr("early_stopped", r.stats.early_stopped ? "true" : "false");
  return r;
}

YieldRun adaptive_yield_run_blocks_indexed(
    const EarlyStopOptions& opts, int threads, std::int64_t block,
    const std::function<std::int64_t(int, std::int64_t, std::int64_t)>&
        block_passes,
    bool count_allocs) {
  if (opts.max_items < 1 || opts.batch < 1 || opts.min_items < 1 ||
      opts.ci_half_width < 0.0) {
    throw std::invalid_argument("adaptive_yield_run: bad options");
  }
  if (block < 1) {
    throw std::invalid_argument("adaptive_yield_run: block < 1");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t max_blocks = (opts.max_items + block - 1) / block;
  ThreadPool pool(clamp_threads_to_items(threads, max_blocks));
  YieldRun r;
  r.stats.threads = pool.threads();
  r.stats.per_thread_items.assign(static_cast<std::size_t>(pool.threads()),
                                  0);
  std::atomic<std::int64_t> passed{0};
  // Set per wave: the blocks of the current wave, relative to its start.
  std::int64_t wave_lo = 0;
  std::int64_t wave_hi = 0;
  const std::function<void(int, std::int64_t)> counted =
      [&](int worker, std::int64_t b) {
        const std::int64_t lo = wave_lo + b * block;
        const std::int64_t hi = std::min(lo + block, wave_hi);
        r.stats.per_thread_items[static_cast<std::size_t>(worker)] += hi - lo;
        passed.fetch_add(block_passes(worker, lo, hi),
                         std::memory_order_relaxed);
      };
  std::optional<ScopedAllocCounting> counting;
  if (count_allocs) counting.emplace();
  obs::ScopedSpan run_span("mc.adaptive");
  run_span.attr("max_items", opts.max_items).attr("threads", pool.threads());
  EngineMetrics& m = EngineMetrics::get();
  std::int64_t wave = 0;
  while (r.evaluated < opts.max_items) {
    const std::int64_t batch =
        std::min(opts.batch, opts.max_items - r.evaluated);
    wave_lo = r.evaluated;
    wave_hi = r.evaluated + batch;
    const std::int64_t nblocks = (batch + block - 1) / block;
    {
      const auto w0 = std::chrono::steady_clock::now();
      obs::ScopedSpan wave_span("mc.wave");
      wave_span.attr("wave", wave).attr("from", r.evaluated)
          .attr("items", batch);
      pool.for_each_indexed(0, nblocks, counted);
      m.waves.add(1);
      m.items.add(batch);
      m.wave_us.observe(static_cast<std::int64_t>(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - w0)
              .count()));
    }
    ++wave;
    r.evaluated += batch;
    r.passed = passed.load();
    if (opts.ci_half_width > 0.0 && r.evaluated >= opts.min_items &&
        wilson_half_width(r.passed, r.evaluated) <= opts.ci_half_width) {
      r.stats.early_stopped = true;
      m.early_stops.add(1);
      break;
    }
  }
  if (counting) {
    const AllocCounts c = counting->so_far();
    r.stats.alloc_bytes = c.bytes;
    r.stats.alloc_count = c.count;
  }
  r.yield = static_cast<double>(r.passed) / static_cast<double>(r.evaluated);
  r.ci95 = wilson_half_width(r.passed, r.evaluated);
  r.stats.evaluated = r.evaluated;
  r.stats.skipped = opts.max_items - r.evaluated;
  fill_utilization(r.stats);
  finish_stats(r.stats, t0);
  run_span.attr("evaluated", r.evaluated).attr("passed", r.passed)
      .attr("early_stopped", r.stats.early_stopped ? "true" : "false");
  return r;
}

}  // namespace csdac::mathx
