#pragma once

// Deterministic parallel trial running.
//
// Every experiment in this repo is a loop of independent Monte Carlo
// trials, and every trial's randomness comes from one root `Rng`. This
// header shards such loops across a fixed-size thread pool while keeping
// the output *bit-identical* to the serial run:
//
//   * per-trial generators are derived on the calling thread, in trial
//     order, via `root.split(trial)` — so the streams (and the state the
//     root is left in) never depend on the job count or the schedule;
//   * each trial writes only its own pre-allocated result slot;
//   * callers merge results in trial order after the join.
//
// `run_trials(n, jobs, root, fn)` packages the whole contract; `jobs <= 1`
// degenerates to the plain loop (same code path, zero threads), which is
// what makes "`--jobs 8` is byte-identical to `--jobs 1`" testable.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "support/stopwatch.h"

namespace radiomc {

/// std::thread::hardware_concurrency with a floor of 1.
unsigned hardware_jobs() noexcept;

/// A typed job count (--jobs, RADIOMC_JOBS): an unsigned decimal that fits
/// `unsigned`, "0" meaning all hardware threads. std::nullopt otherwise;
/// callers report `--jobs: '<text>' is not an unsigned integer`.
std::optional<unsigned> parse_jobs(std::string_view text);

/// Default job count when a driver got no explicit --jobs: the
/// RADIOMC_JOBS environment variable (parsed by parse_jobs), else
/// `fallback` (serial by default, so plain runs stay plain).
unsigned jobs_from_env(unsigned fallback = 1) noexcept;

/// Fixed-size pool of worker threads draining one FIFO task queue.
/// Tasks must not throw (wrap trial bodies that can; `run_indexed` does).
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;   // workers wait for tasks / stop
  std::condition_variable drain_;  // wait_idle waits for quiescence
  std::vector<std::function<void()>> queue_;
  std::size_t queue_head_ = 0;
  unsigned active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for i = 0..n-1 on up to `jobs` threads and returns the
/// results in index order. The result type must be default-constructible
/// and movable. Work is claimed from an atomic counter, so threads load-
/// balance; determinism comes from each index owning its own result slot.
/// The first exception thrown by any trial is rethrown on the caller.
template <typename Fn>
auto run_indexed(std::uint64_t n, unsigned jobs, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::uint64_t{}))>> {
  using R = std::decay_t<decltype(fn(std::uint64_t{}))>;
  std::vector<R> out(n);
  if (n == 0) return out;
  const std::uint64_t cap = jobs < 1 ? 1 : jobs;
  const unsigned workers =
      static_cast<unsigned>(cap < n ? cap : n);
  if (workers <= 1) {
    for (std::uint64_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  std::atomic<std::uint64_t> next{0};
  std::mutex err_mutex;
  std::exception_ptr err;
  auto drain = [&]() {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        out[i] = fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mutex);
        if (!err) err = std::current_exception();
        return;
      }
    }
  };
  {
    ThreadPool pool(workers);
    for (unsigned w = 0; w < workers; ++w) pool.submit(drain);
    pool.wait_idle();
  }
  if (err) std::rethrow_exception(err);
  return out;
}

/// The deterministic trial runner. Runs `fn(trial, rng)` for
/// trial = 0..n-1, where each trial's generator is `root.split(trial)` —
/// derived serially on the calling thread in trial order — and returns
/// the results in trial order. Output (and the final state of `root`) is
/// a function of the root seed and `n` only: independent of `jobs` and
/// of how the OS schedules the workers.
template <typename Fn>
auto run_trials(std::uint64_t n, unsigned jobs, Rng& root, Fn&& fn)
    -> std::vector<
        std::decay_t<decltype(fn(std::uint64_t{}, std::declval<Rng&>()))>> {
  std::vector<Rng> rngs;
  rngs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) rngs.push_back(root.split(i));
  return run_indexed(n, jobs,
                     [&](std::uint64_t i) { return fn(i, rngs[i]); });
}

/// Wall-clock + process-CPU stopwatch for run records: CPU time close to
/// `jobs ×` wall time is the signature of a well-fed pool. Built on the
/// sanctioned clock in support/stopwatch.h so this header never touches
/// a clock identifier itself (no-wall-clock lint rule).
class RunTimer {
 public:
  RunTimer() : wall0_ns_(monotonic_now_ns()), cpu0_ns_(process_cpu_ns()) {}

  double wall_ms() const {
    return static_cast<double>(monotonic_now_ns() - wall0_ns_) / 1e6;
  }
  double cpu_ms() const {
    return static_cast<double>(process_cpu_ns() - cpu0_ns_) / 1e6;
  }

 private:
  std::uint64_t wall0_ns_;
  std::uint64_t cpu0_ns_;
};

}  // namespace radiomc
