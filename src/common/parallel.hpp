// Structured parallelism: every launch (the paper's CUDA launch over a 1-D
// grid) runs on the caller plus up to t - 1 workers of one std::thread pool
// that ThreadSanitizer sees through; t = 1, or a launch from inside a body,
// runs inline.  Bodies take no lock the caller may hold and contain no stage
// site (lint rule `stage-in-launch`); no other thread runtime (lint rule
// `ambient-threads`).  See docs/ARCHITECTURE.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "common/function_ref.hpp"
#include "common/mutex.hpp"

namespace rtd {
namespace detail {

struct LaunchThreadState {
  int threads = 0;       // this thread's ThreadCountGuard setting (0: none)
  bool in_body = false;  // running a launch body
};

inline LaunchThreadState& launch_thread_state() {
  // lint:allow(static-thread-local): per-thread by design.
  static thread_local LaunchThreadState state;
  return state;
}

/// One launch, on the launching thread's stack: claim() hands out [0, n)
/// `chunk` indices at a time.  `error` and `active` belong to Pool::mu_.
struct Launch {
  bool claim(std::size_t& lo, std::size_t& hi) {
    lo = cursor.fetch_add(chunk, std::memory_order_relaxed);
    hi = std::min(n, lo + chunk);
    return lo < n;
  }

  const std::size_t n;
  const std::size_t chunk;
  const FunctionRef<void(Launch&)> body;  // one participant's whole share
  std::atomic<std::size_t> cursor{0};
  std::exception_ptr error{};  // the first throw
  std::size_t active = 0;      // workers inside body
};

/// The workers under every launch.  They start when a launch first needs
/// them, up to the most any launch has asked for (at most kMaxWorkers),
/// block on a condition variable while idle, and are joined at exit.
class Pool {
 public:
  static constexpr std::size_t kMaxWorkers = 255;
  static Pool& instance() {
    static Pool pool;
    return pool;
  }
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    mu_.lock();
    stopping_ = true;
    mu_.unlock();
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Runs `share` on the caller and up to t - 1 workers, then rethrows the
  /// first exception any of them threw.  A chunk is n / 8t indices, at
  /// least 1 and at most 64, so radix sort's t chunks go one by one.
  void run(std::size_t n, std::size_t t, FunctionRef<void(Launch&)> share)
      RTD_EXCLUDES(mu_) {
    Launch launch{n, std::clamp<std::size_t>(n / (8 * t), 1, 64), share};
    const std::size_t helpers = std::min(t - 1, kMaxWorkers);
    {
      const MutexLock lock(mu_);
      while (workers_.size() < helpers) {
        workers_.emplace_back([this] { work(); });
      }
      queue_.insert(queue_.end(), helpers, &launch);  // one entry per seat
    }
    for (std::size_t k = 0; k < helpers; ++k) wake_.notify_one();
    participate(launch);
    const MutexLock lock(mu_);
    // The range is done: free the seats no worker took, wait for the rest.
    queue_.erase(std::remove(queue_.begin(), queue_.end(), &launch),
                 queue_.end());
    while (launch.active > 0) done_.wait(mu_);
    if (launch.error) std::rethrow_exception(launch.error);
  }

 private:
  void participate(Launch& launch) RTD_EXCLUDES(mu_) {
    launch_thread_state().in_body = true;
    try {
      launch.body(launch);
    } catch (...) {
      launch.cursor.store(launch.n, std::memory_order_relaxed);  // stop
      const MutexLock lock(mu_);
      if (!launch.error) launch.error = std::current_exception();
    }
    launch_thread_state().in_body = false;
  }

  void work() RTD_EXCLUDES(mu_) {
    mu_.lock();
    for (;;) {
      while (!stopping_ && queue_.empty()) wake_.wait(mu_);
      if (queue_.empty()) break;
      Launch& launch = *queue_.front();
      queue_.pop_front();
      ++launch.active;
      mu_.unlock();
      participate(launch);
      mu_.lock();
      if (--launch.active == 0) done_.notify_all();
    }
    mu_.unlock();
  }

  Mutex mu_;
  std::condition_variable_any wake_;  // a seat was queued, or exit
  std::condition_variable_any done_;  // a launch lost its last worker
  std::vector<std::thread> workers_ RTD_GUARDED_BY(mu_);
  std::deque<Launch*> queue_ RTD_GUARDED_BY(mu_);  // free seats, in order
  bool stopping_ RTD_GUARDED_BY(mu_) = false;
};

}  // namespace detail

/// What a `threads = 0` launch on this thread resolves to.
inline int hardware_threads() {
  const auto hardware = std::thread::hardware_concurrency();
  const int set = detail::launch_thread_state().threads;
  return set > 0 ? set : std::max(1, static_cast<int>(hardware));
}

/// A launch's thread count: `threads`, or hardware_threads() for 0.
inline int resolve_threads(int threads) {
  return threads > 0 ? threads : hardware_threads();
}

/// Sets what a `threads = 0` launch on this thread resolves to (else
/// hardware_concurrency()) for its scope; benchmark mains and tests only.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads)
      : previous_(std::exchange(detail::launch_thread_state().threads,
                                threads)) {}
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;
  ~ThreadCountGuard() { detail::launch_thread_state().threads = previous_; }

 private:
  int previous_;
};

/// parallel_for with a per-worker accumulator: make() builds one on each
/// participant's stack, f(acc, i) updates it, and combine(acc) runs once per
/// participant, serialized.  No storage is shared across workers, so the hot
/// loop has no false sharing and many threads may launch at once.
template <typename Make, typename F, typename Combine>
void parallel_for_accumulate(std::size_t n, int threads, Make&& make, F&& f,
                             Combine&& combine) {
  const int t =
      detail::launch_thread_state().in_body ? 1 : resolve_threads(threads);
  if (t == 1 || n < 2) {
    auto acc = make();
    for (std::size_t i = 0; i < n; ++i) f(acc, i);
    combine(acc);
    return;
  }
  Mutex combine_mu;
  detail::Pool::instance().run(
      n, static_cast<std::size_t>(t), [&](detail::Launch& launch) {
        auto acc = make();
        for (std::size_t lo = 0, hi = 0; launch.claim(lo, hi);) {
          for (std::size_t i = lo; i < hi; ++i) f(acc, i);
        }
        const MutexLock lock(combine_mu);
        combine(acc);
      });
}

/// parallel_for(n, threads, f): invoke f(i) for i in [0, n).
template <typename F>
void parallel_for(std::size_t n, int threads, F&& f) {
  parallel_for_accumulate(
      n, threads, [] { return 0; }, [&](int, std::size_t i) { f(i); },
      [](int) {});
}

}  // namespace rtd
