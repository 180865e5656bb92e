// Thin structured-parallelism layer over OpenMP.
//
// In the paper these loops are CUDA kernel launches over shader/RT cores; in
// this reproduction they are OpenMP parallel regions.  Centralizing the
// pattern here keeps every algorithm file free of raw pragmas.
//
// Every launch takes its thread count, as a CUDA launch states its grid:
//  * 0 means hardware_threads(), i.e. omp_get_max_threads();
//  * a resolved 1 runs the loop inline on the caller, with no OpenMP region;
//  * any other count is passed to its region as num_threads(t).
// The library never changes OpenMP's thread-count setting.
//
// Concurrency contracts (machine-checked; see docs/ARCHITECTURE.md "Static
// analysis & concurrency contracts" and scripts/lint_invariants.py):
//  * Loop bodies passed to these helpers run on OMP worker threads.  They
//    must not take locks the launching thread may hold, must not touch
//    mutex-guarded session state, and must not contain stage sites
//    (RTD_STAGE throwing from inside a parallel region would terminate
//    the process — the linter rejects any lexically-nested site).
//  * `static thread_local` names referenced from a loop body resolve to the
//    EXECUTING worker's instance, not the launching thread's — the trap
//    documented in rt/parallel_launch.hpp.  Per-thread state crosses
//    into a region via make()/make_ctx() factories below, never via
//    thread_local storage owned by the launcher.
//  * Only this header, rt/radix_sort.hpp and dbscan/dclustplus.cpp name
//    OpenMP under src/ (lint rule `ambient-threads`).
#pragma once

#include <omp.h>

#include <cstddef>
#include <cstdint>

namespace rtd {

/// The count a `threads = 0` launch resolves to: OpenMP's current
/// thread-count setting.
inline int hardware_threads() { return omp_get_max_threads(); }

/// A launch's thread count: `threads`, or hardware_threads() for 0.
inline int resolve_threads(int threads) {
  return threads > 0 ? threads : hardware_threads();
}

/// Scoped override of OpenMP's thread-count setting, restored on
/// destruction.  It changes exactly one thing: what a `threads = 0` launch
/// resolves to on the constructing thread.  The library never constructs
/// one; benchmark mains and tests use it to stand in for a caller's
/// setting.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads)
      : previous_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;
  ~ThreadCountGuard() { omp_set_num_threads(previous_); }

 private:
  int previous_;
};

/// parallel_for(n, threads, f): invoke f(i) for i in [0, n).
/// Dynamic scheduling: per-point DBSCAN work is highly irregular (a ray in a
/// dense region touches far more BVH nodes than one in a sparse region).
template <typename F>
void parallel_for(std::size_t n, int threads, F&& f) {
  const int t = resolve_threads(threads);
  if (t == 1) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, 64) num_threads(t)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    f(static_cast<std::size_t>(i));
  }
}

/// parallel_for with a per-thread context object: make_ctx(tid) constructs
/// the context once per worker (tid < the resolved thread count), f(ctx, i)
/// uses it.  Avoids false sharing of per-thread accumulators (e.g.
/// traversal statistics, RNG streams).
template <typename MakeCtx, typename F>
void parallel_for_ctx(std::size_t n, int threads, MakeCtx&& make_ctx,
                      F&& f) {
  const int t = resolve_threads(threads);
  if (t == 1) {
    auto ctx = make_ctx(std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) f(ctx, i);
    return;
  }
#pragma omp parallel num_threads(t)
  {
    auto ctx = make_ctx(static_cast<std::size_t>(omp_get_thread_num()));
#pragma omp for schedule(dynamic, 64)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      f(ctx, static_cast<std::size_t>(i));
    }
  }
}

/// parallel_for with a per-thread accumulator that is REDUCED at the end of
/// the region: make() constructs each worker's accumulator on that worker's
/// own stack inside the parallel region, f(acc, i) updates it, and
/// combine(acc) runs exactly once per worker, serialized.  Unlike handing
/// workers slots of a caller-owned buffer, no cross-thread storage exists at
/// all — which makes the pattern safe when several threads run a
/// parallel-for concurrently (e.g. many serving threads launching query
/// batches at once) and keeps the hot loop free of false sharing.
template <typename Make, typename F, typename Combine>
void parallel_for_accumulate(std::size_t n, int threads, Make&& make, F&& f,
                             Combine&& combine) {
  const int t = resolve_threads(threads);
  if (t == 1) {
    auto acc = make();
    for (std::size_t i = 0; i < n; ++i) f(acc, i);
    combine(acc);
    return;
  }
#pragma omp parallel num_threads(t)
  {
    auto acc = make();
#pragma omp for schedule(dynamic, 64) nowait
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      f(acc, static_cast<std::size_t>(i));
    }
#pragma omp critical(rtd_parallel_for_accumulate)
    combine(acc);
  }
}

}  // namespace rtd
