// Thin structured-parallelism layer over OpenMP.
//
// In the paper these loops are CUDA kernel launches over shader/RT cores; in
// this reproduction they are OpenMP parallel regions.  Centralizing the
// pattern here keeps every algorithm file free of raw pragmas and lets tests
// force single-threaded execution deterministically.
//
// Concurrency contracts (machine-checked; see docs/ARCHITECTURE.md "Static
// analysis & concurrency contracts" and scripts/lint_invariants.py):
//  * Loop bodies passed to these helpers run on OMP worker threads.  They
//    must not take locks the launching thread may hold, must not touch
//    mutex-guarded session state, and must not contain stage sites
//    (RTD_STAGE throwing from inside a parallel region would terminate
//    the process — the linter rejects any lexically-nested site).
//  * `static thread_local` names referenced from a loop body resolve to the
//    EXECUTING worker's instance, not the launching thread's — the PR 6
//    trap documented in rt/parallel_launch.hpp.  Per-thread state crosses
//    into a region via make()/make_ctx() factories below, never via
//    thread_local storage owned by the launcher.
//  * ThreadCountGuard mutates process-global OpenMP state: construct it
//    only from a single-writer context (benchmark mains, the session's
//    serialized launch path), never concurrently with another launch.
#pragma once

#include <omp.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rtd {

/// Number of worker threads OpenMP will use for parallel regions.
inline int hardware_threads() { return omp_get_max_threads(); }

/// Scoped override of the OpenMP thread count (used by tests and by the
/// thread-scaling benchmarks).  Restores the previous value on destruction.
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

/// parallel_for(n, f): invoke f(i) for i in [0, n) across all threads.
/// Dynamic scheduling: per-point DBSCAN work is highly irregular (a ray in a
/// dense region touches far more BVH nodes than one in a sparse region).
template <typename F>
void parallel_for(std::size_t n, F&& f) {
#pragma omp parallel for schedule(dynamic, 64)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    f(static_cast<std::size_t>(i));
  }
}

/// parallel_for with a per-thread context object: g() constructs the context
/// once per thread, f(ctx, i) uses it.  Avoids false sharing of per-thread
/// accumulators (e.g. traversal statistics, RNG streams).
template <typename MakeCtx, typename F>
void parallel_for_ctx(std::size_t n, MakeCtx&& make_ctx, F&& f) {
#pragma omp parallel
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
void parallel_for_accumulate(std::size_t n, Make&& make, F&& f,
                             Combine&& combine) {
#pragma omp parallel
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

/// Sum a value computed per index over all threads (reduction).
template <typename F>
std::uint64_t parallel_count(std::size_t n, F&& predicate) {
  std::uint64_t total = 0;
#pragma omp parallel for schedule(static) reduction(+ : total)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    total += predicate(static_cast<std::size_t>(i)) ? 1u : 0u;
  }
  return total;
}

}  // namespace rtd
