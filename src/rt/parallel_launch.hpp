// Launch harness — the one batched-execution pattern behind the index
// layer's query_all, the DBSCAN engine phases and rt_knn's rounds: the
// simulator's optixLaunch over a 1-D grid.  Split out of rt/traversal.hpp
// so the traversal header stays a pure walk-kernel header (it now carries
// both the binary and the wide walk) and so the harness's threading deps
// (OpenMP wrappers, timers) don't leak into every traversal user.
#pragma once

#include <cstddef>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "rt/traversal.hpp"

namespace rtd::rt {

/// Launch harness: run `f(stats, i)` for i in [0, n) across `threads`
/// workers (0 = all hardware threads), timing the batch and summing the
/// per-thread work counters.
///
/// Zero-allocation and launcher-agnostic: each worker accumulates into a
/// TraversalStats on its OWN stack inside the parallel region and the
/// per-worker totals are merged once at region end
/// (parallel_for_accumulate), so no per-thread accumulator storage is
/// shared across threads at all.  Any number of threads may run launches
/// concurrently (the serving read path does); a single-thread launch runs
/// inline without entering an OpenMP region.
///
/// (An earlier revision staged the accumulators in a `static thread_local`
/// vector owned by the launching thread and handed workers slots of it —
/// but block-scope thread_local names inside the worker lambda resolve to
/// the EXECUTING thread's instance, so every non-launching worker indexed
/// its own empty vector.  The single-core container always took the serial
/// fast path and masked it; don't reintroduce that pattern.)
template <typename F>
LaunchStats parallel_launch(std::size_t n, int threads, F&& f) {
  Timer timer;
  LaunchStats out;
  parallel_for_accumulate(
      n, threads, [] { return TraversalStats{}; },
      [&](TraversalStats& stats, std::size_t i) { f(stats, i); },
      [&](const TraversalStats& stats) { out.work += stats; });
  out.seconds = timer.seconds();
  return out;
}

}  // namespace rtd::rt
