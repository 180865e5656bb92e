// QueryScratch — the per-thread scratch arena of the query hot path.
//
// The zero-allocation contract (docs/ARCHITECTURE.md): once warm, a query
// pass performs no heap allocations.  Traversal stacks are fixed-size stack
// arrays inside the walk kernels (rt/traversal.hpp), the launch harness
// reuses a thread-local accumulator buffer (rt/parallel_launch.hpp), and
// everything that genuinely needs a growable buffer — neighbor-id staging,
// expansion worklists — borrows it from this arena instead of constructing
// a fresh std::vector per query.
//
// Ownership contract:
//  * QueryScratch::local() returns this thread's arena; buffers are
//    borrowed, never handed across threads.
//  * A borrowed buffer is valid until the same thread borrows the same
//    buffer again — callers that need two live buffers use the two distinct
//    members, callers that need the contents to survive another query copy
//    them out.
//  * Capacity only grows (clear() keeps the heap block), so per-thread
//    steady state reaches zero allocations after the first pass warms the
//    high-water mark.
#pragma once

#include <cstdint>
#include <vector>

namespace rtd::index {

struct QueryScratch {
  /// Per-query neighbor-id staging (e.g. Algorithm 1's NeighborSet).
  std::vector<std::uint32_t> neighbors;
  /// Cluster-expansion worklist / frontier buffer.
  std::vector<std::uint32_t> worklist;
  /// Per-id "last query that saw it" stamps, for walks that meet one id
  /// several times but must report it once (kTriangles: a ray crosses
  /// several triangles of one sphere).  `stamp_epoch` numbers the queries;
  /// `stamp_busy` marks a query in flight, so one started from inside its
  /// visitor on the same thread knows not to reuse the table.
  std::vector<std::uint32_t> stamp;
  std::uint32_t stamp_epoch = 0;
  bool stamp_busy = false;

  /// This thread's arena.
  static QueryScratch& local() {
    // The arena is borrowed and returned strictly within the executing
    // thread (ownership contract above) and never handed to another worker
    // of a launch, so executing-thread resolution is exactly right.
    // lint:allow(static-thread-local): per-thread arena by design
    static thread_local QueryScratch scratch;
    return scratch;
  }

  /// Borrow `neighbors`, cleared (capacity retained).
  std::vector<std::uint32_t>& acquire_neighbors() {
    neighbors.clear();
    return neighbors;
  }

  /// Borrow `worklist`, cleared (capacity retained).
  std::vector<std::uint32_t>& acquire_worklist() {
    worklist.clear();
    return worklist;
  }
};

}  // namespace rtd::index
