#include "dbscan/sequential.hpp"

#include <stdexcept>
#include <vector>

#include "common/timer.hpp"
#include "index/neighbor_index.hpp"
#include "index/query_scratch.hpp"

namespace rtd::dbscan {

Clustering sequential_dbscan(std::span<const geom::Vec3> points,
                             const Params& params) {
  require_eps(params.eps, "sequential_dbscan");
  if (params.min_pts == 0) {
    throw std::invalid_argument("sequential_dbscan: min_pts must be >= 1");
  }
  require_finite(points);

  const std::size_t n = points.size();
  Clustering out;
  out.labels.assign(n, kNoiseLabel);
  out.is_core.assign(n, 0);
  if (n == 0) return out;

  Timer total;
  Timer phase;
  // The reference traditionally runs on the uniform grid (kAuto keeps
  // that); any NeighborIndex backend can be substituted via Params::index.
  const index::IndexKind kind =
      index::resolve_auto(params.index, index::IndexKind::kGrid);
  const auto index = index::make_index(points, params.eps, kind);
  out.timings.index_build_seconds = phase.seconds();

  // Materialized neighbor lists, as Algorithm 1's explicit NeighborSet —
  // staged in the thread's QueryScratch arena instead of a fresh vector per
  // query (the borrow is consumed before the next query re-borrows it).
  // The index contract excludes the query point itself; Algorithm 1's
  // |N_eps(p)| includes it, hence the +1 in the core tests below.
  rt::TraversalStats stats;  // sequential: one accumulator is enough
  index::QueryScratch& scratch = index::QueryScratch::local();
  const auto neighbors_of =
      [&](std::uint32_t p) -> const std::vector<std::uint32_t>& {
    auto& ids = scratch.acquire_neighbors();
    index->query_sphere(points[p], params.eps, p,
                        [&](std::uint32_t j) { ids.push_back(j); }, stats);
    return ids;
  };

  // Algorithm 1 interleaves core detection with expansion; we track the
  // "assigned" state via labels (kNoiseLabel doubles as UNASSIGNED until a
  // point is claimed or definitively classified).
  phase.restart();
  constexpr std::int32_t kUnassigned = kNoiseLabel;
  std::vector<bool> visited(n, false);
  std::int32_t next_cluster = 0;
  // Breadth-first worklist, borrowed from the arena (vector + head cursor
  // replaces the former std::deque — same FIFO order, reusable storage).
  std::vector<std::uint32_t>& work = scratch.acquire_worklist();

  for (std::uint32_t p = 0; p < n; ++p) {
    if (visited[p]) continue;
    visited[p] = true;

    // Line 2: Neighbors <- FindNeighbors(p), excluding p itself.
    const std::vector<std::uint32_t>& neighbors = neighbors_of(p);
    if (neighbors.size() + 1 < params.min_pts) {
      continue;  // Lines 3-4: p <- NOISE (labels already kNoiseLabel)
    }

    // Lines 5-6: new cluster seeded at core point p.
    const std::int32_t cluster = next_cluster++;
    out.labels[p] = cluster;
    out.is_core[p] = 1;

    // Lines 7-16: expand through the neighbor set (breadth-first worklist).
    work.assign(neighbors.begin(), neighbors.end());
    std::size_t head = 0;
    while (head < work.size()) {
      const std::uint32_t q = work[head++];

      // Line 9-11: unassigned or noise neighbors join the cluster.
      if (out.labels[q] == kUnassigned) {
        out.labels[q] = cluster;
      }
      if (visited[q]) continue;
      visited[q] = true;

      // Lines 11-14: expand through q if q is itself a core point.
      const std::vector<std::uint32_t>& q_neighbors = neighbors_of(q);
      if (q_neighbors.size() + 1 >= params.min_pts) {
        out.is_core[q] = 1;
        out.labels[q] = cluster;  // core points always belong to the cluster
        work.insert(work.end(), q_neighbors.begin(), q_neighbors.end());
      }
    }
  }

  out.cluster_count = static_cast<std::uint32_t>(next_cluster);
  // Algorithm 1 has no phase split; attribute all clustering work to the
  // core phase so PhaseTimings totals stay comparable.
  out.timings.core_phase_seconds = phase.seconds();
  out.timings.total_seconds = total.seconds();
  return out;
}

}  // namespace rtd::dbscan
