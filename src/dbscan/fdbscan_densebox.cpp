#include "dbscan/fdbscan_densebox.hpp"

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "geom/aabb.hpp"
#include "index/densebox_index.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::dbscan {

namespace {

using geom::Aabb;
using geom::Vec3;

constexpr std::uint32_t kNoDenseCell = 0xffffffffu;

Aabb bounds_of_members(std::span<const Vec3> points,
                       std::span<const std::uint32_t> members) {
  Aabb box;
  for (const auto m : members) box.grow(points[m]);
  return box;
}

}  // namespace

DenseboxResult fdbscan_densebox(std::span<const Vec3> points,
                                const Params& params,
                                const FdbscanOptions& options) {
  require_eps(params.eps, "fdbscan_densebox");
  if (params.min_pts == 0) {
    throw std::invalid_argument("fdbscan_densebox: min_pts must be >= 1");
  }
  require_finite(points);

  const std::size_t n = points.size();
  DenseboxResult result;
  Clustering& out = result.clustering;
  out.labels.assign(n, kNoiseLabel);
  out.is_core.assign(n, 0);
  if (n == 0) return result;

  const int threads = resolve_threads(options.threads);
  const float eps2 = params.eps_squared();

  Timer total;
  Timer phase;

  // Index build: the dense-box grid (cell diagonal <= ε, the certificate
  // that any two cell-mates are ε-neighbors) plus the per-point query
  // backend — traditionally the point BVH, swappable via Params::index.
  const index::DenseBoxIndex grid(points, params.eps);
  // Spans into the grid's member storage — `grid` outlives every use.
  std::vector<std::span<const std::uint32_t>> dense_cells;
  std::vector<std::uint32_t> dense_cell_of(n, kNoDenseCell);
  grid.for_each_cell([&](std::span<const std::uint32_t> members) {
    if (members.size() < params.min_pts) return;
    const auto cell_idx = static_cast<std::uint32_t>(dense_cells.size());
    dense_cells.push_back(members);
    for (const auto m : members) {
      out.is_core[m] = 1;  // diagonal <= eps: every cell-mate is a neighbor
      dense_cell_of[m] = cell_idx;
    }
    result.dense_points += members.size();
  });
  result.dense_cells = dense_cells.size();

  const index::IndexKind kind =
      index::resolve_auto(params.index, index::IndexKind::kPointBvh);
  // kDenseBox reuses the cell grid built above instead of a second copy.
  std::unique_ptr<index::NeighborIndex> owned;
  const index::NeighborIndex* index = &grid;
  if (kind != index::IndexKind::kDenseBox) {
    owned = index::make_index(points, params.eps, kind, {.threads = threads});
    index = owned.get();
  }
  out.timings.index_build_seconds = phase.seconds();

  // Phase 1: core identification only for points outside dense boxes.
  phase.restart();
  const std::uint32_t cap =
      options.early_exit ? params.min_pts - 1 : index::kNoCap;
  std::vector<rt::TraversalStats> stats1(static_cast<std::size_t>(threads));
  parallel_for_ctx(
      n, threads,
      [&](std::size_t tid) { return &stats1[tid]; },
      [&](rt::TraversalStats* st, std::size_t i) {
        if (dense_cell_of[i] != kNoDenseCell) return;  // proven core for free
        const std::uint32_t count = index->query_count(
            points[i], params.eps, static_cast<std::uint32_t>(i), *st, cap);
        out.is_core[i] = count + 1 >= params.min_pts ? 1 : 0;
      });
  for (auto& s : stats1) result.phase1_work += s;
  out.timings.core_phase_seconds = phase.seconds();

  // Phase 2.
  phase.restart();
  dsu::AtomicDisjointSet dsu(n);
  std::vector<std::atomic<std::uint8_t>> claimed(n);
  parallel_for(n, threads, [&](std::size_t i) {
    claimed[i].store(0, std::memory_order_relaxed);
  });

  // 2a. Pre-union every dense cell (free: the cell is one component).
  for (const auto& members : dense_cells) {
    for (std::size_t m = 1; m < members.size(); ++m) {
      dsu.unite(members[0], members[m]);
    }
  }

  // 2b. Per-point queries for cores OUTSIDE dense boxes (as in FDBSCAN).
  std::vector<rt::TraversalStats> stats2(static_cast<std::size_t>(threads));
  parallel_for_ctx(
      n, threads,
      [&](std::size_t tid) { return &stats2[tid]; },
      [&](rt::TraversalStats* st, std::size_t i) {
        if (!out.is_core[i] || dense_cell_of[i] != kNoDenseCell) return;
        index->query_sphere(
            points[i], params.eps, static_cast<std::uint32_t>(i),
            [&](std::uint32_t j) {
              if (out.is_core[j]) {
                // Avoid double work only among per-point queries; dense
                // members never initiate per-point queries, so always unite
                // with them.
                if (dense_cell_of[j] != kNoDenseCell ||
                    j > static_cast<std::uint32_t>(i)) {
                  dsu.unite(static_cast<std::uint32_t>(i), j);
                }
              } else {
                std::uint8_t expected = 0;
                if (claimed[j].compare_exchange_strong(
                        expected, 1, std::memory_order_acq_rel)) {
                  dsu.unite(static_cast<std::uint32_t>(i), j);
                }
              }
            },
            *st);
      });

  // 2c. One inflated-box query per dense cell: connects the cell to
  // everything within eps of ANY member (first-member-in-range early break),
  // replacing |cell| per-point queries.  The box is padded a hair beyond ε
  // so float rounding at the boundary can never exclude a true neighbor;
  // the exact member-distance test below is authoritative.
  parallel_for_ctx(
      dense_cells.size(), threads,
      [&](std::size_t tid) { return &stats2[tid]; },
      [&](rt::TraversalStats* st, std::size_t c) {
        const auto& members = dense_cells[c];
        const std::uint32_t rep = members[0];
        const float pad = 1.0001f * params.eps;
        Aabb query = bounds_of_members(points, members);
        query.lo -= Vec3{pad, pad, pad};
        query.hi += Vec3{pad, pad, pad};
        index->query_box(
            query,
            [&](std::uint32_t j) {
              if (dense_cell_of[j] == static_cast<std::uint32_t>(c)) {
                return;  // own member
              }
              // j is connected to the cell iff some member is within eps.
              bool in_range = false;
              for (const auto m : members) {
                if (geom::distance_squared(points[m], points[j]) <= eps2) {
                  in_range = true;
                  break;
                }
              }
              if (!in_range) return;
              if (out.is_core[j]) {
                dsu.unite(rep, j);
              } else {
                std::uint8_t expected = 0;
                if (claimed[j].compare_exchange_strong(
                        expected, 1, std::memory_order_acq_rel)) {
                  dsu.unite(rep, j);
                }
              }
            },
            *st);
      });
  for (auto& s : stats2) result.phase2_work += s;
  out.timings.cluster_phase_seconds = phase.seconds();

  finalize_labels(
      n, [&](std::uint32_t x) { return dsu.find(x); }, out.is_core, out);
  out.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::dbscan
