#include "dbscan/engine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/stage.hpp"
#include "common/timer.hpp"
#include "geom/morton.hpp"
#include "rt/parallel_launch.hpp"
#include "rt/radix_sort.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd::dbscan {

namespace {

/// Phase 2 gathers the core entries of this many consecutive launch slots
/// into packets: wide enough that most packets fill, narrow enough that
/// their rays stay Morton-adjacent.
constexpr std::size_t kPhase2Window = 8 * rt::kPacketWidth;

/// A ladder's lower levels must descend strictly below the launch ε (the
/// fused launch's level walk stops at the first level that fails).
void check_ladder(float eps, std::span<const float> lower_eps2) {
  float above = eps * eps;
  for (const float e2 : lower_eps2) {
    if (!(e2 > 0.0f && e2 < above)) {
      throw std::invalid_argument(
          "engine: ladder ε² values must be positive and strictly descending "
          "below the launch ε²");
    }
    above = e2;
  }
}

}  // namespace

std::size_t packet_count(std::size_t n) {
  return (n + rt::kPacketWidth - 1) / rt::kPacketWidth;
}

std::span<const std::uint32_t> packet_at(std::span<const std::uint32_t> ids,
                                         std::size_t p) {
  const std::size_t first = p * rt::kPacketWidth;
  return ids.subspan(first, std::min<std::size_t>(rt::kPacketWidth,
                                                  ids.size() - first));
}

std::vector<std::uint32_t> query_launch_order(
    std::span<const geom::Vec3> points, bool morton, int threads) {
  std::vector<std::uint32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0u);
  if (!morton || points.size() < 2) return order;
  geom::Aabb bounds;
  for (const auto& p : points) bounds.grow(p);
  std::vector<std::uint32_t> codes(points.size());
  parallel_for(points.size(), threads, [&](std::size_t i) {
    codes[i] = geom::morton3_in(bounds, points[i]);
  });
  // Stable over the iota values: equal codes stay in slot order.
  rt::radix_sort_pairs(codes, order, threads);
  return order;
}

rt::LaunchStats index_phase1(const index::NeighborIndex& index,
                             const Params& params,
                             std::span<const std::uint32_t> order,
                             bool early_exit, int threads,
                             std::vector<std::uint32_t>& counts) {
  counts.assign(index.size(), 0);
  // Counting to minPts-1 (excluding self) is enough to decide the core
  // test `count + 1 >= minPts`; backends that cannot terminate traversal
  // (the RT pipeline) ignore the cap and return exact counts.
  const std::uint32_t cap =
      early_exit ? params.min_pts - 1 : index::kNoCap;
  // Before the launch: a throw from inside the parallel region would
  // terminate, so faults inject at the serial boundary only.  The span
  // wraps the launch from outside for the same reason.
  RTD_STAGE("engine.phase1");
  telemetry::count(telemetry::Counter::kEnginePhase1Launches);

  // One query per ORDER entry, not per slot: a live session passes an order
  // that skips tombstoned slots, whose counts stay 0 from the assign above.
  // Each task is one packet of consecutive (Morton-adjacent) entries.
  return rt::parallel_launch(
      packet_count(order.size()), threads,
      [&](rt::TraversalStats& stats, std::size_t p) {
        const std::span<const std::uint32_t> ids = packet_at(order, p);
        std::uint32_t got[rt::kPacketWidth] = {};
        index.query_count_packet(ids, params.eps, {got, ids.size()}, stats,
                                 cap);
        for (std::size_t k = 0; k < ids.size(); ++k) {
          counts[ids[k]] = got[k];
        }
      });
}

rt::LaunchStats index_phase1_remove(const index::NeighborIndex& index,
                                    float eps,
                                    std::span<const std::uint32_t> removed,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts) {
  // Before the capture: a fault here leaves counts and the CSR untouched.
  RTD_STAGE("engine.phase1_remove");
  telemetry::count(telemetry::Counter::kEnginePhase1RemoveLaunches);
  const std::span<const geom::Vec3> points = index.points();
  nbr_ids.clear();
  nbr_starts.resize(removed.size() + 1);
  nbr_starts[0] = 0;
  // Capture: queries and CSR appends only — counts untouched, so a throw
  // (allocation failure growing nbr_ids, backend fault) is side-effect free.
  // Serial launch (threads = 1): the CSR appends are plain stores and the
  // LaunchStats stay honest about the per-mutation cost.
  const rt::LaunchStats launch = rt::parallel_launch(
      removed.size(), 1, [&](rt::TraversalStats& stats, std::size_t k) {
        const std::uint32_t r = removed[k];
        index.query_sphere(points[r], eps, r,
                           [&](std::uint32_t j) { nbr_ids.push_back(j); },
                           stats);
        nbr_starts[k + 1] = static_cast<std::uint32_t>(nbr_ids.size());
      });
  // Apply: noexcept decrements over the captured neighborhoods.
  for (const std::uint32_t j : nbr_ids) --counts[j];
  return launch;
}

rt::LaunchStats index_phase1_insert(const index::NeighborIndex& index,
                                    float eps, std::size_t first_new,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts) {
  RTD_STAGE("engine.phase1_insert");
  telemetry::count(telemetry::Counter::kEnginePhase1InsertLaunches);
  const std::size_t n = index.size();
  const std::span<const geom::Vec3> points = index.points();
  nbr_ids.clear();
  nbr_starts.resize(n - first_new + 1);
  nbr_starts[0] = 0;
  // Capture, like index_phase1_remove: queries only, counts untouched.
  const rt::LaunchStats launch = rt::parallel_launch(
      n - first_new, 1, [&](rt::TraversalStats& stats, std::size_t k) {
        const auto i = static_cast<std::uint32_t>(first_new + k);
        index.query_sphere(points[i], eps, i,
                           [&](std::uint32_t j) { nbr_ids.push_back(j); },
                           stats);
        nbr_starts[k + 1] = static_cast<std::uint32_t>(nbr_ids.size());
      });
  // A throw from the growth leaves the pre-existing entries untouched; the
  // caller shrinks on rollback.
  counts.resize(n, 0);
  // Apply: noexcept.  A new point's count is its CSR row size (new-new pairs
  // resolve through each side's own query); pre-existing neighbors gain one.
  for (std::size_t k = 0; first_new + k < n; ++k) {
    counts[first_new + k] = nbr_starts[k + 1] - nbr_starts[k];
    for (std::uint32_t c = nbr_starts[k]; c < nbr_starts[k + 1]; ++c) {
      const std::uint32_t j = nbr_ids[c];
      if (j < first_new) ++counts[j];
    }
  }
  return launch;
}

rt::LaunchStats index_phase2(const index::NeighborIndex& index, float eps,
                             std::span<const std::uint32_t> order,
                             std::span<const std::uint8_t> is_core,
                             dsu::AtomicDisjointSet& dsu,
                             std::span<std::atomic<std::uint8_t>> claimed,
                             int threads) {
  const std::size_t n = index.size();
  if (is_core.size() != n || claimed.size() < n || dsu.size() < n) {
    throw std::invalid_argument(
        "index_phase2: is_core must hold one flag per point, and dsu and "
        "claimed at least as many slots");
  }
  RTD_STAGE("engine.phase2");
  telemetry::count(telemetry::Counter::kEnginePhase2Launches);

  // Each task gathers the cores of a window of consecutive `order` entries
  // (on the stack) into full packets.  Like phase 1, the order defines
  // which points query (live sessions pass a live-only order; dead slots
  // are never core, so skipping is free).
  const std::size_t windows =
      (order.size() + kPhase2Window - 1) / kPhase2Window;
  return rt::parallel_launch(
      windows, threads, [&](rt::TraversalStats& stats, std::size_t w) {
        std::uint32_t cores[kPhase2Window] = {};
        std::size_t c = 0;
        const std::size_t end =
            std::min(order.size(), (w + 1) * kPhase2Window);
        for (std::size_t q = w * kPhase2Window; q < end; ++q) {
          if (is_core[order[q]]) cores[c++] = order[q];
        }
        const std::span<const std::uint32_t> gathered(cores, c);
        for (std::size_t p = 0; p < packet_count(c); ++p) {
          const std::span<const std::uint32_t> ids = packet_at(gathered, p);
          // Alg. 3 lines 9-16 for the pair (i, j), i core; the backend's
          // own filter already decided d² <= ε².
          index.query_sphere_packet(
              ids, eps,
              [&](std::uint32_t k, std::uint32_t j) {
                const std::uint32_t i = ids[k];
                if (is_core[j]) {
                  // Core-core merge (Alg. 3 line 10); pairs are seen from
                  // both ends, so do each merge once.
                  if (j > i) dsu.unite(i, j);
                } else {
                  (void)claim_border(dsu, claimed, i, j);
                }
              },
              stats);
        }
      });
}

void CountClusterPacket::walk(const index::NeighborIndex& index, float eps,
                              std::span<const float> lower_eps2,
                              std::span<const std::uint32_t> ids,
                              std::span<std::uint32_t> counts,
                              rt::TraversalStats& stats,
                              rt::TraversalStats& rewalk) {
  ids_ = ids;
  std::uint32_t rows[rt::kPacketWidth];
  pairs_ = index.query_pairs_packet(ids, eps, pairs_buf_,
                                    {rows, ids.size()}, stats);
  // Level 0 is the walk's own ε: every pair counts.  The lower levels
  // bucket each pair's d² into the prefix whose ε² admits it.
  const std::size_t levels = 1 + lower_eps2.size();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    std::uint32_t* const row = counts.data() + ids[k] * levels;
    row[0] = rows[k];
    std::fill(row + 1, row + levels, 0u);
  }
  if (levels == 1) return;
  const auto bucket = [&](std::uint32_t k, float d2) {
    std::uint32_t* const row = counts.data() + ids[k] * levels;
    for (std::size_t l = 1; l < levels && d2 <= lower_eps2[l - 1]; ++l) {
      ++row[l];
    }
  };
  if (!overflowed()) {
    for (std::size_t m = 0; m < pairs_; ++m) {
      bucket(pairs_buf_[m].ray, pairs_buf_[m].d2);
    }
    return;
  }
  // The buffer dropped pairs: walk again to bucket them all.
  const std::span<const geom::Vec3> pts = index.points();
  index.query_sphere_packet(
      ids, eps,
      [&](std::uint32_t k, std::uint32_t j) {
        bucket(k, geom::distance_squared(pts[ids[k]], pts[j]));
      },
      rewalk);
}

void CountClusterPacket::settle(
    std::span<std::atomic<std::uint8_t>> settled) const {
  // seq_cst, not release: the store must precede this packet's loads of
  // the other ends' flags in the single total order (handle()).
  for (const std::uint32_t i : ids_) {
    settled[i].store(1, std::memory_order_seq_cst);
  }
}

CountClusterStats index_count_cluster(
    const index::NeighborIndex& index, const Params& params,
    std::span<const std::uint32_t> order, int threads,
    std::vector<std::uint32_t>& counts, dsu::AtomicDisjointSet& dsu,
    std::span<std::atomic<std::uint8_t>> claimed,
    std::span<std::atomic<std::uint8_t>> settled,
    std::span<const float> lower_eps2) {
  check_ladder(params.eps, lower_eps2);
  const std::size_t n = index.size();
  const std::size_t levels = 1 + lower_eps2.size();
  const std::size_t slots = n * levels;
  if (order.size() > n || dsu.size() < slots || claimed.size() < slots ||
      settled.size() < n || slots > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "index_count_cluster: order must fit the index, settled hold a flag "
        "per point, and dsu and claimed a 32-bit-addressable slot per point "
        "and level");
  }
  counts.assign(slots, 0);
  // Before the launch, like index_phase1: a throw from inside the parallel
  // region would terminate.
  RTD_STAGE("engine.fused");
  telemetry::count(telemetry::Counter::kEngineFusedLaunches);

  const std::uint32_t min_pts = params.min_pts;
  // Alg. 3 lines 9-16 for an ε-pair whose ends have both settled, at every
  // level where it is an ε-edge (level 0: every pair of the walk) and one
  // end is core — a prefix, since levels descend and a point core at some
  // ε is core at every larger one.  Level l owns the slots [l·n, (l+1)·n).
  const auto link = [&](std::uint32_t i, std::uint32_t j, float d2) {
    const std::uint32_t* const row_i = counts.data() + i * levels;
    const std::uint32_t* const row_j = counts.data() + j * levels;
    std::size_t off = 0;
    for (std::size_t l = 0; l < levels; ++l, off += n) {
      if (l > 0 && !(d2 <= lower_eps2[l - 1])) return;
      const bool core_i = row_i[l] + 1 >= min_pts;
      const bool core_j = row_j[l] + 1 >= min_pts;
      const auto a = static_cast<std::uint32_t>(off + i);
      const auto b = static_cast<std::uint32_t>(off + j);
      if (core_i && core_j) {
        dsu.unite(a, b);
      } else if (core_i) {
        (void)claim_border(dsu, claimed, a, b);
      } else if (core_j) {
        (void)claim_border(dsu, claimed, b, a);
      } else {
        return;
      }
    }
  };
  // Second walks are rare (a packet past kPairCapacity pairs): their work
  // sums into atomics rather than per-worker accumulators.
  std::atomic<std::uint64_t> rewalk_rays{0};
  std::atomic<std::uint64_t> rewalk_nodes{0};
  std::atomic<std::uint64_t> rewalk_aabb{0};
  std::atomic<std::uint64_t> rewalk_isect{0};
  std::atomic<std::uint64_t> rewalk_anyhit{0};
  CountClusterStats out;
  out.phase1 = rt::parallel_launch(
      packet_count(order.size()), threads,
      [&](rt::TraversalStats& stats, std::size_t p) {
        CountClusterPacket packet;
        rt::TraversalStats rewalk;
        packet.walk(index, params.eps, lower_eps2, packet_at(order, p),
                    counts, stats, rewalk);
        packet.settle(settled);
        packet.handle(index, params.eps, settled, rewalk, link);
        if (rewalk.rays != 0) {
          rewalk_rays.fetch_add(rewalk.rays, std::memory_order_relaxed);
          rewalk_nodes.fetch_add(rewalk.nodes_visited,
                                 std::memory_order_relaxed);
          rewalk_aabb.fetch_add(rewalk.aabb_tests, std::memory_order_relaxed);
          rewalk_isect.fetch_add(rewalk.isect_calls,
                                 std::memory_order_relaxed);
          rewalk_anyhit.fetch_add(rewalk.anyhit_calls,
                                  std::memory_order_relaxed);
        }
      });
  out.phase2.work.rays = rewalk_rays.load();
  out.phase2.work.nodes_visited = rewalk_nodes.load();
  out.phase2.work.aabb_tests = rewalk_aabb.load();
  out.phase2.work.isect_calls = rewalk_isect.load();
  out.phase2.work.anyhit_calls = rewalk_anyhit.load();
  return out;
}

IndexEngineResult cluster_with_index(const index::NeighborIndex& index,
                                     const Params& params,
                                     const IndexEngineOptions& options) {
  require_eps(params.eps, "cluster_with_index");
  if (params.min_pts == 0) {
    throw std::invalid_argument("cluster_with_index: min_pts must be >= 1");
  }
  // The caller built the index, so Params::index must agree with it (kAuto
  // always does) — a mismatch means the caller resolved the backend one way
  // and recorded another, which would make every downstream report lie.
  if (params.index != index::IndexKind::kAuto &&
      params.index != index.kind()) {
    throw std::invalid_argument(
        std::string("cluster_with_index: Params::index requests '") +
        index::to_string(params.index) + "' but the supplied index is '" +
        index.name() + "'");
  }

  Timer total;
  const std::size_t n = index.size();
  IndexEngineResult result;
  Clustering& out = result.clustering;
  out.labels.assign(n, kNoiseLabel);
  out.is_core.assign(n, 0);
  if (n == 0) return result;

  const std::vector<std::uint32_t> order =
      query_launch_order(index.points(), true, options.threads);

  result.phase1 = index_phase1(index, params, order, options.early_exit,
                               options.threads, result.neighbor_counts);
  out.timings.core_phase_seconds = result.phase1.seconds;

  // Core test: counts exclude self; the classic |N_eps(p)| >= minPts
  // includes it (see dbscan/core.hpp).
  for (std::size_t i = 0; i < n; ++i) {
    out.is_core[i] = result.neighbor_counts[i] + 1 >= params.min_pts ? 1 : 0;
  }

  dsu::AtomicDisjointSet dsu(n);
  std::vector<std::atomic<std::uint8_t>> claimed(n);
  parallel_for(n, options.threads, [&](std::size_t i) {
    claimed[i].store(0, std::memory_order_relaxed);
  });

  result.phase2 = index_phase2(index, params.eps, order, out.is_core, dsu,
                               claimed, options.threads);
  out.timings.cluster_phase_seconds = result.phase2.seconds;

  finalize_labels(
      n, [&](std::uint32_t x) { return dsu.find(x); }, out.is_core, out);
  // Everything this function did (phases, ordering, finalization).  The
  // caller built the index, so it overwrites this with a build-inclusive
  // total where one is reported.
  out.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::dbscan
