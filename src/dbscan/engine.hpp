// The unified DBSCAN engine: union-find clustering over ANY NeighborIndex
// backend.
//
// This is the paper's Algorithm 3 with the neighbor queries abstracted out:
//   Phase 1 (core identification): one index query per point counts its
//     ε-neighbors; points with >= minPts neighbors (self included) are core.
//   Phase 2 (cluster formation): one query per core point re-discovers its
//     neighbors (no neighbor lists stored — O(n) memory, §III-D) and merges
//     clusters in a concurrent DisjointSet; border points are claimed
//     atomically so each joins exactly one cluster.
// cluster_with_index runs the two launches as the paper does; RT-DBSCAN
// (core/rt_dbscan.cpp) is it over BvhRtIndex (or TriangleIndex for the
// §VI-C tessellated geometry), FDBSCAN (dbscan/fdbscan.cpp) over
// PointBvhIndex.  Swapping the index swaps the query substrate without
// touching the clustering logic, which is what makes backend comparisons
// honest.
//
// index_count_cluster fuses both phases into ONE launch: every point is
// walked once, and each ε-pair is merged by whichever end settles its count
// second — the single-pass union-find DBSCAN of Patwary et al. (PDSDBSCAN,
// SC'12).  No core is walked a second time, and the clustering is the same
// up to border ambiguity.  The same launch clusters a whole ε ladder at
// ε_max (Clusterer::sweep(); Clusterer::run() is the one-level case): each
// pair's d² is bucketed into every level whose ε admits it — the OPTICS
// observation (Ankerst et al., SIGMOD'99) that one ε_max neighbourhood pass
// yields the clustering for every smaller ε.
//
// Every full pass launches its queries in Morton order of the points
// (query_launch_order): spatially adjacent queries run back to back and
// walk the same subtrees while they are still in cache — the launch-order
// coherence RTNN [Zhu, PPoPP'22] gets from RT hardware.  Results do not
// depend on the order; only scheduling does.
//
// The full passes — phase 1, phase 2 and the fused launch — also issue
// their queries as 4-ray packets of Morton-adjacent points
// (NeighborIndex::query_count_packet / query_sphere_packet /
// query_pairs_packet).  On kBvhRt's wide layout one packet walk
// (rt::traverse_points) fetches each node once for every ray that reaches
// it; the work counters stay per-ray sums, equal to the single-ray walk's.  Isolated queries keep the single-ray walk,
// because their arrival order carries no coherence: the incremental count
// captures below, the label repair passes, snapshot reads and
// query_neighbors.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "dbscan/core.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::dbscan {

/// Engine knobs shared by every backend.
struct IndexEngineOptions {
  /// Stop phase-1 counting at minPts (FDBSCAN §VI-B).  Honored by backends
  /// whose traversal can terminate; the RT backend ignores it (OptiX).
  bool early_exit = false;
  /// Thread count of every launch: the launch-order sort, the claim reset
  /// and both phases; 0 = all hardware threads.
  int threads = 0;
};

/// Result of one engine run over an index.
struct IndexEngineResult {
  Clustering clustering;
  rt::LaunchStats phase1;  ///< core-identification launch
  rt::LaunchStats phase2;  ///< cluster-formation launch
  /// Neighbor counts per point, excluding self.  Exact without early_exit;
  /// capped at minPts-1 with it.
  std::vector<std::uint32_t> neighbor_counts;
};

/// Query launch order: identity, or the Morton (Z-curve) order of the
/// points — a stable radix sort of their codes, so slots sharing a code
/// keep slot order.  The codes and the sort run on `threads` workers:
/// 0 means hardware_concurrency() and 1 runs inline on the caller.
[[nodiscard]] std::vector<std::uint32_t> query_launch_order(
    std::span<const geom::Vec3> points, bool morton, int threads = 0);

/// Number of packets covering `n` consecutive launch slots: one per
/// rt::kPacketWidth, the last one possibly short.
[[nodiscard]] std::size_t packet_count(std::size_t n);

/// Packet `p` of `ids`: entries [p·kPacketWidth, (p+1)·kPacketWidth),
/// clipped to ids.size().  p < packet_count(ids.size()).
[[nodiscard]] std::span<const std::uint32_t> packet_at(
    std::span<const std::uint32_t> ids, std::size_t p);

/// Phase 1 over any index: per-point ε-neighbor counts (excluding self)
/// at params.eps into `counts`, queried in `order` as packets of
/// consecutive entries through NeighborIndex::query_count_packet, capped
/// at minPts-1 with `early_exit`.
rt::LaunchStats index_phase1(const index::NeighborIndex& index,
                             const Params& params,
                             std::span<const std::uint32_t> order,
                             bool early_exit, int threads,
                             std::vector<std::uint32_t>& counts);

/// Incremental phase-1 maintenance for a REMOVAL batch: for every id in
/// `removed`, one ε-query discovers its neighbors and decrements their
/// counts.  Must run while the removed ids are still LIVE in the index
/// (before try_remove) so the queries still resolve; decrements landing on
/// other members of the same batch are moot — the caller zeroes the counts
/// of every removed id afterwards.  Runs serially: batches are small by
/// design (the session's rebuild threshold bounds them) and the decrements
/// would otherwise race.
///
/// The discovered neighborhoods are also captured into the CSR pair
/// (`nbr_ids`, `nbr_starts`) — `nbr_starts[k]..nbr_starts[k+1]` spans
/// `removed[k]`'s neighbors — because the label-repair stage needs exactly
/// these lists (cut-adjacent cores and orphaned borders) and capturing
/// them here costs no extra queries.  Lists may contain other members of
/// the same batch; consumers filter by liveness.
///
/// Exception safety: the queries all run (and may throw) BEFORE any count
/// is touched; the decrements are a noexcept epilogue over the captured
/// CSR.  A throw leaves `counts` exactly as it was.
rt::LaunchStats index_phase1_remove(const index::NeighborIndex& index,
                                    float eps,
                                    std::span<const std::uint32_t> removed,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts);

/// Incremental phase-1 maintenance for an INSERT batch: for every new id in
/// [first_new, index.size()), one ε-query sets its own count and increments
/// each PRE-EXISTING neighbor's count (new-new pairs are covered by each
/// new point's own query).  Must run after the index absorbed the batch.
/// `counts` is grown to index.size().  Serial, like index_phase1_remove.
///
/// Like the removal twin, neighborhoods are captured first into the caller's
/// CSR scratch (`nbr_ids`, `nbr_starts` — row k spans the neighbors of id
/// first_new + k) and applied in a noexcept epilogue, so a throw during the
/// queries (or the `counts` growth, which happens pre-apply) leaves the
/// pre-existing entries of `counts` untouched.
rt::LaunchStats index_phase1_insert(const index::NeighborIndex& index,
                                    float eps, std::size_t first_new,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts);

/// Phase 2 over any index: concurrent union-find merges initiated by core
/// points (Alg. 3 lines 7-18); border points claimed atomically through
/// `claimed`.  The core entries of each small window of `order` are
/// gathered into packets (NeighborIndex::query_sphere_packet), and the
/// backend's filter decides the ε-edges.  Throws std::invalid_argument when
/// `is_core` does not hold one flag per point, or `dsu`/`claimed` fewer
/// slots.
rt::LaunchStats index_phase2(const index::NeighborIndex& index, float eps,
                             std::span<const std::uint32_t> order,
                             std::span<const std::uint8_t> is_core,
                             dsu::AtomicDisjointSet& dsu,
                             std::span<std::atomic<std::uint8_t>> claimed,
                             int threads);

/// Alg. 3 lines 12-15, a border claim: the first core to claim `border`
/// through its `claimed` flag unites the two; every later claim of it does
/// nothing.  Returns whether this call made the claim.
inline bool claim_border(dsu::AtomicDisjointSet& dsu,
                         std::span<std::atomic<std::uint8_t>> claimed,
                         std::uint32_t core, std::uint32_t border) {
  std::uint8_t expected = 0;
  if (!claimed[border].compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
    return false;
  }
  dsu.unite(core, border);
  return true;
}

/// What the fused launch did: `phase1` is the launch (its wall time, and
/// the work of the one walk every packet makes — equal to a count-only
/// index_phase1 over the same index and order); `phase2` holds only the
/// work of the second walks of packets whose pairs overflowed
/// CountClusterPacket's buffer (its seconds stay 0: that time is inside
/// phase1's).
struct CountClusterStats {
  rt::LaunchStats phase1;
  rt::LaunchStats phase2;
};

/// One task of index_count_cluster — one packet of consecutive order
/// entries — split into its three steps, so the settle protocol can be
/// driven step by step.  Lives on the task's stack: the pair buffer is
/// fixed, so nothing allocates inside the parallel region.
///
/// The ladder is the walk's `eps` (level 0), then the ε² values of
/// `lower_eps2`, strictly descending; levels = 1 + lower_eps2.size().  Point x's row is
/// counts[x·levels, (x+1)·levels) — point-major, so a pair's level walk
/// reads one cache line per end.
class CountClusterPacket {
 public:
  /// (k, j, d²) pairs a packet buffers; past it, the packet walks again.
  static constexpr std::size_t kPairCapacity = 2048;

  /// Step 1: walk the packet `ids` once at `eps`
  /// (NeighborIndex::query_pairs_packet, into `stats`) and write each
  /// ray's row: level 0 counts every pair of the walk, level l >= 1 the
  /// pairs with d² <= lower_eps2[l-1].  The packet owns its rays' rows, so
  /// it writes them in place.  A ladder packet whose pairs overflowed the
  /// buffer walks again into `rewalk` to bucket them.
  void walk(const index::NeighborIndex& index, float eps,
            std::span<const float> lower_eps2,
            std::span<const std::uint32_t> ids,
            std::span<std::uint32_t> counts, rt::TraversalStats& stats,
            rt::TraversalStats& rewalk);

  /// Step 2: publish the rays, their rows now final:
  /// settled[ids[k]].store(1, seq_cst).
  void settle(std::span<std::atomic<std::uint8_t>> settled) const;

  /// Step 3: on_pair(ids[k], j, d²) for every pair of the packet whose
  /// other end j has settled (settled[j].load(seq_cst)); j's row is final
  /// then.  Each end stores its own flag before it loads the other's, so
  /// of the two ends of an ε-pair at least one sees the other settled: the
  /// pair reaches on_pair once or twice, never zero times.  Rows that
  /// overflowed the buffer are walked again at `eps`, into `rewalk`, with
  /// d² = geom::distance_squared (the buffered value, bit for bit).
  template <typename OnPair>
  void handle(const index::NeighborIndex& index, float eps,
              std::span<const std::atomic<std::uint8_t>> settled,
              rt::TraversalStats& rewalk, OnPair&& on_pair) const {
    if (overflowed()) {
      const std::span<const geom::Vec3> pts = index.points();
      index.query_sphere_packet(
          ids_, eps,
          [&](std::uint32_t k, std::uint32_t j) {
            if (settled[j].load(std::memory_order_seq_cst) != 0) {
              on_pair(ids_[k], j,
                      geom::distance_squared(pts[ids_[k]], pts[j]));
            }
          },
          rewalk);
      return;
    }
    for (std::size_t m = 0; m < pairs_; ++m) {
      const index::PacketPair& pair = pairs_buf_[m];
      if (settled[pair.neighbor].load(std::memory_order_seq_cst) != 0) {
        on_pair(ids_[pair.ray], pair.neighbor, pair.d2);
      }
    }
  }

  /// Whether the walk found more pairs than the buffer holds.
  [[nodiscard]] bool overflowed() const { return pairs_ > kPairCapacity; }

 private:
  std::span<const std::uint32_t> ids_;
  std::size_t pairs_ = 0;  ///< pairs found; only the first kPairCapacity kept
  index::PacketPair pairs_buf_[kPairCapacity];
};

/// Phases 1 and 2 in ONE launch at params.eps, for one level or a whole
/// ladder (`lower_eps2`, as for CountClusterPacket): exact neighbor counts
/// (excluding self) of every level into `counts` (n·levels, point-major)
/// and each level's clustering into its slots [l·n, (l+1)·n) of
/// `dsu`/`claimed`, as one CountClusterPacket per packet of `order`.  Once
/// both ends of an ε-pair are settled, their counts decide it at every
/// level l whose ε admits its d² (Alg. 3 lines 9-16): two cores unite, a
/// core and a non-core make a first-claim border (claim_border).  The
/// pair's level walk ends at the first level where it is no ε-edge or
/// neither end is core: levels descend, and a core at some ε is a core at
/// every larger one.  Handling a pair twice is harmless — unite is
/// idempotent and the claim dedupes.  After the launch level l's core
/// flags are counts[i·levels + l] + 1 >= min_pts and its labels
/// finalize_labels over dsu.find(l·n + x) − l·n.  Clusterer::run() is the
/// one-level case (`lower_eps2` empty, the default).
///
/// `order` must hold every live slot exactly once: a neighbor outside it
/// never settles, so its pairs would never be handled.  `dsu` must hold
/// n·levels singletons, `claimed` n·levels cleared flags and `settled` n,
/// n = index.size(); the ladder must descend strictly below params.eps²
/// (std::invalid_argument otherwise).  The launch writes nothing else.
CountClusterStats index_count_cluster(
    const index::NeighborIndex& index, const Params& params,
    std::span<const std::uint32_t> order, int threads,
    std::vector<std::uint32_t>& counts, dsu::AtomicDisjointSet& dsu,
    std::span<std::atomic<std::uint8_t>> claimed,
    std::span<std::atomic<std::uint8_t>> settled,
    std::span<const float> lower_eps2 = {});

/// Full run: phase 1, core flags, phase 2, label finalization.  Sets the
/// core/cluster phase timings and a total covering this call; the caller
/// owns index-build timing (it built the index) and overwrites the total
/// with a build-inclusive one where it reports timings.
IndexEngineResult cluster_with_index(const index::NeighborIndex& index,
                                     const Params& params,
                                     const IndexEngineOptions& options = {});

}  // namespace rtd::dbscan
