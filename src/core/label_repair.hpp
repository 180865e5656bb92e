// core::LabelRepair — the streaming form of phase 2 (Alg. 3 lines 7-18:
// core-core unions and first-claim borders), rerun after each mutation
// batch only where the batch changed neighbour counts.  Correctness rests
// on two monotonicity facts:
//   * insertions cannot SPLIT a cluster (ε-edges only appear), and
//   * removals cannot MERGE clusters (ε-edges only disappear);
// so only clusters that LOST a core point (removal or demotion) can change
// shape; every other cluster keeps its partition.  Split detection
// certifies most clusters that did lose cores intact by connecting the
// cut-adjacent surviving cores — usually by plain distance checks
// (core/seed_closure.hpp), else a localized flood — so the repair set W
// stays small: the cut's non-core neighbours, demoted cores, promoted
// cores, and the inserted batch; only a PROVEN split expands a cluster's
// full membership into W.  A union-find over W plus one ANCHOR node per
// old cluster it reaches re-runs phase 2's union rules from W's cores; the
// relabel then maps old labels through the anchors, so intact clusters
// merge or persist without their members ever being queried.
//
// No step walks every slot: core flags can flip only where a neighbour
// count changed (the touched set), scratch is cleared through dirty lists,
// old clusters enter the union-find only when the repair reaches them,
// cluster ids are stable, and each relabelled slot moves between member
// lists in O(1), so the cost is O(|touched| + |W| + the clusters reached)
// plus the members of merged or renumbered clusters.  A throw from any
// stage (repair.touch ... repair.commit) tears the result, but the next
// repair still clears everything this one marked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/seed_closure.hpp"
#include "dsu/disjoint_set.hpp"
#include "geom/vec3.hpp"
#include "index/neighbor_index.hpp"

namespace rtd {

struct ClusterResult;

namespace core {

/// What one repair reads: the state after a batch was applied, and the
/// neighbour rows its count maintenance captured.
struct RepairBatch {
  std::span<const geom::Vec3> points;
  /// 0/1 per slot; empty means every slot is live.
  std::span<const std::uint8_t> live;
  /// The post-batch ε-neighbour count of every slot (self excluded).
  std::span<const std::uint32_t> counts;
  /// The post-batch index: removed slots invisible, inserted ones present.
  const index::NeighborIndex* index = nullptr;
  /// The removal batch, ascending, and its rows as index_phase1_remove
  /// captured them (row k holds removed[k]'s neighbours).  Read only when
  /// the batch removes something.
  std::span<const std::uint32_t> removed;
  std::span<const std::uint32_t> removed_nbr_ids;
  std::span<const std::uint32_t> removed_nbr_starts;
  /// The inserted slots are [first_new, points.size()); their rows as
  /// index_phase1_insert captured them.  Read only when the batch inserts.
  std::size_t first_new = 0;
  std::span<const std::uint32_t> inserted_nbr_ids;
  std::span<const std::uint32_t> inserted_nbr_starts;
};

/// The repair and all of its scratch.  Capacities carry over from batch to
/// batch: a warm repair allocates only where a buffer grows to a new
/// high-water mark.
class LabelRepair {
 public:
  /// Rewrite `result` — the clustering of the slots before the batch, at
  /// its (eps, min_pts) — into the clustering after it: labels
  /// (ids stay stable, see relabel()), core flags and counts of the
  /// touched slots, membership and cluster count.  The inserted slots grow
  /// in.  Returns the traversal work of the index queries it made.
  rt::TraversalStats run(const RepairBatch& batch, ClusterResult& result);

 private:
  [[nodiscard]] bool is_live(std::size_t i) const {
    return in_.live.empty() || in_.live[i] != 0;
  }
  /// The post-batch core flag (result.is_core holds the old flags until
  /// the commit).
  [[nodiscard]] bool core_now(std::size_t i) const {
    return is_live(i) && in_.counts[i] + 1 >= min_pts_;
  }

  /// The ε-neighbours of slot i after the batch: a removed slot replays
  /// the row its count maintenance captured (the index no longer sees it);
  /// an inserted slot replays its captured row, which holds what a fresh
  /// query would visit, in the same order (the same query on the same
  /// index state); every other slot queries the index.
  template <class Visit>
  void for_each_neighbor(std::uint32_t i, Visit&& visit);

  void add_w(std::uint32_t i);
  void mark_affected(std::int32_t c);
  void recluster(std::int32_t c);
  std::uint32_t anchor(std::int32_t c);
  std::uint32_t next_epoch();
  void detect_splits();
  void union_pass();
  void border_pass();
  void relabel();

  RepairBatch in_;              ///< run()'s arguments: valid during the call
  ClusterResult* r_ = nullptr;  ///< .. only, like every view in them
  float eps_ = 0.0f;            ///< r_->eps
  std::uint32_t min_pts_ = 0;   ///< r_->min_pts
  rt::TraversalStats work_;

  std::vector<std::uint32_t> touched_;  ///< slots whose count changed
  std::vector<std::uint32_t> cut_list_;  ///< removed/demoted cores, by label
  // The slot-sized maps (wloc_, claim_owner_) and cluster_affected_ are never
  // filled wholesale: each repair clears the entries the previous one set
  // through that one's dirty lists (wlist_, claimed_slots_, affected_list_).
  std::vector<std::uint8_t> cluster_affected_;  ///< old cluster lost a core
  std::vector<std::uint32_t> affected_list_;    ///< .. its set entries
  std::vector<std::uint32_t> wloc_;   ///< slot -> W node, kNoneId outside W
  std::vector<std::uint32_t> wlist_;  ///< W node -> slot
  std::vector<std::uint8_t> claim_;   ///< W node claimed as a border
  std::vector<std::uint32_t> claim_owner_;    ///< out-of-W noise -> W node
  std::vector<std::uint32_t> claimed_slots_;  ///< .. its set entries
  /// W's union-find: W's nodes, then one ANCHOR node per old cluster the
  /// repair reaches, created on first use (anchor()), so its size follows
  /// the repair and not the cluster count.
  dsu::DisjointSet w_dsu_;
  std::vector<std::uint32_t> anchor_node_;  ///< old cluster -> node, kNoneId
  std::vector<std::uint32_t> anchored_;     ///< .. its set entries, by node
  std::vector<std::uint32_t> stay_count_;   ///< anchor -> members it keeps
  std::vector<std::uint32_t> root_keeper_;  ///< root -> the list it builds in
  std::vector<std::int32_t> root_id_;       ///< root -> its final cluster id
  std::vector<std::uint32_t> hole_list_;    ///< freed ids below the new count
  /// (freed id, list built for it): the swaps that finish a relabel.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> renumber_;
  // Split detection.
  dsu::DisjointSet split_dsu_;  ///< cut grouping, then one group's seeds
  std::vector<std::uint32_t> cut_order_;    ///< cut indices grouped by ε-site
  std::vector<std::uint32_t> cut_root_;     ///< cut index -> its ε-site's root
  std::vector<std::uint32_t> seed_list_;    ///< cut-adjacent surviving cores
  std::vector<std::uint32_t> bfs_queue_;    ///< connectivity-proof frontier
  std::vector<std::uint32_t> bfs_origin_;   ///< .. origin seed per entry
  std::vector<std::uint32_t> bfs_pending_;  ///< frontier entries per seed root
  SeedClosureScratch seed_closure_;         ///< seed fast-path buffers
  std::unordered_map<std::uint64_t, std::uint32_t> cell_seen_;  ///< sparse tier
  std::vector<std::uint32_t> seed_mark_;     ///< slot epochs: touched, a seed
  std::vector<std::uint32_t> visit_mark_;    ///< slot epochs: flood visited
  std::vector<std::uint32_t> visit_origin_;  ///< .. owning seed, same epoch
  std::uint32_t mark_epoch_ = 0;             ///< current epoch for the 3 above
};

}  // namespace core
}  // namespace rtd
