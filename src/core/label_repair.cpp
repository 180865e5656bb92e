#include "core/label_repair.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/prefetch.hpp"
#include "common/stage.hpp"
#include "core/clusterer.hpp"
#include "index/cell_grid.hpp"

namespace rtd::core {

namespace {

/// "No entry" sentinel for the slot -> W node and cluster -> anchor maps.
constexpr std::uint32_t kNoneId = std::numeric_limits<std::uint32_t>::max();

}  // namespace

template <class Visit>
void LabelRepair::for_each_neighbor(std::uint32_t i, Visit&& visit) {
  const bool inserted = i >= in_.first_new;
  if (!inserted && is_live(i)) {
    in_.index->query_sphere(in_.points[i], eps_, i, visit, work_);
    return;
  }
  const auto ids = inserted ? in_.inserted_nbr_ids : in_.removed_nbr_ids;
  const auto starts =
      inserted ? in_.inserted_nbr_starts : in_.removed_nbr_starts;
  const std::size_t row =
      inserted ? i - in_.first_new
               : static_cast<std::size_t>(
                     std::ranges::lower_bound(in_.removed, i) -
                     in_.removed.begin());
  for (std::uint32_t t = starts[row]; t < starts[row + 1]; ++t) visit(ids[t]);
}

rt::TraversalStats LabelRepair::run(const RepairBatch& batch,
                                    ClusterResult& result) {
  in_ = batch;
  r_ = &result;
  eps_ = result.eps;
  min_pts_ = result.min_pts;
  work_ = rt::TraversalStats{};
  ClusterResult& r = result;
  const std::size_t n = in_.points.size();
  {
    RTD_STAGE("repair.touch");
    const std::uint32_t c_old = r.cluster_count;

    // r.is_core and r.labels keep the PRE-mutation state until the relabel
    // (the affected-set logic needs both).  The inserted slots grow in as
    // non-core noise — a new slot is never an old core nor an old member —
    // so every old-state read stays in bounds.
    r.labels.resize(n, kNoise);
    r.is_core.resize(n, 0);
    r.neighbor_counts.resize(n, 0);
    r.membership.grow(n);

    // Clear what the previous repair marked (completed or interrupted by a
    // fault), then grow to the slot count: grown entries start clear.
    // (Scratch buffers grow via resize, not assign: resize grows
    // geometrically, so warm mutations on a growing session amortize to
    // allocation-free instead of reallocating.)
    for (const std::uint32_t i : wlist_) wloc_[i] = kNoneId;
    wlist_.clear();
    for (const std::uint32_t i : claimed_slots_) claim_owner_[i] = kNoneId;
    claimed_slots_.clear();
    for (const std::uint32_t c : affected_list_) cluster_affected_[c] = 0;
    affected_list_.clear();
    for (const std::uint32_t c : anchored_) anchor_node_[c] = kNoneId;
    anchored_.clear();
    stay_count_.clear();
    wloc_.resize(n, kNoneId);
    claim_owner_.resize(n, kNoneId);
    cluster_affected_.resize(c_old, 0);
    anchor_node_.resize(c_old, kNoneId);
    seed_mark_.resize(n);
    visit_mark_.resize(n);
    visit_origin_.resize(n);  // valid only where visit_mark_ holds the epoch

    // The touched set: the removed ids, their captured neighbours, the
    // inserted slots and their pre-existing neighbours — every slot whose
    // count changed, so the only slots whose core flag can have flipped.
    // (seed_mark_ dedupes; split detection takes fresh epochs after.)
    //
    // A slot is classified the moment it is first touched, so its scattered
    // is_core / counts / live loads are paid once here rather than in one
    // walk per list:
    //  * CUT nodes — old cores that are no longer cores (removed, or
    //    demoted by the batch).  Only paths through them can break, so
    //    only their clusters can split or shed borders.
    //  * GROW nodes — promoted border/noise points and the inserted batch
    //    (always live).  They join W now; W is put in slot order after
    //    split detection, so the order they join in does not matter.
    const std::uint32_t touch_epoch = next_epoch();
    touched_.clear();
    cut_list_.clear();
    const auto touch = [&](std::uint32_t i) {
      if (seed_mark_[i] == touch_epoch) return;
      seed_mark_[i] = touch_epoch;
      touched_.push_back(i);
      const bool was_core = r.is_core[i] != 0;
      const bool is_core = core_now(i);
      if (was_core && !is_core && r.labels[i] >= 0) cut_list_.push_back(i);
      if (i >= in_.first_new || (!was_core && is_core)) add_w(i);
    };
    if (!in_.removed.empty()) {
      for (const std::uint32_t i : in_.removed) touch(i);
      for (const std::uint32_t j : in_.removed_nbr_ids) touch(j);
    }
    if (in_.first_new < n) {
      for (std::size_t i = in_.first_new; i < n; ++i) {
        touch(static_cast<std::uint32_t>(i));
      }
      for (const std::uint32_t j : in_.inserted_nbr_ids) touch(j);
    }

    std::sort(cut_list_.begin(), cut_list_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return r.labels[a] != r.labels[b] ? r.labels[a] < r.labels[b]
                                                  : a < b;
              });
  }
  {
    RTD_STAGE("repair.split");
    detect_splits();
  }
  {
    RTD_STAGE("repair.union");
    // Query W in slot order: a re-clustered membership arrives in member
    // list order, which edits scramble, and slot order keeps the
    // neighbouring queries of a trajectory-ordered stream close in memory.
    std::sort(wlist_.begin(), wlist_.end());
    for (std::uint32_t w = 0; w < wlist_.size(); ++w) wloc_[wlist_[w]] = w;
    w_dsu_.reset(wlist_.size());
    claim_.resize(wlist_.size());
    std::fill(claim_.begin(), claim_.end(), std::uint8_t{0});
    union_pass();
  }
  {
    RTD_STAGE("repair.border");
    border_pass();
  }
  {
    RTD_STAGE("repair.relabel");
    relabel();
  }
  {
    // The touched slots' core flags and counts: the only ones that moved.
    RTD_STAGE("repair.commit");
    for (std::size_t k = 0; k < touched_.size(); ++k) {
      if (k + 16 < touched_.size()) {  // scattered slots: fetch ahead
        RTD_PREFETCH(&r.neighbor_counts[touched_[k + 16]]);
        RTD_PREFETCH(&in_.counts[touched_[k + 16]]);
      }
      const std::uint32_t i = touched_[k];
      r.is_core[i] = core_now(i) ? 1 : 0;
      r.neighbor_counts[i] = in_.counts[i];
    }
  }
  return work_;
}

/// Join slot i to the repair set W (wlist_), wloc_ being the slot -> node
/// map.  The dirty list is appended before the map entry is set, so a
/// throwing append leaves nothing marked that the next repair cannot
/// clear.
void LabelRepair::add_w(std::uint32_t i) {
  if (wloc_[i] == kNoneId) {
    wlist_.push_back(i);
    wloc_[i] = static_cast<std::uint32_t>(wlist_.size() - 1);
  }
}

/// Flag old cluster c for full repair (a proven or possible split).
void LabelRepair::mark_affected(std::int32_t c) {
  std::uint8_t& flag = cluster_affected_[static_cast<std::size_t>(c)];
  if (!flag) {
    affected_list_.push_back(static_cast<std::uint32_t>(c));
    flag = 1;
  }
}

/// Re-cluster old cluster c from scratch: flag it and put every live
/// member into W.
void LabelRepair::recluster(std::int32_t c) {
  mark_affected(c);
  for (const std::uint32_t m : r_->members_of(c)) {
    if (is_live(m)) add_w(m);
  }
}

/// The anchor node of old cluster c, created on first use with c's whole
/// membership as its kept count.  The dirty list is appended first, as in
/// add_w.
std::uint32_t LabelRepair::anchor(std::int32_t c) {
  std::uint32_t& node = anchor_node_[static_cast<std::size_t>(c)];
  if (node == kNoneId) {
    anchored_.push_back(static_cast<std::uint32_t>(c));
    stay_count_.push_back(static_cast<std::uint32_t>(r_->members_of(c).size()));
    node = w_dsu_.add();
  }
  return node;
}

/// A fresh epoch for seed_mark_ / visit_mark_.
std::uint32_t LabelRepair::next_epoch() {
  if (++mark_epoch_ == 0) {  // wrap: invalidate all stale marks once
    std::fill(seed_mark_.begin(), seed_mark_.end(), 0u);
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0u);
    mark_epoch_ = 1;
  }
  return mark_epoch_;
}

/// Split detection, per cluster that lost a core.  A cluster splits only
/// if some ε-connected GROUP of its cut nodes (an ε-site) disconnects the
/// surviving cores around it: any old core-path between surviving cores
/// enters and leaves a cut group through cut-adjacent surviving cores
/// ("seeds"), so if every group's seeds stay mutually reachable through
/// surviving cores, every old path can be rerouted and the cluster is
/// intact — its out-of-W members keep their label through the cluster
/// anchor, and only the LOCAL damage joins W: demoted cores and the
/// non-core neighbours of cut nodes (their witness core may be gone).
/// The groups are fixed before any seed search.  The proof is usually
/// free: seeds joined by chains of direct ε-edges unite by distance alone
/// (close_seeds, O(s log s) over ε/√3 cells for any seed count); only
/// unresolved groups pay a search over surviving cores, which costs the
/// splinters' size when a group really splits.  The verdict is per
/// cluster: at most one split site keeps an open residual under the old
/// label (two residuals of one cluster may be disconnected), so a second
/// split site, or one whose every component was exhausted, re-clusters the
/// whole membership.
void LabelRepair::detect_splits() {
  const ClusterResult& r = *r_;
  const std::span<const geom::Vec3> pts = in_.points;
  const float eps = eps_;
  const float eps2 = eps * eps;
  for (std::size_t lo = 0; lo < cut_list_.size();) {
    const std::int32_t c = r.labels[cut_list_[lo]];
    std::size_t hi = lo;
    while (hi < cut_list_.size() && r.labels[cut_list_[hi]] == c) ++hi;
    const std::size_t k = hi - lo;

    // A cut this large is most of the cluster: detection would cost a
    // comparable number of queries to the repair it tries to avoid, so
    // expand the membership directly (big batches converge toward the
    // full-recluster path anyway).
    if (k * 8 >= r.members_of(c).size()) {
      recluster(c);
      lo = hi;
      continue;
    }

    // ε-transitive grouping of this cluster's cut nodes: consecutive cut
    // nodes on an old path are within ε, so a maximal cut run lies in one
    // group and its flanking seeds belong to that group's seed set.  The
    // grouping is frozen into cut_root_ (each group's smallest cut index,
    // its root): the seed search reuses split_dsu_.
    split_dsu_.reset(k);
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        if (geom::distance_squared(pts[cut_list_[lo + a]],
                                   pts[cut_list_[lo + b]]) <= eps2) {
          split_dsu_.unite(static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(b));
        }
      }
    }
    cut_order_.resize(k);
    cut_root_.resize(k);
    for (std::size_t a = 0; a < k; ++a) {
      cut_order_[a] = static_cast<std::uint32_t>(a);
      cut_root_[a] = split_dsu_.find(static_cast<std::uint32_t>(a));
    }
    std::sort(cut_order_.begin(), cut_order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return cut_root_[a] != cut_root_[b]
                           ? cut_root_[a] < cut_root_[b]
                           : a < b;
              });

    bool residual_kept = false;  // a split site of c kept its residual
    for (std::size_t glo = 0; glo < k;) {
      const std::uint32_t root = cut_root_[cut_order_[glo]];
      std::size_t ghi = glo;
      while (ghi < k && cut_root_[cut_order_[ghi]] == root) ++ghi;

      // Seeds: surviving old cores adjacent to any cut node of the group.
      // Non-core neighbours of this cluster join W — their witness core
      // may be in the cut.  (A removed node replays its captured row; a
      // demoted node is live and queried, cheaply — its count dropped
      // below minPts.)
      const std::uint32_t epoch = next_epoch();
      seed_list_.clear();
      for (std::size_t g = glo; g < ghi; ++g) {
        const std::uint32_t x = cut_list_[lo + cut_order_[g]];
        if (is_live(x)) add_w(x);  // demoted: border of a neighbour, or noise
        for_each_neighbor(x, [&](std::uint32_t j) {
          if (!is_live(j)) return;
          if (core_now(j)) {
            if (r.is_core[j] && r.labels[j] == c && seed_mark_[j] != epoch) {
              seed_mark_[j] = epoch;
              seed_list_.push_back(j);
            }
          } else if (r.labels[j] == c) {
            add_w(j);
          }
        });
      }
      const std::size_t s = seed_list_.size();
      if (s <= 1) {  // ≤ 1 flanking core: nothing to disconnect
        glo = ghi;
        continue;
      }

      // Query-free fast path: seeds joined by chains of direct ε-edges
      // unite by distance alone, in O(s log s) through their ε/√3 cells
      // (core/seed_closure.hpp).  The DSU survives into the search below
      // as its starting components (the cut grouping was frozen into
      // cut_root_ above).
      split_dsu_.reset(s);
      std::size_t comps = close_seeds(pts, seed_list_, eps, split_dsu_,
                                      seed_closure_);

      // Multi-source component search over the cluster's surviving cores:
      // every seed floods in FIFO rounds and fronts UNITE where they meet.
      // The search stops once the seeds prove connected, or once at most
      // one component still has a frontier.
      //
      // It runs in two tiers.  The SPARSE tier expands at most one node
      // per ε/√3 grid cell: a later pop landing in an expanded cell within
      // ε of its owner merges with it outright (same-cell IS an
      // ε-witness) and is not queried, so proving "connected" costs about
      // the flooded area in cells, not in points — unions only ever happen
      // on real ε-witnesses, so a comps==1 verdict is sound.  Sparse
      // expansion can MISS connections, so a leftover comps>1 is not yet a
      // split: the EXHAUSTIVE tier re-floods, expanding every node.
      // There, an exhausted component is a COMPLETE connected component —
      // a splinter the cut really broke off — and its visited cores join W
      // for re-labeling, while the surviving component keeps its label
      // through the cluster anchor without ever being fully flooded (the
      // search stops when one active frontier remains).  A real split
      // reaches the exhaustive tier but costs the splinters' size, never
      // the cluster's.
      std::size_t active = 0;
      const auto flood = [&](bool sparse) {
        const std::uint32_t fe = next_epoch();
        bfs_queue_.clear();
        bfs_origin_.clear();
        bfs_pending_.assign(s, 0u);
        if (sparse) cell_seen_.clear();
        active = 0;
        const auto adjust = [&](std::uint32_t comp, bool up) {
          std::uint32_t& p = bfs_pending_[comp];
          if (up) {
            if (p++ == 0) ++active;
          } else {
            if (--p == 0) --active;
          }
        };
        for (std::uint32_t q = 0; q < s; ++q) {
          const std::uint32_t slot = seed_list_[q];
          visit_mark_[slot] = fe;
          visit_origin_[slot] = q;
          bfs_queue_.push_back(slot);
          bfs_origin_.push_back(q);
          adjust(split_dsu_.find(q), true);
        }
        const auto merge = [&](std::uint32_t a, std::uint32_t b) {
          const std::uint32_t ra = split_dsu_.find(a);
          const std::uint32_t rb = split_dsu_.find(b);
          if (ra == rb) return;
          const std::uint32_t pending = bfs_pending_[ra] + bfs_pending_[rb];
          if (bfs_pending_[ra] > 0 && bfs_pending_[rb] > 0) --active;
          bfs_pending_[ra] = 0;
          bfs_pending_[rb] = 0;
          split_dsu_.unite(ra, rb);
          bfs_pending_[split_dsu_.find(ra)] = pending;
          --comps;
        };
        const double inv_h = std::sqrt(3.0) / static_cast<double>(eps);
        for (std::size_t head = 0;
             head < bfs_queue_.size() && comps > 1 && active > 1; ++head) {
          const std::uint32_t u = bfs_queue_[head];
          const std::uint32_t uo = bfs_origin_[head];
          adjust(split_dsu_.find(uo), false);
          if (sparse) {
            const geom::Vec3& pu = pts[u];
            const auto [it, fresh] =
                cell_seen_.try_emplace(index::cell_key(pu, inv_h), u);
            if (!fresh &&
                geom::distance_squared(pu, pts[it->second]) <= eps2) {
              // The cell's owner already expanded here (the packed key can
              // alias distant cells, hence the distance check): merge
              // through the same-cell witness and skip the query.
              merge(uo, visit_origin_[it->second]);
              continue;
            }
          }
          for_each_neighbor(u, [&](std::uint32_t j) {
            if (!core_now(j) || !r.is_core[j] || r.labels[j] != c) return;
            if (visit_mark_[j] == fe) {
              merge(uo, visit_origin_[j]);
            } else {
              visit_mark_[j] = fe;
              visit_origin_[j] = uo;
              bfs_queue_.push_back(j);
              bfs_origin_.push_back(uo);
              adjust(split_dsu_.find(uo), true);
            }
          });
        }
      };
      if (comps > 1) flood(true);
      if (comps > 1) {
        flood(false);
        if (comps > 1) {
          // Proven split.  A second split site of c, or one with no open
          // residual, re-clusters the whole membership; that covers every
          // later group of c too.
          if (residual_kept || active == 0) {
            recluster(c);
            break;
          }
          // The still-active residual keeps the label; every other
          // component was flooded to exhaustion, so its visited cores ARE
          // the splinter and join W.
          residual_kept = true;
          mark_affected(c);
          std::uint32_t residual = kNoneId;
          for (std::uint32_t q = 0; q < s; ++q) {
            if (bfs_pending_[split_dsu_.find(q)] > 0) {
              residual = split_dsu_.find(q);
              break;
            }
          }
          for (std::size_t e = 0; e < bfs_queue_.size(); ++e) {
            if (split_dsu_.find(bfs_origin_[e]) != residual) {
              add_w(bfs_queue_[e]);
            }
          }
        }
      }
      glo = ghi;
    }
    lo = hi;
  }
}

/// Pass A — phase 2's union rules, run only from W's core points:
/// core-core merges (to an in-W node or an out-of-W cluster anchor),
/// in-W border claims, and first-claim capture of out-of-W points a new
/// core now reaches (old noise, or borders of split clusters).  Out-of-W
/// cores anchor to their old label: their cluster is proven intact, or
/// they are the residual component of a split (splinters joined W).
/// Out-of-W borders of intact clusters keep their labels the same way: a
/// border whose witness core was cut is in some cut node's neighbour list
/// and therefore in W.
void LabelRepair::union_pass() {
  const ClusterResult& r = *r_;
  const auto w_count = static_cast<std::uint32_t>(wlist_.size());
  for (std::uint32_t w = 0; w < w_count; ++w) {
    const std::uint32_t i = wlist_[w];
    if (!core_now(i)) continue;
    for_each_neighbor(i, [&](std::uint32_t j) {
      const std::uint32_t wj = wloc_[j];
      if (wj != kNoneId) {
        if (core_now(j)) {
          if (j > i) w_dsu_.unite(w, wj);
        } else if (!claim_[wj]) {
          claim_[wj] = 1;
          w_dsu_.unite(w, wj);
        }
      } else if (core_now(j)) {
        // Out-of-W core: proven intact, or the residual component of a
        // split cluster (splinters joined W; a splinter core within ε of a
        // residual core would have merged with it during detection's
        // flood).  Either way its old label is its valid cluster identity.
        w_dsu_.unite(w, anchor(r.labels[j]));
      } else if (claim_owner_[j] == kNoneId &&
                 (r.labels[j] == kNoise ||
                  cluster_affected_[static_cast<std::size_t>(r.labels[j])])) {
        // Old noise a new core now reaches, or a border of a SPLIT cluster
        // whose witness core may have ended up in w's side (a splinter): w
        // is a core within ε, so w's cluster is a valid home — claim it.
        // Borders of intact clusters keep their anchor: their witness
        // either survived out of W or sits in W with its old label's
        // identity.
        claimed_slots_.push_back(j);
        claim_owner_[j] = w;
      }
    });
  }
}

/// Pass B — unclaimed non-core W members: border iff ANY live core is
/// within ε (pass A only queried from in-W cores; an out-of-W core can
/// hold them too).  Attach to the first one found, else noise.
void LabelRepair::border_pass() {
  const ClusterResult& r = *r_;
  const auto w_count = static_cast<std::uint32_t>(wlist_.size());
  for (std::uint32_t w = 0; w < w_count; ++w) {
    const std::uint32_t i = wlist_[w];
    if (core_now(i) || claim_[w]) continue;
    for_each_neighbor(i, [&](std::uint32_t j) {
      if (claim_[w] || !core_now(j)) return;
      claim_[w] = 1;
      const std::uint32_t wj = wloc_[j];
      w_dsu_.unite(w, wj != kNoneId ? wj : anchor(r.labels[j]));
    });
  }
}

/// The relabel, with STABLE cluster ids.  A union-find class holding old
/// clusters' anchors keeps the id of the largest of them, so a cluster W
/// does not touch keeps its id and only the smaller side of a merge is
/// relabelled (enumerated through the old members_of()).  Classes without
/// an anchor — new clusters, splinters — take freed ids first, and ids
/// stay dense: the highest kept ids move down into any holes left, one
/// cluster relabelled per hole.  Visits W, the claimed slots, the removed
/// batch, the anchored clusters and the members of merged or moved
/// clusters only; the member lists follow with O(1) moves and list swaps
/// (core/membership.hpp).
void LabelRepair::relabel() {
  ClusterResult& r = *r_;
  Membership& groups = r.membership;
  const std::uint32_t c_old = r.cluster_count;
  const auto w_count = static_cast<std::uint32_t>(wlist_.size());
  const auto old_size = [&](std::uint32_t c) {
    return groups.members_of(static_cast<std::int32_t>(c)).size();
  };
  const auto labeled = [&](std::uint32_t w) {
    return claim_[w] != 0 || core_now(wlist_[w]);
  };

  // A cluster that loses a member gets an anchor too, so the anchored
  // clusters are exactly those whose members or id the repair can change:
  // every other one keeps its members, and its id unless that id must move
  // down into a hole.  stay_count_ ends as the members each anchored
  // cluster keeps: all but those in W, claimed by a W core, or removed.
  // Only a kept member can tie an anchor to anything, so an anchor with
  // none is an empty singleton.
  const std::array<std::span<const std::uint32_t>, 3> leavers = {
      wlist_, claimed_slots_, in_.removed};
  for (const auto slots : leavers) {
    for (const std::uint32_t i : slots) {
      if (r.labels[i] >= 0) --stay_count_[anchor(r.labels[i]) - w_count];
    }
  }
  const auto a_count = static_cast<std::uint32_t>(anchored_.size());

  // Count the final classes: every cluster without an anchor keeps itself;
  // one per root holding a kept anchor (keeper: its largest cluster, ties
  // to the lower id); one per root of labeled W nodes only.  root_id_
  // holds the final id per root, root_keeper_ the member list the class is
  // built in — its keeper's old list, or for a new class a scratch list
  // past every old and new id.
  constexpr std::uint32_t kNewClass = kNoneId - 1;
  root_keeper_.assign(w_dsu_.size(), kNoneId);
  root_id_.assign(w_dsu_.size(), kNoise);
  std::uint32_t c_new = c_old - a_count;
  for (std::uint32_t k = 0; k < a_count; ++k) {
    if (stay_count_[k] == 0) continue;
    const std::uint32_t c = anchored_[k];
    std::uint32_t& keeper = root_keeper_[w_dsu_.find(w_count + k)];
    if (keeper == kNoneId) {
      keeper = c;
      ++c_new;
    } else if (old_size(c) > old_size(keeper) ||
               (old_size(c) == old_size(keeper) && c < keeper)) {
      keeper = c;
    }
  }
  for (std::uint32_t w = 0; w < w_count; ++w) {
    if (!labeled(w)) continue;
    std::uint32_t& keeper = root_keeper_[w_dsu_.find(w)];
    if (keeper == kNoneId) {
      keeper = kNewClass;
      ++c_new;
    }
  }
  // Whether old cluster c is kept as a class of its own members.
  const auto kept = [&](std::uint32_t c) {
    const std::uint32_t node = anchor_node_[c];
    return node == kNoneId || (stay_count_[node - w_count] > 0 &&
                               root_keeper_[w_dsu_.find(node)] == c);
  };

  // Dense ids.  Kept ids below c_new stay; the holes below c_new go to the
  // new classes first, then to the kept ids at or above c_new, highest
  // first.  There are exactly as many holes as takers: c_new counts every
  // kept cluster and every new class, so the holes below c_new number the
  // new classes plus the kept ids at or above c_new.  A hole is the id of
  // an anchored cluster that is not kept, or a new id past c_old.  Each
  // taker is recorded in `renumber_` with the list it builds in, swapped
  // into place at the end.
  hole_list_.clear();
  for (const std::uint32_t c : anchored_) {
    if (c < c_new && !kept(c)) hole_list_.push_back(c);
  }
  for (std::uint32_t c = c_old; c < c_new; ++c) hole_list_.push_back(c);
  std::sort(hole_list_.begin(), hole_list_.end());
  renumber_.clear();
  for (std::uint32_t k = 0; k < a_count; ++k) {
    const std::uint32_t c = anchored_[k];
    if (c < c_new && kept(c)) {
      root_id_[w_dsu_.find(w_count + k)] = static_cast<std::int32_t>(c);
    }
  }
  std::uint32_t scratch = std::max(c_old, c_new);
  for (std::uint32_t w = 0; w < w_count; ++w) {
    if (!labeled(w)) continue;
    const std::uint32_t root = w_dsu_.find(w);
    if (root_keeper_[root] == kNewClass) {
      const std::uint32_t hole = hole_list_[renumber_.size()];
      renumber_.emplace_back(hole, scratch);
      root_keeper_[root] = scratch++;
      root_id_[root] = static_cast<std::int32_t>(hole);
    }
  }
  for (std::uint32_t c = c_old; c-- > c_new;) {
    if (!kept(c)) continue;
    const std::uint32_t hole = hole_list_[renumber_.size()];
    renumber_.emplace_back(hole, c);
    if (anchor_node_[c] != kNoneId) {
      root_id_[w_dsu_.find(anchor_node_[c])] = static_cast<std::int32_t>(hole);
    } else {
      // Untouched by the repair: only its id moves.
      for (const std::uint32_t m :
           groups.members_of(static_cast<std::int32_t>(c))) {
        r.labels[m] = static_cast<std::int32_t>(hole);
      }
    }
  }
  assert(renumber_.size() == hole_list_.size());

  // Relabel: each slot that changes class moves from its old list to the
  // list its class is built in.  The inserted slots start in noise.
  const auto relabel_slot = [&](std::uint32_t i, std::int32_t label,
                                std::uint32_t list) {
    groups.move(i, r.labels[i],
                label == kNoise ? kNoise : static_cast<std::int32_t>(list));
    r.labels[i] = label;
  };
  const auto join_root = [&](std::uint32_t i, std::uint32_t root) {
    relabel_slot(i, root_id_[root], root_keeper_[root]);
  };
  for (std::uint32_t w = 0; w < w_count; ++w) {
    if (labeled(w)) {
      join_root(wlist_[w], w_dsu_.find(w));
    } else {
      relabel_slot(wlist_[w], kNoise, kNoneId);
    }
  }
  // Claimed: old noise a new core reached, or a border of a split cluster
  // re-homed by a W core (its old witness may be in a splinter; the
  // claiming core is a live witness by construction).
  for (const std::uint32_t i : claimed_slots_) {
    join_root(i, w_dsu_.find(claim_owner_[i]));
  }
  for (const std::uint32_t i : in_.removed) relabel_slot(i, kNoise, kNoneId);
  // What is left in an anchored cluster's list are exactly its kept
  // members.  Those of a cluster merged into a larger one join the
  // keeper's list (even when the keeper moved down into this cluster's own
  // freed id); those of a keeper that moved down into a hole keep their
  // list, which the swaps below renumber.
  for (std::uint32_t k = 0; k < a_count; ++k) {
    if (stay_count_[k] == 0) continue;
    const std::uint32_t c = anchored_[k];
    const std::uint32_t root = w_dsu_.find(w_count + k);
    const std::int32_t id = root_id_[root];
    const std::uint32_t keeper = root_keeper_[root];
    if (keeper == c && id == static_cast<std::int32_t>(c)) continue;
    const auto cluster = static_cast<std::int32_t>(c);
    for (const std::uint32_t m : groups.members_of(cluster)) {
      r.labels[m] = id;
    }
    if (keeper != c) {
      groups.merge(cluster, static_cast<std::int32_t>(keeper));
    }
  }
  // Each freed id takes its list: a hole holds an emptied old list, and
  // every source sits at or above c_new, so no swap disturbs a later one.
  for (const auto& [hole, list] : renumber_) {
    groups.swap_groups(static_cast<std::int32_t>(hole),
                       static_cast<std::int32_t>(list));
  }
  groups.set_cluster_count(c_new);
  r.cluster_count = c_new;
}

}  // namespace rtd::core
