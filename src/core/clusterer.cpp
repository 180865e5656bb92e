#include "core/clusterer.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/mutex.hpp"
#include "common/prefetch.hpp"
#include "common/stage.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "core/point_buffer.hpp"
#include "core/seed_closure.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/equivalence.hpp"
#include "index/compacted_index.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd {

namespace {

using geom::Vec3;
using index::IndexKind;

/// "No entry" sentinel for the slot -> mini-DSU-node maps.
constexpr std::uint32_t kNoneId = std::numeric_limits<std::uint32_t>::max();

void validate_run_params(float eps, std::uint32_t min_pts) {
  dbscan::require_eps(eps, "Clusterer");
  if (min_pts == 0) {
    throw std::invalid_argument("Clusterer: min_pts must be >= 1");
  }
}

void validate_center(const Vec3& center) {
  // A NaN coordinate fails every distance comparison (garbage "no
  // neighbors" result) and an infinity can degenerate the retarget — fail
  // loudly BEFORE the index is touched, like run() does for the dataset.
  if (!geom::is_finite(center)) {
    throw std::invalid_argument(
        "Clusterer: query center has a non-finite coordinate");
  }
}

}  // namespace

struct Clusterer::Impl {
  /// Owned storage (null for a borrowing session until its first insert)
  /// and the view every internal consumer reads: the session's prefix of
  /// the buffer.  Shared so snapshots co-own the points past the session's
  /// lifetime; appends write past every snapshot's prefix
  /// (core/point_buffer.hpp).
  std::shared_ptr<PointBuffer> storage;
  std::span<const Vec3> pts;
  Options opts;  ///< backend resolved at construction (never kAuto)

  // --- the NeighborIndex session state ------------------------------------
  /// Built at the first run.  Shared (not unique) so a published
  /// IndexSnapshot can keep its version alive after the session moves on
  /// to a clone or a rebuild.
  std::shared_ptr<index::NeighborIndex> index;
  float index_eps = 0.0f;
  /// Query launch order over the LIVE slots only — rebuilt lazily after
  /// mutations (ensure_order).  Engine phases launch one query per entry.
  std::vector<std::uint32_t> order;
  bool order_valid = false;

  // --- live-session state (slot ids are stable; removal tombstones) -------
  std::vector<std::uint8_t> live;  ///< empty = every slot live; else 0/1
  std::size_t dead_count = 0;
  std::size_t oldest_live = 0;  ///< advance() expiry cursor (insertion order)
  /// Mutated slots absorbed into the index since its last full build; past
  /// rebuild_threshold() the next mutation rebuilds over the live set.
  std::size_t pending_mutations = 0;
  /// result holds the clustering mutations maintain.  Set by run()/sweep(),
  /// cleared by take_result() (mutations then have no baseline and throw).
  bool result_current = false;

  // --- failure model (see SessionHealth in the header) ---------------------
  /// kDegraded: a fault tore the result buffers after the session's
  /// committed state (points, mask, counts) was already updated.  The next
  /// writer call heals by a full re-cluster at (last_eps, last_min_pts).
  SessionHealth health = SessionHealth::kHealthy;
  /// Parameters of the last requested clustering — what heal() re-runs.
  float last_eps = 0.0f;
  std::uint32_t last_min_pts = 0;
  bool params_valid = false;

  // --- the concurrent serving layer ---------------------------------------
  // Readers (snapshot(), const query_neighbors/query_batch) take ONE atomic
  // load in steady state.  publish_mu serializes the slow paths only:
  // writer index mutation/retargeting and first-snapshot creation.
  // index_shared (guarded by publish_mu) records whether the CURRENT index
  // object is aliased by any snapshot — if so, the writer must never mutate
  // it: unshare_index() swaps in a clone (a new version sharing the built
  // trees) first, and the old version is reclaimed when the last snapshot
  // holder releases it.
  Mutex publish_mu;
  std::atomic<std::shared_ptr<const IndexSnapshot>> published;
  bool index_shared RTD_GUARDED_BY(publish_mu) = false;

  // Neighbor-count cache: counts are a pure function of (points, eps), so
  // they survive index refits/rebuilds and min_pts changes at the same eps.
  std::vector<std::uint32_t> counts;
  bool counts_valid = false;
  float counts_eps = 0.0f;

  // Reusable engine workspace: warm run() calls allocate nothing.
  std::optional<dsu::AtomicDisjointSet> dsu;
  std::vector<std::atomic<std::uint8_t>> claimed;
  /// The fused launch's per-slot "count final" flags (run() only).
  std::vector<std::atomic<std::uint8_t>> settled;
  std::vector<std::int32_t> root_scratch;

  // Incremental-maintenance scratch (capacities reused: warm mutations
  // below the rebuild threshold allocate only at the documented growth
  // points — point-buffer growth, mask/scratch/member-list growth to a new
  // high-water mark, DSU growth).  The slot-sized maps (wloc, claim_owner) and
  // cluster_affected are never filled wholesale: each repair clears the
  // entries the previous one set through that one's dirty lists (wlist,
  // claimed_slots, affected_list), so a repair a fault interrupted leaves
  // nothing stale behind either.
  std::vector<std::uint32_t> rem_sorted;     ///< validated removal batch
  std::vector<std::uint32_t> expire_scratch; ///< advance() expiry ids
  std::vector<std::uint32_t> touched;  ///< slots whose count changed
  std::vector<std::uint8_t> cluster_affected;  ///< old cluster lost a core
  std::vector<std::uint32_t> affected_list;  ///< .. its set entries
  std::vector<std::uint32_t> wloc;   ///< slot -> mini-DSU node, kNoneId out
  std::vector<std::uint32_t> wlist;  ///< mini-DSU node -> slot
  std::vector<std::uint8_t> claim;   ///< in-W border claims (serial CAS)
  std::vector<std::uint32_t> claim_owner;  ///< out-of-W noise -> claiming node
  std::vector<std::uint32_t> claimed_slots;  ///< .. its set entries
  /// The repair's union-find (parent links, the lower index is the root):
  /// W's nodes, then one ANCHOR node per old cluster the repair reaches,
  /// created on first use (anchor()), so its size follows the repair and
  /// not the cluster count.
  std::vector<std::uint32_t> mini_parent;
  std::vector<std::uint32_t> anchor_node;  ///< old cluster -> node, kNoneId
  std::vector<std::uint32_t> anchored;     ///< .. its set entries, by node
  std::vector<std::uint32_t> stay_count;   ///< anchor -> members it keeps
  std::vector<std::uint32_t> root_keeper;  ///< root -> the list it builds in
  std::vector<std::uint32_t> hole_list;    ///< freed ids below the new count
  /// (freed id, list built for it): the swaps that finish a relabel.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> renumber;
  std::vector<std::uint32_t> rem_nbr_ids;     ///< removal-batch neighbor CSR
  std::vector<std::uint32_t> rem_nbr_starts;  ///< .. per-removed-id offsets
  std::vector<std::uint32_t> ins_nbr_ids;     ///< insert-batch neighbor CSR
  std::vector<std::uint32_t> ins_nbr_starts;  ///< .. per-new-id offsets
  std::vector<std::uint32_t> cut_list;    ///< removed/demoted cores, by label
  std::vector<std::uint32_t> grow_list;   ///< promoted cores + inserted slots
  std::vector<std::uint32_t> cut_order;   ///< cut indices grouped by ε-site
  std::vector<std::uint32_t> cut_root;    ///< cut index -> its ε-site's root
  std::vector<std::uint32_t> seed_list;   ///< cut-adjacent surviving cores
  std::vector<std::uint32_t> bfs_queue;   ///< connectivity-proof frontier
  std::vector<std::uint32_t> bfs_origin;  ///< .. origin seed per entry
  std::vector<std::uint32_t> bfs_pending;  ///< frontier entries per seed root
  SeedClosureScratch seed_closure;        ///< seed fast-path buffers
  std::unordered_map<std::uint64_t, std::uint32_t> cell_seen;  ///< sparse tier
  std::vector<std::uint32_t> seed_mark;   ///< slot epochs: is a seed
  std::vector<std::uint32_t> visit_mark;  ///< slot epochs: BFS visited
  std::vector<std::uint32_t> visit_origin;  ///< .. owning seed, same epoch
  std::uint32_t mark_epoch = 0;           ///< current epoch for the 3 above
  std::optional<dsu::AtomicDisjointSet> site_dsu;  ///< cut grouping + seeds

  // sweep() scratch: the ladder's distinct ε² values as levels, sorted
  // descending, and its counts, point-major (sweep_counts[i * levels + l])
  // so a pair's level walk reads one cache line per end.  Level l owns the
  // slots [l·n, (l+1)·n) of the shared dsu/claimed workspace.
  // O(k_unique · n).
  std::vector<std::uint32_t> sweep_counts;
  std::vector<float> sweep_eps2;

  ClusterResult result;

  struct EnsureStats {
    bool rebuilt = false;
    bool refitted = false;
    double seconds = 0.0;
  };

  [[nodiscard]] index::IndexBuildOptions build_options() const {
    index::IndexBuildOptions o;
    o.threads = opts.threads;
    o.triangle_subdivisions = opts.triangle_subdivisions;
    return o;
  }

  [[nodiscard]] bool is_live_slot(std::size_t i) const {
    return live.empty() || live[i] != 0;
  }

  /// Post-mutation core flag during a label repair (counts and the live
  /// mask already hold the batch; result.is_core still holds the old flags
  /// until the relabel).
  [[nodiscard]] bool core_now(std::size_t i) const {
    return is_live_slot(i) && counts[i] + 1 >= last_min_pts;
  }

  [[nodiscard]] std::size_t live_slots() const {
    return pts.size() - dead_count;
  }

  /// Every health transition funnels through here so the degraded/healed
  /// counters and the health gauge can never drift from the field.
  void set_health(SessionHealth h) noexcept {
    if (h != health) {
      telemetry::count(h == SessionHealth::kDegraded
                           ? telemetry::Counter::kSessionDegradedEntered
                           : telemetry::Counter::kSessionHealed);
      telemetry::gauge_set(telemetry::Gauge::kSessionHealthDegraded,
                           h == SessionHealth::kDegraded ? 1 : 0);
    }
    health = h;
  }

  /// How many mutated slots the index may absorb in place before a fresh
  /// build: enough that per-query delta-tail scans stay cheap, scaled so
  /// big sessions amortize more mutations per build.
  [[nodiscard]] static std::size_t rebuild_threshold(std::size_t live_n) {
    return std::max<std::size_t>(64, live_n / 8);
  }

  /// Build a FRESH index at `eps` over the live set: the plain backend when
  /// every slot is live, the CompactedIndex adapter (dense live copy,
  /// slot-id translation) when tombstones exist — a plain rebuild over the
  /// full span would resurrect them.  Caller holds publish_mu whenever a
  /// snapshot could exist.  Resets the absorbed-mutation budget.
  void build_index_now(float eps) RTD_REQUIRES(publish_mu) {
    index.reset();  // release the old structure before building anew
    if (dead_count == 0) {
      index = index::make_index(pts, eps, opts.backend, build_options());
    } else {
      index = std::make_shared<index::CompactedIndex>(
          pts, std::span<const std::uint8_t>(live), eps, opts.backend,
          build_options());
    }
    index_eps = eps;
    index_shared = false;
    pending_mutations = 0;
  }

  /// Before any index mutation: if a snapshot holds the current index,
  /// continue on a clone of it — a new version that shares the built trees
  /// and copies a tree only when it refits or retargets it.  A throw
  /// leaves the session index as it was.
  void unshare_index() RTD_REQUIRES(publish_mu) {
    if (!index_shared) return;
    index = index->clone();
    index_shared = false;  // the snapshot keeps its own reference
    telemetry::count(telemetry::Counter::kIndexClones);
  }

  /// Rebuild the live-only Morton launch order if mutations invalidated it.
  void ensure_order() {
    if (order_valid) return;
    order = dbscan::query_launch_order(pts, true, opts.threads);
    if (dead_count > 0) {
      order.erase(std::remove_if(order.begin(), order.end(),
                                 [&](std::uint32_t i) { return !live[i]; }),
                  order.end());
    }
    order_valid = true;
  }

  /// Make the session index answer queries at `eps`: build it on the first
  /// call, REFIT in place where the backend supports it, rebuild where it
  /// does not.  Records what happened and what it cost.
  EnsureStats ensure_index(float eps) {
    EnsureStats es;
    if (!index) {
      Timer t;
      const MutexLock lock(publish_mu);
      build_index_now(eps);
      es.rebuilt = true;
      es.seconds = t.seconds();
    } else if (eps != index_eps) {
      Timer t;
      const MutexLock lock(publish_mu);
      // Unpublish first: new readers re-snapshot the post-retarget index;
      // in-flight readers' own shared_ptr copies keep the old snapshot
      // (and through it the old version) alive until they finish.
      published.store(nullptr);
      // Clone only a version that will be refitted; grid/dense-box rebuild.
      const bool refit = index->refittable();
      if (refit) unshare_index();
      if (refit && index->try_set_eps(eps)) {
        index_eps = eps;
        es.refitted = true;
      } else {
        build_index_now(eps);
        es.rebuilt = true;
      }
      es.seconds = t.seconds();
    }
    return es;
  }

  /// The reader slow path behind snapshot() and the const queries: fetch
  /// the published snapshot, creating it under publish_mu on first access
  /// after a (re)build or retarget.  The fast path is the lock-free atomic
  /// load at the top.  There is no index before the first run() or
  /// sweep(), nor after a batch that was absorbed in place (no snapshot
  /// held the index) rolled back: that drops the index, and the next
  /// writer call rebuilds it.  Both throw.  A batch absorbed into a clone
  /// rolls back to the pre-clone version instead, which keeps serving.
  [[nodiscard]] std::shared_ptr<const IndexSnapshot> acquire_snapshot() {
    std::shared_ptr<const IndexSnapshot> snap = published.load();
    if (snap) return snap;
    const MutexLock lock(publish_mu);
    snap = published.load();
    if (snap) return snap;
    if (!index) {
      throw std::logic_error(
          "Clusterer: no index to snapshot yet — run() or sweep() builds "
          "it");
    }
    // The stage covers only the creation slow path — the steady-state
    // atomic load above (the serving fast path) stays untraced.  A throw
    // here (injected or real) is harmless: nothing was published, the
    // session index is untouched, and the caller can simply retry.
    RTD_STAGE("session.publish");
    auto created =
        std::make_shared<const IndexSnapshot>(index, storage, pts, index_eps);
    published.store(created);
    index_shared = true;
    telemetry::count(telemetry::Counter::kSnapshotPublishes);
    return created;
  }

  /// Fresh union-find and border claims for `slots` slots (n per ladder
  /// level).  The workspace only grows, so warm run() calls after a
  /// sweep() reuse the sweep's larger arrays.
  void reset_workspace(std::size_t slots) {
    if (!dsu.has_value()) {
      dsu.emplace(slots);
    } else {
      dsu->reset(slots);  // mutations or a ladder may grow the slot space
    }
    if (claimed.size() < slots) {
      claimed = std::vector<std::atomic<std::uint8_t>>(slots);
    }
    for (std::size_t i = 0; i < slots; ++i) {
      claimed[i].store(0, std::memory_order_relaxed);
    }
  }

  /// The workspace of a fused launch over `slots` union-find slots (n per
  /// ladder level) plus n cleared settle flags.  A live slot outside the
  /// order would never settle (and its pairs never merge); ensure_order
  /// keeps every live slot, once.
  void reset_launch(std::size_t slots) {
    if (order.size() != live_slots()) {
      throw std::logic_error("Clusterer: launch order misses live slots");
    }
    reset_workspace(slots);
    const std::size_t n = pts.size();
    if (settled.size() < n) {
      settled = std::vector<std::atomic<std::uint8_t>>(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      settled[i].store(0, std::memory_order_relaxed);
    }
  }

  /// The fused launch of run(): counts into the session cache and the
  /// clustering into the workspace, at `eps` over the live order.  Touches
  /// scratch only, so a throw leaves the result as it was.
  void count_cluster(const dbscan::Params& params, RunStats& stats) {
    reset_launch(pts.size());
    const dbscan::CountClusterStats launch = dbscan::index_count_cluster(
        *index, params, order, opts.threads, counts, *dsu, claimed, settled);
    stats.phase1 = launch.phase1;
    stats.phase2 = launch.phase2;
  }

  /// The epilogue of run(), from the ε-neighbor counts in `cts` (the
  /// session cache): core flags, phase 2 over the reusable workspace
  /// unless the fused launch already `clustered`, label finalization,
  /// membership table, totals.
  void finish_run(float eps, std::uint32_t min_pts,
                  std::span<const std::uint32_t> cts, bool clustered,
                  const Timer& total) {
    ClusterResult& r = result;
    const std::size_t n = pts.size();

    // Core test: counts exclude self; |N_eps(p)| >= minPts includes it.
    // Tombstoned slots are never core (their counts are 0, but a min_pts
    // of 1 would otherwise resurrect them).
    r.is_core.assign(n, 0);
    const bool has_dead = dead_count > 0;
    for (std::size_t i = 0; i < n; ++i) {
      r.is_core[i] =
          (!has_dead || live[i]) && cts[i] + 1 >= min_pts ? 1 : 0;
    }

    if (!clustered) {
      reset_workspace(n);
      r.stats.phase2 = dbscan::index_phase2(*index, eps, order, r.is_core,
                                            *dsu, claimed, opts.threads);
      r.stats.timings.cluster_phase_seconds = r.stats.phase2.seconds;
    }

    r.neighbor_counts.assign(cts.begin(), cts.end());
    finalize(r, 0, total);
  }

  /// The tail of run() and of every sweep() entry: labels and member lists
  /// of `r` from its core flags and the union-find slots [off, off + n)
  /// (one ladder level), then the totals.
  void finalize(ClusterResult& r, std::size_t off, const Timer& total) {
    const auto base = static_cast<std::uint32_t>(off);
    r.cluster_count = dbscan::finalize_labels_into(
        pts.size(),
        [&](std::uint32_t x) { return dsu->find(base + x) - base; },
        r.is_core, r.labels, root_scratch);
    r.membership.assign(r.labels, r.cluster_count);
    r.stats.timings.total_seconds = total.seconds();
    r.seconds = r.stats.timings.total_seconds;
  }

  /// The body of run(), parameters pre-validated — and the HEAL path for a
  /// degraded session (a full re-cluster at the last requested
  /// parameters).  Transactional: a throw before the result buffers are
  /// touched restores the run metadata and leaves the previous result
  /// intact (strong); a throw inside finish_run leaves the buffers torn
  /// and the session kDegraded.
  const ClusterResult& do_run(float eps, std::uint32_t min_pts) {
    // Covers the whole run, heal re-clusters included (a heal shows up as
    // a session.run span nested inside the mutation's wrapper span).
    RTD_STAGE("session.run");
    telemetry::count(telemetry::Counter::kSessionRuns);
    ClusterResult& r = result;
    const std::size_t n = pts.size();

    Timer total;
    // Fixed-size metadata backups for the strong-guarantee exits (the big
    // result buffers are only touched by finish_run, which degrades
    // instead of rolling back).
    const float eps_backup = r.eps;
    const std::uint32_t min_pts_backup = r.min_pts;
    const RunStats stats_backup = r.stats;
    const double seconds_backup = r.seconds;
    const auto restore_metadata = [&]() noexcept {
      r.eps = eps_backup;
      r.min_pts = min_pts_backup;
      r.stats = stats_backup;
      r.seconds = seconds_backup;
    };

    r.eps = eps;
    r.min_pts = min_pts;
    r.stats = RunStats{};
    r.stats.backend = opts.backend;

    if (n == 0) {
      r.labels.clear();
      r.is_core.clear();
      r.neighbor_counts.clear();
      r.membership.assign({}, 0);
      r.cluster_count = 0;
      r.seconds = total.seconds();
      last_eps = eps;
      last_min_pts = min_pts;
      params_valid = true;
      set_health(SessionHealth::kHealthy);
      result_current = true;  // an empty session may stream from here
      telemetry::observe(telemetry::Histogram::kRunLatency, r.seconds);
      return r;
    }

    EnsureStats es;
    try {
      es = ensure_index(eps);
      ensure_order();
    } catch (...) {
      restore_metadata();  // strong: a failed build left no index behind
      throw;
    }
    r.stats.index_rebuilt = es.rebuilt;
    r.stats.index_refitted = es.refitted;
    r.stats.timings.index_build_seconds = es.seconds;

    // The cached counts at this ε, whatever its min_pts (phase 2 alone
    // follows), or the fused launch that counts and clusters in one walk.
    // The cache survives refits: counts depend only on (points, eps).
    const bool reuse = counts_valid && counts_eps == eps;
    if (reuse) {
      r.stats.counts_reused = true;
    } else {
      counts_valid = false;  // a throw mid-launch would leave them torn
      try {
        count_cluster(dbscan::Params{eps, min_pts, opts.backend}, r.stats);
      } catch (...) {
        restore_metadata();  // strong; the count cache is dropped, not torn
        throw;
      }
      counts_valid = true;
      counts_eps = eps;
      r.stats.timings.core_phase_seconds = r.stats.phase1.seconds;
    }

    last_eps = eps;
    last_min_pts = min_pts;
    params_valid = true;
    try {
      finish_run(eps, min_pts, counts, !reuse, total);
    } catch (...) {
      // The result buffers are partially overwritten.  Committed state
      // (points, mask, counts) is coherent; only the labels are torn —
      // degrade, and let the next writer call heal by re-clustering.
      set_health(SessionHealth::kDegraded);
      result_current = false;
      throw;
    }
    set_health(SessionHealth::kHealthy);
    result_current = true;
    // The histogram records exactly what RunStats reports (same Timer).
    telemetry::observe(telemetry::Histogram::kRunLatency, r.seconds);
    return r;
  }

  /// The shared mutation pipeline behind insert()/remove()/advance().
  /// Validates everything up front (a throwing call leaves the session
  /// untouched), then: decrement-queries for the removal batch, liveness
  /// bookkeeping, storage append + index absorption under the publish
  /// lock, count queries for the inserted batch, and the localized label
  /// repair.  Returns the first inserted slot id.
  std::size_t mutate(std::span<const Vec3> add,
                     std::span<const std::uint32_t> rem) {
    // Heal first: a degraded session has coherent committed state (points,
    // mask, counts) but torn labels — one full re-cluster at the last
    // requested parameters restores the baseline this mutation maintains.
    // The same recovery covers a healthy session whose COUNTS cache was
    // dropped by a failed phase-1 launch (run() rolled its result back —
    // strong — but the cache may be torn and incremental maintenance
    // depends on it).  (A throw here leaves the session degraded or the
    // cache still invalid; the next call retries.)
    if (params_valid && (health == SessionHealth::kDegraded ||
                         (result_current && !counts_valid))) {
      do_run(last_eps, last_min_pts);
    }
    if (!result_current) {
      throw std::logic_error(
          "Clusterer: mutations maintain the last clustering — run() or "
          "sweep() first (and again after take_result())");
    }
    dbscan::require_finite(add);
    const std::size_t n = pts.size();
    rem_sorted.assign(rem.begin(), rem.end());
    std::sort(rem_sorted.begin(), rem_sorted.end());
    if (std::adjacent_find(rem_sorted.begin(), rem_sorted.end()) !=
        rem_sorted.end()) {
      throw std::invalid_argument(
          "Clusterer: duplicate id in one removal batch");
    }
    for (const std::uint32_t id : rem_sorted) {
      if (id >= n) {
        throw std::invalid_argument("Clusterer: remove id out of range");
      }
      if (!is_live_slot(id)) {
        throw std::invalid_argument(
            "Clusterer: remove id was already removed");
      }
    }
    const std::size_t first_new = n;
    if (add.empty() && rem_sorted.empty()) return first_new;  // no-op

    Timer total;
    const float eps = result.eps;
    const std::uint32_t min_pts = result.min_pts;

    // Fixed-size backups for the strong-guarantee exits; the noexcept
    // rollback lambdas below undo each applied stage in reverse.  (Nothing
    // here is O(n): the big result buffers are only touched by the final
    // label repair, which degrades instead of rolling back.)
    const RunStats stats_backup = result.stats;
    const double seconds_backup = result.seconds;
    const std::size_t pending_backup = pending_mutations;
    const bool live_was_empty = live.empty();
    const auto restore_stats = [&]() noexcept {
      result.stats = stats_backup;
      result.seconds = seconds_backup;
    };

    RunStats& st = result.stats;
    st.incremental = true;
    st.counts_reused = false;
    st.phase1 = rt::LaunchStats{};
    st.phase2 = rt::LaunchStats{};
    st.timings = dbscan::PhaseTimings{};

    // Stage 1 — the index must exist and serve the result's ε before the
    // batch can be queried (a sweep can park a rebuild-only backend at the
    // ladder maximum; a session whose first run saw no points has no index
    // yet).  A failed build leaves no index (the next call rebuilds);
    // everything observable is pre-call: strong.
    try {
      const EnsureStats es = ensure_index(eps);
      st.index_rebuilt = es.rebuilt;
      st.index_refitted = es.refitted;
      st.timings.index_build_seconds = es.seconds;
    } catch (...) {
      restore_stats();
      throw;
    }

    // Stage 2 — removal counts maintenance: one ε-query per removed id,
    // BEFORE the mask hides the removed points.  Capture-then-apply inside
    // the engine: `counts` is only touched by its noexcept epilogue, so a
    // throw during the queries needs no count rollback.
    bool removal_applied = false;
    if (!rem_sorted.empty()) {
      try {
        if (live.empty()) live.assign(n, 1);
        st.phase1 = dbscan::index_phase1_remove(
            *index, eps, rem_sorted, counts, rem_nbr_ids, rem_nbr_starts);
      } catch (...) {
        if (live_was_empty) live.clear();  // all-ones mask == empty mask
        restore_stats();
        throw;  // strong
      }
      for (const std::uint32_t id : rem_sorted) live[id] = 0;
      dead_count += rem_sorted.size();
      removal_applied = true;
    }
    // Undo stage 2: re-increment through the captured CSR, resurrect the
    // mask.  Noexcept — every step is a plain store.
    const auto rollback_removal = [&]() noexcept {
      if (!removal_applied) return;
      for (const std::uint32_t j : rem_nbr_ids) ++counts[j];
      for (const std::uint32_t id : rem_sorted) live[id] = 1;
      dead_count -= rem_sorted.size();
      if (live_was_empty) live.clear();
    };

    const std::size_t n_new = n + add.size();

    // Stage 3 — storage append + index mutation, under the publish lock so
    // snapshot creation can never interleave with a half-applied batch.
    // The append never moves a point a reader (or the index) can see: it
    // writes past every prefix in place, or copies into a grown buffer
    // while the old one lives on in its holders — here also in
    // storage_backup until the batch commits.
    bool live_grown = false;
    bool index_hazard = false;
    std::shared_ptr<index::NeighborIndex> index_backup;  // pre-clone
    std::shared_ptr<PointBuffer> storage_backup = storage;
    const std::span<const Vec3> pts_backup = pts;
    // Undo stages 2+3.  Noexcept; call with publish_mu HELD.  When the
    // batch was absorbed into a clone, the pre-clone version (which a
    // snapshot holds, so it was never mutated) becomes the session index
    // again.  Otherwise an index that may be mid-mutation (a backend threw
    // partway through an in-place absorb) is dropped — derived state the
    // next ensure_index rebuilds.  Readers stay safe: published is nulled
    // and any snapshot taken meanwhile owns its own references to whatever
    // it captured.  The rolled-back session length sits below the
    // buffer's write cursor, so the next append copies instead of
    // overwriting what such a snapshot reads.
    const auto rollback_batch_locked = [&]() noexcept {
      // Defined outside the lock scope but only ever called with publish_mu
      // held (both call sites below) — re-assert for the analysis, which
      // treats the lambda body as a separate function.
      publish_mu.assert_held();
      published.store(nullptr);
      if (index_backup) {
        index = std::move(index_backup);
        index_shared = true;
      } else if (index_hazard) {
        index.reset();
        index_shared = false;
      }
      if (live_grown) live.resize(n);
      storage = std::move(storage_backup);
      pts = pts_backup;
      pending_mutations = pending_backup;
      rollback_removal();
    };
    {
      const MutexLock lock(publish_mu);
      published.store(nullptr);
      try {
        pending_mutations += add.size() + rem_sorted.size();
        // Absorb in place while the mutation budget lasts and the backend
        // can take the batch — on a clone if a snapshot holds the index
        // (before anything else moves, so a failed clone needs only the
        // removal rollback).  Grid/dense-box inserts rebuild uncloned.
        const bool absorb =
            pending_mutations <= rebuild_threshold(n_new - dead_count) &&
            (add.empty() || index->refittable());
        if (absorb && index_shared) {
          index_backup = index;
          unshare_index();
        }
        if (!add.empty()) {
          pts = PointBuffer::append(storage, pts, add);
          if (!live.empty()) {
            live.resize(n_new, 1);
            live_grown = true;
          }
        }
        bool absorbed = false;
        index_hazard = true;  // the structure mutates below
        if (absorb) {
          // Mask the removals (amortized refit inside the backend), then
          // hand the appended span over (delta-tail contract — the call
          // also re-binds after the buffer grew).
          bool ok = rem_sorted.empty() || index->try_remove(rem_sorted);
          if (ok && !add.empty()) ok = index->try_insert(pts, first_new);
          absorbed = ok;
        }
        if (!absorbed) {
          // Over the mutation budget, or a backend that cannot absorb
          // inserts (grid/dense-box): fresh build over the live set.  A
          // snapshot still holding the old index keeps it alive.
          telemetry::count(telemetry::Counter::kIndexRebuildFallbacks);
          build_index_now(eps);
          st.index_rebuilt = true;
        }
        order_valid = false;
      } catch (...) {
        rollback_batch_locked();
        restore_stats();
        throw;  // strong
      }
    }

    // Stage 4 — insert counts maintenance: one ε-query per new point
    // against the post-mutation index (removed slots are already
    // invisible).  Capture-then-apply again; a throw undoes the WHOLE
    // batch (stage 3 included) — absorbed points must not outlive their
    // counts.
    if (!add.empty()) {
      try {
        const rt::LaunchStats ins = dbscan::index_phase1_insert(
            *index, eps, first_new, counts, ins_nbr_ids, ins_nbr_starts);
        st.phase1.seconds += ins.seconds;
        st.phase1.work += ins.work;
      } catch (...) {
        counts.resize(n);  // drop any new rows the engine had grown
        {
          const MutexLock lock(publish_mu);
          rollback_batch_locked();
        }
        restore_stats();
        throw;  // strong
      }
    }

    // Point of no return: the batch is committed.  Every remaining step
    // either completes or degrades the session (labels torn, committed
    // state kept) for the next call to heal.
    for (const std::uint32_t id : rem_sorted) counts[id] = 0;
    st.timings.core_phase_seconds = st.phase1.seconds;
    counts_valid = true;
    counts_eps = eps;
    last_eps = eps;
    last_min_pts = min_pts;
    params_valid = true;

    // Stage 5 — label repair.  The result buffers are rewritten in place;
    // rollback is impossible mid-way, so a throw degrades.
    try {
      maintain_labels(first_new, eps);
    } catch (...) {
      set_health(SessionHealth::kDegraded);
      result_current = false;
      throw;
    }

    st.timings.total_seconds = total.seconds();
    result.seconds = st.timings.total_seconds;
    // Same Timer that populates RunStats, so the histogram and the
    // per-mutation stats agree sample for sample.
    telemetry::observe(telemetry::Histogram::kMutationLatency,
                       st.timings.total_seconds);
    telemetry::gauge_set(telemetry::Gauge::kSessionLivePoints,
                         static_cast<std::int64_t>(live_slots()));
    telemetry::gauge_set(telemetry::Gauge::kSessionPendingMutations,
                         static_cast<std::int64_t>(pending_mutations));
    return first_new;
  }

  /// Join slot i to the repair set W (wlist), wloc being the slot -> node
  /// map.  The dirty list is appended before the map entry is set, so a
  /// throwing append leaves nothing marked that the next repair cannot
  /// clear.
  void add_w(std::uint32_t i) {
    if (wloc[i] == kNoneId) {
      wlist.push_back(i);
      wloc[i] = static_cast<std::uint32_t>(wlist.size() - 1);
    }
  }

  /// Flag old cluster c for full repair (a proven or possible split).
  void mark_affected(std::int32_t c) {
    std::uint8_t& flag = cluster_affected[static_cast<std::size_t>(c)];
    if (!flag) {
      affected_list.push_back(static_cast<std::uint32_t>(c));
      flag = 1;
    }
  }

  /// Re-cluster old cluster c from scratch: flag it and put every live
  /// member into W.
  void recluster(std::int32_t c) {
    mark_affected(c);
    for (const std::uint32_t m : result.members_of(c)) {
      if (is_live_slot(m)) add_w(m);
    }
  }

  [[nodiscard]] std::uint32_t mini_find(std::uint32_t x) {
    while (mini_parent[x] != x) {
      mini_parent[x] = mini_parent[mini_parent[x]];  // path halving
      x = mini_parent[x];
    }
    return x;
  }

  void mini_unite(std::uint32_t a, std::uint32_t b) {
    a = mini_find(a);
    b = mini_find(b);
    if (a != b) mini_parent[std::max(a, b)] = std::min(a, b);
  }

  /// The anchor node of old cluster c, created on first use with c's
  /// whole membership as its kept count.  The dirty list is appended
  /// first, as in add_w.
  std::uint32_t anchor(std::int32_t c) {
    std::uint32_t& node = anchor_node[static_cast<std::size_t>(c)];
    if (node == kNoneId) {
      anchored.push_back(static_cast<std::uint32_t>(c));
      stay_count.push_back(
          static_cast<std::uint32_t>(result.members_of(c).size()));
      const auto fresh = static_cast<std::uint32_t>(mini_parent.size());
      mini_parent.push_back(fresh);
      node = fresh;
    }
    return node;
  }

  /// A fresh epoch for seed_mark / visit_mark.
  std::uint32_t next_epoch() {
    if (++mark_epoch == 0) {  // wrap: invalidate all stale marks once
      std::fill(seed_mark.begin(), seed_mark.end(), 0u);
      std::fill(visit_mark.begin(), visit_mark.end(), 0u);
      mark_epoch = 1;
    }
    return mark_epoch;
  }

  /// Localized label repair after one mutation batch — the incremental
  /// phase 2.  Correctness rests on two monotonicity facts:
  ///   * insertions cannot SPLIT a cluster (ε-edges only appear), and
  ///   * removals cannot MERGE clusters (ε-edges only disappear);
  /// so only clusters that LOST a core point (removal or demotion) can
  /// change shape; every other cluster keeps its partition.  For clusters
  /// that did lose cores, split detection (detect_splits) certifies most
  /// of them intact by connecting the cut-adjacent surviving cores —
  /// usually by plain distance checks, else a localized BFS — so the
  /// repair set W stays small: the cut's non-core neighbors, demoted
  /// cores, promoted cores, and the inserted batch; only a PROVEN split
  /// expands a cluster's full membership into W.  A miniature union-find
  /// over W plus one ANCHOR node per old cluster it reaches re-runs phase
  /// 2's union rules from W's cores (an inserted core replays the row
  /// its count maintenance captured instead of querying); the relabel pass
  /// then maps old labels through the anchors, so intact clusters merge
  /// or persist without their members ever being queried.
  ///
  /// No step walks every slot: core flags can flip only where a neighbor
  /// count changed (the touched set), scratch is cleared through dirty
  /// lists, old clusters enter the union-find only when the repair reaches
  /// them, cluster ids are stable (relabel_repair), and each relabelled
  /// slot moves between member lists in O(1), so the cost is
  /// O(|touched| + |W| + the clusters reached) plus the members of merged
  /// or renumbered clusters.
  void maintain_labels(std::size_t first_new, float eps) {
    RTD_STAGE("session.repair");
    const Timer phase_timer;
    ClusterResult& r = result;
    const std::size_t n = pts.size();
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
    for (const std::uint32_t i : wlist) wloc[i] = kNoneId;
    wlist.clear();
    for (const std::uint32_t i : claimed_slots) claim_owner[i] = kNoneId;
    claimed_slots.clear();
    for (const std::uint32_t c : affected_list) cluster_affected[c] = 0;
    affected_list.clear();
    for (const std::uint32_t c : anchored) anchor_node[c] = kNoneId;
    anchored.clear();
    stay_count.clear();
    wloc.resize(n, kNoneId);
    claim_owner.resize(n, kNoneId);
    cluster_affected.resize(c_old, 0);
    anchor_node.resize(c_old, kNoneId);
    seed_mark.resize(n);
    visit_mark.resize(n);
    visit_origin.resize(n);  // valid only where visit_mark holds the epoch

    // The touched set: the removed ids, their captured neighbors, the
    // inserted slots and their pre-existing neighbors — every slot whose
    // count changed, so the only slots whose core flag can have flipped.
    // (seed_mark dedupes; split detection takes fresh epochs after.)  Each
    // neighbor CSR holds the last batch that had a side of its kind.
    //
    // A slot is classified the moment it is first touched, so its scattered
    // is_core / counts / live loads are paid once here rather than in one
    // walk per list:
    //  * CUT nodes — old cores that are no longer cores (removed, or
    //    demoted by the batch).  Only paths through them can break, so
    //    only their clusters can split or shed borders.
    //  * GROW nodes — promoted border/noise points and the inserted batch
    //    (always live); they join W after split detection.
    const std::uint32_t touch_epoch = next_epoch();
    touched.clear();
    cut_list.clear();
    grow_list.clear();
    const auto touch = [&](std::uint32_t i) {
      if (seed_mark[i] == touch_epoch) return;
      seed_mark[i] = touch_epoch;
      touched.push_back(i);
      const bool was_core = r.is_core[i] != 0;
      const bool is_core = core_now(i);
      if (was_core && !is_core && r.labels[i] >= 0) cut_list.push_back(i);
      if (i >= first_new || (!was_core && is_core)) grow_list.push_back(i);
    };
    if (!rem_sorted.empty()) {
      for (const std::uint32_t i : rem_sorted) touch(i);
      for (const std::uint32_t j : rem_nbr_ids) touch(j);
    }
    if (first_new < n) {
      for (std::size_t i = first_new; i < n; ++i) {
        touch(static_cast<std::uint32_t>(i));
      }
      for (const std::uint32_t j : ins_nbr_ids) touch(j);
    }

    std::sort(cut_list.begin(), cut_list.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return r.labels[a] != r.labels[b] ? r.labels[a] < r.labels[b]
                                                  : a < b;
              });

    rt::TraversalStats work;
    {
      RTD_STAGE("repair.split");
      detect_splits(eps, work);
    }
    for (const std::uint32_t i : grow_list) add_w(i);
    // Query W in slot order: a re-clustered membership arrives in member
    // list order, which edits scramble, and slot order keeps the
    // neighboring queries of a trajectory-ordered stream close in memory.
    std::sort(wlist.begin(), wlist.end());
    for (std::uint32_t w = 0; w < wlist.size(); ++w) wloc[wlist[w]] = w;

    mini_parent.resize(wlist.size());
    std::iota(mini_parent.begin(), mini_parent.end(), 0u);
    claim.resize(wlist.size());
    std::fill(claim.begin(), claim.end(), std::uint8_t{0});
    {
      RTD_STAGE("repair.union");
      union_pass(first_new, eps, work);
    }
    {
      RTD_STAGE("repair.border");
      border_pass(first_new, eps, work);
    }
    {
      RTD_STAGE("repair.relabel");
      relabel_repair();
    }
    {
      // The touched slots' core flags and counts: the only ones that moved.
      RTD_STAGE("repair.commit");
      for (std::size_t k = 0; k < touched.size(); ++k) {
        if (k + 16 < touched.size()) {  // scattered slots: fetch ahead
          RTD_PREFETCH(&r.neighbor_counts[touched[k + 16]]);
          RTD_PREFETCH(&counts[touched[k + 16]]);
        }
        const std::uint32_t i = touched[k];
        r.is_core[i] = core_now(i) ? 1 : 0;
        r.neighbor_counts[i] = counts[i];
      }
    }

    RunStats& st = r.stats;
    st.phase2.work += work;
    st.phase2.seconds += phase_timer.seconds();
    st.timings.cluster_phase_seconds = st.phase2.seconds;
  }

  /// Split detection, per cluster that lost a core.  A cluster splits only
  /// if some ε-connected GROUP of its cut nodes (an ε-site) disconnects the
  /// surviving cores around it: any old core-path between surviving cores
  /// enters and leaves a cut group through cut-adjacent surviving cores
  /// ("seeds"), so if every group's seeds stay mutually reachable through
  /// surviving cores, every old path can be rerouted and the cluster is
  /// intact — its out-of-W members keep their label through the cluster
  /// anchor, and only the LOCAL damage joins W: demoted cores and the
  /// non-core neighbors of cut nodes (their witness core may be gone).
  /// The groups are fixed before any seed search.  The proof is usually
  /// free: seeds joined by chains of direct ε-edges unite by distance
  /// alone (close_seeds, O(s log s) over ε/√3 cells for any seed count);
  /// only unresolved groups pay a search over surviving cores, which
  /// costs the splinters' size when a group really splits.  The verdict
  /// is per cluster: at most one split site keeps an open residual under
  /// the old label (two residuals of one cluster may be disconnected), so
  /// a second split site, or one whose every component was exhausted,
  /// re-clusters the whole membership.
  void detect_splits(float eps, rt::TraversalStats& work) {
    const ClusterResult& r = result;
    const float eps2 = eps * eps;
    if (!site_dsu.has_value()) site_dsu.emplace(0);
    for (std::size_t lo = 0; lo < cut_list.size();) {
      const std::int32_t c = r.labels[cut_list[lo]];
      std::size_t hi = lo;
      while (hi < cut_list.size() && r.labels[cut_list[hi]] == c) ++hi;
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
      // grouping is frozen into cut_root: the seed search reuses site_dsu.
      site_dsu->reset(k);
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a + 1; b < k; ++b) {
          if (geom::distance_squared(pts[cut_list[lo + a]],
                                     pts[cut_list[lo + b]]) <= eps2) {
            site_dsu->unite(static_cast<std::uint32_t>(a),
                            static_cast<std::uint32_t>(b));
          }
        }
      }
      cut_order.resize(k);
      cut_root.resize(k);
      for (std::size_t a = 0; a < k; ++a) {
        cut_order[a] = static_cast<std::uint32_t>(a);
        cut_root[a] = site_dsu->find(static_cast<std::uint32_t>(a));
      }
      std::sort(cut_order.begin(), cut_order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return cut_root[a] != cut_root[b] ? cut_root[a] < cut_root[b]
                                                    : a < b;
                });

      bool residual_kept = false;  // a split site of c kept its residual
      for (std::size_t glo = 0; glo < k;) {
        const std::uint32_t root = cut_root[cut_order[glo]];
        std::size_t ghi = glo;
        while (ghi < k && cut_root[cut_order[ghi]] == root) ++ghi;

        // Seeds: surviving old cores adjacent to any cut node of the
        // group.  Non-core neighbors of this cluster join W — their
        // witness core may be in the cut.  (Removed nodes' neighborhoods
        // were captured during count maintenance; demoted nodes are live
        // and queried here, cheaply — their counts dropped below minPts.)
        const std::uint32_t epoch = next_epoch();
        seed_list.clear();
        const auto classify = [&](std::uint32_t j) {
          if (!is_live_slot(j)) return;
          if (core_now(j)) {
            if (r.is_core[j] && r.labels[j] == c && seed_mark[j] != epoch) {
              seed_mark[j] = epoch;
              seed_list.push_back(j);
            }
          } else if (r.labels[j] == c) {
            add_w(j);
          }
        };
        for (std::size_t g = glo; g < ghi; ++g) {
          const std::uint32_t x = cut_list[lo + cut_order[g]];
          if (is_live_slot(x)) {
            add_w(x);  // demoted: border of a neighbor cluster, or noise
            index->query_sphere(pts[x], eps, x, classify, work);
          } else {
            const auto pos = static_cast<std::size_t>(
                std::lower_bound(rem_sorted.begin(), rem_sorted.end(), x) -
                rem_sorted.begin());
            for (std::uint32_t t = rem_nbr_starts[pos];
                 t < rem_nbr_starts[pos + 1]; ++t) {
              classify(rem_nbr_ids[t]);
            }
          }
        }
        const std::size_t s = seed_list.size();
        if (s <= 1) {  // ≤ 1 flanking core: nothing to disconnect
          glo = ghi;
          continue;
        }

        // Query-free fast path: seeds joined by chains of direct ε-edges
        // unite by distance alone, in O(s log s) through their ε/√3 cells
        // (core/seed_closure.hpp).  The DSU survives into the search below
        // as its starting components (the cut grouping was frozen into
        // cut_root above).
        site_dsu->reset(s);
        std::size_t comps =
            close_seeds(pts, seed_list, eps, *site_dsu, seed_closure);

        // Multi-source component search over the cluster's surviving
        // cores: every seed floods in FIFO rounds and fronts UNITE where
        // they meet.  The search stops once the seeds prove connected, or
        // once at most one component still has a frontier.
        //
        // It runs in two tiers.  The SPARSE tier expands at most one node
        // per ε/√3 grid cell: a later pop landing in an expanded cell
        // within ε of its owner merges with it outright (same-cell IS an
        // ε-witness) and is not queried, so proving "connected" costs
        // about the flooded area in cells, not in points — unions only
        // ever happen on real ε-witnesses, so a comps==1 verdict is
        // sound.  Sparse expansion can MISS connections, so a leftover
        // comps>1 is not yet a split: the EXHAUSTIVE tier re-floods,
        // expanding every node.  There, an exhausted component is a
        // COMPLETE connected component — a splinter the cut really broke
        // off — and its visited cores join W for re-labeling, while the
        // surviving component keeps its label through the cluster anchor
        // without ever being fully flooded (the search stops when one
        // active frontier remains).  A real split reaches the exhaustive
        // tier but costs the splinters' size, never the cluster's.
        std::size_t active = 0;
        const auto flood = [&](bool sparse) {
          const std::uint32_t fe = next_epoch();
          bfs_queue.clear();
          bfs_origin.clear();
          bfs_pending.assign(s, 0u);
          if (sparse) cell_seen.clear();
          active = 0;
          const auto adjust = [&](std::uint32_t comp, bool up) {
            std::uint32_t& p = bfs_pending[comp];
            if (up) {
              if (p++ == 0) ++active;
            } else {
              if (--p == 0) --active;
            }
          };
          for (std::uint32_t q = 0; q < s; ++q) {
            const std::uint32_t slot = seed_list[q];
            visit_mark[slot] = fe;
            visit_origin[slot] = q;
            bfs_queue.push_back(slot);
            bfs_origin.push_back(q);
            adjust(site_dsu->find(q), true);
          }
          const auto merge = [&](std::uint32_t a, std::uint32_t b) {
            const std::uint32_t ra = site_dsu->find(a);
            const std::uint32_t rb = site_dsu->find(b);
            if (ra == rb) return;
            const std::uint32_t pending = bfs_pending[ra] + bfs_pending[rb];
            if (bfs_pending[ra] > 0 && bfs_pending[rb] > 0) --active;
            bfs_pending[ra] = 0;
            bfs_pending[rb] = 0;
            site_dsu->unite(ra, rb);
            bfs_pending[site_dsu->find(ra)] = pending;
            --comps;
          };
          const double inv_h = std::sqrt(3.0) / static_cast<double>(eps);
          for (std::size_t head = 0;
               head < bfs_queue.size() && comps > 1 && active > 1; ++head) {
            const std::uint32_t u = bfs_queue[head];
            const std::uint32_t uo = bfs_origin[head];
            adjust(site_dsu->find(uo), false);
            if (sparse) {
              const Vec3& pu = pts[u];
              const auto [it, fresh] =
                  cell_seen.try_emplace(cell_key(pu, inv_h), u);
              if (!fresh &&
                  geom::distance_squared(pu, pts[it->second]) <= eps2) {
                // The cell's owner already expanded here (the packed key
                // can alias distant cells, hence the distance check):
                // merge through the same-cell witness and skip the query.
                merge(uo, visit_origin[it->second]);
                continue;
              }
            }
            index->query_sphere(
                pts[u], eps, u,
                [&](std::uint32_t j) {
                  if (!core_now(j) || !r.is_core[j] ||
                      r.labels[j] != c) {
                    return;
                  }
                  if (visit_mark[j] == fe) {
                    merge(uo, visit_origin[j]);
                  } else {
                    visit_mark[j] = fe;
                    visit_origin[j] = uo;
                    bfs_queue.push_back(j);
                    bfs_origin.push_back(uo);
                    adjust(site_dsu->find(uo), true);
                  }
                },
                work);
          }
        };
        if (comps > 1) flood(true);
        if (comps > 1) {
          flood(false);
          if (comps > 1) {
            // Proven split.  A second split site of c, or one with no open
            // residual, re-clusters the whole membership; that covers
            // every later group of c too.
            if (residual_kept || active == 0) {
              recluster(c);
              break;
            }
            // The still-active residual keeps the label; every other
            // component was flooded to exhaustion, so its visited cores
            // ARE the splinter and join W.
            residual_kept = true;
            mark_affected(c);
            std::uint32_t residual = kNoneId;
            for (std::uint32_t q = 0; q < s; ++q) {
              if (bfs_pending[site_dsu->find(q)] > 0) {
                residual = site_dsu->find(q);
                break;
              }
            }
            for (std::size_t e = 0; e < bfs_queue.size(); ++e) {
              if (site_dsu->find(bfs_origin[e]) != residual) {
                add_w(bfs_queue[e]);
              }
            }
          }
        }
        glo = ghi;
      }
      lo = hi;
    }
  }

  /// The ε-neighbors of inserted slot i, as index_phase1_insert captured
  /// them (stage 4): the same query on the same index state — removals
  /// were masked before it, and nothing mutates the index between stage 4
  /// and the repair — so the row holds what a fresh query would visit, in
  /// the same order.
  [[nodiscard]] std::span<const std::uint32_t> inserted_row(
      std::uint32_t i, std::size_t first_new) const {
    const std::size_t k = i - first_new;
    return std::span<const std::uint32_t>(ins_nbr_ids)
        .subspan(ins_nbr_starts[k], ins_nbr_starts[k + 1] - ins_nbr_starts[k]);
  }

  /// Pass A — phase 2's union rules, run only from W's core points:
  /// core-core merges (to an in-W node or an out-of-W cluster anchor),
  /// in-W border claims, and first-claim capture of out-of-W points a
  /// new core now reaches (old noise, or borders of split clusters).
  /// Out-of-W cores anchor to their old label: their cluster is proven
  /// intact, or they are the residual component of a split (splinters
  /// joined W).  Out-of-W borders of intact clusters keep their labels
  /// the same way: a border whose witness core was cut is in some cut
  /// node's neighbor list and therefore in W.  Inserted slots replay
  /// their captured rows (inserted_row) instead of querying again.
  void union_pass(std::size_t first_new, float eps,
                  rt::TraversalStats& work) {
    const ClusterResult& r = result;
    const auto w_count = static_cast<std::uint32_t>(wlist.size());
    for (std::uint32_t w = 0; w < w_count; ++w) {
      const std::uint32_t i = wlist[w];
      if (!core_now(i)) continue;
      const auto visit = [&](std::uint32_t j) {
        const std::uint32_t wj = wloc[j];
        if (wj != kNoneId) {
          if (core_now(j)) {
            if (j > i) mini_unite(w, wj);
          } else if (!claim[wj]) {
            claim[wj] = 1;
            mini_unite(w, wj);
          }
        } else if (core_now(j)) {
          // Out-of-W core: proven intact, or the residual component of a
          // split cluster (splinters joined W; a splinter core within ε
          // of a residual core would have merged with it during
          // detection's flood).  Either way its old label is its valid
          // cluster identity.
          mini_unite(w, anchor(r.labels[j]));
        } else if (claim_owner[j] == kNoneId &&
                   (r.labels[j] == kNoise ||
                    cluster_affected[static_cast<std::size_t>(
                        r.labels[j])])) {
          // Old noise a new core now reaches, or a border of a SPLIT
          // cluster whose witness core may have ended up in w's side (a
          // splinter): w is a core within ε, so w's cluster is a valid
          // home — claim it.  Borders of intact clusters keep their
          // anchor: their witness either survived out of W or sits in W
          // with its old label's identity.
          claimed_slots.push_back(j);
          claim_owner[j] = w;
        }
      };
      if (i >= first_new) {
        for (const std::uint32_t j : inserted_row(i, first_new)) visit(j);
      } else {
        index->query_sphere(pts[i], eps, i, visit, work);
      }
    }
  }

  /// Pass B — unclaimed non-core W members: border iff ANY live core is
  /// within ε (pass A only queried from in-W cores; an out-of-W core can
  /// hold them too).  Attach to the first one found, else noise.  An
  /// inserted slot walks its captured row and stops at that first core.
  void border_pass(std::size_t first_new, float eps,
                   rt::TraversalStats& work) {
    const ClusterResult& r = result;
    const auto w_count = static_cast<std::uint32_t>(wlist.size());
    for (std::uint32_t w = 0; w < w_count; ++w) {
      const std::uint32_t i = wlist[w];
      if (core_now(i) || claim[w]) continue;
      const auto visit = [&](std::uint32_t j) {
        if (claim[w] || !core_now(j)) return;
        claim[w] = 1;
        const std::uint32_t wj = wloc[j];
        mini_unite(w, wj != kNoneId ? wj : anchor(r.labels[j]));
      };
      if (i >= first_new) {
        for (const std::uint32_t j : inserted_row(i, first_new)) {
          visit(j);
          if (claim[w]) break;
        }
      } else {
        index->query_sphere(pts[i], eps, i, visit, work);
      }
    }
  }

  /// The relabel, with STABLE cluster ids.  A mini-DSU class holding old
  /// clusters' anchors keeps the id of the largest of them, so a cluster W
  /// does not touch keeps its id and only the smaller side of a merge is
  /// relabelled (enumerated through the old members_of()).  Classes
  /// without an anchor — new clusters, splinters — take freed ids first,
  /// and ids stay dense: the highest kept ids move down into any holes
  /// left, one cluster relabelled per hole.  Visits W, the claimed slots,
  /// the removed batch, the anchored clusters and the members of merged or
  /// moved clusters only; the member lists follow with O(1) moves and
  /// list swaps (core/membership.hpp).
  void relabel_repair() {
    ClusterResult& r = result;
    Membership& groups = r.membership;
    const std::uint32_t c_old = r.cluster_count;
    const auto w_count = static_cast<std::uint32_t>(wlist.size());
    const auto old_size = [&](std::uint32_t c) {
      return groups.members_of(static_cast<std::int32_t>(c)).size();
    };
    const auto labeled = [&](std::uint32_t w) {
      return claim[w] != 0 || core_now(wlist[w]);
    };

    // A cluster that loses a member gets an anchor too, so the anchored
    // clusters are exactly those whose members or id the repair can
    // change: every other one keeps its members, and its id unless that
    // id must move down into a hole.  stay_count ends as the members each
    // anchored cluster keeps: all but those in W, claimed by a W core, or
    // removed.  Only a kept member can tie an anchor to anything, so an
    // anchor with none is an empty singleton.
    const std::array<std::span<const std::uint32_t>, 3> leavers = {
        wlist, claimed_slots, rem_sorted};
    for (const auto slots : leavers) {
      for (const std::uint32_t i : slots) {
        if (r.labels[i] >= 0) --stay_count[anchor(r.labels[i]) - w_count];
      }
    }
    const auto a_count = static_cast<std::uint32_t>(anchored.size());

    // Count the final classes: every cluster without an anchor keeps
    // itself; one per root holding a kept anchor (keeper: its largest
    // cluster, ties to the lower id); one per root of labeled W nodes
    // only.  root_scratch holds the final id per root, root_keeper the
    // member list the class is built in — its keeper's old list, or for a
    // new class a scratch list past every old and new id.
    constexpr std::uint32_t kNewClass = kNoneId - 1;
    root_keeper.assign(mini_parent.size(), kNoneId);
    root_scratch.assign(mini_parent.size(), kNoise);
    std::uint32_t c_new = c_old - a_count;
    for (std::uint32_t k = 0; k < a_count; ++k) {
      if (stay_count[k] == 0) continue;
      const std::uint32_t c = anchored[k];
      std::uint32_t& keeper = root_keeper[mini_find(w_count + k)];
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
      std::uint32_t& keeper = root_keeper[mini_find(w)];
      if (keeper == kNoneId) {
        keeper = kNewClass;
        ++c_new;
      }
    }
    // Whether old cluster c is kept as a class of its own members.
    const auto kept = [&](std::uint32_t c) {
      const std::uint32_t node = anchor_node[c];
      return node == kNoneId || (stay_count[node - w_count] > 0 &&
                                 root_keeper[mini_find(node)] == c);
    };

    // Dense ids.  Kept ids below c_new stay; the holes below c_new go to
    // the new classes first, then to the kept ids at or above c_new,
    // highest first.  There are exactly as many holes as takers: c_new
    // counts every kept cluster and every new class, so the holes below
    // c_new number the new classes plus the kept ids at or above c_new.
    // A hole is the id of an anchored cluster that is not kept, or a new
    // id past c_old.  Each taker is recorded in `renumber` with the list
    // it builds in, swapped into place at the end.
    hole_list.clear();
    for (const std::uint32_t c : anchored) {
      if (c < c_new && !kept(c)) hole_list.push_back(c);
    }
    for (std::uint32_t c = c_old; c < c_new; ++c) hole_list.push_back(c);
    std::sort(hole_list.begin(), hole_list.end());
    renumber.clear();
    for (std::uint32_t k = 0; k < a_count; ++k) {
      const std::uint32_t c = anchored[k];
      if (c < c_new && kept(c)) {
        root_scratch[mini_find(w_count + k)] = static_cast<std::int32_t>(c);
      }
    }
    std::uint32_t scratch = std::max(c_old, c_new);
    for (std::uint32_t w = 0; w < w_count; ++w) {
      if (!labeled(w)) continue;
      const std::uint32_t root = mini_find(w);
      if (root_keeper[root] == kNewClass) {
        const std::uint32_t hole = hole_list[renumber.size()];
        renumber.emplace_back(hole, scratch);
        root_keeper[root] = scratch++;
        root_scratch[root] = static_cast<std::int32_t>(hole);
      }
    }
    for (std::uint32_t c = c_old; c-- > c_new;) {
      if (!kept(c)) continue;
      const std::uint32_t hole = hole_list[renumber.size()];
      renumber.emplace_back(hole, c);
      if (anchor_node[c] != kNoneId) {
        root_scratch[mini_find(anchor_node[c])] =
            static_cast<std::int32_t>(hole);
      } else {
        // Untouched by the repair: only its id moves.
        for (const std::uint32_t m :
             groups.members_of(static_cast<std::int32_t>(c))) {
          r.labels[m] = static_cast<std::int32_t>(hole);
        }
      }
    }
    assert(renumber.size() == hole_list.size());

    // Relabel: each slot that changes class moves from its old list to the
    // list its class is built in.  The inserted slots start in noise.
    const auto relabel_slot = [&](std::uint32_t i, std::int32_t label,
                                  std::uint32_t list) {
      groups.move(i, r.labels[i],
                  label == kNoise ? kNoise : static_cast<std::int32_t>(list));
      r.labels[i] = label;
    };
    const auto join_root = [&](std::uint32_t i, std::uint32_t root) {
      relabel_slot(i, root_scratch[root], root_keeper[root]);
    };
    for (std::uint32_t w = 0; w < w_count; ++w) {
      if (labeled(w)) {
        join_root(wlist[w], mini_find(w));
      } else {
        relabel_slot(wlist[w], kNoise, kNoneId);
      }
    }
    // Claimed: old noise a new core reached, or a border of a split
    // cluster re-homed by a W core (its old witness may be in a splinter;
    // the claiming core is a live witness by construction).
    for (const std::uint32_t i : claimed_slots) {
      join_root(i, mini_find(claim_owner[i]));
    }
    for (const std::uint32_t i : rem_sorted) relabel_slot(i, kNoise, kNoneId);
    // What is left in an anchored cluster's list are exactly its kept
    // members.  Those of a cluster merged into a larger one join the
    // keeper's list (even when the keeper moved down into this cluster's
    // own freed id); those of a keeper that moved down into a hole keep
    // their list, which the swaps below renumber.
    for (std::uint32_t k = 0; k < a_count; ++k) {
      if (stay_count[k] == 0) continue;
      const std::uint32_t c = anchored[k];
      const std::uint32_t root = mini_find(w_count + k);
      const std::int32_t id = root_scratch[root];
      const std::uint32_t keeper = root_keeper[root];
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
    for (const auto& [hole, list] : renumber) {
      groups.swap_groups(static_cast<std::int32_t>(hole),
                         static_cast<std::int32_t>(list));
    }
    groups.set_cluster_count(c_new);
    r.cluster_count = c_new;
  }
};

namespace {

void validate_options(const Options& options) {
  if (options.triangle_subdivisions < 0) {
    throw std::invalid_argument(
        "Clusterer: triangle_subdivisions must be >= 0");
  }
}

}  // namespace

Clusterer::Clusterer(std::vector<Vec3> points, Options options)
    : impl_(std::make_unique<Impl>()) {
  dbscan::require_finite(points);
  validate_options(options);
  impl_->storage = std::make_shared<PointBuffer>(std::move(points));
  impl_->pts = impl_->storage->written();
  impl_->opts = options;
  impl_->opts.backend =
      index::resolve_auto(options.backend, IndexKind::kBvhRt);
}

Clusterer::Clusterer(std::span<const Vec3> points, Options options)
    : Clusterer(std::vector<Vec3>(points.begin(), points.end()), options) {}

Clusterer Clusterer::borrowing(std::span<const Vec3> points,
                               Options options) {
  dbscan::require_finite(points);
  Clusterer session(std::vector<Vec3>{}, options);  // validates options
  session.impl_->storage.reset();
  session.impl_->pts = points;  // rebind the view to the caller's storage
  return session;
}

Clusterer::~Clusterer() = default;
Clusterer::Clusterer(Clusterer&&) noexcept = default;
Clusterer& Clusterer::operator=(Clusterer&&) noexcept = default;

const ClusterResult& Clusterer::run(float eps, std::uint32_t min_pts) {
  validate_run_params(eps, min_pts);
  return impl_->do_run(eps, min_pts);
}

ClusterResult Clusterer::take_result() {
  ClusterResult out = std::move(impl_->result);
  // Reset the moved-from shell to a fresh value: the next run() reallocates
  // every buffer (nothing aliases the taken copy), and a stray second
  // take_result() yields a well-formed empty result instead of moved-from
  // remains with stale scalar fields.
  impl_->result = ClusterResult{};
  impl_->result_current = false;  // mutations lost their baseline
  return out;
}

std::size_t Clusterer::insert(std::span<const Vec3> new_points) {
  RTD_STAGE("session.insert");
  const std::size_t first_new = impl_->mutate(new_points, {});
  // Counted after the return: a throwing mutation left the session
  // untouched (or degraded — either way no batch was applied).
  telemetry::count(telemetry::Counter::kSessionInserts);
  telemetry::count(telemetry::Counter::kSessionPointsInserted,
                   new_points.size());
  return first_new;
}

void Clusterer::remove(std::span<const std::uint32_t> ids) {
  RTD_STAGE("session.remove");
  impl_->mutate({}, ids);
  telemetry::count(telemetry::Counter::kSessionRemoves);
  telemetry::count(telemetry::Counter::kSessionPointsRemoved, ids.size());
}

std::size_t Clusterer::advance(std::span<const Vec3> new_points,
                               std::size_t expire_count) {
  RTD_STAGE("session.advance");
  Impl& im = *impl_;
  if (expire_count > im.live_slots()) {
    throw std::invalid_argument(
        "Clusterer: advance expire_count exceeds the live point count");
  }
  // Collect the expiry batch by walking the cursor over live slots (every
  // live slot is >= oldest_live by the cursor invariant).  The cursor is
  // committed only after the batch succeeds, so a throwing mutate() —
  // e.g. a non-finite inserted point — leaves the window intact.
  im.expire_scratch.clear();
  std::size_t cursor = im.oldest_live;
  while (im.expire_scratch.size() < expire_count) {
    if (im.is_live_slot(cursor)) {
      im.expire_scratch.push_back(static_cast<std::uint32_t>(cursor));
    }
    ++cursor;
  }
  const std::size_t first_new = im.mutate(new_points, im.expire_scratch);
  im.oldest_live = cursor;
  telemetry::count(telemetry::Counter::kSessionAdvances);
  telemetry::count(telemetry::Counter::kSessionPointsInserted,
                   new_points.size());
  telemetry::count(telemetry::Counter::kSessionPointsRemoved,
                   im.expire_scratch.size());
  return first_new;
}

const ClusterResult& Clusterer::result() const {
  const Impl& im = *impl_;
  if (!im.result_current) {
    throw std::logic_error(
        "Clusterer: no current result — run() or sweep() first (the last "
        "one may have been taken by take_result())");
  }
  return im.result;
}

std::size_t Clusterer::live_count() const { return impl_->live_slots(); }

bool Clusterer::is_live(std::uint32_t id) const {
  const Impl& im = *impl_;
  if (id >= im.pts.size()) {
    throw std::invalid_argument("Clusterer: is_live id out of range");
  }
  return im.is_live_slot(id);
}

std::vector<ClusterResult> Clusterer::sweep(std::span<const float> eps_values,
                                            std::uint32_t min_pts) {
  Impl& im = *impl_;
  std::vector<ClusterResult> out;
  out.reserve(eps_values.size());
  if (eps_values.empty()) return out;
  for (const float eps : eps_values) validate_run_params(eps, min_pts);

  // The sweep span covers the whole ladder (the empty-session reruns nest
  // their own session.run spans); the latency histogram likewise records
  // the full ladder wall clock, throwing sweeps included.
  RTD_STAGE("session.sweep");
  telemetry::count(telemetry::Counter::kSessionSweeps);
  const telemetry::LatencyTimer sweep_lat(telemetry::Histogram::kSweepLatency);

  // Empty sessions sweep by plain reruns (there is nothing to count).
  if (im.pts.empty()) {
    for (const float eps : eps_values) {
      out.push_back(run(eps, min_pts));
      telemetry::count(telemetry::Counter::kSessionSweepEntries);
    }
    return out;
  }

  // The whole ladder is one fused count-and-cluster launch over one index
  // at ε_max (dbscan/engine.hpp).  Its distinct ε² values become levels,
  // sorted descending so a pair's first failing level ends its walk;
  // duplicates share a level.  Each pair's exact d² is bucketed into its
  // ends' level counts and joined into every level where it is an ε-edge —
  // no per-entry refit or traversal.  Every value was validated finite
  // above, so the sort is NaN-free.
  const std::size_t n = im.pts.size();
  std::vector<float>& eps2 = im.sweep_eps2;
  eps2.clear();
  for (const float eps : eps_values) eps2.push_back(eps * eps);
  std::sort(eps2.begin(), eps2.end(), std::greater<>());
  eps2.erase(std::unique(eps2.begin(), eps2.end()), eps2.end());
  const std::size_t levels = eps2.size();
  const float eps_max = *std::max_element(eps_values.begin(), eps_values.end());

  // Everything up to the commit touches only the index and scratch: a
  // throw in the launch or the scratch leaves the previous result intact —
  // strong.
  const Timer total;  // entry 0 is charged with the shared work
  const Impl::EnsureStats build = im.ensure_index(eps_max);
  im.ensure_order();
  {
    RTD_STAGE("sweep.scratch");
    im.reset_launch(levels * n);
  }
  const dbscan::CountClusterStats launch = dbscan::index_count_cluster(
      *im.index, dbscan::Params{eps_max, min_pts, im.opts.backend}, im.order,
      im.opts.threads, im.sweep_counts, *im.dsu, im.claimed, im.settled,
      std::span(eps2).subspan(1));

  out.resize(eps_values.size());
  for (std::size_t v = 0; v < out.size(); ++v) {
    const Timer entry_timer;
    const auto l = static_cast<std::size_t>(
        std::lower_bound(eps2.begin(), eps2.end(),
                         eps_values[v] * eps_values[v], std::greater<>()) -
        eps2.begin());
    ClusterResult& r = out[v];
    r.eps = eps_values[v];
    r.min_pts = min_pts;
    r.stats.backend = im.opts.backend;
    if (v == 0) {
      r.stats.index_rebuilt = build.rebuilt;
      r.stats.index_refitted = build.refitted;
      r.stats.timings.index_build_seconds = build.seconds;
      r.stats.phase1 = launch.phase1;
      r.stats.phase2 = launch.phase2;
      r.stats.timings.core_phase_seconds = launch.phase1.seconds;
    } else {
      r.stats.counts_reused = true;
    }
    // Tombstoned slots are never core (their counts are 0, but a min_pts
    // of 1 would otherwise resurrect them).
    r.neighbor_counts.resize(n);
    r.is_core.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t count = im.sweep_counts[i * levels + l];
      r.neighbor_counts[i] = count;
      r.is_core[i] = im.is_live_slot(i) && count + 1 >= min_pts ? 1 : 0;
    }
    im.finalize(r, l * n, v == 0 ? total : entry_timer);
  }

  // Commit: the last entry becomes the session result and its exact counts
  // the count cache — mutations maintain the LAST ladder entry.  A throw
  // here tears the result buffers, so it degrades (the committed
  // point/mask state is untouched; the next writer call heals).
  const ClusterResult& last = out.back();
  try {
    im.counts_valid = false;
    im.counts.assign(last.neighbor_counts.begin(),
                     last.neighbor_counts.end());
    im.result = last;
  } catch (...) {
    im.set_health(SessionHealth::kDegraded);
    im.result_current = false;
    throw;
  }
  im.counts_valid = true;
  im.counts_eps = last.eps;
  im.last_eps = last.eps;
  im.last_min_pts = min_pts;
  im.params_valid = true;
  im.set_health(SessionHealth::kHealthy);
  im.result_current = true;
  telemetry::count(telemetry::Counter::kSessionSweepEntries, out.size());

  // Leave the index where a run() at the last entry's ε would: one refit,
  // none for an ascending ladder (entry 0 reports ε_max's step, so this
  // one, on a later entry, is the last entry's).  The rebuild-only
  // backends (grid/dense-box) stay at the ε_max build, which legally
  // serves any smaller radius.
  if (im.index->refittable() && last.eps != im.index_eps) {
    const Impl::EnsureStats step = im.ensure_index(last.eps);
    for (ClusterResult* r : {&out.back(), &im.result}) {
      r->stats.index_rebuilt = step.rebuilt;
      r->stats.index_refitted = step.refitted;
      r->stats.timings.index_build_seconds = step.seconds;
    }
  }
  return out;
}

std::vector<std::uint32_t> Clusterer::query_neighbors(const Vec3& center,
                                                      float eps) {
  // Both arguments are validated BEFORE ensure_index below, so a garbage
  // request can never retarget the session index to a degenerate ε or scan
  // against a NaN center.
  dbscan::require_eps(eps, "Clusterer");
  validate_center(center);
  Impl& im = *impl_;
  std::vector<std::uint32_t> ids;
  if (im.pts.empty()) return ids;
  im.ensure_index(eps);
  rt::TraversalStats stats;
  im.index->query_sphere(center, eps, index::kNoSelf,
                         [&](std::uint32_t j) { ids.push_back(j); }, stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::uint32_t> Clusterer::query_neighbors(std::uint32_t i,
                                                      float eps) {
  Impl& im = *impl_;
  if (i >= im.pts.size()) {
    throw std::invalid_argument(
        "Clusterer: query_neighbors point index out of range");
  }
  if (!im.is_live_slot(i)) {
    throw std::invalid_argument(
        "Clusterer: query_neighbors point was removed from the session");
  }
  std::vector<std::uint32_t> ids = query_neighbors(im.pts[i], eps);
  ids.erase(std::remove(ids.begin(), ids.end(), i), ids.end());
  return ids;
}

std::shared_ptr<const IndexSnapshot> Clusterer::snapshot() const {
  return impl_->acquire_snapshot();
}

std::vector<std::uint32_t> Clusterer::query_neighbors(
    const Vec3& center) const {
  return impl_->acquire_snapshot()->query_neighbors(center);
}

std::vector<std::uint32_t> Clusterer::query_neighbors(std::uint32_t i) const {
  if (i >= impl_->pts.size()) {
    throw std::invalid_argument(
        "Clusterer: query_neighbors point index out of range");
  }
  return impl_->acquire_snapshot()->query_neighbors(i);
}

BatchQueryResult Clusterer::query_batch(std::span<const Vec3> centers,
                                        float eps, int threads) const {
  return impl_->acquire_snapshot()->query_batch(centers, eps, threads);
}

namespace {

/// Live-only copy of a session's points, for the offline analyses (kdist,
/// knn) which have no tombstone concept.  Result indices are positions in
/// the live sequence, not slot ids.
std::vector<Vec3> compact_live(std::span<const Vec3> pts,
                               std::span<const std::uint8_t> live) {
  std::vector<Vec3> out;
  out.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (live[i]) out.push_back(pts[i]);
  }
  return out;
}

}  // namespace

core::KdistResult Clusterer::kdist(std::uint32_t k) const {
  const Impl& im = *impl_;
  std::vector<Vec3> live;
  if (im.dead_count > 0) live = compact_live(im.pts, im.live);
  const std::span<const Vec3> pts =
      im.dead_count > 0 ? std::span<const Vec3>(live) : im.pts;
  if (k == 0) {
    // Ester et al.'s default: k = 2 * dims.  Flat z = const data is 2-D;
    // the flatness is judged on the points the graph is built from.
    const bool flat = std::all_of(pts.begin(), pts.end(), [&](const Vec3& p) {
      return p.z == pts.front().z;
    });
    k = flat ? 4 : 6;
  }
  return core::kdist_graph(pts, k);
}

core::RtKnnResult Clusterer::knn(std::uint32_t k) const {
  const Impl& im = *impl_;
  core::RtKnnOptions o;
  o.threads = im.opts.threads;
  if (im.dead_count > 0) {
    return core::rt_knn(compact_live(im.pts, im.live), k, o);
  }
  return core::rt_knn(im.pts, k, o);
}

std::span<const Vec3> Clusterer::points() const { return impl_->pts; }
const Options& Clusterer::options() const { return impl_->opts; }
index::IndexKind Clusterer::backend() const { return impl_->opts.backend; }

std::optional<float> Clusterer::current_eps() const {
  const Impl& im = *impl_;
  if (!im.index) return std::nullopt;
  return im.index_eps;
}

bool Clusterer::counts_cached() const {
  const Impl& im = *impl_;
  // The cache is keyed on ε alone (counts are a pure function of points
  // and ε) — it can outlive the index's current build ε, e.g. after a
  // sweep on a rebuild-only backend.
  return im.counts_valid;
}

SessionHealth Clusterer::health() const noexcept { return impl_->health; }

telemetry::MetricsSnapshot Clusterer::metrics() const {
  return telemetry::snapshot();
}

ValidationReport Clusterer::validate(ValidationLevel level) const {
  const Impl& im = *impl_;
  ValidationReport rep;
  rep.level = level;
  rep.health = im.health;
  const auto fail = [&rep](std::string msg) {
    rep.ok = false;
    rep.issues.push_back(std::move(msg));
  };

  const std::size_t n = im.pts.size();

  // Session bookkeeping invariants — these hold in EVERY health state (the
  // degraded contract tears only the result buffers, never the committed
  // point/mask/count state).
  if (!im.live.empty() && im.live.size() != n) {
    fail("live mask covers " + std::to_string(im.live.size()) +
         " slots, session has " + std::to_string(n));
  }
  if (im.live.empty() || im.live.size() == n) {
    std::size_t dead = 0;
    for (std::size_t i = 0; i < im.live.size(); ++i) {
      dead += im.live[i] == 0 ? std::size_t{1} : std::size_t{0};
    }
    if (dead != im.dead_count) {
      fail("dead_count " + std::to_string(im.dead_count) +
           " disagrees with the mask's " + std::to_string(dead) +
           " tombstones");
    }
  }
  if (im.oldest_live > n) {
    fail("advance() cursor " + std::to_string(im.oldest_live) +
         " is past the slot space");
  } else {
    for (std::size_t i = 0; i < im.oldest_live; ++i) {
      if (im.is_live_slot(i)) {
        fail("slot " + std::to_string(i) +
             " is live below the advance() expiry cursor " +
             std::to_string(im.oldest_live));
        break;
      }
    }
  }
  if (im.counts_valid && im.counts.size() != n) {
    fail("count cache covers " + std::to_string(im.counts.size()) +
         " slots, session has " + std::to_string(n));
  }
  if (im.index && im.index->size() != n) {
    fail("index covers " + std::to_string(im.index->size()) +
         " slots, session has " + std::to_string(n));
  }

  // Result invariants — meaningful only when a coherent current result
  // exists.  A degraded session (or one whose result was taken) legally
  // holds torn/empty buffers, which is exactly what the health flag says.
  if (im.health != SessionHealth::kHealthy || !im.result_current) {
    return rep;
  }
  const ClusterResult& r = im.result;
  if (r.labels.size() != n || r.is_core.size() != n ||
      r.neighbor_counts.size() != n) {
    fail("result buffers not slot-aligned: labels " +
         std::to_string(r.labels.size()) + ", is_core " +
         std::to_string(r.is_core.size()) + ", neighbor_counts " +
         std::to_string(r.neighbor_counts.size()) + " vs " +
         std::to_string(n) + " slots");
    return rep;  // nothing below is addressable
  }
  const auto c_count = static_cast<std::int32_t>(r.cluster_count);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t label = r.labels[i];
    if (label != kNoise && (label < 0 || label >= c_count)) {
      fail("slot " + std::to_string(i) + " labeled " +
           std::to_string(label) + ", valid range is [0, " +
           std::to_string(r.cluster_count) + ") or noise");
      break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!im.is_live_slot(i)) {
      if (r.labels[i] != kNoise || r.is_core[i] != 0 ||
          r.neighbor_counts[i] != 0) {
        fail("dead slot " + std::to_string(i) +
             " still carries a label, core flag, or neighbor count");
        break;
      }
    } else if (r.is_core[i] && r.labels[i] == kNoise) {
      fail("core slot " + std::to_string(i) + " labeled noise");
      break;
    } else if ((r.is_core[i] != 0) !=
               (r.neighbor_counts[i] + 1 >= r.min_pts)) {
      fail("slot " + std::to_string(i) +
           " core flag disagrees with its neighbor count");
      break;
    }
  }

  // Membership: every slot in exactly one group, the group of its label.
  const Membership& groups = r.membership;
  if (groups.cluster_count() != r.cluster_count || groups.slot_count() != n) {
    fail("membership covers " + std::to_string(groups.slot_count()) +
         " slots in " + std::to_string(groups.cluster_count()) +
         " clusters, result has " + std::to_string(n) + " in " +
         std::to_string(r.cluster_count));
  } else {
    std::vector<std::uint8_t> seen(n, 0);
    std::size_t covered = 0;
    bool placed = true;
    for (std::int32_t g = kNoise; g < c_count && placed; ++g) {
      for (const std::uint32_t m :
           g == kNoise ? groups.noise() : groups.members_of(g)) {
        if (m >= n || seen[m] || r.labels[m] != g) {
          fail("membership group " + std::to_string(g) + " holds slot " +
               std::to_string(m) + " out of place");
          placed = false;
          break;
        }
        seen[m] = 1;
        ++covered;
      }
    }
    if (placed && covered != n) {
      fail("membership covers " + std::to_string(covered) + " of " +
           std::to_string(n) + " slots");
    }
  }

  // The session count cache mirrors the result when keyed to its ε.
  if (im.counts_valid && im.counts_eps == r.eps &&
      im.counts.size() == n &&
      !std::equal(im.counts.begin(), im.counts.end(),
                  r.neighbor_counts.begin())) {
    fail("session count cache disagrees with result.neighbor_counts at "
         "the same eps");
  }

  if (level == ValidationLevel::kQuick || !rep.ok) return rep;

  // kCounts: exact ε-neighbor recount over the live set (O(live²) —
  // diagnostics, not a hot path).
  {
    const float eps2 = r.eps * r.eps;
    for (std::size_t i = 0; i < n && rep.ok; ++i) {
      if (!im.is_live_slot(i)) continue;
      std::uint32_t truth = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || !im.is_live_slot(j)) continue;
        truth += geom::distance_squared(im.pts[i], im.pts[j]) <= eps2;
      }
      if (truth != r.neighbor_counts[i]) {
        fail("slot " + std::to_string(i) + " neighbor count " +
             std::to_string(r.neighbor_counts[i]) +
             " != exact recount " + std::to_string(truth));
      }
    }
  }

  if (level != ValidationLevel::kDeep || !rep.ok) return rep;

  // kDeep: full oracle parity — re-cluster the live-compacted view from
  // scratch and demand an equivalent partition (same noise/border/core
  // structure up to label renaming).
  {
    std::vector<Vec3> live_pts;
    dbscan::Clustering view;
    live_pts.reserve(n - im.dead_count);
    for (std::size_t i = 0; i < n; ++i) {
      if (!im.is_live_slot(i)) continue;
      live_pts.push_back(im.pts[i]);
      view.labels.push_back(r.labels[i]);
      view.is_core.push_back(r.is_core[i]);
    }
    view.cluster_count = r.cluster_count;
    const dbscan::Params params{r.eps, r.min_pts, IndexKind::kAuto};
    const dbscan::EquivalenceResult oracle =
        dbscan::check_valid(live_pts, params, view);
    if (!oracle) fail("deep oracle check failed: " + oracle.reason);
  }
  return rep;
}

}  // namespace rtd
