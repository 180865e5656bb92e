#include "core/clusterer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "common/mutex.hpp"
#include "common/stage.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "core/label_repair.hpp"
#include "core/point_buffer.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/equivalence.hpp"
#include "index/compacted_index.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd {

namespace {

using geom::Vec3;
using index::IndexKind;

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

  // Mutation state (capacities reused: warm mutations below the rebuild
  // threshold allocate only at the documented growth points — point-buffer
  // growth, mask/scratch/member-list growth to a new high-water mark).
  std::vector<std::uint32_t> rem_sorted;     ///< validated removal batch
  std::vector<std::uint32_t> expire_scratch; ///< advance() expiry ids
  std::vector<std::uint32_t> rem_nbr_ids;     ///< removal-batch neighbor CSR
  std::vector<std::uint32_t> rem_nbr_starts;  ///< .. per-removed-id offsets
  std::vector<std::uint32_t> ins_nbr_ids;     ///< insert-batch neighbor CSR
  std::vector<std::uint32_t> ins_nbr_starts;  ///< .. per-new-id offsets
  core::LabelRepair repair;  ///< the incremental phase 2 and its scratch

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

    // Stage 5 — label repair (core/label_repair.hpp).  The result buffers
    // are rewritten in place; rollback is impossible mid-way, so a throw
    // degrades.
    try {
      RTD_STAGE("session.repair");
      const Timer repair_timer;
      st.phase2.work += repair.run(
          {.points = pts, .live = live, .counts = counts, .index = index.get(),
           .removed = rem_sorted, .removed_nbr_ids = rem_nbr_ids,
           .removed_nbr_starts = rem_nbr_starts, .first_new = first_new,
           .inserted_nbr_ids = ins_nbr_ids,
           .inserted_nbr_starts = ins_nbr_starts},
          result);
      st.phase2.seconds += repair_timer.seconds();
      st.timings.cluster_phase_seconds = st.phase2.seconds;
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
