#include "core/clusterer.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/failpoint.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
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

void validate_eps(float eps) {
  // NaN fails every comparison, so test the accepting condition: a NaN or
  // +inf radius must throw, not silently build a degenerate index.
  if (!(eps > 0.0f) || !std::isfinite(eps)) {
    throw std::invalid_argument("Clusterer: eps must be positive and finite");
  }
}

void validate_run_params(float eps, std::uint32_t min_pts) {
  validate_eps(eps);
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
  /// Owned storage (an empty vector for borrowing sessions) and the view
  /// every internal consumer reads.  `pts` aliases `*storage` when owning.
  /// Shared so snapshots can co-own the points past the session's lifetime;
  /// non-const so insert()/advance() can append — with copy-on-write when a
  /// snapshot co-owns the buffer (an in-place append could relocate a span
  /// a reader is traversing).
  std::shared_ptr<std::vector<Vec3>> storage;
  std::span<const Vec3> pts;
  Options opts;

  // --- sphere geometry: the NeighborIndex session state -------------------
  /// Built at the first run.  Shared (not unique) so a published
  /// IndexSnapshot can keep the structure alive after the session swaps to
  /// a replacement.
  std::shared_ptr<index::NeighborIndex> index;
  IndexKind resolved = IndexKind::kAuto;  ///< kAuto pinned at first build
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
  // it: it swaps in a freshly built replacement instead, and the old
  // structure is reclaimed when the last snapshot holder releases it.
  Mutex publish_mu;
  std::atomic<std::shared_ptr<const IndexSnapshot>> published;
  bool index_shared RTD_GUARDED_BY(publish_mu) = false;

  // --- triangle geometry (§VI-C): delegate to the RT runner ---------------
  std::optional<core::RtDbscanRunner> runner;

  // Neighbor-count cache: counts are a pure function of (points, eps), so
  // they survive index refits/rebuilds and min_pts changes at the same eps.
  std::vector<std::uint32_t> counts;
  bool counts_valid = false;
  float counts_eps = 0.0f;
  std::uint32_t counts_cap = index::kNoCap;  ///< kNoCap = exact

  // Reusable engine workspace: warm run() calls allocate nothing.
  std::optional<dsu::AtomicDisjointSet> dsu;
  std::vector<std::atomic<std::uint8_t>> claimed;
  std::vector<std::int32_t> root_scratch;
  std::vector<std::uint32_t> csr_cursor;

  // Incremental-maintenance scratch (capacities reused: warm mutations
  // below the rebuild threshold allocate only at the documented growth
  // points — point-storage append, mask/scratch growth to a new high-water
  // slot count, DSU growth).  The slot-sized maps (wloc, claim_owner) and
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
  std::optional<dsu::AtomicDisjointSet> mini_dsu;  ///< |W| + C_old nodes
  std::vector<std::uint32_t> stay_count;   ///< old cluster -> members kept
  std::vector<std::uint32_t> root_keeper;  ///< mini-DSU root -> kept old id
  std::vector<std::uint32_t> group_base;   ///< new group -> spliced old group
  std::vector<std::uint64_t> group_outs;   ///< (old group, slot) leaving
  std::vector<std::uint64_t> group_ins;    ///< (new group, slot) entering
  std::vector<std::uint32_t> members_next;  ///< spliced membership table
  std::vector<std::uint32_t> starts_next;   ///< .. and its group offsets
  std::vector<std::uint32_t> rem_nbr_ids;     ///< removal-batch neighbor CSR
  std::vector<std::uint32_t> rem_nbr_starts;  ///< .. per-removed-id offsets
  std::vector<std::uint32_t> ins_nbr_ids;     ///< insert-batch neighbor CSR
  std::vector<std::uint32_t> ins_nbr_starts;  ///< .. per-new-id offsets
  std::vector<std::uint32_t> cut_list;    ///< removed/demoted cores, by label
  std::vector<std::uint32_t> cut_order;   ///< cut indices grouped by ε-site
  std::vector<std::uint32_t> seed_list;   ///< cut-adjacent surviving cores
  std::vector<std::uint32_t> bfs_queue;   ///< connectivity-proof frontier
  std::vector<std::uint32_t> bfs_origin;  ///< .. origin seed per entry
  std::vector<std::uint32_t> bfs_pending;  ///< frontier entries per seed root
  std::vector<std::array<std::int32_t, 4>> seed_cells;  ///< ε-cell collapse
  std::unordered_map<std::uint64_t, std::uint32_t> cell_seen;  ///< sparse tier
  std::vector<std::uint32_t> seed_mark;   ///< slot epochs: is a seed
  std::vector<std::uint32_t> visit_mark;  ///< slot epochs: BFS visited
  std::vector<std::uint32_t> visit_origin;  ///< .. owning seed, same epoch
  std::uint32_t mark_epoch = 0;           ///< current epoch for the 3 above
  std::optional<dsu::AtomicDisjointSet> site_dsu;  ///< cut grouping + seeds

  // sweep() scratch: the shared multi-eps counting pass, laid out
  // point-major (sweep_counts[i * ku + u]) so one query's ladder counters
  // share a cache line in the per-neighbor hot loop.  Duplicate ladder
  // values are deduplicated into one column each (sweep_col maps input
  // position -> column), so the scratch is O(k_unique · n).
  std::vector<std::uint32_t> sweep_counts;
  std::vector<float> sweep_eps2;          ///< one ε² per UNIQUE ladder value
  std::vector<std::uint32_t> sweep_col;   ///< input position -> column

  ClusterResult result;

  struct EnsureStats {
    bool rebuilt = false;
    bool refitted = false;
    double seconds = 0.0;
  };

  [[nodiscard]] index::IndexBuildOptions build_options() const {
    index::IndexBuildOptions o;
    o.build.width = opts.width;
    o.threads = opts.threads;
    return o;
  }

  [[nodiscard]] core::RtDbscanOptions runner_options() const {
    core::RtDbscanOptions o;
    o.geometry = core::GeometryMode::kTriangles;
    o.triangle_subdivisions = opts.triangle_subdivisions;
    o.reorder_queries = opts.reorder_queries;
    o.device.build.width = opts.width;
    o.device.threads = opts.threads;
    return o;
  }

  /// The traversal layout RunStats reports: the resolved layout of the
  /// tree-backed backends, kBinary for the others (no BVH walk).  Called
  /// only after ensure_index(), so the accel exists and is the source of
  /// truth for the triangle count (its guards may drop degenerate inputs).
  [[nodiscard]] rt::TraversalWidth stats_width() const {
    if (opts.geometry == core::GeometryMode::kTriangles) {
      return rt::resolved_traversal_width(opts.width, runner->prim_count());
    }
    return resolved == IndexKind::kPointBvh || resolved == IndexKind::kBvhRt
               ? rt::resolved_traversal_width(opts.width, pts.size())
               : rt::TraversalWidth::kBinary;
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
    if (resolved == IndexKind::kAuto) {
      resolved = opts.backend == IndexKind::kAuto
                     ? index::choose_index_kind(pts, eps)
                     : opts.backend;
    }
    index.reset();  // release the old structure before building anew
    if (dead_count == 0) {
      index = index::make_index(pts, eps, resolved, build_options());
    } else {
      index = std::make_shared<index::CompactedIndex>(
          pts, std::span<const std::uint8_t>(live), eps, resolved,
          build_options());
    }
    index_eps = eps;
    index_shared = false;
    pending_mutations = 0;
  }

  /// Rebuild the live-only query launch order if mutations invalidated it.
  void ensure_order() {
    if (order_valid) return;
    order = dbscan::query_launch_order(pts, opts.reorder_queries);
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
    if (opts.geometry == core::GeometryMode::kTriangles) {
      if (!runner.has_value()) {
        Timer t;
        runner.emplace(std::vector<Vec3>(pts.begin(), pts.end()), eps,
                       runner_options());
        resolved = IndexKind::kBvhRt;  // triangle mode IS the RT pipeline
        es.rebuilt = true;
        es.seconds = t.seconds();
      } else if (eps != runner->eps()) {
        Timer t;
        runner->set_eps(eps);  // rescale + refit, no retessellation
        es.refitted = true;
        es.seconds = t.seconds();
      }
      return es;
    }
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
      // (and through it the old structure) alive until they finish.
      published.store(nullptr);
      if (index_shared) {
        // The current structure may be mid-traversal in a reader right now
        // — never mutate it.  Swap in a freshly built replacement; the old
        // one is reclaimed when the last snapshot holder releases it.
        index_shared = false;  // the snapshot keeps its own reference
        build_index_now(eps);
        es.rebuilt = true;
      } else if (index->try_set_eps(eps)) {
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

  /// Retarget inside sweep(): prefer a refit; the rebuild-only backends
  /// (grid/dense-box) deliberately STAY at the ladder-maximum build, which
  /// legally serves any smaller query radius.  If a snapshot aliases the
  /// structure (a reader snapped it mid-sweep), the aliased structure is
  /// abandoned and a replacement built at ε_max — so later, larger ladder
  /// values stay servable — then refit down to this entry's ε.
  void sweep_retarget(float eps, float eps_max, EnsureStats& step) {
    if (eps == index_eps) return;
    const Timer t;
    const MutexLock lock(publish_mu);
    published.store(nullptr);
    if (index_shared) {
      build_index_now(eps_max);
      step.rebuilt = true;
      if (index->try_set_eps(eps)) {
        index_eps = eps;
        step.refitted = true;
      }
      step.seconds += t.seconds();
    } else if (index->try_set_eps(eps)) {
      index_eps = eps;
      step.refitted = true;
      step.seconds += t.seconds();
    }
  }

  /// The reader slow path behind snapshot() and the const queries: fetch
  /// the published snapshot, creating it under publish_mu on first access
  /// after a (re)build or retarget.  The fast path is the lock-free atomic
  /// load at the top.
  [[nodiscard]] std::shared_ptr<const IndexSnapshot> acquire_snapshot() {
    if (opts.geometry == core::GeometryMode::kTriangles) {
      throw std::logic_error(
          "Clusterer: snapshots serve sphere-geometry sessions only (the "
          "triangle accel is not a point-query structure)");
    }
    std::shared_ptr<const IndexSnapshot> snap = published.load();
    if (snap) return snap;
    const MutexLock lock(publish_mu);
    snap = published.load();
    if (snap) return snap;
    if (!index) {
      throw std::logic_error(
          "Clusterer: no index to snapshot yet — run() or sweep() builds "
          "it (kAuto needs an eps to resolve against)");
    }
    // Span covers only the creation slow path — the steady-state atomic
    // load above stays untraced (and unmeasured: it is the serving fast
    // path the overhead gate protects).
    RTD_TRACE_SPAN("session.publish");
    // A throw here (injected or real) is harmless: nothing was published,
    // the session index is untouched, and the caller can simply retry.
    RTD_FAILPOINT("session.publish");
    auto created =
        std::make_shared<const IndexSnapshot>(index, storage, pts, index_eps);
    published.store(created);
    index_shared = true;
    telemetry::count(telemetry::Counter::kSnapshotPublishes);
    return created;
  }

  /// Shared epilogue of run() and each sweep() entry, from the ε-neighbor
  /// counts in `cts` (the session cache for run(), a sweep_counts column
  /// for sweep() — passed as a span so no intermediate copy is needed):
  /// core flags, phase 2 over the reusable workspace, label finalization,
  /// membership table, totals.  `query_eps` is passed to the per-query
  /// phase-2 calls — it may sit below the index's build ε inside sweep()
  /// (grid/dense-box radius contract).
  void finish_run(float query_eps, std::uint32_t min_pts,
                  std::span<const std::uint32_t> cts, const Timer& total) {
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

    if (!dsu.has_value()) {
      dsu.emplace(n);
    } else {
      dsu->reset(n);  // mutations may have grown the slot space
    }
    if (claimed.size() != n) {
      claimed = std::vector<std::atomic<std::uint8_t>>(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      claimed[i].store(0, std::memory_order_relaxed);
    }
    r.stats.phase2 = dbscan::index_phase2(*index, query_eps, order,
                                          r.is_core, *dsu, claimed,
                                          opts.threads);
    r.stats.timings.cluster_phase_seconds = r.stats.phase2.seconds;

    r.cluster_count = dbscan::finalize_labels_into(
        n, [&](std::uint32_t x) { return dsu->find(x); }, r.is_core,
        r.labels, root_scratch);
    r.neighbor_counts.assign(cts.begin(), cts.end());
    build_membership();

    r.stats.timings.total_seconds = total.seconds();
    r.seconds = r.stats.timings.total_seconds;
  }

  /// Rebuild result.members / result.member_starts from result.labels: a
  /// counting sort into cluster buckets, noise last.
  void build_membership() {
    ClusterResult& r = result;
    const std::size_t n = r.labels.size();
    const std::size_t buckets = static_cast<std::size_t>(r.cluster_count) + 1;
    r.member_starts.resize(buckets + 1);
    std::fill(r.member_starts.begin(), r.member_starts.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t label = r.labels[i];
      const std::size_t b = label == kNoise
                                ? buckets - 1
                                : static_cast<std::size_t>(label);
      ++r.member_starts[b + 1];
    }
    for (std::size_t b = 1; b <= buckets; ++b) {
      r.member_starts[b] += r.member_starts[b - 1];
    }
    r.members.resize(n);
    csr_cursor.resize(buckets);
    std::copy(r.member_starts.begin(),
              r.member_starts.begin() + static_cast<std::ptrdiff_t>(buckets),
              csr_cursor.begin());
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t label = r.labels[i];
      const std::size_t b = label == kNoise
                                ? buckets - 1
                                : static_cast<std::size_t>(label);
      r.members[csr_cursor[b]++] = static_cast<std::uint32_t>(i);
    }
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
    RTD_TRACE_SPAN("session.run");
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
    r.stats.geometry = opts.geometry;
    r.stats.backend = resolved;

    if (n == 0) {
      r.labels.clear();
      r.is_core.clear();
      r.neighbor_counts.clear();
      r.members.clear();
      r.member_starts.assign(2, 0);
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

    if (opts.geometry == core::GeometryMode::kTriangles) {
      core::RtDbscanResult rr;
      EnsureStats es;
      bool counts_reused = false;
      try {
        es = ensure_index(eps);
        counts_reused = runner->counts_cached();
        rr = runner->run(min_pts);
      } catch (...) {
        restore_metadata();  // strong: the runner computed into locals
        throw;
      }
      r.labels = std::move(rr.clustering.labels);
      r.is_core = std::move(rr.clustering.is_core);
      r.cluster_count = rr.clustering.cluster_count;
      r.neighbor_counts = std::move(rr.neighbor_counts);
      r.stats.backend = IndexKind::kBvhRt;
      r.stats.width = stats_width();
      r.stats.index_rebuilt = es.rebuilt;
      r.stats.index_refitted = es.refitted;
      r.stats.counts_reused = counts_reused;
      r.stats.phase1 = rr.phase1;
      r.stats.phase2 = rr.phase2;
      r.stats.timings = rr.clustering.timings;
      r.stats.timings.index_build_seconds = es.seconds;
      last_eps = eps;
      last_min_pts = min_pts;
      params_valid = true;
      try {
        build_membership();
      } catch (...) {
        // Labels are the new run's, members the old run's: torn.
        set_health(SessionHealth::kDegraded);
        result_current = false;
        throw;
      }
      r.stats.timings.total_seconds = total.seconds();
      r.seconds = r.stats.timings.total_seconds;
      set_health(SessionHealth::kHealthy);
      result_current = true;
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
    r.stats.backend = resolved;
    r.stats.width = stats_width();
    r.stats.index_rebuilt = es.rebuilt;
    r.stats.index_refitted = es.refitted;
    r.stats.timings.index_build_seconds = es.seconds;

    // Phase 1 (core identification) — or the cached-counts fast path.  The
    // cache survives refits: counts depend only on (points, eps).  Capped
    // counts (early_exit) still decide the core test for any min_pts whose
    // threshold min_pts - 1 lies at or below the recorded cap.
    dbscan::Params params{eps, min_pts, resolved};
    const bool reuse = counts_valid && counts_eps == eps &&
                       (counts_cap == index::kNoCap ||
                        min_pts - 1 <= counts_cap);
    if (reuse) {
      r.stats.counts_reused = true;
    } else {
      counts_valid = false;  // a throw mid-launch would leave them torn
      try {
        r.stats.phase1 =
            dbscan::index_phase1(*index, params, order, opts.early_exit,
                                 opts.threads, counts);
      } catch (...) {
        restore_metadata();  // strong; the count cache is dropped, not torn
        throw;
      }
      counts_valid = true;
      counts_eps = eps;
      // The RT backend ignores the early-exit hint (OptiX) and returned
      // exact counts — record them as such so any later min_pts reuses
      // them.
      counts_cap = opts.early_exit && resolved != IndexKind::kBvhRt
                       ? min_pts - 1
                       : index::kNoCap;
      r.stats.timings.core_phase_seconds = r.stats.phase1.seconds;
    }

    last_eps = eps;
    last_min_pts = min_pts;
    params_valid = true;
    try {
      finish_run(eps, min_pts, counts, total);
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
    if (opts.geometry == core::GeometryMode::kTriangles) {
      throw std::logic_error(
          "Clusterer: insert/remove/advance serve sphere-geometry sessions "
          "only (the triangle accel cannot absorb point mutations)");
    }
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
    if (counts_cap != index::kNoCap) {
      throw std::logic_error(
          "Clusterer: incremental maintenance needs exact neighbor counts — "
          "early-exit sessions cache capped ones (create the session "
          "without Options::early_exit to stream)");
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
    bool appended_in_place = false;
    bool storage_replaced = false;
    bool live_grown = false;
    bool index_hazard = false;
    std::shared_ptr<std::vector<Vec3>> storage_backup;
    const std::span<const Vec3> pts_backup = pts;
    // Undo stages 2+3.  Noexcept; call with publish_mu HELD.  When the
    // index may be mid-mutation (a backend threw partway through absorb)
    // or reading a relocated span (in-place append moved the buffer), it
    // is dropped — derived state the next ensure_index rebuilds.  Readers
    // stay safe: published is nulled and any snapshot taken meanwhile owns
    // its own references to whatever structure it captured.
    const auto rollback_batch_locked = [&]() noexcept {
      // Defined outside the lock scope but only ever called with publish_mu
      // held (both call sites below) — re-assert for the analysis, which
      // treats the lambda body as a separate function.
      publish_mu.assert_held();
      published.store(nullptr);
      if (index_hazard) {
        index.reset();
        index_shared = false;
      }
      if (live_grown) live.resize(n);
      if (storage_replaced) {
        storage = std::move(storage_backup);
        pts = pts_backup;
      } else if (appended_in_place) {
        storage->resize(n);  // shrink: never reallocates
        pts = *storage;
      }
      pending_mutations = pending_backup;
      rollback_removal();
    };
    {
      const MutexLock lock(publish_mu);
      published.store(nullptr);
      try {
        if (!add.empty()) {
          const bool borrowed = !storage || storage->data() != pts.data();
          if (borrowed || storage.use_count() > 1) {
            // Borrowed points, or a snapshot co-owns the buffer: an
            // in-place append could relocate a span a reader is traversing
            // — copy on write instead (the old buffer lives until its
            // readers finish; here also until rollback can no longer need
            // it, via storage_backup).
            storage_backup = storage;
            auto fresh = std::make_shared<std::vector<Vec3>>();
            fresh->reserve(n_new);
            fresh->assign(pts.begin(), pts.end());
            fresh->insert(fresh->end(), add.begin(), add.end());
            storage = std::move(fresh);
            storage_replaced = true;
          } else {
            // In-place append may relocate the buffer the index reads —
            // from here on a throw must drop the index.
            index_hazard = true;
            storage->insert(storage->end(), add.begin(), add.end());
            appended_in_place = true;
          }
          pts = *storage;
          if (!live.empty()) {
            live.resize(n_new, 1);
            live_grown = true;
          }
        }
        pending_mutations += add.size() + rem_sorted.size();
        bool absorbed = false;
        index_hazard = true;  // the structure mutates below
        if (!index_shared &&
            pending_mutations <= rebuild_threshold(n_new - dead_count)) {
          // In-place absorption: mask the removals (amortized refit inside
          // the backend), then hand the appended span over (delta-tail
          // contract — the call also re-binds after a storage relocation).
          bool ok = rem_sorted.empty() || index->try_remove(rem_sorted);
          if (ok && !add.empty()) ok = index->try_insert(pts, first_new);
          absorbed = ok;
        }
        if (!absorbed) {
          // Aliased by a snapshot, over the mutation budget, or a backend
          // that cannot absorb inserts (grid/dense-box): fresh build over
          // the live set.  Dropping index_shared releases only OUR
          // reference — snapshot readers keep the old structure alive.
          telemetry::count(telemetry::Counter::kIndexRebuildFallbacks);
          index_shared = false;
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
    counts_cap = index::kNoCap;
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
  /// over W plus one ANCHOR node per old cluster re-runs phase 2's union
  /// rules with queries only from W's cores; the relabel pass then maps
  /// old labels through the anchors, so intact clusters merge or persist
  /// without their members ever being queried.
  ///
  /// No step walks every slot: core flags can flip only where a neighbor
  /// count changed (the touched set), scratch is cleared through dirty
  /// lists, and cluster ids are stable (relabel_repair), so the cost is
  /// O(|touched| + |W| + C) plus one block copy of the membership table.
  void maintain_labels(std::size_t first_new, float eps) {
    RTD_TRACE_SPAN("session.repair");
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
    wloc.resize(n, kNoneId);
    claim_owner.resize(n, kNoneId);
    cluster_affected.resize(c_old, 0);
    seed_mark.resize(n);
    visit_mark.resize(n);
    visit_origin.resize(n);  // valid only where visit_mark holds the epoch

    // The touched set: the removed ids, their captured neighbors, the
    // inserted slots and their pre-existing neighbors — every slot whose
    // count changed, so the only slots whose core flag can have flipped.
    // (seed_mark dedupes; split detection takes fresh epochs after.)  Each
    // neighbor CSR holds the last batch that had a side of its kind.
    const std::uint32_t touch_epoch = next_epoch();
    touched.clear();
    const auto touch = [&](std::uint32_t i) {
      if (seed_mark[i] != touch_epoch) {
        seed_mark[i] = touch_epoch;
        touched.push_back(i);
      }
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

    // CUT nodes: old cores that are no longer cores (removed, or demoted by
    // the batch).  Only paths through them can break, so only their clusters
    // can split or shed borders.
    cut_list.clear();
    for (const std::uint32_t i : touched) {
      if (r.is_core[i] && !core_now(i) && r.labels[i] >= 0) {
        cut_list.push_back(i);
      }
    }
    std::sort(cut_list.begin(), cut_list.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return r.labels[a] != r.labels[b] ? r.labels[a] < r.labels[b]
                                                  : a < b;
              });

    rt::TraversalStats work;
    {
      RTD_TRACE_SPAN("repair.split");
      RTD_FAILPOINT("repair.split");
      detect_splits(eps, work);
    }
    // Promoted border/noise points and the inserted batch (always live).
    for (const std::uint32_t i : touched) {
      if (i >= first_new || (!r.is_core[i] && core_now(i))) {
        add_w(i);
      }
    }

    const std::size_t nodes = wlist.size() + c_old;
    if (!mini_dsu.has_value()) {
      mini_dsu.emplace(nodes);
    } else {
      mini_dsu->reset(nodes);
    }
    claim.resize(wlist.size());
    std::fill(claim.begin(), claim.end(), std::uint8_t{0});
    {
      RTD_TRACE_SPAN("repair.union");
      RTD_FAILPOINT("repair.union");
      union_pass(eps, work);
    }
    {
      RTD_TRACE_SPAN("repair.border");
      RTD_FAILPOINT("repair.border");
      border_pass(eps, work);
    }
    {
      RTD_TRACE_SPAN("repair.relabel");
      RTD_FAILPOINT("repair.relabel");
      relabel_repair(first_new);
      for (const std::uint32_t i : touched) {
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
  /// if some ε-connected GROUP of its cut nodes disconnects the surviving
  /// cores around it: any old core-path between surviving cores enters and
  /// leaves a cut group through cut-adjacent surviving cores ("seeds"), so
  /// if every group's seeds stay mutually reachable through surviving
  /// cores, every old path can be rerouted and the cluster is intact —
  /// its out-of-W members keep their label through the cluster anchor,
  /// and only the LOCAL damage joins W: demoted cores and the non-core
  /// neighbors of cut nodes (their witness core may be gone).  The proof
  /// is usually free: seeds directly within ε of each other unite by
  /// distance alone; only unresolved groups pay a BFS over surviving
  /// cores, and only a proven disconnection falls back to re-clustering
  /// the whole membership (the split really happened; the work is real).
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
        mark_affected(c);
        for (const std::uint32_t m : r.members_of(c)) {
          if (is_live_slot(m)) add_w(m);
        }
        lo = hi;
        continue;
      }

      // ε-transitive grouping of this cluster's cut nodes: consecutive cut
      // nodes on an old path are within ε, so a maximal cut run lies in one
      // group and its flanking seeds belong to that group's seed set.
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
      for (std::size_t a = 0; a < k; ++a) {
        cut_order[a] = static_cast<std::uint32_t>(a);
      }
      std::sort(cut_order.begin(), cut_order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return site_dsu->find(a) < site_dsu->find(b);
                });

      for (std::size_t glo = 0; glo < k;) {
        const std::uint32_t root = site_dsu->find(cut_order[glo]);
        std::size_t ghi = glo;
        while (ghi < k && site_dsu->find(cut_order[ghi]) == root) ++ghi;

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

        // Query-free fast path: seeds directly within ε unite by distance
        // alone.  The DSU survives into the search below as its starting
        // components (cut grouping is already materialized in cut_order).
        site_dsu->reset(s);
        std::size_t comps = s;
        if (s <= 512) {
          for (std::size_t a = 0; a < s && comps > 1; ++a) {
            for (std::size_t b = a + 1; b < s && comps > 1; ++b) {
              if (site_dsu->find(static_cast<std::uint32_t>(a)) !=
                      site_dsu->find(static_cast<std::uint32_t>(b)) &&
                  geom::distance_squared(pts[seed_list[a]],
                                         pts[seed_list[b]]) <= eps2) {
                site_dsu->unite(static_cast<std::uint32_t>(a),
                                static_cast<std::uint32_t>(b));
                --comps;
              }
            }
          }
        } else {
          // Too many seeds for pairwise (a cut in a dense region): collapse
          // by ε/√3 grid cell — any two points in one cell are within ε,
          // so each occupied cell is one component.  O(s log s), and it
          // shrinks thousands of dense-ball seeds to the handful of cells
          // the cut spans; the search below settles the rest.
          const double h = static_cast<double>(eps) / std::sqrt(3.0);
          seed_cells.resize(s);
          for (std::uint32_t q = 0; q < s; ++q) {
            const Vec3& p = pts[seed_list[q]];
            seed_cells[q] = {static_cast<std::int32_t>(
                                 std::floor(static_cast<double>(p.x) / h)),
                             static_cast<std::int32_t>(
                                 std::floor(static_cast<double>(p.y) / h)),
                             static_cast<std::int32_t>(
                                 std::floor(static_cast<double>(p.z) / h)),
                             static_cast<std::int32_t>(q)};
          }
          std::sort(seed_cells.begin(), seed_cells.end());
          for (std::size_t a = 1; a < s; ++a) {
            if (seed_cells[a][0] == seed_cells[a - 1][0] &&
                seed_cells[a][1] == seed_cells[a - 1][1] &&
                seed_cells[a][2] == seed_cells[a - 1][2]) {
              site_dsu->unite(
                  static_cast<std::uint32_t>(seed_cells[a][3]),
                  static_cast<std::uint32_t>(seed_cells[a - 1][3]));
              --comps;
            }
          }
        }

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
          const double h = static_cast<double>(eps) / std::sqrt(3.0);
          for (std::size_t head = 0;
               head < bfs_queue.size() && comps > 1 && active > 1; ++head) {
            const std::uint32_t u = bfs_queue[head];
            const std::uint32_t uo = bfs_origin[head];
            adjust(site_dsu->find(uo), false);
            if (sparse) {
              const Vec3& pu = pts[u];
              const auto cx = static_cast<std::int64_t>(
                  std::floor(static_cast<double>(pu.x) / h));
              const auto cy = static_cast<std::int64_t>(
                  std::floor(static_cast<double>(pu.y) / h));
              const auto cz = static_cast<std::int64_t>(
                  std::floor(static_cast<double>(pu.z) / h));
              const std::uint64_t key =
                  (static_cast<std::uint64_t>(cx & 0x1FFFFF) << 42) |
                  (static_cast<std::uint64_t>(cy & 0x1FFFFF) << 21) |
                  static_cast<std::uint64_t>(cz & 0x1FFFFF);
              const auto [it, fresh] = cell_seen.try_emplace(key, u);
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
            // Proven split.  The residual component — still active, else
            // the most-visited — keeps the label; every other component
            // was flooded to exhaustion, so its visited cores ARE the
            // splinter and join W.
            mark_affected(c);
            std::uint32_t residual = kNoneId;
            if (active > 0) {
              for (std::uint32_t q = 0; q < s; ++q) {
                if (bfs_pending[site_dsu->find(q)] > 0) {
                  residual = site_dsu->find(q);
                  break;
                }
              }
            } else {
              std::fill(bfs_pending.begin(), bfs_pending.end(), 0u);
              for (const std::uint32_t o : bfs_origin) {
                ++bfs_pending[site_dsu->find(o)];
              }
              std::uint32_t best = 0;
              for (std::uint32_t q = 0; q < s; ++q) {
                const std::uint32_t rq = site_dsu->find(q);
                if (bfs_pending[rq] > best) {
                  best = bfs_pending[rq];
                  residual = rq;
                }
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

  /// Pass A — phase 2's union rules, queried only from W's core points:
  /// core-core merges (to an in-W node or an out-of-W cluster anchor),
  /// in-W border claims, and first-claim capture of out-of-W points a
  /// new core now reaches (old noise, or borders of split clusters).
  /// Out-of-W cores anchor to their old label: their cluster is proven
  /// intact, or they are the residual component of a split (splinters
  /// joined W).  Out-of-W borders of intact clusters keep their labels
  /// the same way: a border whose witness core was cut is in some cut
  /// node's neighbor list and therefore in W.
  void union_pass(float eps, rt::TraversalStats& work) {
    const ClusterResult& r = result;
    const auto w_count = static_cast<std::uint32_t>(wlist.size());
    for (std::uint32_t w = 0; w < w_count; ++w) {
      const std::uint32_t i = wlist[w];
      if (!core_now(i)) continue;
      index->query_sphere(
          pts[i], eps, i,
          [&](std::uint32_t j) {
            const std::uint32_t wj = wloc[j];
            if (wj != kNoneId) {
              if (core_now(j)) {
                if (j > i) mini_dsu->unite(w, wj);
              } else if (!claim[wj]) {
                claim[wj] = 1;
                mini_dsu->unite(w, wj);
              }
            } else if (core_now(j)) {
              // Out-of-W core: proven intact, or the residual component
              // of a split cluster (splinters joined W; a splinter core
              // within ε of a residual core would have merged with it
              // during detection's flood).  Either way its old label is
              // its valid cluster identity.
              mini_dsu->unite(
                  w, w_count + static_cast<std::uint32_t>(r.labels[j]));
            } else if (claim_owner[j] == kNoneId &&
                       (r.labels[j] == kNoise ||
                        cluster_affected[static_cast<std::size_t>(
                            r.labels[j])])) {
              // Old noise a new core now reaches, or a border of a SPLIT
              // cluster whose witness core may have ended up in w's side
              // (a splinter): w is a core within ε, so w's cluster is a
              // valid home — claim it.  Borders of intact clusters keep
              // their anchor: their witness either survived out of W or
              // sits in W with its old label's identity.
              claimed_slots.push_back(j);
              claim_owner[j] = w;
            }
          },
          work);
    }
  }

  /// Pass B — unclaimed non-core W members: border iff ANY live core is
  /// within ε (pass A only queried from in-W cores; an out-of-W core can
  /// hold them too).  Attach to the first one found, else noise.
  void border_pass(float eps, rt::TraversalStats& work) {
    const ClusterResult& r = result;
    const auto w_count = static_cast<std::uint32_t>(wlist.size());
    for (std::uint32_t w = 0; w < w_count; ++w) {
      const std::uint32_t i = wlist[w];
      if (core_now(i) || claim[w]) continue;
      index->query_sphere(
          pts[i], eps, i,
          [&](std::uint32_t j) {
            if (claim[w] || !core_now(j)) return;
            claim[w] = 1;
            const std::uint32_t wj = wloc[j];
            mini_dsu->unite(
                w, wj != kNoneId
                       ? wj
                       : w_count + static_cast<std::uint32_t>(r.labels[j]));
          },
          work);
    }
  }

  /// The relabel, with STABLE cluster ids.  A mini-DSU class holding old
  /// clusters' anchors keeps the id of the largest of them, so a cluster W
  /// does not touch keeps its id and only the smaller side of a merge is
  /// relabelled (enumerated through the old members_of()).  Classes
  /// without an anchor — new clusters, splinters — take freed ids first,
  /// and ids stay dense: the highest kept ids move down into any holes
  /// left, one cluster relabelled per hole.  Visits W, the claimed slots,
  /// the removed batch and the members of merged or moved clusters only,
  /// recording every move for splice_membership.
  void relabel_repair(std::size_t first_new) {
    ClusterResult& r = result;
    const std::uint32_t c_old = r.cluster_count;
    const auto w_count = static_cast<std::uint32_t>(wlist.size());
    const auto root_of_cluster = [&](std::uint32_t c) {
      return mini_dsu->find(w_count + c);
    };
    const auto old_size = [&](std::uint32_t c) {
      return r.member_starts[c + 1] - r.member_starts[c];
    };
    const auto labeled = [&](std::uint32_t w) {
      return claim[w] != 0 || core_now(wlist[w]);
    };

    // Members each old cluster keeps through its anchor: all but those in
    // W, claimed by a W core, or removed.  Only a kept member can tie an
    // anchor to anything, so an anchor with none is an empty singleton.
    stay_count.resize(c_old);
    for (std::uint32_t c = 0; c < c_old; ++c) stay_count[c] = old_size(c);
    const auto leave = [&](std::uint32_t i) {
      if (r.labels[i] >= 0) --stay_count[static_cast<std::size_t>(r.labels[i])];
    };
    for (const std::uint32_t i : wlist) leave(i);
    for (const std::uint32_t i : claimed_slots) leave(i);
    for (const std::uint32_t i : rem_sorted) leave(i);

    // Count the final classes: one per root holding a kept anchor (keeper:
    // its largest old cluster, ties to the lower id), one per root of
    // labeled W nodes only.  root_scratch holds the final id per root.
    constexpr std::uint32_t kNewClass = kNoneId - 1;
    root_keeper.assign(w_count + c_old, kNoneId);
    root_scratch.assign(w_count + c_old, kNoise);
    std::uint32_t c_new = 0;
    for (std::uint32_t c = 0; c < c_old; ++c) {
      if (stay_count[c] == 0) continue;
      std::uint32_t& keeper = root_keeper[root_of_cluster(c)];
      if (keeper == kNoneId) {
        keeper = c;
        ++c_new;
      } else if (old_size(c) > old_size(keeper)) {
        keeper = c;
      }
    }
    for (std::uint32_t w = 0; w < w_count; ++w) {
      if (!labeled(w)) continue;
      std::uint32_t& keeper = root_keeper[mini_dsu->find(w)];
      if (keeper == kNoneId) {
        keeper = kNewClass;
        ++c_new;
      }
    }

    // Dense ids.  Kept ids below c_new stay; the holes below c_new go to
    // the new classes first, then to the kept ids at or above c_new,
    // highest first.  There are exactly as many holes as takers: c_new
    // counts every keeper and every new class, so the holes below c_new
    // number the new classes plus the keepers at or above c_new.
    // group_base maps each new group to the old group its members are
    // spliced from (noise onto noise; none for new classes).
    group_base.assign(static_cast<std::size_t>(c_new) + 1, kNoneId);
    group_base[c_new] = c_old;
    for (std::uint32_t c = 0; c < std::min(c_old, c_new); ++c) {
      if (stay_count[c] == 0) continue;
      const std::uint32_t root = root_of_cluster(c);
      if (root_keeper[root] == c) {
        group_base[c] = c;
        root_scratch[root] = static_cast<std::int32_t>(c);
      }
    }
    std::uint32_t hole = 0;
    const auto take_hole = [&] {
      while (group_base[hole] != kNoneId) ++hole;
      assert(hole < c_new);
      return hole++;
    };
    for (std::uint32_t w = 0; w < w_count; ++w) {
      if (!labeled(w)) continue;
      const std::uint32_t root = mini_dsu->find(w);
      if (root_keeper[root] == kNewClass && root_scratch[root] == kNoise) {
        root_scratch[root] = static_cast<std::int32_t>(take_hole());
      }
    }
    for (std::uint32_t c = c_old; c-- > c_new;) {
      if (stay_count[c] == 0) continue;
      const std::uint32_t root = root_of_cluster(c);
      if (root_keeper[root] != c) continue;
      const std::uint32_t g = take_hole();
      group_base[g] = c;
      root_scratch[root] = static_cast<std::int32_t>(g);
    }

    // Relabel, recording each slot that changes group: (old group, slot)
    // leaves, (new group, slot) enters.  Noise is group c_old before and
    // c_new after; the inserted slots had no old group.
    group_outs.clear();
    group_ins.clear();
    const auto relabel_slot = [&](std::uint32_t i, std::int32_t label) {
      if (i < first_new) {
        const std::int32_t was = r.labels[i];
        group_outs.push_back(
            group_key(was == kNoise ? c_old : static_cast<std::uint32_t>(was),
                      i));
      }
      group_ins.push_back(group_key(
          label == kNoise ? c_new : static_cast<std::uint32_t>(label), i));
      r.labels[i] = label;
    };
    for (std::uint32_t w = 0; w < w_count; ++w) {
      relabel_slot(wlist[w],
                   labeled(w) ? root_scratch[mini_dsu->find(w)] : kNoise);
    }
    // Claimed: old noise a new core reached, or a border of a split
    // cluster re-homed by a W core (its old witness may be in a splinter;
    // the claiming core is a live witness by construction).
    for (const std::uint32_t i : claimed_slots) {
      relabel_slot(i, root_scratch[mini_dsu->find(claim_owner[i])]);
    }
    for (const std::uint32_t i : rem_sorted) relabel_slot(i, kNoise);
    // Kept members of clusters merged into a larger one (they enter its
    // group, even when the keeper moved down into this cluster's own freed
    // id) or moved down into a hole (the whole group moves, so the splice
    // copies it as one block).
    for (std::uint32_t c = 0; c < c_old; ++c) {
      if (stay_count[c] == 0) continue;
      const std::uint32_t root = root_of_cluster(c);
      const std::int32_t id = root_scratch[root];
      const bool merged = root_keeper[root] != c;
      if (!merged && id == static_cast<std::int32_t>(c)) continue;
      for (const std::uint32_t m :
           r.members_of(static_cast<std::int32_t>(c))) {
        if (!is_live_slot(m) || wloc[m] != kNoneId ||
            claim_owner[m] != kNoneId) {
          continue;
        }
        r.labels[m] = id;
        if (merged) {
          group_ins.push_back(group_key(static_cast<std::uint32_t>(id), m));
        }
      }
    }
    splice_membership(c_new);
    r.cluster_count = c_new;
  }

  /// Sort key of one membership move: group in the high half, slot low.
  [[nodiscard]] static std::uint64_t group_key(std::uint32_t group,
                                               std::uint32_t slot) {
    return std::uint64_t{group} << 32 | slot;
  }

  /// Rebuild the membership table from the old one and relabel_repair's
  /// moves: new group g is old group group_base[g] (if any) minus the
  /// slots leaving it, plus the slots entering g, all ascending.  A group
  /// with neither is block-copied; the others copy the runs between the
  /// binary-searched positions of their moves.  Noise stays last.
  void splice_membership(std::uint32_t c_new) {
    ClusterResult& r = result;
    std::sort(group_outs.begin(), group_outs.end());
    std::sort(group_ins.begin(), group_ins.end());
    members_next.resize(pts.size());
    starts_next.resize(static_cast<std::size_t>(c_new) + 2);
    starts_next[0] = 0;
    auto dst = members_next.begin();
    auto in = group_ins.cbegin();
    for (std::uint32_t g = 0; g <= c_new; ++g) {
      auto b = r.members.cbegin();
      auto e = b;
      auto out = group_outs.cend();
      auto out_end = out;
      if (const std::uint32_t h = group_base[g]; h != kNoneId) {
        b += r.member_starts[h];
        e = r.members.cbegin() + r.member_starts[h + 1];
        out = std::lower_bound(group_outs.cbegin(), group_outs.cend(),
                               group_key(h, 0));
        out_end = std::lower_bound(out, group_outs.cend(),
                                   group_key(h + 1, 0));
      }
      const auto in_end = std::lower_bound(in, group_ins.cend(),
                                           group_key(g + 1, 0));
      for (;;) {
        const std::uint32_t o =
            out != out_end ? static_cast<std::uint32_t>(*out) : kNoneId;
        const std::uint32_t i =
            in != in_end ? static_cast<std::uint32_t>(*in) : kNoneId;
        const std::uint32_t stop = std::min(o, i);
        const auto at = stop == kNoneId ? e : std::lower_bound(b, e, stop);
        dst = std::copy(b, at, dst);
        b = at;
        if (stop == kNoneId) break;
        // On a tie the slot leaves first: it may re-enter the same group.
        if (o == stop) {  // a leaving slot is in the old group, at b
          ++b;
          ++out;
        } else {
          *dst++ = i;
          ++in;
        }
      }
      starts_next[g + 1] =
          static_cast<std::uint32_t>(dst - members_next.begin());
    }
    r.members.swap(members_next);
    r.member_starts.swap(starts_next);
  }
};

namespace {

void validate_options(const Options& options) {
  if (options.geometry == core::GeometryMode::kTriangles &&
      options.backend != IndexKind::kAuto &&
      options.backend != IndexKind::kBvhRt) {
    throw std::invalid_argument(
        std::string("Clusterer: triangle geometry (§VI-C) runs the RT "
                    "pipeline only — backend '") +
        index::to_string(options.backend) + "' cannot answer it");
  }
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
  impl_->storage = std::make_shared<std::vector<Vec3>>(std::move(points));
  impl_->pts = *impl_->storage;
  impl_->opts = options;
}

Clusterer::Clusterer(std::span<const Vec3> points, Options options)
    : Clusterer(std::vector<Vec3>(points.begin(), points.end()), options) {}

Clusterer Clusterer::borrowing(std::span<const Vec3> points,
                               Options options) {
  dbscan::require_finite(points);
  Clusterer session(std::vector<Vec3>{}, options);  // validates options
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
  RTD_TRACE_SPAN("session.insert");
  const std::size_t first_new = impl_->mutate(new_points, {});
  // Counted after the return: a throwing mutation left the session
  // untouched (or degraded — either way no batch was applied).
  telemetry::count(telemetry::Counter::kSessionInserts);
  telemetry::count(telemetry::Counter::kSessionPointsInserted,
                   new_points.size());
  return first_new;
}

void Clusterer::remove(std::span<const std::uint32_t> ids) {
  RTD_TRACE_SPAN("session.remove");
  impl_->mutate({}, ids);
  telemetry::count(telemetry::Counter::kSessionRemoves);
  telemetry::count(telemetry::Counter::kSessionPointsRemoved, ids.size());
}

std::size_t Clusterer::advance(std::span<const Vec3> new_points,
                               std::size_t expire_count) {
  RTD_TRACE_SPAN("session.advance");
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

  // The sweep span covers the whole ladder (per-entry runs nest their own
  // session.run spans on the rerun paths); the latency histogram likewise
  // records the full ladder wall clock, throwing sweeps included.
  RTD_TRACE_SPAN("session.sweep");
  telemetry::count(telemetry::Counter::kSessionSweeps);
  const telemetry::LatencyTimer sweep_lat(telemetry::Histogram::kSweepLatency);

  // Triangle sessions (and trivially empty ones) sweep by plain reruns —
  // the runner already refits per step.
  if (im.opts.geometry == core::GeometryMode::kTriangles ||
      im.pts.empty()) {
    for (const float eps : eps_values) {
      out.push_back(run(eps, min_pts));
      telemetry::count(telemetry::Counter::kSessionSweepEntries);
    }
    return out;
  }

  // Shared phase 1: the index is built (or retargeted) ONCE at the
  // ladder's maximum ε, and a single counting launch buckets every
  // neighbor's exact d² against all ladder values at once — a query at
  // ε_max enumerates a superset of every smaller ε-ball, and the bucket
  // predicate d² <= ε² is the same test every backend's exact filter
  // applies, so each column equals a native phase 1 at that ε.  The
  // per-eps cost that remains is cluster formation; rebuild-per-eps pays
  // k index builds AND k full counting passes (bench_micro_sweep
  // measures the gap).  Duplicate ladder values share one column (their
  // counts are identical by definition), so the scratch is O(k_unique·n)
  // — the one deliberate deviation from the engine's O(n) memory, bounded
  // by the ladder length.  Every value was validated finite above, so
  // max_element can never be NaN-driven.
  const std::size_t n = im.pts.size();
  const std::size_t k = eps_values.size();
  const float eps_max =
      *std::max_element(eps_values.begin(), eps_values.end());
  const Timer first_entry_timer;  // entry 0 is charged with the shared work
  const Impl::EnsureStats build = im.ensure_index(eps_max);
  im.ensure_order();
  im.sweep_eps2.clear();
  im.sweep_col.resize(k);
  for (std::size_t v = 0; v < k; ++v) {
    const float eps2 = eps_values[v] * eps_values[v];
    const auto it =
        std::find(im.sweep_eps2.begin(), im.sweep_eps2.end(), eps2);
    im.sweep_col[v] =
        static_cast<std::uint32_t>(it - im.sweep_eps2.begin());
    if (it == im.sweep_eps2.end()) im.sweep_eps2.push_back(eps2);
  }
  const std::size_t ku = im.sweep_eps2.size();
  // Everything up to the entry loop touches only the index and scratch
  // buffers: a throw (including this injected one) leaves the previous
  // result intact — strong.
  RTD_FAILPOINT("sweep.scratch");
  im.sweep_counts.assign(ku * n, 0);
  const std::span<const geom::Vec3> pts = im.pts;
  // One query per ORDER entry (live slots only): tombstoned slots keep the
  // zero counts from the assign above and are never core.
  const rt::LaunchStats shared_phase1 = rt::parallel_launch(
      im.order.size(), im.opts.threads,
      [&](rt::TraversalStats& stats, std::size_t q) {
        const std::uint32_t i = im.order[q];
        std::uint32_t* const buckets = im.sweep_counts.data() + i * ku;
        im.index->query_sphere(
            pts[i], eps_max, i,
            [&](std::uint32_t j) {
              const float d2 = geom::distance_squared(pts[i], pts[j]);
              for (std::size_t u = 0; u < ku; ++u) {
                if (d2 <= im.sweep_eps2[u]) ++buckets[u];
              }
            },
            stats);
      });

  for (std::size_t v = 0; v < k; ++v) {
    const Timer entry_timer;
    const float eps = eps_values[v];
    ClusterResult& r = im.result;
    // Each entry rewrites the session result in place; a throw mid-entry
    // leaves it torn, so the whole entry body degrades on failure (the
    // committed point/mask state is untouched — the next writer call heals
    // by re-clustering at this entry's parameters).  A COMPLETED entry is
    // a full, coherent clustering: commit it before moving on, so a later
    // entry's fault only ever costs the remainder of the ladder.
    try {
      r.eps = eps;
      r.min_pts = min_pts;
      r.stats = RunStats{};
      r.stats.geometry = im.opts.geometry;
      r.stats.backend = im.resolved;
      r.stats.width = im.stats_width();

      // Retarget the index to this ladder value where refit is supported
      // (the RT scene's radius is baked in, so its phase-2 queries need
      // it).  Where it is not (grid/dense-box), the ε_max build legally
      // serves any query radius <= its build ε — no rebuild happens in a
      // sweep at all (unless a concurrent reader snapped the structure
      // mid-sweep; see sweep_retarget).
      Impl::EnsureStats step;
      im.sweep_retarget(eps, eps_max, step);
      if (v == 0) {
        // The first entry is charged with the shared work: the ε_max index
        // step and the one counting launch that served the whole ladder.
        step.rebuilt = build.rebuilt;
        step.refitted = step.refitted || build.refitted;
        step.seconds += build.seconds;
        r.stats.phase1 = shared_phase1;
        r.stats.timings.core_phase_seconds = shared_phase1.seconds;
      } else {
        r.stats.counts_reused = true;
      }
      r.stats.index_rebuilt = step.rebuilt;
      r.stats.index_refitted = step.refitted;
      r.stats.timings.index_build_seconds = step.seconds;

      // Gather this entry's strided counters into the session cache buffer
      // (one linear pass; the per-neighbor hot loop above stays
      // cache-tight).  The cache is invalid while being overwritten.
      im.counts_valid = false;
      const std::size_t column = im.sweep_col[v];
      im.counts.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        im.counts[i] = im.sweep_counts[i * ku + column];
      }
      im.finish_run(eps, min_pts, im.counts,
                    v == 0 ? first_entry_timer : entry_timer);
      // Commit: the entry's exact counts become the session count cache
      // (the multi-count pass never caps) and the result is current —
      // mutations maintain the LAST completed ladder entry.
      im.counts_valid = true;
      im.counts_eps = eps;
      im.counts_cap = index::kNoCap;
      im.last_eps = eps;
      im.last_min_pts = min_pts;
      im.params_valid = true;
      im.set_health(SessionHealth::kHealthy);
      im.result_current = true;
    } catch (...) {
      im.set_health(SessionHealth::kDegraded);
      im.result_current = false;
      throw;
    }
    out.push_back(r);
    telemetry::count(telemetry::Counter::kSessionSweepEntries);
  }
  return out;
}

std::vector<std::uint32_t> Clusterer::query_neighbors(const Vec3& center,
                                                      float eps) {
  // Both arguments are validated BEFORE ensure_index below, so a garbage
  // request can never retarget the session index to a degenerate ε or scan
  // against a NaN center.
  validate_eps(eps);
  validate_center(center);
  Impl& im = *impl_;
  std::vector<std::uint32_t> ids;
  if (im.opts.geometry == core::GeometryMode::kTriangles ||
      im.pts.empty()) {
    // The triangle accel answers finite-ray queries, not point queries —
    // enumerate exactly instead of faking a ray.
    const float eps2 = eps * eps;
    for (std::uint32_t j = 0; j < im.pts.size(); ++j) {
      if (geom::distance_squared(center, im.pts[j]) <= eps2) {
        ids.push_back(j);
      }
    }
    return ids;
  }
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
  if (k == 0) {
    // Ester et al.'s default: k = 2 * dims.  Flat z = const data is 2-D.
    bool flat = true;
    for (const Vec3& p : im.pts) {
      if (p.z != im.pts.front().z) {
        flat = false;
        break;
      }
    }
    k = flat ? 4 : 6;
  }
  if (im.dead_count > 0) {
    return core::kdist_graph(compact_live(im.pts, im.live), k);
  }
  return core::kdist_graph(im.pts, k);
}

core::RtKnnResult Clusterer::knn(std::uint32_t k) const {
  const Impl& im = *impl_;
  core::RtKnnOptions o;
  o.device.build.width = im.opts.width;
  o.device.threads = im.opts.threads;
  if (im.dead_count > 0) {
    return core::rt_knn(compact_live(im.pts, im.live), k, o);
  }
  return core::rt_knn(im.pts, k, o);
}

std::span<const Vec3> Clusterer::points() const { return impl_->pts; }
const Options& Clusterer::options() const { return impl_->opts; }
index::IndexKind Clusterer::backend() const { return impl_->resolved; }

std::optional<float> Clusterer::current_eps() const {
  const Impl& im = *impl_;
  if (im.opts.geometry == core::GeometryMode::kTriangles) {
    if (!im.runner.has_value()) return std::nullopt;
    return im.runner->eps();
  }
  if (!im.index) return std::nullopt;
  return im.index_eps;
}

bool Clusterer::counts_cached() const {
  const Impl& im = *impl_;
  if (im.opts.geometry == core::GeometryMode::kTriangles) {
    return im.runner.has_value() && im.runner->counts_cached();
  }
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
      // Holds for capped counts too: a count is only ever capped at a
      // cap >= min_pts - 1 (the reuse rule enforces it), so the stored
      // value decides the core test exactly.
      fail("slot " + std::to_string(i) +
           " core flag disagrees with its neighbor count");
      break;
    }
  }

  // Membership CSR: a permutation of the slots, bucketed by label with the
  // noise bucket last.
  const std::size_t buckets = static_cast<std::size_t>(r.cluster_count) + 1;
  if (r.member_starts.size() != buckets + 1 || r.members.size() != n ||
      r.member_starts.front() != 0 || r.member_starts.back() != n) {
    fail("membership CSR shape is wrong for " +
         std::to_string(r.cluster_count) + " clusters over " +
         std::to_string(n) + " slots");
  } else {
    std::vector<std::uint8_t> seen(n, 0);
    bool csr_ok = true;
    for (std::size_t b = 0; b + 1 < r.member_starts.size() && csr_ok; ++b) {
      if (r.member_starts[b] > r.member_starts[b + 1]) {
        fail("membership CSR starts are not monotone at bucket " +
             std::to_string(b));
        csr_ok = false;
        break;
      }
      const std::int32_t want = b + 1 == buckets
                                    ? kNoise
                                    : static_cast<std::int32_t>(b);
      for (std::uint32_t t = r.member_starts[b];
           t < r.member_starts[b + 1]; ++t) {
        const std::uint32_t m = r.members[t];
        if (m >= n || seen[m] || r.labels[m] != want) {
          fail("membership bucket " + std::to_string(b) +
               " holds slot " + std::to_string(m) +
               " out of place");
          csr_ok = false;
          break;
        }
        seen[m] = 1;
      }
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
  // diagnostics, not a hot path).  Exact comparison needs exact counts;
  // an early-exit session caps them, so only the core DECISION is checked
  // there.
  {
    const float eps2 = r.eps * r.eps;
    const bool exact = !im.opts.early_exit ||
                       im.resolved == IndexKind::kBvhRt;
    for (std::size_t i = 0; i < n && rep.ok; ++i) {
      if (!im.is_live_slot(i)) continue;
      std::uint32_t truth = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || !im.is_live_slot(j)) continue;
        truth += geom::distance_squared(im.pts[i], im.pts[j]) <= eps2;
      }
      if (exact && truth != r.neighbor_counts[i]) {
        fail("slot " + std::to_string(i) + " neighbor count " +
             std::to_string(r.neighbor_counts[i]) +
             " != exact recount " + std::to_string(truth));
      } else if ((r.is_core[i] != 0) != (truth + 1 >= r.min_pts)) {
        fail("slot " + std::to_string(i) +
             " core flag disagrees with the exact recount");
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
