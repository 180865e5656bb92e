// NeighborIndex — the pluggable fixed-radius neighbor-query backend layer.
//
// The paper's contribution is answering DBSCAN's ε-neighborhood queries with
// ray-tracing traversal, but that is one of several possible substrates.
// This interface is the single contract every query engine in the repository
// implements (RT sphere scene, RT triangle scene, uniform grid, dense-box
// grid, point BVH, brute force), and every DBSCAN variant consumes — so algorithms and
// backends can be swapped and compared independently.
//
// Contract (see docs/ARCHITECTURE.md for the full invariants):
//  * Boundaries are ε-INCLUSIVE: a point at exactly distance ε is a
//    neighbor (`distance² <= eps²`), matching Ester et al.'s N_eps(p).
//  * Self-hits are excluded by primitive id, not by distance: the query
//    passes the dataset index `self` to exclude (kNoSelf for off-dataset
//    query centers).  Duplicate coordinates are therefore still reported.
//  * The set of ids visited is exact and identical across backends; only
//    visit ORDER is backend-defined (tests/test_neighbor_index.cpp enforces
//    set parity).
//  * Queries are const and safe to run concurrently from many threads.
//  * Live-session mutations (try_set_eps/try_insert/try_remove below) are
//    WRITER operations — single-threaded, never concurrent with queries on
//    the same index object.  rtd::Clusterer's snapshot layer enforces that
//    with versions: before it mutates an index a snapshot holds, it
//    clone()s it and mutates the clone, which shares the built structure
//    and copies it only where a mutation would change it.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/function_ref.hpp"
#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "index/index_kind.hpp"
#include "rt/traversal.hpp"

namespace rtd::index {

/// Sentinel for "the query center is not a dataset member" — no self-hit to
/// exclude.
inline constexpr std::uint32_t kNoSelf =
    std::numeric_limits<std::uint32_t>::max();

/// Sentinel for query_count's `stop_at`: never stop early.
inline constexpr std::uint32_t kNoCap =
    std::numeric_limits<std::uint32_t>::max();

/// Per-neighbor visitor: receives the dataset index of one neighbor.
using NeighborVisitor = FunctionRef<void(std::uint32_t)>;

/// Batched visitor: receives (query point index, neighbor index) pairs.
using PairVisitor = FunctionRef<void(std::uint32_t, std::uint32_t)>;

/// One pair of a buffered packet query (query_pairs_packet): ray k of the
/// packet, its neighbor j, and their squared distance.  No member
/// initializers, so a stack buffer of them costs nothing to declare.
struct PacketPair {
  std::uint32_t ray;       ///< k: the query of dataset point ids[k]
  std::uint32_t neighbor;  ///< j
  float d2;                ///< geom::distance_squared(points()[ids[k]], points()[j])
};

/// Abstract fixed-radius neighbor index over an immutable point set.
///
/// An index is built once over `points` for a build radius ε (the factory
/// make_index() below); queries then enumerate exact ε-neighborhoods.  The
/// caller owns the point storage, which must outlive the index.
class NeighborIndex {
 public:
  NeighborIndex() = default;
  NeighborIndex& operator=(const NeighborIndex&) = delete;
  virtual ~NeighborIndex() = default;

  /// A new VERSION of this index: it answers every query exactly like this
  /// one and can be mutated (try_*) while readers keep querying this one.
  /// Shallow — the built trees (kBvhRt's sphere scene, kTriangles' triangle
  /// scene, kPointBvh's point BVH and their delta-tail trees) are shared, and whichever
  /// version next refits or retargets a shared tree copies it first
  /// (common/copy_on_write.hpp); the dead mask is copied whole, once.
  /// kGrid/kDenseBox share their cell arrays, which no mutation touches.
  /// A writer operation: it marks this object's trees shared, so it must
  /// not run concurrently with another writer on this object (concurrent
  /// queries are fine — they read nothing the call writes).
  [[nodiscard]] std::unique_ptr<NeighborIndex> clone();

  /// Stable backend name, equal to to_string(kind()).
  [[nodiscard]] virtual const char* name() const { return to_string(kind()); }

  /// Which backend this is (never kAuto).
  [[nodiscard]] virtual IndexKind kind() const = 0;

  /// The indexed points, in dataset order.
  [[nodiscard]] virtual std::span<const geom::Vec3> points() const = 0;

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const { return points().size(); }

  /// The ε the index was built for.  Per-query `eps` constraints against it
  /// are backend-specific: grid requires eps <= build_eps (one-ring
  /// guarantee), the RT scenes (kBvhRt, kTriangles) require eps ==
  /// build_eps (the radius is baked into the geometry); brute force, dense-box and point-BVH
  /// accept any radius.  A violation throws std::invalid_argument.
  [[nodiscard]] virtual float build_eps() const = 0;

  /// Whether try_set_eps and try_insert can succeed here: true on kBvhRt,
  /// kTriangles, kPointBvh and kBruteForce; false on kGrid/kDenseBox, whose cells bake
  /// in the build ε and their membership.  Removals are always absorbable.
  /// Lets a caller skip cloning a version it would only rebuild.
  [[nodiscard]] virtual bool refittable() const { return false; }

  /// Retarget the index to a new build ε WITHOUT a rebuild, where the
  /// backend supports it.  Returns true on success — build_eps() now
  /// reports `eps` and queries at `eps` satisfy the radius constraint —
  /// and false (leaving the index untouched) where only a rebuild can
  /// change ε; the caller then rebuilds via make_index().  This is the
  /// refit contract the session API (rtd::Clusterer) sweeps ε through:
  ///   * kBvhRt    — true: the ε-sphere scene REFITS in place (accel
  ///                 update; the BVH topology depends only on the centers);
  ///   * kTriangles — true: the tessellation rescales about its centers
  ///                 and the triangle BVH refits in place;
  ///   * kPointBvh — true: the tree is over the bare points, radius-
  ///                 agnostic — only the recorded ε changes;
  ///   * kBruteForce — true: no structure at all;
  ///   * kGrid / kDenseBox — false: the cell edge/diagonal IS the build ε,
  ///                 so a new ε means re-binning every point (rebuild).
  /// `eps` must be positive (std::invalid_argument otherwise, even on
  /// backends that return false) — validated here once, so backend
  /// overrides (do_try_set_eps) cannot forget the check.
  bool try_set_eps(float eps);

  /// Incremental INSERT contract (rtd::Clusterer live sessions).
  ///
  /// `all_points` is the FULL, possibly-relocated point span: its prefix
  /// [0, first_new) is value-identical to the points the index was built
  /// over (same coordinates, same ids — the caller's storage may have
  /// reallocated, so the ADDRESSES may differ) and [first_new, size) is the
  /// appended batch.  first_new must equal size() (std::invalid_argument
  /// otherwise); first_new == all_points.size() is a pure REBIND — no new
  /// points, just retarget the span after a storage relocation.
  ///
  /// Returns true when the index absorbed the batch — points() now reports
  /// `all_points` and queries see the new ids:
  ///   * kBruteForce — true: rebind, the scan covers the new tail natively;
  ///   * kPointBvh / kBvhRt / kTriangles — true: the tree keeps covering
  ///     the build-time prefix and the appended DELTA TAIL gets a second
  ///     point BVH of its own, rebuilt once enough tail ids are unindexed
  ///     (DeltaTail::absorb); queries scan that residue linearly (exact
  ///     filter, same set semantics; index/point_tree.hpp).  The session's
  ///     rebuild threshold bounds how long the tail can grow;
  ///   * kGrid / kDenseBox — false, index untouched: their cell arrays hold
  ///     their own copy of the membership and cannot absorb new ids — the
  ///     caller rebuilds via make_index() (their build is O(n) anyway).
  /// After a false return the index MUST be discarded: the caller's storage
  /// may already have relocated, invalidating the span the index holds.
  bool try_insert(std::span<const geom::Vec3> all_points,
                  std::size_t first_new);

  /// Incremental REMOVE contract: mark dataset ids dead.  Every backend
  /// filters dead ids out of every query through the shared mask this base
  /// class owns (is_dead() in the exact-test hot loops), so removal is
  /// always absorbable — returns true on every in-tree backend.  The tree
  /// backends additionally tighten their node bounds around the survivors
  /// with an amortized masked refit.  Ids must be in range
  /// (std::invalid_argument); re-removing a dead id is a harmless no-op.
  /// A false return follows the try_insert rule: discard the index.
  bool try_remove(std::span<const std::uint32_t> ids);

  /// Number of ids currently masked dead.
  [[nodiscard]] std::size_t removed_count() const { return dead_count_; }

  /// Thread budget of the writer operations that run parallel loops:
  /// try_set_eps (the RT scenes' radius refit) and try_remove (the tree
  /// backends' masked refit) pass it to every launch they make.  0 means
  /// hardware_concurrency() and 1 runs inline on the caller; a throw from
  /// any worker reaches the caller.  make_index() sets it from
  /// IndexBuildOptions::threads, and clone() keeps it.
  void set_threads(int threads) { threads_ = threads; }
  [[nodiscard]] int threads() const { return threads_; }

  /// Visit every dataset index j != self with |points[j] - center| <= eps
  /// (inclusive).  Exactly one query's worth of work counters (one "ray")
  /// accumulates into `stats`.
  virtual void query_sphere(const geom::Vec3& center, float eps,
                            std::uint32_t self, NeighborVisitor visit,
                            rt::TraversalStats& stats) const = 0;

  /// Count the neighbors query_sphere would visit.  `stop_at` is an early-
  /// termination hint: backends whose traversal supports termination return
  /// as soon as the count reaches it (FDBSCAN's §VI-B optimization — the
  /// caller only needs to know "at least stop_at").  The RT backend ignores
  /// it, faithful to OptiX: an Intersection program cannot stop traversal,
  /// so it always pays the full query and returns the exact count.
  [[nodiscard]] virtual std::uint32_t query_count(
      const geom::Vec3& center, float eps, std::uint32_t self,
      rt::TraversalStats& stats, std::uint32_t stop_at = kNoCap) const;

  /// Packet entries — the full query passes in Morton order
  /// (dbscan/engine.hpp) issue the queries of up to rt::kPacketWidth
  /// consecutive launch slots together.  Query k of a packet is the query
  /// of dataset point ids[k], excluding itself, exactly as a single
  /// query_count / query_sphere call at points()[ids[k]] with self = ids[k]
  /// (dead ids query too).  Results, visited pairs and the summed work
  /// counters equal ids.size() single queries; only the visit order
  /// differs.  1 <= ids.size() <= rt::kPacketWidth.
  ///
  /// The defaults loop the single-query virtuals.  kBvhRt overrides all
  /// three on its wide layout: one packet walk (rt::traverse_points) shares
  /// each node fetch among the rays that reach it.

  /// counts[k] = query_count(points()[ids[k]], eps, ids[k], stats, stop_at).
  /// `counts` has ids.size() entries.
  virtual void query_count_packet(std::span<const std::uint32_t> ids,
                                  float eps, std::span<std::uint32_t> counts,
                                  rt::TraversalStats& stats,
                                  std::uint32_t stop_at = kNoCap) const;

  /// `visit(k, j)` for every neighbor j that query_sphere(points()[ids[k]],
  /// eps, ids[k], ...) would visit.  Pairs of one packet are delivered from
  /// the calling thread.
  virtual void query_sphere_packet(std::span<const std::uint32_t> ids,
                                   float eps, PairVisitor visit,
                                   rt::TraversalStats& stats) const;

  /// Buffered query_sphere_packet: the pairs (k, j) it would visit, in its
  /// order, each with its d², written into `pairs` while they fit; rows[k]
  /// is ray k's pair count (`rows` has ids.size() entries).  Returns the
  /// number of pairs found — past pairs.size() when the buffer overflowed,
  /// and the pairs that did not fit are dropped (rows still count them).
  /// One virtual call per packet, where the visitor entry pays an indirect
  /// call per pair.  The default is query_sphere_packet plus
  /// geom::distance_squared; kBvhRt stores the d² its 4-wide exact test
  /// computed, which is that value bit for bit.
  virtual std::size_t query_pairs_packet(std::span<const std::uint32_t> ids,
                                         float eps,
                                         std::span<PacketPair> pairs,
                                         std::span<std::uint32_t> rows,
                                         rt::TraversalStats& stats) const;

  /// Visit every dataset index whose point lies inside `box` (closed).  Used
  /// by the dense-box DBSCAN phase that replaces per-point sphere queries
  /// with one inflated-box query per dense cell.  The default implementation
  /// is a counted linear scan; tree/grid backends override it.
  virtual void query_box(const geom::Aabb& box, NeighborVisitor visit,
                         rt::TraversalStats& stats) const;

  /// Batched query: one ε-sphere query per dataset point, run in parallel;
  /// `visit(i, j)` fires for every ordered neighbor pair (j != i,
  /// |points[i] - points[j]| <= eps).  All pairs for a given i are delivered
  /// from a single thread, but different i run concurrently — the visitor
  /// must be safe for that.  `threads` = 0 uses all hardware threads.
  virtual rt::LaunchStats query_all(float eps, PairVisitor visit,
                                    int threads = 0) const;

 protected:
  /// Copies the dead mask with headroom (an eighth, at least 64 ids), so
  /// the inserts a clone is made to absorb grow the mask in place instead
  /// of copying it a second time.
  NeighborIndex(const NeighborIndex& other);

  /// Backend hook behind clone(): mark the trees this object shares with
  /// the copy as shared, then copy-construct (the base copies the mask).
  [[nodiscard]] virtual std::unique_ptr<NeighborIndex> do_clone() = 0;

  /// Backend hook behind try_set_eps(): `eps` is already validated
  /// positive.  Default: refit unsupported — the caller rebuilds.
  virtual bool do_try_set_eps(float eps) {
    (void)eps;
    return false;
  }

  /// Backend hook behind try_insert(): arguments already validated.
  /// Default: inserts unsupported — the caller rebuilds.
  virtual bool do_try_insert(std::span<const geom::Vec3> all_points,
                             std::size_t first_new) {
    (void)all_points;
    (void)first_new;
    return false;
  }

  /// Backend hook behind try_remove(): the base mask is ALREADY set when
  /// this runs (so a masked refit here sees the full batch); a false return
  /// means the caller discards the index, so the stale mask is moot.
  /// Default: the mask alone absorbs the removal.
  virtual bool do_try_remove(std::span<const std::uint32_t> ids) {
    (void)ids;
    return true;
  }

  /// Dead-id test for the exact-filter hot loops: one branch on a bool in
  /// the common (no removals yet) case.
  [[nodiscard]] bool is_dead(std::uint32_t j) const {
    return has_dead_ && dead_[j] != 0;
  }

  /// The full mask (empty until the first removal; size() entries after),
  /// for backends that replay it into a structure refit.
  [[nodiscard]] std::span<const std::uint8_t> dead_mask() const {
    return dead_;
  }

 private:
  std::vector<std::uint8_t> dead_;  ///< 1 = masked out of every query
  std::size_t dead_count_ = 0;
  bool has_dead_ = false;
  int threads_ = 0;
};

/// Build configuration shared by the tree-based backends.
struct IndexBuildOptions {
  /// kTriangles only: icosphere subdivision level (20·4^s triangles per
  /// point).
  int triangle_subdivisions = 1;
  /// Thread count of every launch the build makes, and the index's writer
  /// budget (NeighborIndex::threads()): 0 means hardware_concurrency() and
  /// 1 runs inline on the caller.
  int threads = 0;
};

/// Build a neighbor index over `points` for radius `eps`.  kAuto builds
/// kBvhRt, the paper's RT pipeline.  The returned index references
/// `points` — the caller keeps the storage alive for the index's lifetime.
[[nodiscard]] std::unique_ptr<NeighborIndex> make_index(
    std::span<const geom::Vec3> points, float eps,
    IndexKind kind = IndexKind::kAuto, const IndexBuildOptions& options = {});

}  // namespace rtd::index
