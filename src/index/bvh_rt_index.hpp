// BvhRtIndex — the paper's RT pipeline behind the NeighborIndex contract.
//
// Wraps rt::Context + rt::SphereAccel: the input transformation of §III-B
// (one solid ε-sphere per point, hardware BVH over the sphere AABBs) with
// queries as infinitesimally short rays whose Intersection program performs
// the exact point-in-sphere test (Algorithm 2).  Two OptiX semantics carry
// through the interface faithfully:
//   * the radius is baked into the geometry, so query eps must equal the
//     build eps (use set_radius() to REFIT for an ε sweep — 5-10x cheaper
//     than a rebuild, §VI-B);
//   * an Intersection program cannot terminate traversal, so query_count
//     ignores its early-exit hint and always pays the full query (§VI-B —
//     the trade bench_fig9_early_exit measures).
#pragma once

#include <algorithm>
#include <memory>
#include <span>

#include "common/copy_on_write.hpp"
#include "index/neighbor_index.hpp"
#include "index/point_tree.hpp"
#include "rt/context.hpp"

namespace rtd::index {

/// RT sphere-scene neighbor index (simulated RT-core traversal).
class BvhRtIndex final : public NeighborIndex {
 public:
  /// "optixAccelBuild": copies the points into the sphere scene and builds
  /// the hardware-style BVH on options.threads workers; the writer
  /// operations keep that budget.
  BvhRtIndex(std::span<const geom::Vec3> points, float eps,
             const rt::Context::Options& options = {});

  [[nodiscard]] IndexKind kind() const override { return IndexKind::kBvhRt; }
  [[nodiscard]] std::span<const geom::Vec3> points() const override {
    return points_;
  }
  [[nodiscard]] float build_eps() const override { return accel_->radius(); }
  [[nodiscard]] bool refittable() const override { return true; }

  void query_sphere(const geom::Vec3& center, float eps, std::uint32_t self,
                    NeighborVisitor visit,
                    rt::TraversalStats& stats) const override;

  /// Full-traversal count: `stop_at` is ignored (OptiX Intersection
  /// programs cannot stop traversal), and the exact count is returned.
  [[nodiscard]] std::uint32_t query_count(
      const geom::Vec3& center, float eps, std::uint32_t self,
      rt::TraversalStats& stats, std::uint32_t stop_at) const override;

  void query_box(const geom::Aabb& box, NeighborVisitor visit,
                 rt::TraversalStats& stats) const override;

  /// Packet entries: one rt::traverse_points walk over the wide layout for
  /// the whole packet, the delta tail scanned per ray.  `stop_at` is
  /// ignored, as in query_count; query_pairs_packet keeps the d² lanes the
  /// 4-wide exact test computed.
  void query_count_packet(std::span<const std::uint32_t> ids, float eps,
                          std::span<std::uint32_t> counts,
                          rt::TraversalStats& stats,
                          std::uint32_t stop_at) const override;
  void query_sphere_packet(std::span<const std::uint32_t> ids, float eps,
                           PairVisitor visit,
                           rt::TraversalStats& stats) const override;
  std::size_t query_pairs_packet(std::span<const std::uint32_t> ids,
                                 float eps, std::span<PacketPair> pairs,
                                 std::span<std::uint32_t> rows,
                                 rt::TraversalStats& stats) const override;

  /// REFIT the sphere scene to a new radius (accel update, not rebuild);
  /// subsequent queries must use the new eps.
  void set_radius(float eps) { accel_.mut().set_radius(eps, threads()); }

  /// The underlying acceleration structure (build statistics, RT k-NN).
  /// It covers the build-time points; appended ones live in the delta tail.
  [[nodiscard]] const rt::SphereAccel& accel() const { return *accel_; }
  /// The RT device context the scene was built with.
  [[nodiscard]] const rt::Context& context() const { return ctx_; }

 private:
  /// Versioning: the clone shares the sphere scene (copied by the first
  /// set_radius or masked refit of either version) and the tail tree.
  std::unique_ptr<NeighborIndex> do_clone() override {
    accel_.share();
    return std::make_unique<BvhRtIndex>(*this);
  }

  /// Refit contract: always satisfiable — set_radius() rescales the sphere
  /// scene and refits every traversal layout in place, 5-10x cheaper than
  /// a rebuild (§VI-B).  Reached through NeighborIndex::try_set_eps, which
  /// owns the eps validation.  The delta-tail tree is over bare points, so
  /// the refit covers it trivially (the exact test reads the radius).
  bool do_try_set_eps(float eps) override {
    accel_.mut().set_radius(eps, threads());
    return true;
  }

  /// Insert contract: rebind the external span — the sphere scene keeps
  /// covering the build-time prefix [0, built_count_) (the accel owns its
  /// own copy of those centers) and the appended ids join the DELTA TAIL
  /// [built_count_, size), queried through its own tree plus a short
  /// linear residue with the exact point-in-sphere test.  The session's
  /// rebuild threshold bounds the tail length.
  bool do_try_insert(std::span<const geom::Vec3> all_points,
                     std::size_t first_new) override {
    (void)first_new;
    tail_.absorb(all_points);
    points_ = all_points;
    return true;
  }

  /// Removal: base mask filters immediately; an amortized masked refit
  /// (SphereAccel::refit_live) re-tightens the scene around the survivors.
  bool do_try_remove(std::span<const std::uint32_t> ids) override;

  [[nodiscard]] std::size_t refit_threshold() const {
    return std::max<std::size_t>(256, built_count_ / 64);
  }

  void require_radius(float eps) const;

  /// Exact tail candidates for a query box: the tail's tree + residue.
  template <typename OnPoint>
  void scan_tail(const geom::Aabb& box, rt::TraversalStats& stats,
                 OnPoint&& on_point) const {
    tail_.for_each_candidate(points_, box, stats, [&](std::uint32_t j) {
      ++stats.isect_calls;
      if (!is_dead(j)) on_point(j);
      return rt::TraversalControl::kContinue;
    });
  }

  /// The packet walk behind the packet entries: `on_pair(k, j, d2)` for
  /// every exact neighbor j of ids[k] at squared distance d2, scene first,
  /// then each ray's tail scan.
  template <typename OnPair>
  void trace_packet(std::span<const std::uint32_t> ids, float eps,
                    rt::TraversalStats& stats, OnPair&& on_pair) const;

  rt::Context ctx_;
  CopyOnWrite<rt::SphereAccel> accel_;
  std::span<const geom::Vec3> points_;  ///< full span incl. the delta tail
  std::size_t built_count_;  ///< prims the scene covers; the rest is delta
  DeltaTail tail_;
  std::size_t removed_since_refit_ = 0;
};

}  // namespace rtd::index
