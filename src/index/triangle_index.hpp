// TriangleIndex — the paper's §VI-C triangle geometry behind the
// NeighborIndex contract.
//
// Each ε-sphere is tessellated into triangles (rt::TriangleAccel) so the
// "hardware" runs the primitive test itself and delivers hits through an
// AnyHit program.  The paper keeps this mode to show it runs 2-5x slower
// than sphere geometry (bench_triangle_mode measures that); as a backend it
// also serves sessions, snapshots and streaming like every other one.
//
// Query: a +z ray from the center with tmax = 1.01·(ε + vertex_scale) —
// long enough to leave the circumscribed shell of every owner whose sphere
// contains the center.  A ray crosses several triangles of one sphere, so
// each owner is reported once per query through a per-thread stamp table
// (QueryScratch), then filtered by the exact distance test.  Like kBvhRt,
// the radius is baked into the geometry (query eps must equal build_eps(),
// try_set_eps rescales the tessellation and refits) and traversal cannot
// terminate early.
#pragma once

#include <memory>
#include <span>

#include "common/copy_on_write.hpp"
#include "index/neighbor_index.hpp"
#include "index/point_tree.hpp"
#include "rt/scene.hpp"

namespace rtd::index {

/// Tessellated-sphere neighbor index (simulated RT triangles + AnyHit).
class TriangleIndex final : public NeighborIndex {
 public:
  /// Tessellate one ε-sphere per point at `subdivisions` (20·4^s triangles
  /// per point, rt/tessellate.hpp) and build the triangle scene, on
  /// `threads` workers (0 = all hardware threads); the writer operations
  /// keep that budget.
  TriangleIndex(std::span<const geom::Vec3> points, float eps,
                int subdivisions, int threads = 0);

  [[nodiscard]] IndexKind kind() const override {
    return IndexKind::kTriangles;
  }
  [[nodiscard]] std::span<const geom::Vec3> points() const override {
    return points_;
  }
  [[nodiscard]] float build_eps() const override { return accel_->radius(); }
  [[nodiscard]] bool refittable() const override { return true; }

  void query_sphere(const geom::Vec3& center, float eps, std::uint32_t self,
                    NeighborVisitor visit,
                    rt::TraversalStats& stats) const override;

  /// The triangle scene over the build-time points (build statistics).
  [[nodiscard]] const rt::TriangleAccel& accel() const { return *accel_; }

 private:
  /// Versioning: the clone shares the triangle scene (copied by the first
  /// set_radius of either version) and the tail tree.
  std::unique_ptr<NeighborIndex> do_clone() override {
    accel_.share();
    return std::make_unique<TriangleIndex>(*this);
  }

  /// Refit contract: the tessellation rescales about its centers and the
  /// BVH refits in place (TriangleAccel::set_radius) — no retessellation.
  bool do_try_set_eps(float eps) override {
    accel_.mut().set_radius(eps, threads());
    return true;
  }

  /// Insert contract: appended ids join the DELTA TAIL, exactly as in
  /// BvhRtIndex — the scene keeps covering the build-time prefix.
  bool do_try_insert(std::span<const geom::Vec3> all_points,
                     std::size_t first_new) override {
    (void)first_new;
    tail_.absorb(all_points);
    points_ = all_points;
    return true;
  }

  CopyOnWrite<rt::TriangleAccel> accel_;
  std::span<const geom::Vec3> points_;  ///< full span incl. the delta tail
  std::size_t built_count_;  ///< owners the scene covers; the rest is delta
  DeltaTail tail_;
};

}  // namespace rtd::index
