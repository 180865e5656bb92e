// Geometry acceleration structures ("GAS" in OptiX terms).
//
// SphereAccel is the paper's transformed input: one solid ε-sphere per data
// point with a user Intersection program (§III-B/C).  TriangleAccel is the
// §VI-C alternative: spheres tessellated into triangles so the "hardware"
// can run the primitive test itself, with hits delivered through an AnyHit
// program.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/ray.hpp"
#include "rt/bvh.hpp"
#include "rt/traversal.hpp"

namespace rtd::rt {

/// Acceleration structure over n solid spheres of shared radius.
///
/// In OptiX this is a custom-primitive GAS: the user supplies a bounds
/// program (sphere -> AABB) and an Intersection program; the hardware builds
/// the BVH over the AABBs and traversal reports candidate primitives to the
/// Intersection program, which performs the exact test.
class SphereAccel {
 public:
  /// "optixAccelBuild": copies the centers (device upload) and builds the
  /// BVH over the per-sphere AABBs on `threads` workers (0 = all hardware
  /// threads).
  SphereAccel(std::vector<geom::Vec3> centers, float radius,
              int threads = 0);

  [[nodiscard]] std::size_t size() const { return centers_.size(); }
  [[nodiscard]] float radius() const { return radius_; }
  [[nodiscard]] const std::vector<geom::Vec3>& centers() const {
    return centers_;
  }
  [[nodiscard]] const geom::Vec3& center(std::uint32_t i) const {
    return centers_[i];
  }
  [[nodiscard]] const Bvh& bvh() const { return bvh_; }
  [[nodiscard]] const BuildStats& build_stats() const { return bvh_.stats; }
  /// The collapsed wide layout every trace walks; empty only for an empty
  /// scene.
  [[nodiscard]] const WideBvh& wide_bvh() const { return wide_; }

  /// Trace one ray.  `isect_program(prim_id)` is invoked for every candidate
  /// sphere whose AABB the ray hits; per OptiX semantics it cannot terminate
  /// traversal.  The program is responsible for the exact distance test —
  /// helpers below provide it.  The walk runs over the wide layout — a
  /// conservative candidate superset that the exact test filters to the
  /// brute-force answer (test-enforced).
  template <typename IsectProgram>
  void trace(const geom::Ray& ray, IsectProgram&& isect_program,
             TraversalStats& stats) const {
    traverse(
        wide_, ray,
        [&](std::uint32_t prim) {
          ++stats.isect_calls;
          isect_program(prim);
          return TraversalControl::kContinue;
        },
        stats);
  }

  /// Trace a packet of point-query rays through the wide layout
  /// (rt::traverse_points): `isect_program(prim_id, rays)` fires once per
  /// candidate sphere with the mask of packet rays that reached it, and
  /// each of those rays counts one Intersection call — the counters equal
  /// `packet.size` single trace() calls.
  template <typename IsectProgram>
  void trace_packet(const PointPacket& packet, IsectProgram&& isect_program,
                    TraversalStats& stats) const {
    traverse_points(
        wide_, packet,
        [&](std::uint32_t prim, std::uint32_t rays) {
          stats.isect_calls +=
              static_cast<std::uint64_t>(std::popcount(rays));
          isect_program(prim, rays);
        },
        stats);
  }

  /// Exact test the Intersection program applies (Alg. 2 line 6): is the ray
  /// origin within the solid sphere `prim`?
  [[nodiscard]] bool origin_inside(const geom::Ray& ray,
                                   std::uint32_t prim) const {
    return geom::distance_squared(ray.origin, centers_[prim]) <=
           radius_ * radius_;
  }

  /// origin_inside() for a whole packet: bit k set iff ray k's origin is
  /// within sphere `prim`, and d2[k] the squared distance that test
  /// compared.  Bits and lanes beyond packet.size are garbage.
  [[nodiscard]] std::uint32_t origins_inside(
      const PointPacket& packet, std::uint32_t prim,
      float (&d2)[kPacketWidth]) const {
    return detail::packet_within(packet, centers_[prim], radius_ * radius_,
                                 d2);
  }

  /// Change the shared sphere radius and REFIT the BVH in place (topology
  /// unchanged — it depends only on the centers).  This is the cheap path
  /// for ε sweeps: an accel-update instead of a full rebuild.  The box
  /// pass runs on `threads` workers.
  void set_radius(float radius, int threads);

  /// REFIT the BVH around the live spheres only: primitives with
  /// dead[prim] != 0 are dropped from the leaf unions (Bvh's masked refit),
  /// tightening traversal after incremental removals without touching the
  /// topology.  `dead` must cover every primitive (size >= size()); the
  /// radius is unchanged.  The box pass runs on `threads` workers.
  void refit_live(std::span<const std::uint8_t> dead, int threads);

 private:
  std::vector<geom::Vec3> centers_;
  float radius_;
  Bvh bvh_;      ///< build intermediate and refit source
  WideBvh wide_;  ///< the traversal layout, collapsed from bvh_
};

/// Acceleration structure over triangles, each owned by a data point
/// (tessellated sphere).  The primitive test runs "in hardware"
/// (Moller-Trumbore here); accepted hits are delivered to the user AnyHit
/// program, which is exactly the costly path the paper measured (§VI-C).
///
/// Like SphereAccel, the triangle scene traverses the wide (8-ary SoA)
/// layout — the ray-vs-8-slab kernel feeds the exact ray-triangle filter,
/// and the AnyHit program dedups owners.
class TriangleAccel {
 public:
  /// Generic build over arbitrary triangles.  set_radius() is unavailable
  /// through this constructor (the accel does not know the tessellation
  /// centers) — use the tessellating constructor below for ε sweeps.
  TriangleAccel(std::vector<geom::Triangle> triangles,
                std::vector<std::uint32_t> owners, int threads = 0);

  /// Tessellate one ε-sphere of `radius` per center (rt/tessellate.hpp) and
  /// build over the result, both on `threads` workers (0 = all hardware
  /// threads).  Retains the centers and scale, which enables set_radius():
  /// the ε-sweep refit path.
  TriangleAccel(std::span<const geom::Vec3> centers, float radius,
                int subdivisions, int threads = 0);

  [[nodiscard]] std::size_t triangle_count() const {
    return triangles_.size();
  }
  [[nodiscard]] const Bvh& bvh() const { return bvh_; }
  [[nodiscard]] const BuildStats& build_stats() const { return bvh_.stats; }
  /// The collapsed wide layout every trace walks; empty only for an empty
  /// scene.
  [[nodiscard]] const WideBvh& wide_bvh() const { return wide_; }
  /// Owning data point of each triangle.
  [[nodiscard]] const std::vector<std::uint32_t>& owners() const {
    return owners_;
  }

  /// True when this accel was built by the tessellating constructor and can
  /// therefore refit via set_radius() (empty-centers tessellations count:
  /// rescaling nothing is a valid ε sweep).
  [[nodiscard]] bool rescalable() const { return rescalable_; }
  /// Current tessellation radius (tessellating constructor only; 0 for the
  /// generic constructor).
  [[nodiscard]] float radius() const { return radius_; }
  /// Applied vertex scale (>= radius: the mesh circumscribes the ε-ball).
  /// Query rays need it for their tmax (index/triangle_index.cpp).
  [[nodiscard]] float vertex_scale() const { return scale_; }

  /// Change the tessellation radius and REFIT in place — the §VI-C
  /// equivalent of SphereAccel::set_radius.  Vertices rescale about their
  /// owning center (the tessellation is linear in the radius), so the BVH
  /// topology is unchanged and an accel-update replaces the full
  /// retessellate+rebuild an ε sweep used to pay.  Throws std::logic_error
  /// for accels built from arbitrary triangles (no centers to scale about).
  /// The rescale and box passes run on `threads` workers.
  void set_radius(float radius, int threads);

  /// Trace one ray; `anyhit(owner_point, t)` fires for each triangle the ray
  /// actually intersects.  A ray crossing a tessellated sphere hits several
  /// of its triangles — the AnyHit program must deduplicate owners.
  template <typename AnyHitProgram>
  void trace(const geom::Ray& ray, AnyHitProgram&& anyhit,
             TraversalStats& stats) const {
    traverse(
        wide_, ray,
        [&](std::uint32_t prim) {
          ++stats.isect_calls;  // hardware ray-triangle test
          float t = 0.0f;
          if (geom::ray_intersects_triangle(ray, triangles_[prim], &t)) {
            ++stats.anyhit_calls;
            anyhit(owners_[prim], t);
          }
          return TraversalControl::kContinue;
        },
        stats);
  }

 private:
  void build(int threads);

  std::vector<geom::Triangle> triangles_;
  std::vector<std::uint32_t> owners_;
  /// Tessellation metadata (tessellating constructor only; empty/0 for the
  /// generic constructor, which cannot refit).
  std::vector<geom::Vec3> centers_;
  float radius_ = 0.0f;
  float scale_ = 0.0f;
  bool rescalable_ = false;
  Bvh bvh_;      ///< build intermediate and refit source
  WideBvh wide_;  ///< the traversal layout, collapsed from bvh_
};

}  // namespace rtd::rt
