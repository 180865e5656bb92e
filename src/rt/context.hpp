// RT device context — the simulator's stand-in for an OptiX/OWL context.
//
// A Context owns the thread budget of its builds and launches, and runs
// ray launches: parallel invocations of a user RayGen program over a 1-D
// launch grid, exactly the shape of `owlLaunch2D`/`optixLaunch` the paper
// uses.
// Launch results carry aggregated hardware work counters so experiments can
// report traversal work alongside wall-clock time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "rt/bvh.hpp"
#include "rt/parallel_launch.hpp"
#include "rt/scene.hpp"
#include "rt/tessellate.hpp"
#include "rt/traversal.hpp"

namespace rtd::rt {

// LaunchStats lives in rt/traversal.hpp (included above) so the index layer
// can report batched-query statistics without depending on the RT context.

class Context {
 public:
  struct Options {
    /// Thread count for scene builds and launches; 0 = all hardware
    /// threads.
    int threads = 0;
  };

  Context() = default;
  explicit Context(Options options) : options_(options) {}

  [[nodiscard]] const Options& options() const { return options_; }

  /// Build a sphere GAS (the paper's transformed input, §III-B).
  [[nodiscard]] SphereAccel build_spheres(std::vector<geom::Vec3> centers,
                                          float radius) const {
    return SphereAccel(std::move(centers), radius, options_.threads);
  }

  /// Build a triangle GAS from tessellated spheres (§VI-C mode).  Uses the
  /// tessellating constructor, so the returned accel supports set_radius()
  /// ε-sweep refits.
  [[nodiscard]] TriangleAccel build_triangles(
      std::span<const geom::Vec3> centers, float radius,
      int subdivisions) const {
    return TriangleAccel(centers, radius, subdivisions, options_.threads);
  }

  /// Launch `ray_count` parallel RayGen program invocations.
  ///
  /// `raygen(ray_id, stats)` runs on a worker thread; it typically builds a
  /// point-query ray and calls `accel.trace(...)` with its per-thread
  /// `stats`.  Mirrors the CUDA-kernel launch of the paper's implementation.
  template <typename RayGen>
  LaunchStats launch(std::size_t ray_count, RayGen&& raygen) const {
    return parallel_launch(ray_count, options_.threads,
                           [&](TraversalStats& stats, std::size_t ray_id) {
                             raygen(ray_id, stats);
                           });
  }

 private:
  Options options_;
};

}  // namespace rtd::rt
