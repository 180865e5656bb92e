// Icosphere tessellation for the §VI-C triangle-mode experiment.
//
// The paper "approximate[s] the spheres using triangles to leverage the
// hardware [triangle test]".  We tessellate each ε-sphere as a subdivided
// icosahedron.  To keep clustering results exact, the tessellation is
// *circumscribed*: vertices are pushed out so the polyhedron fully contains
// the true sphere; the AnyHit program still applies the exact distance
// filter, so false surface crossings are discarded and no true neighbor is
// missed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/ray.hpp"
#include "geom/vec3.hpp"

namespace rtd::rt {

/// Unit icosphere: triangles of a `subdivisions`-times subdivided
/// icosahedron with vertices on the unit sphere.  20 * 4^subdivisions faces.
std::vector<geom::Triangle> unit_icosphere(int subdivisions);

/// Insphere radius of the polyhedron (minimum distance from the origin to a
/// face plane).  Scaling vertices by 1/insphere_radius circumscribes the
/// unit sphere.
float insphere_radius(std::span<const geom::Triangle> unit_mesh);

/// Result of tessellating every data point's ε-sphere.
struct TessellatedSpheres {
  std::vector<geom::Triangle> triangles;
  std::vector<std::uint32_t> owners;  ///< data-point id per triangle
  int triangles_per_sphere = 0;
  float scale = 0.0f;  ///< applied vertex scale (>= radius: circumscribed)
};

/// Tessellate a sphere of `radius` around each center, on `threads` workers
/// (0 = all hardware threads).  The mesh is scaled by radius /
/// insphere_radius so the true ε-ball is fully enclosed.
TessellatedSpheres tessellate_spheres(std::span<const geom::Vec3> centers,
                                      float radius, int subdivisions,
                                      int threads = 0);

}  // namespace rtd::rt
