// Dataset container and the catalog of synthetic stand-ins for the paper's
// four evaluation datasets (the "Dataset stand-ins" table of
// docs/BENCHMARKS.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"

namespace rtd::data {

struct Dataset {
  std::string name;
  int dims = 2;  ///< 2 or 3; 2-D data is embedded at z = 0
  std::vector<geom::Vec3> points;

  [[nodiscard]] std::size_t size() const { return points.size(); }

  [[nodiscard]] geom::Aabb bounds() const {
    geom::Aabb box;
    for (const auto& p : points) box.grow(p);
    return box;
  }

  /// Keep only the first n points (the paper's "we choose the first n points
  /// for clustering", §V-B3).
  void truncate(std::size_t n) {
    if (points.size() > n) points.resize(n);
  }
};

/// The four paper datasets, by their synthetic stand-in generator.
enum class PaperDataset {
  k3DRoad,   ///< road-network GPS points (2-D), stands in for 3DRoad [22]
  kPorto,    ///< taxi GPS with hotspots (2-D), stands in for Porto [24]
  kNgsim,    ///< dense highway trajectories (2-D), stands in for NGSIM [23]
  k3DIono,   ///< lat/lon/TEC field (3-D), stands in for 3DIono [25]
};

const char* to_string(PaperDataset d);

}  // namespace rtd::data
