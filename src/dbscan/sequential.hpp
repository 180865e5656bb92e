// Sequential reference DBSCAN — the paper's Algorithm 1 (Ester et al. 1996).
//
// This is the semantic ground truth: every parallel implementation in this
// repository must produce an equivalent clustering (see equivalence.hpp).
// Neighbor queries run on the kGrid backend (index::GridIndex) by default,
// so tests stay fast — Params::index swaps it — but the cluster expansion
// logic follows Algorithm 1 line by line.
#pragma once

#include <span>

#include "dbscan/core.hpp"

namespace rtd::dbscan {

/// Run Algorithm 1 over `points` and return the clustering.
Clustering sequential_dbscan(std::span<const geom::Vec3> points,
                             const Params& params);

}  // namespace rtd::dbscan
