// Seeded synthetic dataset generators.
//
// Each generator reproduces the density structure that drives the paper's
// results on the corresponding real dataset (docs/BENCHMARKS.md, "Dataset
// stand-ins"):
// elongated road-shaped clusters, hotspot-heavy taxi GPS, extremely dense
// multi-lane trajectories, and a smooth 3-D ionosphere field.  All output is
// deterministic in (n, seed).
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace rtd::data {

/// ---- Paper-dataset stand-ins -------------------------------------------

/// 3DRoad stand-in: GPS points sampled along the edges of a random planar
/// road graph over a ~[0,100]^2 region; 2-D.  Produces elongated, curved
/// point chains of moderate, roughly uniform density.
Dataset road_network(std::size_t n, std::uint64_t seed = 1);

/// Porto stand-in: taxi pickup/dropoff GPS over a city — a street grid plus
/// a few dense hotspots (station, downtown) plus background noise; 2-D.
/// Highly non-uniform density: a few large clusters and many small ones.
Dataset taxi_gps(std::size_t n, std::uint64_t seed = 2);

/// NGSIM stand-in: vehicle trajectory samples on a short multi-lane highway
/// segment; 2-D.  Extremely dense along lanes, with heavy coordinate
/// duplication (stopped vehicles sampled repeatedly).  With the paper's tiny
/// ε values this yields the "dense dataset, zero clusters" regime of §V-C.
Dataset vehicle_trajectories(std::size_t n, std::uint64_t seed = 3);

/// 3DIono stand-in: (lat, lon, total-electron-count) samples of a smooth
/// ionosphere field with diurnal bands; genuinely 3-D.
Dataset ionosphere3d(std::size_t n, std::uint64_t seed = 4);

/// Fetch a paper-dataset stand-in by enum (used by the bench harnesses).
Dataset make_paper_dataset(PaperDataset which, std::size_t n,
                           std::uint64_t seed = 0);

/// ---- Generic generators for tests and examples --------------------------

/// k isotropic Gaussian blobs with the given stddev inside [0, extent]^dims.
Dataset gaussian_blobs(std::size_t n, int k, float stddev, float extent,
                       int dims = 2, std::uint64_t seed = 5);

/// Uniform noise in [0, extent]^dims.
Dataset uniform_cube(std::size_t n, float extent, int dims = 2,
                     std::uint64_t seed = 6);

/// Two concentric rings plus background noise — the classic "non-convex
/// clusters" showcase where DBSCAN beats k-means (paper §II-C).
Dataset two_rings(std::size_t n, std::uint64_t seed = 7);

/// A single dense blob (every point core for reasonable parameters).
Dataset single_blob(std::size_t n, float stddev = 1.0f,
                    std::uint64_t seed = 8);

}  // namespace rtd::data
