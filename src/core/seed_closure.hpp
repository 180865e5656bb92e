// rtd::close_seeds — which seeds of a cut group are joined by chains of
// direct ε-edges, computed without comparing every pair.
//
// Label repair's split detection (core::LabelRepair, repair.split)
// collects the surviving cores around a group of cut nodes — the "seeds" —
// and must know which of them are still connected before it pays for a
// flood over the index.  Many are joined by a single ε-edge.  This header
// finds the transitive closure of those direct seed-to-seed edges,
// exactly, by the cell argument of exact grid DBSCAN (Gan & Tao,
// SIGMOD'15): in a grid of cell side ε/√3 two points of one cell lie within
// ε of each other, and two points within ε sit in cells at most 2 apart on
// every axis.
//
//   1. Each seed gets the 64-bit key of its cell (index::cell_key, the
//      packed key every grid in index/cell_grid.hpp uses: 21 bits per
//      axis, the grid anchored at the coordinate origin) and the
//      (key, seed) pairs are sorted.
//   2. In a run of equal keys, a seed unites with the first of the run's
//      heads that is within ε of it, or becomes a head itself.  Every union
//      is checked: a packed key can alias distant cells (the fields wrap),
//      and float rounding can put two points of one cell just over ε.
//   3. For each pair of runs whose keys lie within ±2 on every axis, and
//      whose heads are not yet in one component, scan the pairs until the
//      heads are (the first ε-witness, when each run has one head).
//
// Every ε-edge between seeds is then either inside one head's group or
// between runs that step 3 visited, so the result is the exact closure at
// O(s log s + the pairs scanned between neighbouring cells).  Step 3
// needs no more than the sorted runs: the runs of one (x, y) column and a
// z range form one key range, so one binary search per column covers the
// half of a run's neighbourhood that comes after it — 5 columns for the
// adjacent cells (±1), which settle a dense set, then 13 for all of ±2.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/prefetch.hpp"
#include "geom/vec3.hpp"
#include "index/cell_grid.hpp"

namespace rtd {

/// One run of equal keys in SeedClosureScratch::keyed, with its heads.
struct SeedCellRun {
  std::uint64_t key = 0;
  std::uint32_t begin = 0, end = 0;              ///< range in `keyed`
  std::uint32_t heads_begin = 0, heads_end = 0;  ///< range in `heads`
};

/// close_seeds' buffers; their capacities carry over from call to call.
struct SeedClosureScratch {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;  ///< key, seed
  std::vector<geom::Vec3> xyz;        ///< keyed[t]'s point, at t
  std::vector<SeedCellRun> runs;      ///< sorted by key
  std::vector<std::uint32_t> heads;   ///< positions in `keyed`, by run
};

/// Unite in `dsu` every two seeds joined by a chain of seed-to-seed
/// ε-edges (dist² <= ε², the index's test).  Seed q is point
/// pts[seeds[q]] and DSU element q; `dsu` must hold seeds.size()
/// singletons on entry (any type with find and unite).  Returns the number
/// of components; it stops early once that is 1.
template <class Dsu>
std::size_t close_seeds(std::span<const geom::Vec3> pts,
                        std::span<const std::uint32_t> seeds, float eps,
                        Dsu& dsu, SeedClosureScratch& scratch) {
  const auto s = static_cast<std::uint32_t>(seeds.size());
  std::size_t comps = s;
  if (s < 2) return comps;

  // Step 1: sort by cell, then gather the points in that order (every
  // later distance test reads them there, not through the slot ids).
  auto& keyed = scratch.keyed;
  auto& xyz = scratch.xyz;
  const double inv_h = std::sqrt(3.0) / static_cast<double>(eps);
  keyed.resize(s);
  for (std::uint32_t q = 0; q < s; ++q) {
    // The seeds are scattered slots: fetch a few ahead.
    if (q + 16 < s) RTD_PREFETCH(&pts[seeds[q + 16]]);
    keyed[q] = {index::cell_key(pts[seeds[q]], inv_h), q};
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  xyz.resize(s);
  for (std::uint32_t t = 0; t < s; ++t) xyz[t] = pts[seeds[keyed[t].second]];

  // Positions t in `keyed` from here on.
  const float eps2 = eps * eps;
  const auto near = [&](std::uint32_t a, std::uint32_t b) {
    return geom::distance_squared(xyz[a], xyz[b]) <= eps2;
  };
  const auto find = [&](std::uint32_t t) { return dsu.find(keyed[t].second); };
  const auto unite = [&](std::uint32_t a, std::uint32_t b) {
    dsu.unite(keyed[a].second, keyed[b].second);
    --comps;
  };

  // Step 2: runs of one key, each split into groups around checked heads.
  // A member joins one head only, so every union here joins two sets.
  auto& runs = scratch.runs;
  auto& heads = scratch.heads;
  runs.clear();
  heads.clear();
  for (std::uint32_t b = 0; b < s;) {
    SeedCellRun run;
    run.key = keyed[b].first;
    run.begin = run.end = b;
    run.heads_begin = static_cast<std::uint32_t>(heads.size());
    for (; run.end < s && keyed[run.end].first == run.key; ++run.end) {
      std::size_t t = run.heads_begin;
      while (t < heads.size() && !near(run.end, heads[t])) ++t;
      if (t < heads.size()) {
        unite(run.end, heads[t]);
      } else {
        heads.push_back(run.end);
      }
    }
    run.heads_end = static_cast<std::uint32_t>(heads.size());
    runs.push_back(run);
    b = run.end;
  }

  // Step 3: link neighbouring runs.  Once every head of both runs is in
  // one component, no pair between them can add a union.
  const auto settled = [&](const SeedCellRun& a, const SeedCellRun& c) {
    const std::uint32_t root = find(heads[a.heads_begin]);
    for (const SeedCellRun* run : {&a, &c}) {
      for (std::uint32_t t = run->heads_begin; t < run->heads_end; ++t) {
        if (find(heads[t]) != root) return false;
      }
    }
    return true;
  };
  const auto link = [&](const SeedCellRun& a, const SeedCellRun& c) {
    if (settled(a, c)) return;
    for (std::uint32_t ta = a.begin; ta < a.end; ++ta) {
      const std::uint32_t tc_begin = &a == &c ? ta + 1 : c.begin;
      for (std::uint32_t tc = tc_begin; tc < c.end; ++tc) {
        if (near(ta, tc) && find(ta) != find(tc)) {
          unite(ta, tc);
          if (settled(a, c)) return;
        }
      }
    }
  };
  // Visit the runs whose keys lie in [lo, hi] (one column, so only the z
  // field differs; a z range that wraps is visited as its two pieces).
  const auto link_range = [&](const SeedCellRun& a, std::uint64_t lo,
                              std::uint64_t hi) {
    const auto visit = [&](std::uint64_t from, std::uint64_t to) {
      auto it = std::lower_bound(
          runs.begin(), runs.end(), from,
          [](const SeedCellRun& r, std::uint64_t k) { return r.key < k; });
      for (; it != runs.end() && it->key <= to && comps > 1; ++it) {
        link(a, *it);
      }
    };
    if (lo <= hi) {
      visit(lo, hi);
    } else {
      visit(lo & ~index::kCellKeyMask, hi);
      visit(lo, lo | index::kCellKeyMask);
    }
  };
  // Two passes: the adjacent cells first (±1; in a dense set they settle
  // nearly everything), then the rest of ±2, where most pairs are farther
  // than ε and a scan is costly.  Each pass links a run with the half of
  // its neighbourhood after it — dx > 0, or dx = 0 and dy > 0, or dx = dy
  // = 0 and dz > 0 — and the other half from the runs over there.
  for (const int reach : {1, 2}) {
    for (std::size_t r = 0; r < runs.size() && comps > 1; ++r) {
      const SeedCellRun& a = runs[r];
      if (reach == 1 && a.heads_end - a.heads_begin > 1) link(a, a);
      for (int dx = 0; dx <= reach; ++dx) {
        for (int dy = dx == 0 ? 0 : -reach; dy <= reach; ++dy) {
          const int dz_lo = dx == 0 && dy == 0 ? 1 : -reach;
          link_range(a, index::shift_cell_key(a.key, dx, dy, dz_lo),
                     index::shift_cell_key(a.key, dx, dy, reach));
        }
      }
    }
  }
  return comps;
}

}  // namespace rtd
