// rtd::close_seeds (core/seed_closure.hpp) against its definition: two
// seeds share a component iff a chain of seed-to-seed ε-edges joins them,
// found here by comparing every pair.  Covers random seed sets from a
// handful of seeds to a few thousand, long chains, seeds placed on ε/√3
// cell boundaries (where float rounding decides which side a point falls
// on), and coordinates whose packed cell keys alias or wrap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/seed_closure.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "dsu/disjoint_set.hpp"

namespace rtd {
namespace {

using geom::Vec3;

/// Component labels, numbered by first appearance, so two partitions are
/// equal iff their label vectors are.
template <class Find>
std::vector<std::uint32_t> canonical(std::size_t s, Find find) {
  std::vector<std::uint32_t> label(s), first(s, UINT32_MAX);
  std::uint32_t next = 0;
  for (std::uint32_t q = 0; q < s; ++q) {
    std::uint32_t& f = first[find(q)];
    if (f == UINT32_MAX) f = next++;
    label[q] = f;
  }
  return label;
}

std::vector<std::uint32_t> pairwise_closure(
    std::span<const Vec3> pts, std::span<const std::uint32_t> seeds,
    float eps) {
  const auto s = static_cast<std::uint32_t>(seeds.size());
  dsu::DisjointSet dsu(s);
  for (std::uint32_t a = 0; a < s; ++a) {
    for (std::uint32_t b = a + 1; b < s; ++b) {
      if (geom::distance_squared(pts[seeds[a]], pts[seeds[b]]) <= eps * eps) {
        dsu.unite(a, b);
      }
    }
  }
  return canonical(s, [&](std::uint32_t q) { return dsu.find(q); });
}

/// close_seeds must agree with the pairwise closure, and so must the
/// component count it returns (1 can be returned early).
SeedClosureScratch expect_closure_matches(std::span<const Vec3> pts,
                                          std::span<const std::uint32_t> seeds,
                                          float eps, const std::string& what) {
  SeedClosureScratch scratch;
  dsu::AtomicDisjointSet dsu(seeds.size());
  const std::size_t comps = close_seeds(pts, seeds, eps, dsu, scratch);
  const auto got =
      canonical(seeds.size(), [&](std::uint32_t q) { return dsu.find(q); });
  const auto want = pairwise_closure(pts, seeds, eps);
  EXPECT_EQ(got, want) << what;
  std::uint32_t want_comps = 0;
  for (const std::uint32_t label : want) {
    want_comps = std::max(want_comps, label + 1);
  }
  EXPECT_EQ(comps, want_comps) << what;
  return scratch;
}

TEST(SeedClosure, RandomSeedSetsMatchThePairwiseClosure) {
  Rng rng(0x5EED5);
  const float eps = 0.05f;
  for (int trial = 0; trial < 60; ++trial) {
    // From a handful of seeds to a few thousand; the box side sets the
    // density, from one dense ball to sparse chains of small components.
    const std::size_t s = trial % 3 == 0 ? 2 + rng.below(40)
                          : trial % 3 == 1 ? 100 + rng.below(400)
                                           : 513 + rng.below(1500);
    const float side = eps * rng.uniformf(0.5f, 40.0f);
    const bool flat = trial % 2 == 0;  // 2-D like the taxi data, or 3-D
    const Vec3 origin{rng.uniformf(-5.0f, 5.0f), rng.uniformf(-5.0f, 5.0f),
                      rng.uniformf(-5.0f, 5.0f)};
    // Seeds index a larger point array, with non-seeds in between.
    std::vector<Vec3> pts;
    std::vector<std::uint32_t> seeds;
    for (std::size_t k = 0; k < 2 * s; ++k) {
      pts.push_back(origin + Vec3{rng.uniformf(0.0f, side),
                                  rng.uniformf(0.0f, side),
                                  flat ? 0.0f : rng.uniformf(0.0f, side)});
      if (k % 2 == 1) seeds.push_back(static_cast<std::uint32_t>(k));
    }
    expect_closure_matches(pts, seeds, eps,
                           "trial " + std::to_string(trial) + " s " +
                               std::to_string(s));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SeedClosure, LongChainsKeepEveryLink) {
  // 600 seeds on a line, 0.9 ε apart except for a 1.1 ε gap after every
  // 100th: six components, each held together only by links between
  // neighbouring cells.
  const float eps = 0.05f;
  std::vector<Vec3> pts;
  float x = 0.0f;
  for (int k = 0; k < 600; ++k) {
    pts.push_back({x, 1.0f, 0.0f});
    x += (k % 100 == 99 ? 1.1f : 0.9f) * eps;
  }
  std::vector<std::uint32_t> seeds(pts.size());
  for (std::uint32_t q = 0; q < seeds.size(); ++q) seeds[q] = q;
  expect_closure_matches(pts, seeds, eps, "chain");
  SeedClosureScratch scratch;
  dsu::AtomicDisjointSet dsu(seeds.size());
  EXPECT_EQ(close_seeds(pts, seeds, eps, dsu, scratch), 6u);
}

TEST(SeedClosure, SeedsOnCellBoundaries) {
  // Every seed sits on a corner of the ε/√3 grid, or one float step to
  // either side of it, so which cell a seed lands in and whether two
  // seeds of one cell are within ε both come down to rounding.  At this ε
  // the corner at cell -1 and the point just below the corner at 0 share
  // cell -1 on every axis, yet lie just over ε apart.
  const float eps = 0.045f;
  const double h = static_cast<double>(eps) / std::sqrt(3.0);
  std::vector<Vec3> pts;
  for (int i = -3; i <= 3; ++i) {
    for (int j = -3; j <= 3; ++j) {
      for (int k = -1; k <= 1; ++k) {
        const auto corner = [&](int c) {
          return static_cast<float>(h * static_cast<double>(c));
        };
        const Vec3 p{corner(i), corner(j), corner(k)};
        pts.push_back(p);
        pts.push_back({std::nextafter(p.x, 1e9f), std::nextafter(p.y, 1e9f),
                       std::nextafter(p.z, 1e9f)});
        pts.push_back({std::nextafter(p.x, -1e9f), std::nextafter(p.y, -1e9f),
                       std::nextafter(p.z, -1e9f)});
      }
    }
  }
  std::vector<std::uint32_t> all(pts.size());
  for (std::uint32_t q = 0; q < all.size(); ++q) all[q] = q;
  const SeedClosureScratch used = expect_closure_matches(pts, all, eps,
                                                         "all corners");
  // A corner and the point just below the opposite corner share a cell
  // at about ε apart, so some cell needs a second head.
  EXPECT_GT(used.heads.size(), used.runs.size());
  // Sparser subsets leave chains whose links are the near-ε diagonals.
  Rng rng(0xB0DE);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint32_t> seeds;
    for (std::uint32_t q = 0; q < pts.size(); ++q) {
      if (rng.below(4) == 0) seeds.push_back(q);
    }
    expect_closure_matches(pts, seeds, eps,
                           "corner subset " + std::to_string(trial));
  }
}

TEST(SeedClosure, AliasedAndWrappingCellKeys) {
  // Cells 2^21 apart on an axis share a packed key, and cells -1 and 0
  // sit at opposite ends of a key field.  Neither may merge seeds that are
  // not within ε, or miss a pair that is.
  const float eps = 1.0f;
  const double h = static_cast<double>(eps) / std::sqrt(3.0);
  const double inv_h = std::sqrt(3.0) / static_cast<double>(eps);
  const auto far = static_cast<float>(h * static_cast<double>(1 << 21));
  const Vec3 a{0.2f, 0.2f, 0.2f};
  const Vec3 b{far + 0.2f, 0.2f, 0.2f};
  // The alias itself.
  ASSERT_EQ(index::cell_key(a, inv_h), index::cell_key(b, inv_h));
  std::vector<Vec3> pts;
  Rng rng(0xA11A5);
  for (const float ox : {0.0f, far, -far}) {
    for (const float oy : {0.0f, far}) {
      // A small blob straddling 0 on every axis (negative indices wrap)
      // at each aliased position.
      for (int k = 0; k < 40; ++k) {
        pts.push_back({ox + rng.uniformf(-1.5f, 1.5f),
                       oy + rng.uniformf(-1.5f, 1.5f),
                       rng.uniformf(-1.5f, 1.5f)});
      }
    }
  }
  ASSERT_EQ(index::cell_key({-0.1f, 0.0f, 0.0f}, inv_h) >> 42,
            index::kCellKeyMask);
  std::vector<std::uint32_t> seeds(pts.size());
  for (std::uint32_t q = 0; q < seeds.size(); ++q) seeds[q] = q;
  expect_closure_matches(pts, seeds, eps, "aliased blobs");
  // Two seeds alone in aliased cells stay apart.
  const std::vector<Vec3> pair{a, b};
  const std::vector<std::uint32_t> both{0, 1};
  const SeedClosureScratch used =
      expect_closure_matches(pair, both, eps, "aliased pair");
  ASSERT_EQ(used.runs.size(), 1u);  // one key ...
  EXPECT_EQ(used.heads.size(), 2u);  // ... and two groups
}

TEST(SeedClosure, ScratchIsReusedAcrossCalls) {
  // One scratch through calls of shrinking and growing size, as split
  // detection uses it: leftovers of a larger call must not leak into a
  // smaller one.
  Rng rng(0x5C4A7C);
  SeedClosureScratch scratch;
  const float eps = 0.1f;
  for (const std::size_t s : {900u, 12u, 300u, 2u, 700u}) {
    std::vector<Vec3> pts;
    for (std::size_t k = 0; k < s; ++k) {
      pts.push_back({rng.uniformf(0.0f, 2.0f), rng.uniformf(0.0f, 2.0f), 0.0f});
    }
    std::vector<std::uint32_t> seeds(s);
    for (std::uint32_t q = 0; q < s; ++q) seeds[q] = q;
    dsu::AtomicDisjointSet dsu(s);
    const std::size_t comps = close_seeds(pts, seeds, eps, dsu, scratch);
    const auto got =
        canonical(s, [&](std::uint32_t q) { return dsu.find(q); });
    EXPECT_EQ(got, pairwise_closure(pts, seeds, eps)) << s;
    EXPECT_GE(comps, 1u);
  }
}

}  // namespace
}  // namespace rtd
