#include "dsu/atomic_disjoint_set.hpp"
#include "dsu/disjoint_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace rtd::dsu {
namespace {

TEST(DisjointSet, InitiallyAllSingletons) {
  DisjointSet dsu(10);
  EXPECT_EQ(dsu.size(), 10u);
  EXPECT_EQ(dsu.set_count(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(dsu.find(i), i);
    EXPECT_EQ(dsu.set_size(i), 1u);
  }
}

TEST(DisjointSet, UniteMergesAndCounts) {
  DisjointSet dsu(6);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_TRUE(dsu.unite(2, 3));
  EXPECT_FALSE(dsu.unite(1, 0));  // already merged
  EXPECT_EQ(dsu.set_count(), 4u);
  EXPECT_TRUE(dsu.same_set(0, 1));
  EXPECT_FALSE(dsu.same_set(0, 2));
  EXPECT_TRUE(dsu.unite(1, 3));
  EXPECT_TRUE(dsu.same_set(0, 2));
  EXPECT_EQ(dsu.set_size(3), 4u);
  EXPECT_EQ(dsu.set_count(), 3u);
}

TEST(DisjointSet, CanonicalLabelsAreDense) {
  DisjointSet dsu(7);
  dsu.unite(0, 3);
  dsu.unite(3, 6);
  dsu.unite(1, 2);
  const auto labels = dsu.canonical_labels();
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_EQ(labels[3], labels[6]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_NE(labels[0], labels[1]);
  const std::set<std::uint32_t> unique(labels.begin(), labels.end());
  EXPECT_EQ(unique.size(), dsu.set_count());
  EXPECT_EQ(*std::max_element(labels.begin(), labels.end()),
            unique.size() - 1);
}

TEST(DisjointSet, TransitiveChains) {
  DisjointSet dsu(1000);
  for (std::uint32_t i = 0; i + 1 < 1000; ++i) dsu.unite(i, i + 1);
  EXPECT_EQ(dsu.set_count(), 1u);
  EXPECT_TRUE(dsu.same_set(0, 999));
  EXPECT_EQ(dsu.set_size(500), 1000u);
}

TEST(AtomicDisjointSet, SequentialSemanticsMatchReference) {
  Rng rng(71);
  DisjointSet ref(500);
  AtomicDisjointSet con(500);
  for (int op = 0; op < 2000; ++op) {
    const auto a = static_cast<std::uint32_t>(rng.below(500));
    const auto b = static_cast<std::uint32_t>(rng.below(500));
    ref.unite(a, b);
    con.unite(a, b);
  }
  for (std::uint32_t i = 0; i < 500; ++i) {
    for (std::uint32_t j = i + 1; j < 500; j += 37) {
      EXPECT_EQ(ref.same_set(i, j), con.same_set(i, j))
          << "pair (" << i << "," << j << ")";
    }
  }
}

TEST(AtomicDisjointSet, RootsAreMinimalIndices) {
  // "Lower index wins" linking: the root of any set is its smallest member.
  AtomicDisjointSet dsu(100);
  dsu.unite(50, 10);
  dsu.unite(10, 70);
  dsu.unite(99, 70);
  EXPECT_EQ(dsu.find(50), 10u);
  EXPECT_EQ(dsu.find(99), 10u);
  EXPECT_EQ(dsu.find(10), 10u);
}

TEST(AtomicDisjointSet, ConcurrentRandomUnionsMatchSequential) {
  const std::size_t n = 20000;
  const std::size_t ops = 50000;
  Rng rng(72);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(ops);
  for (auto& p : pairs) {
    p = {static_cast<std::uint32_t>(rng.below(n)),
         static_cast<std::uint32_t>(rng.below(n))};
  }

  DisjointSet ref(n);
  for (const auto& [a, b] : pairs) ref.unite(a, b);
  const auto ref_labels = ref.canonical_labels();

  AtomicDisjointSet con(n);
  parallel_for(ops, 4, [&](std::size_t i) {
    con.unite(pairs[i].first, pairs[i].second);
  });
  const auto con_labels = con.canonical_labels();

  // Partitions must be identical (canonical labels may differ by renaming;
  // here both are first-occurrence dense labels over the same index order,
  // so they must be equal).
  EXPECT_EQ(ref_labels, con_labels);
}

TEST(AtomicDisjointSet, ConcurrentChainStress) {
  // All threads unite adjacent elements of one long chain: worst-case
  // contention; the final structure must be a single set.
  const std::size_t n = 100000;
  AtomicDisjointSet dsu(n);
  parallel_for(n - 1, 4, [&](std::size_t i) {
    dsu.unite(static_cast<std::uint32_t>(i),
              static_cast<std::uint32_t>(i + 1));
  });
  EXPECT_EQ(dsu.set_count(), 1u);
  EXPECT_EQ(dsu.find(static_cast<std::uint32_t>(n - 1)), 0u);
}

TEST(AtomicDisjointSet, ConcurrentDisjointBlocksStayDisjoint) {
  // Threads build 100 separate blocks of 1000; no spurious merges allowed.
  const std::size_t blocks = 100;
  const std::size_t block_size = 1000;
  AtomicDisjointSet dsu(blocks * block_size);
  parallel_for(blocks * (block_size - 1), 4, [&](std::size_t k) {
    const std::size_t block = k / (block_size - 1);
    const std::size_t off = k % (block_size - 1);
    const auto base = static_cast<std::uint32_t>(block * block_size);
    dsu.unite(base + static_cast<std::uint32_t>(off),
              base + static_cast<std::uint32_t>(off + 1));
  });
  EXPECT_EQ(dsu.set_count(), blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto base = static_cast<std::uint32_t>(b * block_size);
    EXPECT_EQ(dsu.find(base + 999), base);
    if (b > 0) {
      EXPECT_FALSE(dsu.same_set(base, base - 1));
    }
  }
}

TEST(AtomicDisjointSet, SameSetUnderConcurrentMutation) {
  // same_set(a, b) must never return true for elements in different final
  // sets.  We merge only even indices; odd indices stay singletons.
  const std::size_t n = 10000;
  AtomicDisjointSet dsu(n);
  parallel_for(n / 2 - 1, 4, [&](std::size_t i) {
    dsu.unite(static_cast<std::uint32_t>(2 * i),
              static_cast<std::uint32_t>(2 * i + 2));
    // Interleaved queries on odd elements (never united).
    EXPECT_FALSE(dsu.same_set(static_cast<std::uint32_t>(2 * i + 1),
                              static_cast<std::uint32_t>(2 * i + 3)));
  });
  EXPECT_EQ(dsu.set_count(), 1u + n / 2);
}

}  // namespace
}  // namespace rtd::dsu
