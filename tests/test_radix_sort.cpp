#include "rt/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace rtd::rt {
namespace {

void check_sorted_with_payload(std::vector<std::uint32_t> keys,
                               int threads) {
  std::vector<std::uint32_t> values(keys.size());
  std::iota(values.begin(), values.end(), 0u);
  const std::vector<std::uint32_t> original = keys;

  radix_sort_pairs(keys, values, threads);

  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // The payload must carry the permutation: values[i] is the original index
  // of keys[i].
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(original[values[i]], keys[i]);
  }
  // And it must be a permutation.
  std::vector<std::uint32_t> sorted_values = values;
  std::sort(sorted_values.begin(), sorted_values.end());
  for (std::size_t i = 0; i < sorted_values.size(); ++i) {
    EXPECT_EQ(sorted_values[i], i);
  }
}

/// Inline (one thread) and chunked (four threads).
void check_sorted_with_payload(const std::vector<std::uint32_t>& keys) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    check_sorted_with_payload(keys, threads);
  }
}

TEST(RadixSort, EmptyAndSingle) {
  check_sorted_with_payload({});
  check_sorted_with_payload({42});
}

TEST(RadixSort, SmallFixedInput) {
  check_sorted_with_payload({5, 3, 9, 1, 1, 0, 7});
}

TEST(RadixSort, AlreadySorted) {
  std::vector<std::uint32_t> keys(1000);
  std::iota(keys.begin(), keys.end(), 0u);
  check_sorted_with_payload(keys);
}

TEST(RadixSort, ReverseSorted) {
  std::vector<std::uint32_t> keys(1000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::uint32_t>(keys.size() - i);
  }
  check_sorted_with_payload(keys);
}

TEST(RadixSort, AllEqual) {
  check_sorted_with_payload(std::vector<std::uint32_t>(5000, 7u));
}

TEST(RadixSort, RandomLarge) {
  Rng rng(11);
  std::vector<std::uint32_t> keys(200000);
  for (auto& k : keys) {
    k = static_cast<std::uint32_t>(rng.next_u64());
  }
  check_sorted_with_payload(keys);
}

TEST(RadixSort, Random30BitMortonRange) {
  Rng rng(12);
  std::vector<std::uint32_t> keys(100000);
  for (auto& k : keys) {
    k = static_cast<std::uint32_t>(rng.below(1u << 30));
  }
  check_sorted_with_payload(keys);
}

TEST(RadixSort, StabilityPreservesEqualKeyOrder) {
  // Many duplicate keys; payload of equal keys must stay in input order.
  Rng rng(13);
  std::vector<std::uint32_t> keys(50000);
  for (auto& k : keys) {
    k = static_cast<std::uint32_t>(rng.below(16));
  }
  std::vector<std::uint32_t> values(keys.size());
  std::iota(values.begin(), values.end(), 0u);
  const std::vector<std::uint32_t> original = keys;

  // Four chunks: equal keys from different chunks must keep input order.
  radix_sort_pairs(keys, values, 4);

  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] == keys[i - 1]) {
      EXPECT_LT(values[i - 1], values[i]) << "instability at " << i;
    }
  }
  (void)original;
}

TEST(RadixSort, MatchesStdSortAcrossThreadCounts) {
  Rng rng(14);
  std::vector<std::uint32_t> base(30000);
  for (auto& k : base) k = static_cast<std::uint32_t>(rng.next_u64());
  std::vector<std::uint32_t> expected = base;
  std::sort(expected.begin(), expected.end());

  for (const int threads : {1, 2, 7, 24}) {
    std::vector<std::uint32_t> keys = base;
    std::vector<std::uint32_t> values(keys.size());
    std::iota(values.begin(), values.end(), 0u);
    radix_sort_pairs(keys, values, threads);
    EXPECT_EQ(keys, expected) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rtd::rt
