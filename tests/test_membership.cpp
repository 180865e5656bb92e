// rtd::Membership on its own: every edit a label repair makes (assign,
// grow, move, merge, swap_groups, set_cluster_count) must leave each group
// equal, as a set, to the slots whose label names it.  The oracle is a
// labels array the test edits alongside and regroups from scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/membership.hpp"

namespace rtd {
namespace {

constexpr std::int32_t kNoise = Membership::kNoiseGroup;

std::vector<std::uint32_t> sorted(std::span<const std::uint32_t> group) {
  std::vector<std::uint32_t> out(group.begin(), group.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Every group of `m` equals the slots labeled with it, and the groups
/// cover every slot once.
void expect_matches(const Membership& m, const std::vector<std::int32_t>& labels,
                    std::uint32_t cluster_count, const char* what) {
  ASSERT_EQ(m.cluster_count(), cluster_count) << what;
  ASSERT_EQ(m.slot_count(), labels.size()) << what;
  std::size_t covered = 0;
  for (std::int32_t g = kNoise; g < static_cast<std::int32_t>(cluster_count);
       ++g) {
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == g) want.push_back(i);
    }
    const auto group = g == kNoise ? m.noise() : m.members_of(g);
    EXPECT_EQ(sorted(group), want) << what << ": group " << g;
    covered += group.size();
  }
  EXPECT_EQ(covered, labels.size()) << what;
  EXPECT_TRUE(m.members_of(-2).empty()) << what;
  EXPECT_TRUE(m.members_of(static_cast<std::int32_t>(cluster_count)).empty())
      << what;
}

TEST(Membership, AssignGroupsEverySlotByItsLabel) {
  const std::vector<std::int32_t> labels = {1, kNoise, 0, 1, 2, 0, kNoise, 2};
  Membership m;
  m.assign(labels, 3);
  expect_matches(m, labels, 3, "assign");

  // A second assign replaces everything, fewer clusters included.
  const std::vector<std::int32_t> fewer = {0, 0, kNoise, 0};
  m.assign(fewer, 1);
  expect_matches(m, fewer, 1, "reassign");

  m.assign({}, 0);
  expect_matches(m, {}, 0, "empty");
}

TEST(Membership, AssignListsEachGroupInSlotOrder) {
  // A fresh assign fills each group in ascending slot order, also after
  // an earlier assign left larger lists behind.
  Rng rng(17);
  Membership m;
  for (const std::uint32_t clusters : {40u, 3u, 25u}) {
    std::vector<std::int32_t> labels(5000);
    for (auto& l : labels) {
      l = static_cast<std::int32_t>(rng.below(clusters + 1)) - 1;
    }
    m.assign(labels, clusters);
    expect_matches(m, labels, clusters, "assign");
    for (std::int32_t g = kNoise; g < static_cast<std::int32_t>(clusters);
         ++g) {
      const auto group = g == kNoise ? m.noise() : m.members_of(g);
      EXPECT_TRUE(std::is_sorted(group.begin(), group.end())) << "group " << g;
    }
  }
}

TEST(Membership, SwapRemoveFixesThePositionOfTheMovedSlot) {
  // Slot 0 leaves from the front of cluster 0's list, so the last member
  // (slot 3) takes its place; a later move of slot 3 must find it there.
  std::vector<std::int32_t> labels = {0, 0, 0, 0};
  Membership m;
  m.assign(labels, 2);
  m.move(0, 0, 1);
  labels[0] = 1;
  expect_matches(m, labels, 2, "first move");
  m.move(3, 0, kNoise);
  labels[3] = kNoise;
  expect_matches(m, labels, 2, "moved-last slot moves again");
  m.move(1, 0, 1);
  labels[1] = 1;
  m.move(0, 1, 0);
  labels[0] = 0;
  expect_matches(m, labels, 2, "back and forth");
  m.move(2, 0, 0);  // a move within one group is a no-op
  expect_matches(m, labels, 2, "no-op");
}

TEST(Membership, RandomMovesKeepEveryGroupEqualToItsLabels) {
  Rng rng(17);
  constexpr std::uint32_t kClusters = 6;
  std::vector<std::int32_t> labels(300);
  for (auto& l : labels) {
    l = static_cast<std::int32_t>(rng.below(kClusters + 1)) - 1;
  }
  Membership m;
  m.assign(labels, kClusters);
  for (int step = 0; step < 2000; ++step) {
    const auto slot = static_cast<std::uint32_t>(rng.below(labels.size()));
    const auto to = static_cast<std::int32_t>(rng.below(kClusters + 1)) - 1;
    m.move(slot, labels[slot], to);
    labels[slot] = to;
  }
  expect_matches(m, labels, kClusters, "after random moves");
}

TEST(Membership, GrowAddsNewSlotsToNoise) {
  std::vector<std::int32_t> labels = {0, 0, kNoise};
  Membership m;
  m.assign(labels, 1);
  m.grow(6);
  labels.resize(6, kNoise);
  expect_matches(m, labels, 1, "grown");
  m.move(4, kNoise, 0);
  labels[4] = 0;
  expect_matches(m, labels, 1, "grown slot moved");
  m.grow(3);  // never shrinks
  expect_matches(m, labels, 1, "smaller grow");
}

TEST(Membership, RenumberingIntoAHoleIsAListSwap) {
  // Cluster 1 empties out; cluster 3 moves down into its id.
  std::vector<std::int32_t> labels = {0, 1, 2, 3, 3, 1, 2, 3};
  Membership m;
  m.assign(labels, 4);
  m.move(1, 1, kNoise);
  m.move(5, 1, 0);
  labels[1] = kNoise;
  labels[5] = 0;
  m.swap_groups(1, 3);
  for (auto& l : labels) {
    if (l == 3) l = 1;
  }
  m.set_cluster_count(3);
  expect_matches(m, labels, 3, "renumbered");

  // A new cluster built in a scratch group past the count, then swapped
  // into place once it is published.
  m.move(0, 0, 7);
  m.move(2, 2, 7);
  m.swap_groups(3, 7);
  m.set_cluster_count(4);
  labels[0] = 3;
  labels[2] = 3;
  expect_matches(m, labels, 4, "scratch group published");
  m.move(2, 3, 1);
  labels[2] = 1;
  expect_matches(m, labels, 4, "edit after swaps");
}

TEST(Membership, MergeAppendsOneGroupAndFixesPositions) {
  std::vector<std::int32_t> labels = {0, 1, 1, 0, 1, 2, 2};
  Membership m;
  m.assign(labels, 3);
  m.merge(1, 0);
  for (auto& l : labels) {
    if (l == 1) l = 0;
  }
  // Cluster 2 moves down into the freed id 1.
  m.swap_groups(1, 2);
  for (auto& l : labels) {
    if (l == 2) l = 1;
  }
  m.set_cluster_count(2);
  expect_matches(m, labels, 2, "merged");
  // Moves of merged slots find them at their new positions.
  for (const std::uint32_t slot : {2u, 4u, 1u}) {
    m.move(slot, 0, kNoise);
    labels[slot] = kNoise;
  }
  expect_matches(m, labels, 2, "merged slots moved again");
}

TEST(Membership, CopiesAreIndependent) {
  std::vector<std::int32_t> labels = {0, 0, 1, kNoise, 1};
  Membership original;
  original.assign(labels, 2);
  Membership copy = original;
  copy.move(0, 0, 1);
  copy.grow(7);
  expect_matches(original, labels, 2, "original after editing the copy");

  std::vector<std::int32_t> copy_labels = labels;
  copy_labels[0] = 1;
  copy_labels.resize(7, kNoise);
  expect_matches(copy, copy_labels, 2, "copy");

  original.move(3, kNoise, 0);
  expect_matches(copy, copy_labels, 2, "copy after editing the original");
}

}  // namespace
}  // namespace rtd
