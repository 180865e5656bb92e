// rtd::Membership — the member lists behind ClusterResult::members_of() and
// ClusterResult::noise(), kept so that a label repair edits them in place.
//
// Every group (each cluster id, and noise) keeps its slots in one
// contiguous list, and a slot -> position index locates any slot in its
// list.  That makes each edit a label repair needs cost what it touches:
//   * move(slot, from, to)  — swap-remove from `from`, push onto `to`: O(1);
//   * swap_groups(a, b)     — renumber by exchanging two lists: O(1), no
//                             member is visited;
//   * merge(from, to)       — append one list onto another: O(|from|).
// Order within a group is therefore unspecified: it follows the edit
// history, not the slot order.
//
// The labels stay the caller's.  An edit is told the slot's current group
// instead of reading a second slot -> group map, so the caller keeps labels
// and lists in step (Clusterer::validate checks that they are).  Groups at
// or above cluster_count() are scratch space: a repair may build lists
// there and swap them into place, and they must be empty again by the time
// set_cluster_count() publishes the new count.  members_of() never shows
// them.
//
// A regular value type: a copy shares nothing with its source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dbscan/core.hpp"

namespace rtd {

class Membership {
 public:
  /// The group id of noise in every edit (the noise label).
  static constexpr std::int32_t kNoiseGroup = dbscan::kNoiseLabel;

  /// Rebuild from scratch: slot i joins the group labels[i] (a cluster id
  /// below `cluster_count`, or kNoiseGroup).  O(n + groups); reuses the
  /// list capacities of earlier calls, so a warm rebuild allocates nothing.
  void assign(std::span<const std::int32_t> labels,
              std::uint32_t cluster_count);

  [[nodiscard]] std::uint32_t cluster_count() const { return cluster_count_; }
  /// Slots covered: every slot below it sits in exactly one group.
  [[nodiscard]] std::size_t slot_count() const { return pos_.size(); }

  /// Members of cluster `id`, in unspecified order; empty out of range.
  [[nodiscard]] std::span<const std::uint32_t> members_of(
      std::int32_t id) const {
    if (id < 0 || static_cast<std::uint32_t>(id) >= cluster_count_) return {};
    return lists_[static_cast<std::size_t>(id) + 1];
  }

  /// The noise slots, in unspecified order.
  [[nodiscard]] std::span<const std::uint32_t> noise() const {
    if (lists_.empty()) return {};
    return lists_.front();
  }

  /// Add the slots [slot_count(), slots) to noise.
  void grow(std::size_t slots);

  /// Move `slot` from group `from` (where it must be) to group `to`.  O(1).
  /// Strong: a throw leaves every list as it was.
  void move(std::uint32_t slot, std::int32_t from, std::int32_t to);

  /// Append every member of `from` to `to`, leaving `from` empty.
  void merge(std::int32_t from, std::int32_t to);

  /// Exchange the member lists of groups `a` and `b`.  O(1).
  void swap_groups(std::int32_t a, std::int32_t b);

  /// Publish `count` clusters.  Every group from `count` up must be empty.
  void set_cluster_count(std::uint32_t count);

 private:
  /// The list of `group`, growing the table to hold it.
  std::vector<std::uint32_t>& list(std::int32_t group);

  /// [0] is noise, [c + 1] is cluster c.  Never shrinks, so the lists of a
  /// smaller clustering keep their capacity for the next larger one.
  std::vector<std::vector<std::uint32_t>> lists_;
  std::vector<std::uint32_t> pos_;  ///< slot -> its index in its list
  std::vector<std::uint32_t> sizes_;  ///< assign() scratch: group sizes
  std::uint32_t cluster_count_ = 0;
};

}  // namespace rtd
