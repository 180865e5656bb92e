#include "core/membership.hpp"

#include <algorithm>
#include <cassert>

namespace rtd {

namespace {

[[nodiscard]] std::size_t list_index(std::int32_t group) {
  return static_cast<std::size_t>(group - Membership::kNoiseGroup);
}

}  // namespace

void Membership::assign(std::span<const std::int32_t> labels,
                        std::uint32_t cluster_count) {
  if (lists_.size() < std::size_t{cluster_count} + 1) {
    lists_.resize(std::size_t{cluster_count} + 1);
  }
  // Size every list first, so the fill below never regrows one.
  sizes_.assign(lists_.size(), 0);
  for (const std::int32_t label : labels) ++sizes_[list_index(label)];
  for (std::size_t g = 0; g < lists_.size(); ++g) {
    lists_[g].clear();
    lists_[g].reserve(sizes_[g]);
  }
  pos_.resize(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::vector<std::uint32_t>& l = lists_[list_index(labels[i])];
    pos_[i] = static_cast<std::uint32_t>(l.size());
    l.push_back(static_cast<std::uint32_t>(i));
  }
  cluster_count_ = cluster_count;
}

void Membership::grow(std::size_t slots) {
  if (slots <= pos_.size()) return;
  std::vector<std::uint32_t>& noise_list = list(kNoiseGroup);
  for (std::size_t i = pos_.size(); i < slots; ++i) {
    pos_.push_back(static_cast<std::uint32_t>(noise_list.size()));
    noise_list.push_back(static_cast<std::uint32_t>(i));
  }
}

void Membership::move(std::uint32_t slot, std::int32_t from,
                      std::int32_t to) {
  if (from == to) return;
  // Push first: the only step that can throw runs before anything moved.
  std::vector<std::uint32_t>& dst = list(to);
  std::vector<std::uint32_t>& src = lists_[list_index(from)];
  const std::uint32_t at = pos_[slot];
  assert(at < src.size() && src[at] == slot);
  dst.push_back(slot);
  const std::uint32_t last = src.back();
  src[at] = last;
  pos_[last] = at;
  src.pop_back();
  pos_[slot] = static_cast<std::uint32_t>(dst.size() - 1);
}

void Membership::merge(std::int32_t from, std::int32_t to) {
  if (from == to) return;
  std::vector<std::uint32_t>& dst = list(to);
  std::vector<std::uint32_t>& src = lists_[list_index(from)];
  const std::size_t base = dst.size();
  dst.insert(dst.end(), src.begin(), src.end());
  for (std::size_t k = base; k < dst.size(); ++k) {
    pos_[dst[k]] = static_cast<std::uint32_t>(k);
  }
  src.clear();
}

void Membership::swap_groups(std::int32_t a, std::int32_t b) {
  if (a == b) return;
  (void)list(std::max(a, b));  // grow the table before taking references
  lists_[list_index(a)].swap(lists_[list_index(b)]);
}

void Membership::set_cluster_count(std::uint32_t count) {
  (void)list(static_cast<std::int32_t>(count) - 1);
  assert(std::all_of(lists_.begin() + std::ptrdiff_t{count} + 1, lists_.end(),
                     [](const std::vector<std::uint32_t>& l) {
                       return l.empty();
                     }));
  cluster_count_ = count;
}

std::vector<std::uint32_t>& Membership::list(std::int32_t group) {
  const std::size_t i = list_index(group);
  if (i >= lists_.size()) lists_.resize(i + 1);
  return lists_[i];
}

}  // namespace rtd
