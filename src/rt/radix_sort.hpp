// Parallel LSD radix sort for 32-bit keys with attached 32-bit values.
//
// GPU BVH builders sort Morton codes with exactly this kind of radix sort;
// it is the dominant cost of a hardware-style LBVH build, so we reproduce it
// as a real parallel sort rather than calling std::sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"

namespace rtd::rt {

/// Sort `keys` ascending, applying the same permutation to `values`.
/// Stable; three passes of 11/11/10 bits; parallel histogram + scatter on
/// `threads` workers (common/parallel.hpp: 0 = hardware_concurrency(), 1
/// runs inline).  The input splits into one contiguous chunk per thread, so the
/// result is the same at every thread count.
inline void radix_sort_pairs(std::vector<std::uint32_t>& keys,
                             std::vector<std::uint32_t>& values,
                             int threads) {
  const std::size_t n = keys.size();
  if (n < 2) return;

  const int t = resolve_threads(threads);
  const auto chunks = static_cast<std::size_t>(t);
  // Chunk c covers [c·n/chunks, (c+1)·n/chunks).  Both passes of a digit
  // see the same chunks whichever worker runs each one.
  const auto for_each_chunk = [&](auto&& body) {
    parallel_for(chunks, t, [&](std::size_t c) {
      body(c, c * n / chunks, (c + 1) * n / chunks);
    });
  };

  std::vector<std::uint32_t> keys_tmp(n);
  std::vector<std::uint32_t> values_tmp(n);

  constexpr int kPassBits[3] = {11, 11, 10};
  int shift = 0;

  auto* src_k = &keys;
  auto* src_v = &values;
  auto* dst_k = &keys_tmp;
  auto* dst_v = &values_tmp;

  for (int pass = 0; pass < 3; ++pass) {
    const int bits = kPassBits[pass];
    const std::uint32_t radix = 1u << bits;
    const std::uint32_t mask = radix - 1;

    // Per-chunk digit histograms, laid out [chunk][digit].
    std::vector<std::uint64_t> hist(chunks * radix, 0);

    for_each_chunk([&](std::size_t c, std::size_t lo, std::size_t hi) {
      std::uint64_t* my_hist = hist.data() + c * radix;
      for (std::size_t i = lo; i < hi; ++i) {
        ++my_hist[((*src_k)[i] >> shift) & mask];
      }
    });

    // Exclusive scan over digits, interleaving chunks to preserve
    // stability: for digit d, chunk 0's elements scatter before chunk 1's.
    std::uint64_t running = 0;
    for (std::uint32_t d = 0; d < radix; ++d) {
      for (std::size_t c = 0; c < chunks; ++c) {
        std::uint64_t& h = hist[c * radix + d];
        const std::uint64_t count = h;
        h = running;
        running += count;
      }
    }

    for_each_chunk([&](std::size_t c, std::size_t lo, std::size_t hi) {
      std::uint64_t* my_hist = hist.data() + c * radix;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t key = (*src_k)[i];
        const std::uint64_t pos = my_hist[(key >> shift) & mask]++;
        (*dst_k)[pos] = key;
        (*dst_v)[pos] = (*src_v)[i];
      }
    });

    std::swap(src_k, dst_k);
    std::swap(src_v, dst_v);
    shift += bits;
  }

  // Three passes: results land back in an alternating buffer; after an odd
  // number of swaps the data is in the temporaries.
  if (src_k != &keys) {
    keys.swap(keys_tmp);
    values.swap(values_tmp);
  }
}

}  // namespace rtd::rt
