#pragma once

// Seeded violation: a loop that opens its own OpenMP region instead of
// launching on the worker pool.
inline void grow_chains(int* owner, int n, int threads) {
#pragma omp parallel for num_threads(threads)
  for (int i = 0; i < n; ++i) owner[i] = i;
}
