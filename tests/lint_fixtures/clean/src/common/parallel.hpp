// The thread-count layer may name OpenMP's setting and open regions
// (lint rule ambient-threads allows this file).
#pragma once

#include <omp.h>

inline int hardware_threads() { return omp_get_max_threads(); }

inline void fill(int* out, int n, int threads) {
#pragma omp parallel for num_threads(threads)
  for (int i = 0; i < n; ++i) out[i] = i;
}
