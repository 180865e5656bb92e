// Seeded violation: a writer op that changes the caller's thread-count
// setting around its refit instead of passing the refit its thread count.
#include "common/parallel.hpp"

namespace fixture {

void refit_under_guard(int threads) {
  const rtd::ThreadCountGuard guard(threads);
}

}  // namespace fixture
