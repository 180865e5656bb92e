// Cross-implementation integration tests: all five parallel implementations
// must produce clusterings equivalent to the sequential reference (and hence
// to each other) across datasets and parameters.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/rt_dbscan.hpp"
#include "dbscan/dclustplus.hpp"
#include "dbscan/equivalence.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan/gdbscan.hpp"
#include "dbscan/sequential.hpp"
#include "data/generators.hpp"

namespace rtd {
namespace {

using dbscan::check_equivalent;
using dbscan::Clustering;
using dbscan::Params;

struct Case {
  data::PaperDataset dataset;
  std::size_t n;
  float eps;
  std::uint32_t min_pts;
};

// gtest prints a parameter into every registered test name; without this it
// would dump the struct's raw bytes, padding included, which differ from
// build to build.  The fields in declaration order, kept short.
void PrintTo(const Case& c, std::ostream* os) {
  *os << data::to_string(c.dataset) << '/' << c.n << '/' << c.eps << '/'
      << c.min_pts;
}

class AllImplementationsTest : public ::testing::TestWithParam<Case> {};

TEST_P(AllImplementationsTest, AllEquivalentToReference) {
  const Case c = GetParam();
  const auto dataset = data::make_paper_dataset(c.dataset, c.n, 123);
  const Params params{c.eps, c.min_pts};

  const Clustering reference =
      dbscan::sequential_dbscan(dataset.points, params);

  const auto check = [&](const Clustering& actual, const char* name) {
    const auto eq =
        check_equivalent(dataset.points, params, reference, actual);
    EXPECT_TRUE(eq.equivalent) << name << ": " << eq.reason;
    // ARI of equivalent clusterings differs from 1 only through border
    // assignment ambiguity; it must stay very high.
    EXPECT_GT(dbscan::adjusted_rand_index(reference.labels, actual.labels),
              0.99)
        << name;
  };

  check(core::rt_dbscan(dataset.points, params).clustering, "rt-dbscan");
  check(dbscan::fdbscan(dataset.points, params).clustering, "fdbscan");
  check(dbscan::fdbscan(dataset.points, params, dbscan::FdbscanOptions::with_early_exit(true))
            .clustering,
        "fdbscan-earlyexit");
  check(dbscan::gdbscan(dataset.points, params).clustering, "g-dbscan");
  check(dbscan::dclust_plus(dataset.points, params).clustering,
        "cuda-dclust+");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllImplementationsTest,
    ::testing::Values(
        Case{data::PaperDataset::k3DRoad, 2000, 0.5f, 10},
        Case{data::PaperDataset::k3DRoad, 2000, 1.5f, 40},
        Case{data::PaperDataset::kPorto, 2000, 0.25f, 8},
        Case{data::PaperDataset::kPorto, 2000, 0.6f, 25},
        Case{data::PaperDataset::kNgsim, 2000, 0.05f, 10},
        Case{data::PaperDataset::kNgsim, 2000, 0.8f, 60},
        Case{data::PaperDataset::k3DIono, 2000, 2.0f, 10},
        Case{data::PaperDataset::k3DIono, 2000, 5.0f, 50}),
    [](const auto& param_info) {
      const Case& c = param_info.param;
      std::string name = data::to_string(c.dataset);
      name += "_mp" + std::to_string(c.min_pts);
      return name;
    });

TEST(Integration, DenseRegimeZeroClusters) {
  // §V-C: NGSIM-like dense data with tiny eps and high minPts forms zero
  // clusters in every implementation.
  const auto dataset = data::vehicle_trajectories(10000, 7);
  const Params params{0.001f, 100};

  const auto rt = core::rt_dbscan(dataset.points, params);
  const auto fd = dbscan::fdbscan(dataset.points, params);
  EXPECT_EQ(rt.clustering.cluster_count, 0u);
  EXPECT_EQ(fd.clustering.cluster_count, 0u);
  EXPECT_EQ(rt.clustering.noise_count(), dataset.size());
}

TEST(Integration, EverythingOneClusterRegime) {
  // Huge eps: one cluster, everything core, in all implementations.
  const auto dataset = data::single_blob(2000, 1.0f, 8);
  const Params params{100.0f, 5};

  for (const auto* name : {"rt", "fd", "seq"}) {
    Clustering c;
    if (std::string(name) == "rt") {
      c = core::rt_dbscan(dataset.points, params).clustering;
    } else if (std::string(name) == "fd") {
      c = dbscan::fdbscan(dataset.points, params).clustering;
    } else {
      c = dbscan::sequential_dbscan(dataset.points, params);
    }
    EXPECT_EQ(c.cluster_count, 1u) << name;
    EXPECT_EQ(c.noise_count(), 0u) << name;
    EXPECT_EQ(c.core_count(), dataset.size()) << name;
  }
}

TEST(Integration, RepeatedRunsAreDeterministicInCoreStructure) {
  // Parallel execution may assign ambiguous borders differently between
  // runs, but core partition / noise / counts must be stable.
  const auto dataset = data::taxi_gps(5000, 9);
  const Params params{0.3f, 15};
  const auto first = core::rt_dbscan(dataset.points, params);
  for (int run = 0; run < 3; ++run) {
    const auto again = core::rt_dbscan(dataset.points, params);
    const auto eq = check_equivalent(dataset.points, params,
                                     first.clustering, again.clustering);
    EXPECT_TRUE(eq.equivalent) << "run " << run << ": " << eq.reason;
    EXPECT_EQ(first.clustering.cluster_count, again.clustering.cluster_count);
    EXPECT_EQ(first.clustering.noise_count(), again.clustering.noise_count());
  }
}

TEST(Integration, WorkCountersShowRtPruning) {
  // The RT pipeline's candidate set (isect calls) must be far below n per
  // query on spread-out data — the pruning that powers the paper's speedups.
  const auto dataset = data::road_network(20000, 10);
  const Params params{0.3f, 10};
  const auto r = core::rt_dbscan(dataset.points, params);
  const double candidates_per_ray = r.phase1.isect_per_ray();
  EXPECT_LT(candidates_per_ray, static_cast<double>(dataset.size()) / 50.0);
}

}  // namespace
}  // namespace rtd
