// Shared harness utilities for the paper-reproduction benchmarks.
//
// Every bench binary:
//  * runs with no arguments at a CI-friendly default scale,
//  * accepts --scale F to multiply dataset sizes toward paper scale,
//  * accepts --reps N (default 3) and reports the median run,
//  * prints the same rows/series as the corresponding paper table/figure,
//  * cross-checks that compared implementations produce equivalent
//    clusterings (a benchmark of wrong results is worthless).
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/core.hpp"
#include "dbscan/dclustplus.hpp"
#include "dbscan/equivalence.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan/gdbscan.hpp"
#include "rt/cost_model.hpp"

namespace rtd::bench {

// ---------------------------------------------------------------------------
// Modeled device time (see rt/cost_model.hpp).  The simulator measures the
// WORK the paper's hardware would execute; the model converts it into RTX-
// class device time so benches can report the paper's comparison shape next
// to measured simulator wall-clock.
// ---------------------------------------------------------------------------

/// Modeled device time of a full RT-DBSCAN run (hardware GAS build + two
/// RT-core query phases).
inline double modeled_rt_seconds(const core::RtDbscanResult& r,
                                 std::size_t prim_count,
                                 const rt::CostModel& model = {}) {
  return model.hw_build_seconds(prim_count) +
         model.rt_phase_seconds(r.phase1.work) +
         model.rt_phase_seconds(r.phase2.work);
}

/// Modeled device time of a full FDBSCAN run (software point-BVH build +
/// two shader-core query phases).
inline double modeled_fd_seconds(const dbscan::FdbscanResult& r,
                                 std::size_t n,
                                 const rt::CostModel& model = {}) {
  return model.sw_build_seconds(n) +
         model.sw_phase_seconds(r.phase1_work) +
         model.sw_phase_seconds(r.phase2_work);
}

/// Modeled device time of a G-DBSCAN run: two brute-force all-pairs kernel
/// passes, memory-bound adjacency assembly, and one kernel per BFS level.
inline double modeled_gdbscan_seconds(const dbscan::GdbscanResult& r,
                                      const rt::CostModel& model = {}) {
  const double ns =
      static_cast<double>(r.distance_tests) * model.brute_pair_ns +
      static_cast<double>(r.edge_count) * model.edge_write_ns +
      static_cast<double>(r.bfs_levels) * model.bfs_level_overhead_ns;
  return ns * 1e-9;
}

/// Modeled device time of a CUDA-DClust+ run: GPU grid-index build, chain
/// expansion with its serialization penalty, and per-round kernel launches.
inline double modeled_dclust_seconds(const dbscan::DclustPlusResult& r,
                                     std::size_t n,
                                     const rt::CostModel& model = {}) {
  const double ns =
      static_cast<double>(n) * model.grid_build_ns +
      static_cast<double>(r.distance_tests) * model.chain_candidate_ns +
      static_cast<double>(r.round_count) * model.chain_round_overhead_ns;
  return ns * 1e-9;
}

/// Median wall time of `reps` runs of fn (each run's result discarded).
template <typename F>
double time_median(int reps, F&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    times.push_back(t.seconds());
  }
  return median(std::move(times));
}

/// One timed clustering measurement: median time plus the clustering of the
/// final run (for equivalence checks).
struct Measurement {
  double seconds = 0.0;
  dbscan::Clustering clustering;
};

template <typename F>
Measurement measure(int reps, F&& run_clustering) {
  Measurement m;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    m.clustering = run_clustering();
    times.push_back(t.seconds());
  }
  m.seconds = median(std::move(times));
  return m;
}

/// Verify two implementations agreed; prints a warning line on mismatch and
/// returns false (benches keep running so a full report is still produced).
inline bool verify(std::span<const geom::Vec3> points,
                   const dbscan::Params& params,
                   const dbscan::Clustering& a, const dbscan::Clustering& b,
                   const char* who) {
  const auto eq = dbscan::check_equivalent(points, params, a, b);
  if (!eq.equivalent) {
    std::fprintf(stderr, "  [VERIFY FAIL] %s: %s\n", who, eq.reason.c_str());
  }
  return eq.equivalent;
}

/// A bench's machine-readable output: CSV result tables (--csv) or one JSON
/// document (--json).  Each bench declares only the flag it honours.
enum class Output { kCsv, kJson };

/// Standard bench preamble: scale/reps flags + header line.
struct BenchConfig {
  double scale = 1.0;
  int reps = 3;
  bool csv = false;   ///< --csv given (Output::kCsv benches)
  bool json = false;  ///< --json given (Output::kJson benches)

  static BenchConfig from_flags(const Flags& flags) {
    BenchConfig c;
    c.scale = flags.get_double("scale", 1.0);
    c.reps = static_cast<int>(flags.get_int("reps", 3));
    c.csv = flags.declared("csv") && flags.get_bool("csv", false);
    c.json = flags.declared("json") && flags.get_bool("json", false);
    return c;
  }

  [[nodiscard]] std::size_t scaled(std::size_t n) const {
    return static_cast<std::size_t>(static_cast<double>(n) * scale);
  }
};

/// Parse a bench binary's flags: `extra` plus the BenchConfig flags every
/// bench accepts and the one `output` flag.  `--help` lists them; any other
/// flag exits with an error before the bench does any work
/// (Flags::parse_or_exit).
inline Flags parse_flags(int argc, char** argv,
                         std::vector<FlagSpec> extra = {},
                         Output output = Output::kCsv) {
  extra.push_back({"scale", "multiply the dataset sizes [1.0]"});
  extra.push_back({"reps", "repetitions; the median is reported [3]"});
  if (output == Output::kCsv) {
    extra.push_back({"csv", "print result tables as CSV"});
  } else {
    extra.push_back({"json", "print one JSON object instead of tables"});
  }
  return Flags::parse_or_exit(argc, argv, std::move(extra));
}

inline void print_header(const char* title, const char* paper_ref,
                         const BenchConfig& cfg) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s | scale=%.2f reps=%d\n", paper_ref, cfg.scale,
              cfg.reps);
  std::printf(
      "note: CPU RT-core simulator; compare shapes/ratios, not absolute "
      "times (see docs/BENCHMARKS.md)\n\n");
}

}  // namespace rtd::bench
