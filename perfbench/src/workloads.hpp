// The benchmark's workloads and layer probes, all driven through the
// library's public API (rtd::Clusterer, rtd::IndexSnapshot,
// index::make_index, dbscan::index_phase1/index_phase2, rt::build_bvh,
// rt::collapse_bvh).
//
//   batch  — cold session + run(), then sweep() over a 4-value ε ladder;
//   stream — sliding-window advance() at B = 1, then at B = 64;
//   serve  — a closed-loop reader (snapshot() + query) beside an
//            open-loop writer calling advance(64, 64).
//
// Every loop returns raw per-operation samples, each timed both by the wall
// clock and by the calling thread's CPU clock; main.cpp turns them into the
// reported metrics.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/clusterer.hpp"
#include "harness.hpp"

namespace perfbench {

/// One workload's inputs and session layout.
struct Config {
  std::string name;
  bool ionosphere = false;  ///< data::ionosphere3d, else data::taxi_gps
  std::size_t n = 0;        ///< session window (points clustered)
  std::size_t extra = 0;    ///< stream points generated past the window
  float eps = 0.0f;
  std::uint32_t min_pts = 0;
  int threads = 0;          ///< Options::threads of every session
  rtd::index::IndexKind backend = rtd::index::IndexKind::kAuto;
  std::array<float, 4> ladder{};  ///< sweep ladder, ends at eps
  double write_period_s = 0.25;   ///< serve: open-loop writer schedule
  int setups = 3;                 ///< setup repetitions (median reported)
  int probe_reps = 3;             ///< traced decomposition repetitions
};

/// The named workload at full size, or tiny for the smoke mode.  Throws
/// std::invalid_argument on an unknown name.
Config make_config(const std::string& workload, bool smoke);

/// Inputs derived from the seed: the generator's points (window + stream
/// tail).  The library only ever sees these points.
std::vector<rtd::geom::Vec3> generate(const Config& cfg, std::uint64_t seed);

rtd::Options session_options(const Config& cfg, int threads);

/// Shared state of one benchmark process.
struct Bench {
  const Config& cfg;
  std::span<const rtd::geom::Vec3> all;  ///< window [0, n) + stream tail
  Tracer& tracer;
  Outcomes& outcomes;

  [[nodiscard]] std::span<const rtd::geom::Vec3> window() const {
    return all.subspan(0, cfg.n);
  }
};

/// A fresh session over the window plus its warm-up run().
rtd::Clusterer warm_session(const Bench& b, int threads);

// --- batch ----------------------------------------------------------------

struct BatchSample {
  double ms = 0.0;               ///< cold construction + run()
  double cpu_ms = 0.0;           ///< the same, CPU time
  double sweep_ms = 0.0;         ///< sweep() over the ladder
  double sweep_cpu_ms = 0.0;     ///< the same, CPU time
  double bucket_ms = 0.0;        ///< sweep entry 0's shared counting pass
  double sweep_phase2_ms = 0.0;  ///< sweep phase 2 summed over entries
  bool traced = false;           ///< spans were on
};

/// `iterations` times: cold run(), then sweep().  With `alternate`, spans
/// are on for every other iteration only.
std::vector<BatchSample> batch_loop(const Bench& b, int iterations,
                                    bool alternate);

// --- stream ---------------------------------------------------------------

struct AdvanceSample {
  double ms = 0.0;
  double cpu_ms = 0.0;
  double count_ms = 0.0;   ///< RunStats core_phase_seconds
  double repair_ms = 0.0;  ///< total - count - index_build_seconds
  bool rebuilt = false;
  bool traced = false;
};

struct StreamSamples {
  std::vector<AdvanceSample> b1;
  std::vector<AdvanceSample> b64;
};

/// Sliding-window advance() in `blocks` blocks, each on a session built
/// fresh (untimed) over the window ending at `cursor`: 60 calls at B = 1
/// and 20 at B = 64, interleaved, consuming stream points from `cursor`.
/// Validates after each block and checks the final clustering against a
/// fresh session over the live points.
StreamSamples stream_loop(const Bench& b, std::size_t& cursor, int blocks,
                          bool alternate);

// --- serve ----------------------------------------------------------------

/// Reads per CPU-timed group; the request set is a whole number of groups.
inline constexpr std::size_t kReadGroup = 64;

struct ReadSample {
  std::uint32_t ns = 0;
  std::uint32_t hits = 0;
};

struct ServeSamples {
  std::vector<ReadSample> quiet_reads;  ///< sampled, quiescent window
  std::uint64_t quiet_count = 0;        ///< reads done, all readers
  double quiet_seconds = 0.0;
  std::vector<ReadSample> mixed_reads;  ///< sampled, writer running
  std::uint64_t mixed_count = 0;
  double mixed_seconds = 0.0;
  /// Writer running: CPU time per read, one value per group of kReadGroup
  /// consecutive requests (a read is too short to time by the CPU clock).
  std::vector<double> mixed_read_cpu_us;

  std::vector<double> write_ms;    ///< advance(64, 64) from its due time
  std::vector<double> write_cpu_ms;  ///< the same call, CPU time
  std::vector<double> lag_ms;      ///< how late each write started
  std::vector<double> publish_us;  ///< first snapshot() after each write
  std::size_t rebuilds = 0;
  double snapshot_acquire_ns = 0.0;
};

/// Readers over the session's snapshot: a quiescent window of
/// `quiet_seconds` (skipped at 0), then `mixed_seconds` beside the
/// open-loop writer.  Checks a fixed sample of reads against a linear scan
/// and validates the session afterwards.
ServeSamples serve_loop(const Bench& b, rtd::Clusterer& session,
                        std::size_t& cursor, double quiet_seconds,
                        double mixed_seconds);

// --- layer probes (traced runs) -------------------------------------------

struct LayerSamples {
  std::vector<double> run_1t_ms;  ///< cold run at 1 thread
  std::vector<double> run_4t_ms;  ///< cold run at 4 threads
  double nodes_per_query = 0.0;   ///< phase-1 LaunchStats
  double isect_per_query = 0.0;
};

/// The call decomposed into its layers, each wrapped in a span: rt build
/// and collapse, index build, refit per ladder step, query_all, phase 1,
/// phase 2, label finalization — plus whole cold runs at 1 and 4 threads.
LayerSamples decompose(const Bench& b);

/// One B = 64 step replayed `steps` times on a standalone index over the
/// window: phase-1 removal queries, try_remove + try_insert, phase-1
/// insertion queries, each in a span.
void replay_absorb(const Bench& b, int steps);

}  // namespace perfbench
