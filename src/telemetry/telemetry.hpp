#pragma once

// Process-wide observability for the serving stack: a metrics registry of
// named counters, gauges and fixed-bucket latency histograms, plus RAII
// trace spans drainable as Chrome trace-event JSON (chrome://tracing /
// ui.perfetto.dev).
//
// The spans are the named stages of common/stage.hpp (RTD_STAGE), and the
// arm modes are bits of the same process-wide word:
//
//   * Always compiled in.  Disarmed, every metric update and every stage
//     costs one inline relaxed load of the stage word.
//   * Activation is programmatic (rtd::telemetry::arm / arm_spec) or via the
//     environment variable RTDBSCAN_TELEMETRY, read once with
//     RTDBSCAN_FAILPOINTS at the first stage check of the process:
//
//       RTDBSCAN_TELEMETRY="metrics;trace;ring:8192"
//
//     where the tokens are `metrics` (arm the metric updates), `trace`
//     (arm the spans), `on`/`all`/`1` (both), and `ring:N` (per-thread
//     span ring capacity in events, default 8192; N is a whole token of
//     decimal digits).
//   * Armed warm paths never allocate: metrics are fixed arrays of atomics,
//     and each thread's span ring is preallocated the first time that
//     thread records a span (the one cold allocation per thread).
//
// RunStats is populated from the same steady_clock these spans and
// histograms read (common/timer.hpp), so per-run timings and the telemetry
// timeline can be correlated sample for sample.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/stage.hpp"

namespace rtd::telemetry {

/// Arm-mode bitmask: metric updates and trace spans arm independently.
using stage::kMetrics;
using stage::kTrace;

// Monotonic event counters.  Enumerator order matches the sorted name list
// in telemetry.cpp (keep both in sync; test_telemetry.cpp checks).
enum class Counter : std::uint16_t {
  kEngineFusedLaunches,        // engine.fused.launches
  kEnginePhase1Launches,       // engine.phase1.launches
  kEnginePhase1InsertLaunches, // engine.phase1_insert.launches
  kEnginePhase1RemoveLaunches, // engine.phase1_remove.launches
  kEnginePhase2Launches,       // engine.phase2.launches
  kFailpointFires,             // failpoint.fires
  kIndexBuilds,                // index.builds
  kIndexClones,                // index.clones
  kIndexInsertsAbsorbed,       // index.inserts.absorbed
  kIndexInsertsDeclined,       // index.inserts.declined
  kIndexRebuildFallbacks,      // index.rebuild_fallbacks
  kIndexRefits,                // index.refits
  kIndexRefitsDeclined,        // index.refits.declined
  kIndexRemovesAbsorbed,       // index.removes.absorbed
  kIndexRemovesDeclined,       // index.removes.declined
  kSessionAdvances,            // session.advances
  kSessionDegradedEntered,     // session.degraded.entered
  kSessionHealed,              // session.healed
  kSessionInserts,             // session.inserts
  kSessionPointsInserted,      // session.points_inserted
  kSessionPointsRemoved,       // session.points_removed
  kSessionRemoves,             // session.removes
  kSessionRuns,                // session.runs
  kSessionSweepEntries,        // session.sweep_entries
  kSessionSweeps,              // session.sweeps
  kSnapshotPublishes,          // snapshot.publishes
  kSnapshotQueryBatches,       // snapshot.query_batches
  kSnapshotReads,              // snapshot.reads
  kTraceDroppedEvents,         // trace.dropped_events
  kCount,
};

// Last-value gauges (signed: deltas may be applied out of order).
enum class Gauge : std::uint16_t {
  kSessionHealthDegraded,   // session.health.degraded (0 healthy, 1 degraded)
  kSessionLivePoints,       // session.live_points
  kSessionPendingMutations, // session.pending_mutations
  kCount,
};

// Fixed-bucket latency histograms.
enum class Histogram : std::uint16_t {
  kMutationLatency,     // mutation.latency
  kQueryBatchLatency,   // query_batch.latency
  kRunLatency,          // run.latency
  kSnapshotReadLatency, // snapshot.read.latency
  kSweepLatency,        // sweep.latency
  kCount,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(Histogram::kCount);

/// Canonical metric names ("engine.phase1.launches", ...), stable across
/// builds; never nullptr for in-range values.
const char* name(Counter c) noexcept;
const char* name(Gauge g) noexcept;
const char* name(Histogram h) noexcept;

// Histogram geometry: bucket b counts observations with duration
// <= 2^b microseconds; the last bucket is the +inf overflow.  25 powers of
// two span ~1us .. ~16.8s, which covers a snapshot read through a 1M-point
// full re-cluster.
inline constexpr std::size_t kHistogramBuckets = 26;

/// Upper bound of `bucket` in seconds (+inf for the overflow bucket).
double histogram_bucket_bound_seconds(std::size_t bucket) noexcept;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum_seconds = 0.0;
  double min_seconds = 0.0;  // 0 when count == 0
  double max_seconds = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Upper-bound estimate of the q-quantile (q in [0, 1]) from the bucket
  /// counts; 0 when empty.  The overflow bucket reports max_seconds.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// One coherent read of every metric (each value is a relaxed load; the
/// snapshot is not atomic across metrics, which is fine for monitoring).
struct MetricsSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::int64_t, kNumGauges> gauges{};
  std::array<HistogramSnapshot, kNumHistograms> histograms{};

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::int64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const HistogramSnapshot& histogram(Histogram h) const noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }
};

/// Arm the facility (OR of kMetrics / kTrace).  Throws
/// std::invalid_argument when `modes` names no known mode.
void arm(unsigned modes = kMetrics | kTrace);

/// Parse and apply an activation spec ("metrics;trace;ring:4096") — the
/// same grammar the RTDBSCAN_TELEMETRY environment variable uses.  Throws
/// std::invalid_argument on unknown tokens and malformed numbers.
void arm_spec(std::string_view spec);

/// Disarm metrics and spans.  Metric values and undrained spans are kept
/// (reset() clears them).
void disarm_all() noexcept;

[[nodiscard]] inline bool metrics_armed() noexcept {
  return (stage::armed() & kMetrics) != 0;
}
[[nodiscard]] inline bool trace_armed() noexcept {
  return (stage::armed() & kTrace) != 0;
}

/// Read every metric (zeros when never armed).
MetricsSnapshot snapshot();

/// The full registry as a JSON object: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum_s, min_s, max_s, p50_s, p99_s}}}.
std::string to_json();

/// Zero every metric and drop undrained span events (test/bench helper).
void reset() noexcept;

/// Drain every thread's span ring into one Chrome trace-event JSON document
/// ({"traceEvents": [...]}, "X" complete events, ts/dur in microseconds).
/// Draining consumes the events.  Returns the empty document when nothing
/// was recorded.
std::string trace_json();

/// write_trace(path): trace_json() into a file.  Throws std::runtime_error
/// when the file cannot be written.
void write_trace(const std::string& path);

namespace detail {
// Out-of-line halves of the armed update API.
void add(Counter c, std::uint64_t delta) noexcept;
void set(Gauge g, std::int64_t value) noexcept;
void record(Histogram h, double seconds) noexcept;
// Parse and apply a spec without passing the env gate (the gate's own
// parse).
void apply_spec(std::string_view spec);
// Nanoseconds since the process-local steady_clock epoch.
[[nodiscard]] std::uint64_t now_ns() noexcept;
// Record a finished span into the calling thread's ring.
void span_end(const char* site, std::uint64_t begin_ns) noexcept;
}  // namespace detail

/// Hot-path update API: one inline relaxed load when disarmed, relaxed
/// atomic read-modify-writes when armed.  Never allocates, never throws.
inline void count(Counter c, std::uint64_t delta = 1) noexcept {
  if (metrics_armed()) detail::add(c, delta);
}
inline void gauge_set(Gauge g, std::int64_t value) noexcept {
  if (metrics_armed()) detail::set(g, value);
}
inline void observe(Histogram h, double seconds) noexcept {
  if (metrics_armed()) detail::record(h, seconds);
}

/// RAII latency sampler for read paths that have no Timer of their own:
/// reads the clock only when metrics are armed, observes on destruction.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram h) noexcept
      : hist_(h),
        active_(metrics_armed()),
        begin_ns_(active_ ? detail::now_ns() : 0) {}
  ~LatencyTimer() {
    if (active_) {
      observe(hist_, static_cast<double>(detail::now_ns() - begin_ns_) * 1e-9);
    }
  }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  Histogram hist_;
  bool active_;
  std::uint64_t begin_ns_;
};

}  // namespace rtd::telemetry
