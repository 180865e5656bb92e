// Trajectory hot-spot detection on a LIVE stream: cluster taxi GPS data
// (the Porto stand-in) through a sliding window.  A session is opened over
// the first window, then advance() expires the oldest fix and absorbs the
// newest for each step — the clustering is maintained incrementally, no
// rebuild per window.  The densest clusters of each window are the current
// hotspots.
//
// Each window row also reports the step's mutation latency from the
// telemetry registry (Clusterer::metrics(), histogram mutation.latency).
//
//   ./trajectory_hotspots [--n 80000] [--eps 0.25] [--minpts 50]
//                         [--window 20000] [--step 5000] [--trace out.json]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/flags.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "telemetry/telemetry.hpp"

namespace {

struct Hotspot {
  std::int32_t id;
  std::size_t size;
  rtd::geom::Vec3 centroid;
};

// Rank the live clusters of the current result by population.
std::vector<Hotspot> hotspots(const rtd::Clusterer& session) {
  const auto& r = session.result();
  std::vector<Hotspot> spots(r.cluster_count);
  for (std::uint32_t c = 0; c < r.cluster_count; ++c) {
    spots[c] = {static_cast<std::int32_t>(c), 0, {}};
  }
  const auto points = session.points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto l = r.labels[i];  // expired slots stay noise-labeled
    if (l == rtd::dbscan::kNoiseLabel) continue;
    auto& s = spots[static_cast<std::size_t>(l)];
    ++s.size;
    s.centroid += points[i];
  }
  for (auto& s : spots) {
    if (s.size > 0) s.centroid *= 1.0f / static_cast<float>(s.size);
  }
  std::sort(spots.begin(), spots.end(),
            [](const Hotspot& a, const Hotspot& b) { return a.size > b.size; });
  return spots;
}

// This step's mutation latency in ms: the delta of the process-wide
// mutation.latency histogram sum since the previous window (`last_sum`
// carries the running total).
double window_mutation_ms(const rtd::Clusterer& session, double& last_sum) {
  const rtd::telemetry::MetricsSnapshot m = session.metrics();
  const rtd::telemetry::HistogramSnapshot& h =
      m.histogram(rtd::telemetry::Histogram::kMutationLatency);
  const double ms = (h.sum_seconds - last_sum) * 1e3;
  last_sum = h.sum_seconds;
  return ms;
}

void print_window(const char* tag, const rtd::Clusterer& session,
                  double mutation_ms) {
  const auto& r = session.result();
  const auto spots = hotspots(session);
  std::printf("  %-12s clusters: %3u  live: %6zu  mutation: %7.2f ms  ", tag,
              r.cluster_count, session.live_count(), mutation_ms);
  if (spots.empty() || spots.front().size == 0) {
    std::printf("no hotspot\n");
    return;
  }
  const Hotspot& top = spots.front();
  std::printf("top hotspot: %5zu points at (%.2f, %.2f)\n", top.size,
              static_cast<double>(top.centroid.x),
              static_cast<double>(top.centroid.y));
}

}  // namespace

int main(int argc, char** argv) {
  const rtd::Flags flags = rtd::Flags::parse_or_exit(argc, argv, {
      rtd::cli::kTraceFlag,
      {"n", "stream points [80000]"},
      {"eps", "search radius [0.25]"},
      {"minpts", "minPts [50]"},
      {"window", "window points [20000]"},
      {"step", "points per advance() [5000]"}});
  const rtd::cli::TraceSink trace(flags);  // --trace out.json
  const auto n = static_cast<std::size_t>(flags.get_int("n", 80000));
  const float eps = static_cast<float>(flags.get_double("eps", 0.25));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 50));
  const auto window = std::min(
      n, static_cast<std::size_t>(flags.get_int("window", 20000)));
  const auto step = std::max<std::size_t>(
      1, static_cast<std::size_t>(flags.get_int("step", 5000)));

  const auto dataset = rtd::data::taxi_gps(n);
  const std::span<const rtd::geom::Vec3> stream(dataset.points);
  std::printf(
      "Streaming hot-spot detection: %zu taxi GPS fixes, window %zu, "
      "step %zu\n",
      stream.size(), window, step);

  // Arm the metric updates, so the per-window latency below comes from the
  // registry.
  rtd::telemetry::arm(rtd::telemetry::kMetrics);

  rtd::Clusterer session(stream.subspan(0, window));
  (void)session.run(eps, min_pts);
  double latency_sum = 0.0;  // running mutation.latency total (seconds)
  print_window("t=0", session, 0.0);  // the first window ran, not mutated

  std::size_t cursor = window;
  std::size_t step_no = 0;
  while (cursor < stream.size()) {
    const std::size_t take = std::min(step, stream.size() - cursor);
    (void)session.advance(stream.subspan(cursor, take), take);
    cursor += take;
    char tag[32];
    std::snprintf(tag, sizeof(tag), "t=%zu", ++step_no);
    print_window(tag, session, window_mutation_ms(session, latency_sum));
  }

  // Smoke check: the maintained final window must agree with clustering it
  // from scratch.  Collect the live fixes, run a fresh batch session over
  // them, and compare the partition statistics.
  const auto& maintained = session.result();
  std::vector<rtd::geom::Vec3> live;
  std::size_t live_cores = 0;
  std::size_t live_noise = 0;
  for (std::size_t i = 0; i < session.size(); ++i) {
    if (!session.is_live(static_cast<std::uint32_t>(i))) continue;
    live.push_back(session.points()[i]);
    live_cores += maintained.is_core[i];
    live_noise += maintained.labels[i] == rtd::dbscan::kNoiseLabel;
  }
  rtd::Clusterer batch(live);
  const auto& fresh = batch.run(eps, min_pts);
  const bool ok = fresh.cluster_count == maintained.cluster_count &&
                  fresh.core_count() == live_cores &&
                  fresh.noise_count() == live_noise;
  std::printf(
      "\n  windowed-vs-batch smoke: %s (clusters %u/%u, cores %zu/%zu, "
      "noise %zu/%zu)\n",
      ok ? "OK" : "MISMATCH", maintained.cluster_count, fresh.cluster_count,
      live_cores, fresh.core_count(), live_noise, fresh.noise_count());
  return ok ? 0 : 1;
}
