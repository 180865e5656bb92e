// Streaming maintenance harness (PR 7): steady-state advance() latency on a
// live session vs the cost of a full rebuild + recluster at the same size.
//
// A session over n points absorbs sliding-window batches (expire the oldest
// B, insert B new) while maintaining the clustering incrementally; the
// comparator is what a batch pipeline would do instead — build a fresh
// index over the window and recluster from scratch.  Reported per batch
// size: median per-mutation latency, sustained updates/sec, and the
// speedup over rebuild+recluster.
//
// The headline gate (scripts/bench_snapshot.sh): at the committed 1M-point
// size, small-batch mutations (B = 1 and B = 64) must stay >= 5x faster
// than a full rebuild + recluster.  The 4096 row is characterization: big
// batches converge toward the rebuild path by design (the rebuild
// threshold absorbs them less often).  Each batch size is clamped to the
// window, so a window below 4096 points runs its last row at B = n.
//
// With --hold-snapshot every advance() runs while a reader holds the
// session's snapshot (the serving case); the run then also counts the
// advances that moved the session's points into a new buffer (expected:
// only the first, which grows the buffer the session was built with).
//
//   ./bench_streaming [--n N] [--eps E] [--minpts M] [--reps R] [--json]
//                     [--hold-snapshot] [--trace out.json]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"

namespace {

using rtd::Clusterer;
using rtd::Options;
using rtd::Timer;
using rtd::geom::Vec3;
using rtd::index::IndexKind;

struct StreamRow {
  std::size_t batch = 0;
  int ops = 0;
  double per_mutation_ms = 0.0;  // median
  double updates_per_sec = 0.0;
  double speedup_vs_rebuild = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags = bench::parse_flags(argc, argv, {
      cli::kTraceFlag,
      {"hold-snapshot", "hold a snapshot across every advance()"},
      {"n", "window points [1000000]"},
      {"eps", "search radius [0.05]"},
      {"minpts", "minPts [8]"}},
      bench::Output::kJson);
  const cli::TraceSink trace(flags);
  const auto cfg = bench::BenchConfig::from_flags(flags);
  const bool hold_snapshot = flags.get_bool("hold-snapshot", false);
  const auto n =
      cfg.scaled(static_cast<std::size_t>(flags.get_int("n", 1000000)));
  // taxi_gps has a FIXED 50x50 extent, so density — and per-query
  // neighborhood size — scales linearly with n.  0.05 keeps the 1M-point
  // snapshot run at sane neighborhood sizes (the clustering structure is
  // unchanged; both sides of the ratio run at the same eps).
  const float eps = static_cast<float>(flags.get_double("eps", 0.05));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 8));
  if (n == 0) {
    std::fprintf(stderr, "bench_streaming: --n must be at least 1\n");
    return 2;
  }
  // A batch expires as many points as it inserts, so no batch may exceed
  // the window: below 4096 points the last row runs at B = n.
  std::vector<std::size_t> batches = {1, 64, 4096};
  for (std::size_t& b : batches) b = std::min(b, n);

  if (!cfg.json) {
    bench::print_header(
        "Streaming maintenance: advance() vs full rebuild + recluster",
        "live-session characterization (not a paper figure)", cfg);
  }

  // Enough stream beyond the initial window for every measured mutation.
  std::size_t stream_need = 0;
  for (const std::size_t b : batches) stream_need += (3 + 9) * b;
  const auto dataset = data::taxi_gps(n + stream_need, 2027);
  const std::span<const Vec3> all(dataset.points);

  // Comparator: a batch pipeline's step — fresh index build + full
  // recluster over the window.  Median of reps.
  std::vector<double> rebuild_samples;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    Timer t;
    Clusterer fresh(all.subspan(0, n), Options()
                                           .with_backend(IndexKind::kBvhRt));
    (void)fresh.run(eps, min_pts);
    rebuild_samples.push_back(t.seconds());
  }
  const double rebuild_s = median(std::move(rebuild_samples));

  // The live session under test.
  Clusterer session(all.subspan(0, n),
                    Options().with_backend(IndexKind::kBvhRt));
  (void)session.run(eps, min_pts);

  std::size_t cursor = n;
  int advances = 0;
  int point_copies = 0;
  // One window step; with --hold-snapshot a snapshot is held across it
  // (taken untimed, before the timer starts).
  const auto step = [&](std::size_t batch, std::vector<double>* samples) {
    std::shared_ptr<const IndexSnapshot> held;
    if (hold_snapshot) held = session.snapshot();
    const Vec3* const before = session.points().data();
    Timer t;
    (void)session.advance(all.subspan(cursor, batch), batch);
    if (samples != nullptr) samples->push_back(t.seconds());
    cursor += batch;
    ++advances;
    if (session.points().data() != before) ++point_copies;
  };
  std::vector<StreamRow> rows;
  for (const std::size_t batch : batches) {
    constexpr int kWarm = 3;
    const int ops = batch >= 4096 ? 5 : 9;
    for (int w = 0; w < kWarm; ++w) step(batch, nullptr);
    std::vector<double> samples;
    for (int op = 0; op < ops; ++op) step(batch, &samples);
    StreamRow row;
    row.batch = batch;
    row.ops = ops;
    const double per_op = median(std::move(samples));
    row.per_mutation_ms = per_op * 1e3;
    row.updates_per_sec = static_cast<double>(batch) / per_op;
    row.speedup_vs_rebuild = rebuild_s / per_op;
    rows.push_back(row);
  }

  if (cfg.json) {
    std::string rows_json;
    for (const StreamRow& r : rows) {
      rows_json += std::string(rows_json.empty() ? "" : ",\n    ") +
                   "{\"batch\": " + std::to_string(r.batch) +
                   ", \"ops\": " + std::to_string(r.ops) +
                   ", \"per_mutation_ms\": " +
                   std::to_string(r.per_mutation_ms) +
                   ", \"updates_per_sec\": " +
                   std::to_string(r.updates_per_sec) +
                   ", \"speedup_vs_rebuild\": " +
                   std::to_string(r.speedup_vs_rebuild) + "}";
    }
    std::printf(
        "{\n  \"n\": %zu,\n  \"eps\": %g,\n  \"min_pts\": %u,\n"
        "  \"backend\": \"bvhrt\",\n  \"hold_snapshot\": %s,\n"
        "  \"point_copies\": %d,\n  \"advances\": %d,\n"
        "  \"full_rebuild_recluster_ms\": %f,\n  \"rows\": [\n    %s\n  ]\n}\n",
        n, static_cast<double>(eps), min_pts,
        hold_snapshot ? "true" : "false", point_copies, advances,
        rebuild_s * 1e3, rows_json.c_str());
  } else {
    std::printf("full rebuild + recluster at n=%zu: %.1f ms\n\n", n,
                rebuild_s * 1e3);
    Table table({"batch", "per-mutation ms", "updates/sec", "vs rebuild"});
    for (const StreamRow& r : rows) {
      table.add_row({Table::integer(static_cast<long>(r.batch)),
                     Table::num(r.per_mutation_ms, 3),
                     Table::num(r.updates_per_sec, 0),
                     Table::speedup(r.speedup_vs_rebuild)});
    }
    table.print();
    std::printf("\nadvances that copied the points%s: %d of %d\n",
                hold_snapshot ? " (snapshot held)" : "", point_copies,
                advances);
  }
  return 0;
}
