#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/parallel.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/equivalence.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "index/neighbor_index.hpp"
#include "rt/bvh.hpp"
#include "rt/wide_bvh.hpp"

namespace perfbench {

namespace {

using rtd::Clusterer;
using rtd::geom::Vec3;
using rtd::index::IndexKind;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

rtd::dbscan::Params params_at(const Config& c, float eps) {
  return rtd::dbscan::Params{eps, c.min_pts, IndexKind::kAuto};
}

/// The maintained clustering of `session`, restricted to its live slots,
/// must equal a fresh run over exactly those points.
void check_live_parity(const Bench& b, const Clusterer& session,
                       const std::string& what) {
  const Config& c = b.cfg;
  const rtd::ClusterResult& res = session.result();
  const auto pts = session.points();
  std::vector<Vec3> live;
  rtd::dbscan::Clustering mine;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (!session.is_live(i)) continue;
    live.push_back(pts[i]);
    mine.labels.push_back(res.labels[i]);
    mine.is_core.push_back(res.is_core[i]);
  }
  mine.cluster_count = res.cluster_count;
  Clusterer fresh(std::span<const Vec3>(live), session_options(c, c.threads));
  const rtd::ClusterResult& ref = fresh.run(c.eps, c.min_pts);
  const auto eq = rtd::dbscan::check_equivalent(
      live, params_at(c, c.eps), mine, ref.to_clustering());
  b.outcomes.check(eq.equivalent, what + ": " + eq.reason);
}

/// Alternates span recording per iteration in traced runs, so one run
/// measures the same call with and without its spans.
class TraceAlternation {
 public:
  TraceAlternation(Tracer& tracer, bool alternate)
      : tracer_(tracer), alternate_(alternate), was_(tracer.enabled()) {}
  ~TraceAlternation() { tracer_.set_enabled(was_); }
  TraceAlternation(const TraceAlternation&) = delete;
  TraceAlternation& operator=(const TraceAlternation&) = delete;

  /// Set the recorder for iteration `it`; returns whether it records.
  bool at(int it) {
    if (alternate_) tracer_.set_enabled(it % 2 == 0);
    return tracer_.enabled();
  }

 private:
  Tracer& tracer_;
  bool alternate_;
  bool was_;
};

}  // namespace

Config make_config(const std::string& workload, bool smoke) {
  Config c;
  c.name = workload;
  if (workload == "batch") {
    c.ionosphere = true;
    c.n = 200000;
    c.extra = 8192;
    c.eps = 0.8f;
    c.min_pts = 5;
    c.threads = 1;
    c.backend = IndexKind::kAuto;
    c.setups = 5;
  } else if (workload == "stream" || workload == "serve") {
    c.ionosphere = false;
    c.n = 200000;
    c.extra = 65536;
    c.eps = 0.05f;
    c.min_pts = 8;
    c.threads = 1;
    c.backend = IndexKind::kBvhRt;
    c.setups = 3;
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (batch, stream or serve)");
  }
  c.ladder = {0.7f * c.eps, 0.8f * c.eps, 0.9f * c.eps, c.eps};
  if (smoke) {
    c.n = 20000;
    c.extra = 8192;
    c.setups = 1;
    c.probe_reps = 1;
    c.write_period_s = 0.02;
  }
  return c;
}

std::vector<Vec3> generate(const Config& cfg, std::uint64_t seed) {
  // The generators draw their structure (taxi hotspot sizes, the field's
  // bands) from their seed, and that structure sets the cost: taxi_gps runs
  // vary 9x across seeds.  Which points form the window sets it too.  So
  // both stay fixed — the generator at its default seed, the window by a
  // fixed shuffle — and --seed orders the window (the order points expire
  // in) and the stream tail (the order they arrive in).
  const std::size_t total = cfg.n + cfg.extra;
  rtd::data::Dataset d = cfg.ionosphere ? rtd::data::ionosphere3d(total)
                                        : rtd::data::taxi_gps(total);
  std::vector<Vec3>& pts = d.points;
  auto shuffle = [&](std::size_t first, std::size_t last, std::uint64_t s) {
    std::mt19937_64 rng(s);
    for (std::size_t i = first; i + 1 < last; ++i) {
      std::swap(pts[i], pts[i + rng() % (last - i)]);
    }
  };
  shuffle(0, total, 0x9e3779b97f4a7c15ULL);
  shuffle(0, cfg.n, seed);
  shuffle(cfg.n, total, seed + 1);
  return std::move(pts);
}

rtd::Options session_options(const Config& cfg, int threads) {
  return rtd::Options().with_backend(cfg.backend).with_threads(threads);
}

Clusterer warm_session(const Bench& b, int threads) {
  Clusterer session(b.window(), session_options(b.cfg, threads));
  (void)session.run(b.cfg.eps, b.cfg.min_pts);
  return session;
}

// --- batch ----------------------------------------------------------------

std::vector<BatchSample> batch_loop(const Bench& b, int iterations,
                                    bool alternate) {
  const Config& c = b.cfg;
  const std::span<const float> ladder(c.ladder);
  std::vector<BatchSample> out;
  TraceAlternation tracing(b.tracer, alternate);
  std::uint32_t ref_clusters = 0;
  std::size_t ref_core = 0;
  std::vector<std::uint32_t> ref_sweep;
  for (int it = 0; it < iterations; ++it) {
    BatchSample sample;
    sample.traced = tracing.at(it);
    try {
      std::optional<Clusterer> session;
      rtd::RunStats stats;
      std::uint32_t clusters = 0;
      const double c0 = thread_cpu_ms();
      const auto t0 = Clock::now();
      {
        const Tracer::Scope span(b.tracer, "core.cold_run");
        session.emplace(b.window(), session_options(c, c.threads));
        const rtd::ClusterResult& r = session->run(c.eps, c.min_pts);
        // run() returns session storage that sweep() overwrites: copy.
        stats = r.stats;
        clusters = r.cluster_count;
      }
      sample.ms = ms_since(t0);
      sample.cpu_ms = thread_cpu_ms() - c0;
      const std::size_t core = session->result().core_count();
      std::optional<rtd::ClusterResult> first;
      if (it == 0) first = session->result();

      std::vector<rtd::ClusterResult> entries;
      const double c1 = thread_cpu_ms();
      const auto t1 = Clock::now();
      {
        const Tracer::Scope span(b.tracer, "core.sweep");
        entries = session->sweep(ladder, c.min_pts);
      }
      sample.sweep_ms = ms_since(t1);
      sample.sweep_cpu_ms = thread_cpu_ms() - c1;
      b.outcomes.ok(2);
      sample.bucket_ms = entries.front().stats.timings.core_phase_seconds * 1e3;
      for (const auto& e : entries) {
        sample.sweep_phase2_ms += e.stats.timings.cluster_phase_seconds * 1e3;
      }
      out.push_back(sample);

      std::vector<std::uint32_t> sweep_clusters;
      for (const auto& e : entries) sweep_clusters.push_back(e.cluster_count);
      if (it == 0) {
        ref_clusters = clusters;
        ref_core = core;
        ref_sweep = sweep_clusters;
        std::printf("# batch: backend %s, %u clusters, %zu core of %zu\n",
                    rtd::index::to_string(stats.backend), clusters, core,
                    c.n);
        // Once per process: the clustering against the grid backend, and
        // one sweep entry against a fresh run at its ε.
        Clusterer grid(b.window(), rtd::Options()
                                       .with_backend(IndexKind::kGrid)
                                       .with_threads(c.threads));
        const auto eq = rtd::dbscan::check_equivalent(
            b.window(), params_at(c, c.eps), first->to_clustering(),
            grid.run(c.eps, c.min_pts).to_clustering());
        b.outcomes.check(eq.equivalent, "batch vs grid: " + eq.reason);
        Clusterer fresh(b.window(), session_options(c, c.threads));
        const auto eq_sweep = rtd::dbscan::check_equivalent(
            b.window(), params_at(c, ladder[1]), entries[1].to_clustering(),
            fresh.run(ladder[1], c.min_pts).to_clustering());
        b.outcomes.check(eq_sweep.equivalent,
                         "sweep entry vs fresh run: " + eq_sweep.reason);
      } else {
        b.outcomes.check(clusters == ref_clusters && core == ref_core,
                         "batch: run() differs from the first iteration");
        b.outcomes.check(sweep_clusters == ref_sweep,
                         "batch: sweep() differs from the first iteration");
      }
    } catch (const std::exception& e) {
      b.outcomes.fail(std::string("batch iteration threw: ") + e.what());
    }
  }
  return out;
}

// --- stream ---------------------------------------------------------------

StreamSamples stream_loop(const Bench& b, std::size_t& cursor, int blocks,
                          bool alternate) {
  // Every block starts from a session freshly built over the current
  // window, then alternates kB1PerRound advances at B = 1 with one at
  // B = 64 (the slower, noisier call, so it gets the larger share of time).
  // A session scans the points it absorbed since its last index build on
  // every query, so advance() slows as a run goes on; fresh blocks sample
  // the same stretch of that curve however long the run is.
  constexpr int kRounds = 20;
  constexpr int kB1PerRound = 3;
  const Config& c = b.cfg;
  StreamSamples out;
  TraceAlternation tracing(b.tracer, alternate);
  std::optional<Clusterer> session;
  for (int block = 0; block < blocks; ++block) {
    if (cursor + kRounds * (kB1PerRound + 64) > b.all.size()) {
      b.outcomes.fail("stream: points exhausted");
      break;
    }
    session.reset();
    session.emplace(b.all.subspan(cursor - c.n, c.n),
                    session_options(c, c.threads));
    (void)session->run(c.eps, c.min_pts);
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k <= kB1PerRound; ++k) {
        const std::size_t batch = k < kB1PerRound ? 1 : 64;
        auto& samples = batch == 1 ? out.b1 : out.b64;
        AdvanceSample s;
        s.traced = tracing.at(static_cast<int>(samples.size()));
        try {
          const double c0 = thread_cpu_ms();
          const auto t0 = Clock::now();
          {
            const Tracer::Scope scope(
                b.tracer, batch == 1 ? "core.advance_b1" : "core.advance_b64");
            (void)session->advance(b.all.subspan(cursor, batch), batch);
          }
          s.ms = ms_since(t0);
          s.cpu_ms = thread_cpu_ms() - c0;
          const rtd::RunStats st = session->result().stats;
          s.count_ms = st.timings.core_phase_seconds * 1e3;
          s.repair_ms = (st.timings.total_seconds -
                         st.timings.core_phase_seconds -
                         st.timings.index_build_seconds) *
                        1e3;
          s.rebuilt = st.index_rebuilt;
          samples.push_back(s);
          b.outcomes.ok();
        } catch (const std::exception& e) {
          b.outcomes.fail(std::string("advance threw: ") + e.what());
        }
        cursor += batch;
      }
    }
    const auto report = session->validate(rtd::ValidationLevel::kQuick);
    b.outcomes.check(report.ok, "stream: validate(kQuick) after block " +
                                    std::to_string(block));
  }
  if (session) {
    check_live_parity(b, *session, "stream: final clustering vs fresh run");
  }
  return out;
}

// --- serve ----------------------------------------------------------------

namespace {

enum Phase : int { kQuiet = 0, kMixed = 1, kStop = 2 };

/// Reader threads plus the stop signal; joins on every exit path.
class ReaderPool {
 public:
  explicit ReaderPool(Phase first) : phase_(first) {}
  ~ReaderPool() { stop(); }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  template <typename F>
  void spawn(int count, F body) {
    for (int r = 0; r < count; ++r) threads_.emplace_back(body, r);
  }
  [[nodiscard]] Phase phase() const {
    return static_cast<Phase>(phase_.load(std::memory_order_acquire));
  }
  void set(Phase p) { phase_.store(p, std::memory_order_release); }
  void stop() {
    set(kStop);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<int> phase_;
  std::vector<std::thread> threads_;
};

/// The fixed request set: 4096 dataset points nudged off-grid, a whole
/// number of read groups.
std::vector<Vec3> make_requests(const Bench& b) {
  const auto pts = b.window();
  const float d = 0.2f * b.cfg.eps;
  std::vector<Vec3> out(4096);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Vec3& p = pts[(i * 7919) % pts.size()];
    out[i] = Vec3{p.x + d, p.y - d, p.z};
  }
  return out;
}

}  // namespace

ServeSamples serve_loop(const Bench& b, Clusterer& session,
                        std::size_t& cursor, double quiet_seconds,
                        double mixed_seconds) {
  const Config& c = b.cfg;
  constexpr std::size_t kReaders = 1;
  const std::vector<Vec3> requests = make_requests(b);
  ServeSamples out;

  // Steady-state acquire: the published snapshot is one atomic load.
  (void)session.snapshot();
  {
    constexpr int kCalls = 200000;
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) sink += session.snapshot()->size();
    out.snapshot_acquire_ns = ms_since(t0) * 1e6 / kCalls;
    if (sink == 0) std::fprintf(stderr, "perfbench: empty snapshot\n");
  }

  // Per reader and window, a fixed-size uniform sample of its reads.
  constexpr std::size_t kSampleCap = std::size_t{1} << 18;
  std::vector<Reservoir<ReadSample>> quiet;
  std::vector<Reservoir<ReadSample>> mixed;
  std::vector<Reservoir<double>> mixed_cpu;
  for (std::size_t r = 0; r < kReaders; ++r) {
    quiet.emplace_back(kSampleCap, 3 * r + 1);
    mixed.emplace_back(kSampleCap, 3 * r + 2);
    mixed_cpu.emplace_back(kSampleCap, 3 * r + 3);
  }
  ReaderPool pool(quiet_seconds > 0.0 ? kQuiet : kMixed);
  pool.spawn(static_cast<int>(kReaders), [&](int r) {
    const auto ri = static_cast<std::size_t>(r);
    std::vector<std::uint32_t> ids;
    // Groups start on a multiple of kReadGroup, so each group is always
    // the same run of requests.
    std::size_t i = ri * 16 * kReadGroup;
    try {
      for (;;) {
        const Phase ph = pool.phase();
        if (ph == kStop) break;
        const double c0 = thread_cpu_ms();
        for (std::size_t k = 0; k < kReadGroup; ++k) {
          const Vec3& q = requests[i++ % requests.size()];
          const auto t0 = Clock::now();
          const auto snap = session.snapshot();
          snap->query_neighbors_into(q, snap->eps(), rtd::index::kNoSelf,
                                     ids);
          const auto ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count();
          (ph == kQuiet ? quiet : mixed)[ri].add(
              {static_cast<std::uint32_t>(ns),
               static_cast<std::uint32_t>(ids.size())});
        }
        if (ph == kMixed) {
          mixed_cpu[ri].add((thread_cpu_ms() - c0) * 1e3 /
                            static_cast<double>(kReadGroup));
        }
      }
    } catch (const std::exception& e) {
      b.outcomes.fail(std::string("read threw: ") + e.what());
    }
  });

  if (quiet_seconds > 0.0) {
    const auto q0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(quiet_seconds));
    out.quiet_seconds = seconds_since(q0);
    pool.set(mixed_seconds > 0.0 ? kMixed : kStop);
  }

  // Open-loop writer on this thread: one advance(64, 64) per period, each
  // timed from its due time so a stall also charges the writes behind it.
  constexpr std::size_t kB = 64;
  const auto start = Clock::now();
  const std::chrono::duration<double> period(c.write_period_s);
  for (int k = 0; mixed_seconds > 0.0; ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 period * static_cast<double>(k));
    if (std::chrono::duration<double>(due - start).count() >= mixed_seconds ||
        cursor + kB > b.all.size()) {
      break;
    }
    std::this_thread::sleep_until(due);
    const auto began = Clock::now();
    try {
      const double c0 = thread_cpu_ms();
      {
        const Tracer::Scope span(b.tracer, "core.advance_b64");
        (void)session.advance(b.all.subspan(cursor, kB), kB);
      }
      const auto done = Clock::now();
      out.write_cpu_ms.push_back(thread_cpu_ms() - c0);
      out.write_ms.push_back(
          std::chrono::duration<double, std::milli>(done - due).count());
      out.lag_ms.push_back(
          std::chrono::duration<double, std::milli>(began - due).count());
      if (session.result().stats.index_rebuilt) ++out.rebuilds;
      const auto p0 = Clock::now();
      {
        const Tracer::Scope span(b.tracer, "core.publish");
        (void)session.snapshot();
      }
      out.publish_us.push_back(ms_since(p0) * 1e3);
      b.outcomes.ok();
    } catch (const std::exception& e) {
      b.outcomes.fail(std::string("write threw: ") + e.what());
    }
    cursor += kB;
  }
  if (mixed_seconds > 0.0) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(mixed_seconds)));
    out.mixed_seconds = seconds_since(start);
  }
  pool.stop();

  for (std::size_t r = 0; r < kReaders; ++r) {
    out.quiet_reads.insert(out.quiet_reads.end(), quiet[r].begin(),
                           quiet[r].end());
    out.quiet_count += quiet[r].seen();
    out.mixed_reads.insert(out.mixed_reads.end(), mixed[r].begin(),
                           mixed[r].end());
    out.mixed_count += mixed[r].seen();
    out.mixed_read_cpu_us.insert(out.mixed_read_cpu_us.end(),
                                 mixed_cpu[r].begin(), mixed_cpu[r].end());
  }
  b.outcomes.ok(out.quiet_count + out.mixed_count);

  // Checks, writer and readers stopped: a fixed sample of reads against a
  // linear scan of the snapshot's live points, then the session audit.
  const auto snap = session.snapshot();
  const auto pts = snap->points();
  const float eps2 = snap->eps() * snap->eps();
  for (std::size_t i = 0; i < 64; ++i) {
    const Vec3& q = requests[(i * 61) % requests.size()];
    std::vector<std::uint32_t> expect;
    for (std::uint32_t j = 0; j < pts.size(); ++j) {
      if (session.is_live(j) &&
          rtd::geom::distance_squared(q, pts[j]) <= eps2) {
        expect.push_back(j);
      }
    }
    b.outcomes.check(snap->query_neighbors(q) == expect,
                     "serve: read differs from a linear scan");
  }
  const auto report = session.validate(rtd::ValidationLevel::kQuick);
  b.outcomes.check(report.ok, "serve: validate(kQuick) after the writes");
  return out;
}

// --- layer probes ---------------------------------------------------------

namespace {

/// One cold session construction + run() at `threads`, in a span.
double cold_run_ms(const Bench& b, int threads, const char* span,
                   rtd::RunStats& stats, std::uint32_t& clusters,
                   std::size_t& core) {
  std::optional<Clusterer> session;
  const auto t0 = Clock::now();
  {
    const Tracer::Scope scope(b.tracer, span);
    session.emplace(b.window(), session_options(b.cfg, threads));
    (void)session->run(b.cfg.eps, b.cfg.min_pts);
  }
  const double ms = ms_since(t0);
  stats = session->result().stats;
  clusters = session->result().cluster_count;
  core = session->result().core_count();
  return ms;
}

}  // namespace

LayerSamples decompose(const Bench& b) {
  const Config& c = b.cfg;
  const auto pts = b.window();
  const std::size_t n = pts.size();
  const std::vector<std::uint32_t> order =
      rtd::dbscan::query_launch_order(pts, false);
  LayerSamples out;
  rtd::rt::TraversalStats phase1_work;
  for (int rep = 0; rep < c.probe_reps; ++rep) {
    rtd::RunStats stats;
    std::uint32_t clusters = 0;
    std::uint32_t clusters_other = 0;
    std::size_t core = 0;
    std::size_t core_other = 0;
    out.run_1t_ms.push_back(
        cold_run_ms(b, 1, "core.cold_run_1t", stats, clusters, core));
    out.run_4t_ms.push_back(cold_run_ms(b, 4, "core.cold_run_4t", stats,
                                        clusters_other, core_other));
    b.outcomes.check(clusters == clusters_other && core == core_other,
                     "cold runs at 1 and 4 threads differ");
    const IndexKind kind = stats.backend;

    // rt layer: the scene build the RT backend performs, over the n
    // ε-inflated point boxes.
    {
      const rtd::ThreadCountGuard guard(c.threads);
      std::vector<rtd::geom::Aabb> boxes(n);
      for (std::size_t i = 0; i < n; ++i) {
        boxes[i] = rtd::geom::Aabb::of_sphere(pts[i], c.eps);
      }
      rtd::rt::Bvh bvh;
      rtd::rt::WideBvh wide;
      {
        const Tracer::Scope span(b.tracer, "rt.build_bvh");
        bvh = rtd::rt::build_bvh(boxes);
      }
      {
        const Tracer::Scope span(b.tracer, "rt.collapse_bvh");
        wide = rtd::rt::collapse_bvh(bvh);
      }
      b.outcomes.check(!wide.empty() && bvh.prim_count() == n,
                       "rt: build/collapse produced an empty tree");
    }

    // index, dbscan and dsu layers: the session's run, call by call.
    rtd::index::IndexBuildOptions build;
    build.threads = c.threads;
    std::unique_ptr<rtd::index::NeighborIndex> index;
    {
      const Tracer::Scope span(b.tracer, "index.make_index");
      index = rtd::index::make_index(pts, c.eps, kind, build);
    }
    std::vector<std::uint32_t> pair_counts(n, 0);
    {
      const Tracer::Scope span(b.tracer, "index.query_all");
      (void)index->query_all(
          c.eps, [&](std::uint32_t i, std::uint32_t) { ++pair_counts[i]; },
          c.threads);
    }
    std::vector<std::uint32_t> counts;
    rtd::rt::LaunchStats p1;
    {
      const Tracer::Scope span(b.tracer, "dbscan.index_phase1");
      p1 = rtd::dbscan::index_phase1(*index, params_at(c, c.eps), order,
                                     false, c.threads, counts);
    }
    phase1_work += p1.work;
    b.outcomes.check(counts == pair_counts,
                     "index: query_all and phase 1 counts differ");
    std::vector<std::uint8_t> is_core(n);
    for (std::size_t i = 0; i < n; ++i) {
      is_core[i] = counts[i] + 1 >= c.min_pts ? 1 : 0;
    }
    rtd::dsu::AtomicDisjointSet dsu(n);
    std::vector<std::atomic<std::uint8_t>> claimed(n);
    {
      const Tracer::Scope span(b.tracer, "dbscan.index_phase2");
      (void)rtd::dbscan::index_phase2(*index, c.eps, order, is_core, dsu,
                                      claimed, c.threads);
    }
    std::vector<std::int32_t> labels;
    std::vector<std::int32_t> root_label;
    std::uint32_t decomposed_clusters = 0;
    {
      const Tracer::Scope span(b.tracer, "dsu.finalize_labels");
      decomposed_clusters = rtd::dbscan::finalize_labels_into(
          n, [&](std::uint32_t x) { return dsu.find(x); }, is_core, labels,
          root_label);
    }
    const auto decomposed_core = static_cast<std::size_t>(
        std::count(is_core.begin(), is_core.end(), std::uint8_t{1}));
    b.outcomes.check(decomposed_clusters == clusters && decomposed_core == core,
                     "decomposed layers differ from run()");

    for (const float e : c.ladder) {
      const Tracer::Scope span(b.tracer, "index.try_set_eps");
      (void)index->try_set_eps(e);
    }
  }
  if (phase1_work.rays > 0) {
    const auto rays = static_cast<double>(phase1_work.rays);
    out.nodes_per_query = static_cast<double>(phase1_work.nodes_visited) / rays;
    out.isect_per_query = static_cast<double>(phase1_work.isect_calls) / rays;
  }
  return out;
}

void replay_absorb(const Bench& b, int steps) {
  const Config& c = b.cfg;
  constexpr std::size_t kB = 64;
  const std::size_t n = c.n;
  steps = std::min<int>(steps, static_cast<int>((b.all.size() - n) / kB));
  rtd::index::IndexBuildOptions build;
  build.threads = c.threads;
  auto index =
      rtd::index::make_index(b.window(), c.eps, IndexKind::kBvhRt, build);
  std::vector<std::uint32_t> counts;
  (void)rtd::dbscan::index_phase1(*index, params_at(c, c.eps),
                                  rtd::dbscan::query_launch_order(b.window(),
                                                                  false),
                                  false, c.threads, counts);
  std::vector<std::uint32_t> ids(kB);
  std::vector<std::uint32_t> nbr_ids;
  std::vector<std::uint32_t> nbr_starts;
  for (int k = 0; k < steps; ++k) {
    const std::size_t first_new = n + static_cast<std::size_t>(k) * kB;
    std::iota(ids.begin(), ids.end(),
              static_cast<std::uint32_t>(static_cast<std::size_t>(k) * kB));
    const Tracer::Scope step(b.tracer, "index.absorb_step");
    {
      const Tracer::Scope span(b.tracer, "dbscan.index_phase1_remove");
      (void)rtd::dbscan::index_phase1_remove(*index, c.eps, ids, counts,
                                             nbr_ids, nbr_starts);
    }
    for (const std::uint32_t id : ids) counts[id] = 0;
    bool absorbed = false;
    {
      const Tracer::Scope span(b.tracer, "index.absorb_b64");
      absorbed = index->try_remove(ids) &&
                 index->try_insert(b.all.subspan(0, first_new + kB),
                                   first_new);
    }
    b.outcomes.check(absorbed, "index: B=64 step not absorbed");
    if (!absorbed) return;
    {
      const Tracer::Scope span(b.tracer, "dbscan.index_phase1_insert");
      (void)rtd::dbscan::index_phase1_insert(*index, c.eps, first_new, counts,
                                             nbr_ids, nbr_starts);
    }
  }
  // The maintained counts must equal fresh queries on a sample of live ids.
  rtd::rt::TraversalStats work;
  bool match = true;
  for (std::size_t j = static_cast<std::size_t>(steps) * kB;
       j < index->size(); j += 997) {
    const auto id = static_cast<std::uint32_t>(j);
    match = match &&
            counts[id] == index->query_count(index->points()[id], c.eps, id,
                                             work);
  }
  b.outcomes.check(match, "index: maintained counts differ from fresh queries");
}

}  // namespace perfbench
