// Benchmark driver: one workload per process.
//
//   perfbench_driver --workload batch|stream|serve --seed N --seconds S
//                    --trace 0|1 [--smoke] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.  Every
// timed call runs on one thread and is reported by its CPU time, which a
// busy host does not stretch; wall-clock figures are printed on '#' lines.
// --trace 1 runs the layer probes and every loop with spans, prints the
// per-layer metrics and writes the spans to --trace-out.  Human-readable
// lines start with '#'; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Bench;
using perfbench::Clock;
using perfbench::Config;
using perfbench::median;
using perfbench::Summary;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Ordered metric list, printed as '#' lines and as the final JSON object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit});
    std::printf("# %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                    rows_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

std::string describe(const Summary& s, const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s; %zu samples, tail p%g has %zu beyond",
                what, s.count, s.tail_q * 100.0, s.beyond_tail);
  return buf;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Median of one field over per-call samples.
template <typename T>
double median_of(const std::vector<T>& v, double T::*field) {
  std::vector<double> x;
  for (const T& s : v) x.push_back(s.*field);
  return median(std::move(x));
}

/// Median call time with spans on over the median with spans off.
template <typename T>
double span_overhead(const std::vector<T>& v) {
  std::vector<double> on;
  std::vector<double> off;
  for (const T& s : v) (s.traced ? on : off).push_back(s.ms);
  const double base = median(std::move(off));
  return base > 0.0 ? median(std::move(on)) / base : 0.0;
}

// Closed loops run a number of calls fixed by --seconds rather than
// stopping on the clock, so every run of a workload with the same
// --seconds replays the same call sequence.  Rates calibrated on the
// reference host, one session thread, to fill about --seconds.
constexpr double kBatchItersPerSecond = 0.65;  // run() + sweep() ~1.3 s
constexpr double kStreamBlocksPerSecond = 0.26;  // fresh session + 80 calls

int calls(double per_second, double seconds, int at_least) {
  return std::max(at_least, static_cast<int>(per_second * seconds + 0.5));
}

/// The two timed operations of a workload, in milliseconds: CPU time (the
/// reported metrics) and wall-clock time (printed for people).
struct Ops {
  std::vector<double> op1_cpu_ms;
  std::vector<double> op1_wall_ms;
  double op1_tail_q = 0.0;
  const char* op1_name = "";
  std::vector<double> op2_cpu_ms;
  std::vector<double> op2_wall_ms;
  double op2_tail_q = 0.0;
  const char* op2_name = "";
};

void add_end_to_end(Metrics& m, const Ops& ops, double setup_cpu_s) {
  m.add("setup_s", setup_cpu_s, "s", "CPU, median of the setup repetitions");
  const Summary a = perfbench::summarize(ops.op1_cpu_ms, ops.op1_tail_q);
  const Summary b = perfbench::summarize(ops.op2_cpu_ms, ops.op2_tail_q);
  m.add("op1_cpu_p50_ms", a.p50, "ms", describe(a, ops.op1_name));
  m.add("op1_cpu_tail_ms", a.tail, "ms", describe(a, ops.op1_name));
  m.add("op2_cpu_p50_ms", b.p50, "ms", describe(b, ops.op2_name));
  m.add("op2_cpu_tail_ms", b.tail, "ms", describe(b, ops.op2_name));
  std::printf("# peak RSS %.6g MB\n", perfbench::peak_rss_mb());
  for (const auto* series : {&ops.op1_wall_ms, &ops.op2_wall_ms}) {
    std::vector<double> v = *series;
    std::printf("# %s wall ms: p50 %.6g  p75 %.6g  p90 %.6g  p99 %.6g\n",
                series == &ops.op1_wall_ms ? "op1" : "op2",
                perfbench::quantile(v, 0.5), perfbench::quantile(v, 0.75),
                perfbench::quantile(v, 0.9), perfbench::quantile(v, 0.99));
  }
}

/// Quiescent read latency split by hits per read (the p50-p99 gap).  The
/// buckets bracket the taxi window's hit distribution (p50 ~9, p99 ~400),
/// so none is empty.
void add_read_split(Metrics& m, const perfbench::ServeSamples& sv) {
  const auto& reads = sv.quiet_reads;
  std::vector<double> us;
  std::vector<double> hits;
  std::vector<double> small;
  std::vector<double> mid;
  std::vector<double> large;
  for (const auto& r : reads) {
    const double v = static_cast<double>(r.ns) * 1e-3;
    us.push_back(v);
    hits.push_back(static_cast<double>(r.hits));
    (r.hits < 16 ? small : r.hits < 128 ? mid : large).push_back(v);
  }
  const double total = static_cast<double>(reads.size());
  m.add("index.read_qps",
        sv.quiet_seconds > 0.0
            ? static_cast<double>(sv.quiet_count) / sv.quiet_seconds
            : 0.0,
        "1/s", "quiescent, all readers");
  m.add("index.read_p50_us", perfbench::quantile(us, 0.5), "us");
  m.add("index.read_p99_us", perfbench::quantile(us, 0.99), "us");
  m.add("index.read_hits_p50", perfbench::quantile(hits, 0.5), "count");
  m.add("index.read_hits_p99", perfbench::quantile(hits, 0.99), "count");
  m.add("index.read_p99_us.hits_lt16", perfbench::quantile(small, 0.99), "us");
  m.add("index.read_p99_us.hits_16-127", perfbench::quantile(mid, 0.99), "us");
  m.add("index.read_p99_us.hits_ge128", perfbench::quantile(large, 0.99), "us");
  m.add("index.read_share.hits_ge128",
        total > 0.0 ? static_cast<double>(large.size()) / total : 0.0,
        "ratio");
}

void print_machine() {
#ifdef NDEBUG
  const char* build = "Release";
#else
  const char* build = "Debug";
#endif
#ifdef RTD_TELEMETRY_ENABLED
  const char* telemetry = "compiled in";
#else
  const char* telemetry = "compiled out";
#endif
#ifdef RTD_FAILPOINTS_ENABLED
  const char* failpoints = "compiled in";
#else
  const char* failpoints = "compiled out";
#endif
  std::printf("# machine: nproc %u, compiler %s, build %s, telemetry %s, "
              "failpoints %s\n",
              std::thread::hardware_concurrency(), __VERSION__, build,
              telemetry, failpoints);
}

int run(const Args& args) {
  const Config cfg = perfbench::make_config(args.workload, args.smoke);
  const double s = args.seconds;
  print_machine();
  std::printf("# workload %s: %s n=%zu (+%zu stream), eps=%g, minPts=%u, "
              "%d session thread(s), seed %llu, %g s, trace %d\n",
              cfg.name.c_str(), cfg.ionosphere ? "ionosphere3d" : "taxi_gps",
              cfg.n, cfg.extra, static_cast<double>(cfg.eps), cfg.min_pts,
              cfg.threads, static_cast<unsigned long long>(args.seed), s,
              args.trace ? 1 : 0);

  perfbench::Tracer tracer;
  perfbench::Outcomes outcomes;
  tracer.set_enabled(args.trace);

  // Setup, repeated: generate the inputs, build the session, warm it up
  // (the first run in a process is markedly slower).
  std::vector<rtd::geom::Vec3> points;
  std::optional<rtd::Clusterer> session;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<double> generate_s;
  for (int k = 0; k < cfg.setups; ++k) {
    session.reset();
    const double c0 = perfbench::thread_cpu_ms();
    const auto t0 = Clock::now();
    {
      const perfbench::Tracer::Scope span(tracer, "data.generate");
      points = perfbench::generate(cfg, args.seed);
    }
    generate_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    const Bench b{cfg, points, tracer, outcomes};
    session.emplace(perfbench::warm_session(b, cfg.threads));
    if (cfg.name == "serve") (void)session->snapshot();
    setup_wall_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    setup_s.push_back((perfbench::thread_cpu_ms() - c0) * 1e-3);
  }
  std::printf("# setup wall s: median %.6g\n", median(setup_wall_s));
  if (cfg.name == "batch") session.reset();  // its loop builds cold sessions
  const Bench b{cfg, points, tracer, outcomes};
  std::size_t cursor = cfg.n;

  Metrics m;
  if (!args.trace) {
    Ops ops;
    if (cfg.name == "batch") {
      for (const auto& it :
           perfbench::batch_loop(b, calls(kBatchItersPerSecond, s, 4),
                                 false)) {
        ops.op1_cpu_ms.push_back(it.cpu_ms);
        ops.op1_wall_ms.push_back(it.ms);
        ops.op2_cpu_ms.push_back(it.sweep_cpu_ms);
        ops.op2_wall_ms.push_back(it.sweep_ms);
      }
      ops.op1_tail_q = 0.75;
      ops.op1_name = "cold construction + run()";
      ops.op2_tail_q = 0.75;
      ops.op2_name = "sweep() over the 4-value ladder";
    } else if (cfg.name == "stream") {
      session.reset();  // each block builds its own
      const auto ss = perfbench::stream_loop(
          b, cursor, calls(kStreamBlocksPerSecond, s, 1), false);
      for (const auto& a : ss.b1) {
        ops.op1_cpu_ms.push_back(a.cpu_ms);
        ops.op1_wall_ms.push_back(a.ms);
      }
      for (const auto& a : ss.b64) {
        ops.op2_cpu_ms.push_back(a.cpu_ms);
        ops.op2_wall_ms.push_back(a.ms);
      }
      ops.op1_tail_q = 0.95;
      ops.op2_tail_q = 0.9;
      ops.op1_name = "advance(1 new, 1 expired)";
      ops.op2_name = "advance(64 new, 64 expired)";
    } else {
      const auto sv = perfbench::serve_loop(b, *session, cursor, 0.0, s);
      for (const double us : sv.mixed_read_cpu_us) {
        ops.op1_cpu_ms.push_back(us * 1e-3);
      }
      for (const auto& r : sv.mixed_reads) {
        ops.op1_wall_ms.push_back(static_cast<double>(r.ns) * 1e-6);
      }
      std::printf("# serve: %.6g reads/s with the writer running\n",
                  static_cast<double>(sv.mixed_count) / sv.mixed_seconds);
      ops.op1_tail_q = 0.99;
      ops.op1_name = "read: snapshot() + query_neighbors_into, writer running, "
                     "per read over groups of 64";
      ops.op2_cpu_ms = sv.write_cpu_ms;
      ops.op2_wall_ms = sv.write_ms;
      ops.op2_tail_q = 0.75;
      ops.op2_name = "advance(64, 64) beside the reader (wall: from due time)";
      std::printf("# serve: %zu of %zu writes rebuilt the index\n",
                  sv.rebuilds, sv.write_ms.size());
    }
    add_end_to_end(m, ops, median(setup_s));
  } else {
    // Layer probes, then every loop with spans on for every other
    // iteration (the span-off iterations give the tracing overhead).  The
    // home workload's loop runs for half of --seconds, the others briefly,
    // so a traced run stays within a few times --seconds.
    const double half = s / 2;
    const bool batch = cfg.name == "batch";
    const bool stream = cfg.name == "stream";
    const bool serve = cfg.name == "serve";
    const auto layers = perfbench::decompose(b);
    perfbench::replay_absorb(b, 8);

    const auto bs = perfbench::batch_loop(
        b, batch ? calls(kBatchItersPerSecond, half, 2) : 2, true);

    // The mutation loops always run on their own workloads' inputs and
    // layouts (the taxi window, one session thread), so their per-layer
    // metrics mean the same in every traced run.
    const Config scfg =
        stream ? cfg : perfbench::make_config("stream", args.smoke);
    const Config vcfg =
        serve ? cfg : perfbench::make_config("serve", args.smoke);
    std::vector<rtd::geom::Vec3> taxi;
    if (batch) taxi = perfbench::generate(scfg, args.seed);
    const std::span<const rtd::geom::Vec3> taxi_all =
        batch ? std::span<const rtd::geom::Vec3>(taxi) : points;
    const Bench sb{scfg, taxi_all, tracer, outcomes};
    const Bench vb{vcfg, taxi_all, tracer, outcomes};

    if (stream) session.reset();  // each stream block builds its own
    std::size_t stream_cursor = scfg.n;
    const auto ss = perfbench::stream_loop(
        sb, stream_cursor, stream ? calls(kStreamBlocksPerSecond, half, 1) : 1,
        true);

    std::optional<rtd::Clusterer> other;
    if (!serve) other.emplace(perfbench::warm_session(vb, vcfg.threads));
    std::size_t serve_cursor = vcfg.n;
    const auto sv = perfbench::serve_loop(vb, serve ? *session : *other,
                                          serve_cursor, s / 4,
                                          serve ? half : s / 4);
    other.reset();

    auto span_ms = [&](const char* name) {
      return median(tracer.durations_ms(name));
    };
    m.add("data.generate_s", median(generate_s), "s");
    m.add("rt.build_ms", span_ms("rt.build_bvh"), "ms");
    m.add("rt.collapse_ms", span_ms("rt.collapse_bvh"), "ms");
    m.add("rt.nodes_per_query", layers.nodes_per_query, "count", "phase 1");
    m.add("rt.isect_per_query", layers.isect_per_query, "count", "phase 1");
    const double build_ms = span_ms("index.make_index");
    m.add("index.build_ms", build_ms, "ms");
    m.add("index.refit_ms", span_ms("index.try_set_eps"), "ms", "per step");
    m.add("index.query_all_ms", span_ms("index.query_all"), "ms");
    m.add("index.absorb_b64_ms", span_ms("index.absorb_b64"), "ms");
    add_read_split(m, sv);
    const double p1 = span_ms("dbscan.index_phase1");
    const double p2 = span_ms("dbscan.index_phase2");
    m.add("dbscan.phase1_ms", p1, "ms");
    m.add("dbscan.phase2_ms", p2, "ms");
    m.add("dbscan.phase1_insert_b64_ms", span_ms("dbscan.index_phase1_insert"),
          "ms");
    m.add("dbscan.phase1_remove_b64_ms", span_ms("dbscan.index_phase1_remove"),
          "ms");
    const double fin = span_ms("dsu.finalize_labels");
    m.add("dsu.finalize_ms", fin, "ms");
    const double run_1t = median(layers.run_1t_ms);
    const double run_4t = median(layers.run_4t_ms);
    const double run_ms = cfg.threads == 1 ? run_1t : run_4t;
    m.add("core.run_ms", run_ms, "ms", "cold run at the session threads");
    m.add("core.run_residual_ms", run_ms - (build_ms + p1 + p2 + fin), "ms",
          "run minus index build, phase 1, phase 2, finalize");
    m.add("core.run_1t_ms", run_1t, "ms");
    m.add("core.speedup_4t", run_4t > 0.0 ? run_1t / run_4t : 0.0, "ratio");
    m.add("core.sweep_bucket_ms",
          median_of(bs, &perfbench::BatchSample::bucket_ms), "ms");
    m.add("core.sweep_phase2_ms",
          median_of(bs, &perfbench::BatchSample::sweep_phase2_ms), "ms");
    const auto count = &perfbench::AdvanceSample::count_ms;
    const auto repair = &perfbench::AdvanceSample::repair_ms;
    m.add("core.advance_b1.count_ms", median_of(ss.b1, count), "ms");
    m.add("core.advance_b1.repair_ms", median_of(ss.b1, repair), "ms");
    m.add("core.advance_b64.count_ms", median_of(ss.b64, count), "ms");
    m.add("core.advance_b64.repair_ms", median_of(ss.b64, repair), "ms");
    std::size_t rebuilds = sv.rebuilds;
    for (const auto* v : {&ss.b1, &ss.b64}) {
      for (const auto& a : *v) rebuilds += a.rebuilt ? 1 : 0;
    }
    m.add("core.advance_rebuilds", static_cast<double>(rebuilds), "count",
          "stream loop + serve writes");
    m.add("core.mixed_read_qps",
          sv.mixed_seconds > 0.0
              ? static_cast<double>(sv.mixed_count) / sv.mixed_seconds
              : 0.0,
          "1/s", "all readers, writer running");
    m.add("core.mixed_write_p50_ms", median(sv.write_ms), "ms",
          "advance(64, 64) under readers, from due time");
    m.add("core.publish_us", median(sv.publish_us), "us");
    m.add("core.snapshot_acquire_ns", sv.snapshot_acquire_ns, "ns");
    m.add("core.write_lag_ms", mean(sv.lag_ms), "ms", "mean");

    m.add("trace.overhead_run", span_overhead(bs), "ratio",
          "cold run(), spans on / off");
    m.add("trace.overhead_advance_b1", span_overhead(ss.b1), "ratio",
          "advance at B=1, spans on / off");
    m.add("core.peak_rss_mb", perfbench::peak_rss_mb(), "MB", "ru_maxrss");
    m.add("trace.spans", static_cast<double>(tracer.size()), "count");
    if (!args.trace_out.empty()) {
      tracer.write_json(args.trace_out);
      std::printf("# trace: %zu spans written to %s\n", tracer.size(),
                  args.trace_out.c_str());
    }
  }

  const auto attempted = outcomes.attempted();
  const auto failed = outcomes.failed();
  std::printf("# error_rate %.6g ratio (%llu of %llu checked operations "
              "failed)\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
