// Request-queue serving harness for the concurrent read layer (PR 6): N
// reader threads drain a shared queue of point-neighborhood requests
// through rtd::Clusterer's const snapshot path, measuring aggregate QPS and
// per-request p50/p99 latency.  Optionally a writer thread retargets ε in a
// loop underneath the readers ("churn"), exercising the snapshot-swap
// reclamation on a live request stream.
//
// The headline gate (scripts/bench_snapshot.sh): the read path has no locks
// in steady state, so aggregate QPS at R readers must stay >= 0.9x the
// single-reader QPS — adding readers must never collapse throughput (on a
// single hardware thread that means time-slicing overhead stays under 10%;
// on a multi-core host QPS should scale up instead).
//
//   ./bench_serving [--n N] [--requests Q] [--readers R] [--json]
//                   [--trace out.json]
//
// --json prints one machine-readable document (consumed by the snapshot
// script); the default is a human table.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
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

struct ServeResult {
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t retargets = 0;  // writer churn iterations (0 = quiescent)
};

double percentile(std::vector<double>& sorted_samples, double p) {
  if (sorted_samples.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_samples.size() - 1));
  return sorted_samples[idx];
}

/// Drain `total_requests` through `readers` threads.  Each request takes
/// the current snapshot and answers one neighborhood query at the
/// snapshot's ε; per-request wall time feeds the latency percentiles.
/// With `churn`, a writer thread alternates the session between eps_a and
/// eps_b for the whole drain.
ServeResult serve(const Clusterer& session, std::span<const Vec3> requests,
                  int readers, std::size_t total_requests, bool churn,
                  Clusterer* writer_session, float eps_a, float eps_b) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> done{false};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(readers));

  std::thread writer;
  std::uint64_t retargets = 0;
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto& lat = latencies[static_cast<std::size_t>(r)];
      lat.reserve(total_requests / static_cast<std::size_t>(readers) + 1);
      std::vector<std::uint32_t> ids;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total_requests) break;
        Timer t;
        const auto snap = session.snapshot();
        snap->query_neighbors_into(requests[i % requests.size()],
                                   snap->eps(), rtd::index::kNoSelf, ids);
        lat.push_back(t.seconds());
      }
    });
  }
  if (churn && writer_session != nullptr) {
    writer = std::thread([&] {
      std::uint64_t i = 0;
      while (!done.load(std::memory_order_relaxed)) {
        (void)writer_session->run(i % 2 == 0 ? eps_b : eps_a, 8);
        ++i;
      }
      retargets = i;
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_relaxed);
  if (writer.joinable()) writer.join();

  ServeResult out;
  out.wall_seconds = wall.seconds();
  out.qps = static_cast<double>(total_requests) / out.wall_seconds;
  std::vector<double> all;
  all.reserve(total_requests);
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  out.p50_us = percentile(all, 0.50) * 1e6;
  out.p99_us = percentile(all, 0.99) * 1e6;
  out.retargets = retargets;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags = bench::parse_flags(argc, argv, {
      cli::kTraceFlag,
      {"n", "session points [60000]"},
      {"requests", "read requests per row [40000]"},
      {"readers", "largest reader-thread count [4]"}},
      bench::Output::kJson);
  const cli::TraceSink trace(flags);
  const auto cfg = bench::BenchConfig::from_flags(flags);
  const auto n =
      cfg.scaled(static_cast<std::size_t>(flags.get_int("n", 60000)));
  const auto total_requests = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("requests", 40000)));
  const int max_readers =
      static_cast<int>(flags.get_int("readers", 4));
  const float eps = 0.1f;

  if (!cfg.json) {
    bench::print_header(
        "Concurrent serving: snapshot read path QPS / latency",
        "serving-layer characterization (not a paper figure)", cfg);
  }

  const auto dataset = data::taxi_gps(n, 2026);
  // The request stream: dataset points perturbed off-grid, cycled.
  std::vector<Vec3> requests;
  requests.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    const Vec3& p = dataset.points[(i * 97) % n];
    requests.push_back(Vec3{p.x + 0.01f, p.y - 0.01f, p.z});
  }

  std::string rows_json;
  Table table({"backend", "readers", "churn", "QPS", "p50 us", "p99 us",
               "vs 1 reader"});
  bool gate_ok = true;

  for (const IndexKind kind : {IndexKind::kBvhRt, IndexKind::kPointBvh}) {
    // threads=1: each request runs inline on its reader thread — the
    // serving concurrency model — instead of fanning out per query.
    Clusterer session(dataset.points,
                      Options().with_backend(kind).with_threads(1));
    (void)session.run(eps, 8);
    (void)session.snapshot();  // publish before timing: steady-state path

    double single_qps = 0.0;
    for (int readers = 1; readers <= max_readers; readers *= 2) {
      // Median-of-reps on the aggregate drain (per-request percentiles
      // from the last rep; they are stable across reps).
      ServeResult res;
      std::vector<double> qps_samples;
      for (int rep = 0; rep < cfg.reps; ++rep) {
        res = serve(session, requests, readers, total_requests,
                    /*churn=*/false, nullptr, 0.0f, 0.0f);
        qps_samples.push_back(res.qps);
      }
      const double qps = median(std::move(qps_samples));
      if (readers == 1) single_qps = qps;
      const double rel = qps / single_qps;
      // The gate: adding readers must not collapse aggregate throughput.
      if (rel < 0.9) gate_ok = false;
      table.add_row({index::to_string(kind), Table::integer(readers), "no",
                     Table::num(qps, 0), Table::num(res.p50_us, 2),
                     Table::num(res.p99_us, 2), Table::speedup(rel)});
      rows_json += std::string(rows_json.empty() ? "" : ",\n    ") +
                   "{\"backend\": \"" + index::to_string(kind) +
                   "\", \"readers\": " + std::to_string(readers) +
                   ", \"churn\": false" +
                   ", \"qps\": " + std::to_string(qps) +
                   ", \"p50_us\": " + std::to_string(res.p50_us) +
                   ", \"p99_us\": " + std::to_string(res.p99_us) +
                   ", \"qps_vs_single_reader\": " + std::to_string(rel) +
                   "}";
    }

    // Churn mode: max_readers readers while a writer retargets ε in a
    // loop.  Characterization only (rebuild cost dominates the writer
    // thread's share of the core) — reported, not gated.
    const ServeResult churned =
        serve(session, requests, max_readers, total_requests,
              /*churn=*/true, &session, eps, eps * 2.0f);
    table.add_row({index::to_string(kind), Table::integer(max_readers),
                   "yes", Table::num(churned.qps, 0),
                   Table::num(churned.p50_us, 2),
                   Table::num(churned.p99_us, 2),
                   Table::speedup(churned.qps / single_qps)});
    rows_json += std::string(",\n    ") + "{\"backend\": \"" +
                 index::to_string(kind) +
                 "\", \"readers\": " + std::to_string(max_readers) +
                 ", \"churn\": true" +
                 ", \"qps\": " + std::to_string(churned.qps) +
                 ", \"p50_us\": " + std::to_string(churned.p50_us) +
                 ", \"p99_us\": " + std::to_string(churned.p99_us) +
                 ", \"writer_retargets\": " +
                 std::to_string(churned.retargets) +
                 ", \"qps_vs_single_reader\": " +
                 std::to_string(churned.qps / single_qps) + "}";
    // Leave the session at the base ε for the next backend's symmetry.
    (void)session.run(eps, 8);
  }

  if (cfg.json) {
    std::printf(
        "{\n  \"n\": %zu,\n  \"requests\": %zu,\n  \"eps\": %.4f,\n"
        "  \"gate\": \"aggregate QPS at R readers >= 0.9x single-reader "
        "QPS (quiescent rows)\",\n  \"gate_ok\": %s,\n  \"rows\": [\n    "
        "%s\n  ]\n}\n",
        n, total_requests, static_cast<double>(eps),
        gate_ok ? "true" : "false", rows_json.c_str());
  } else {
    table.print();
    std::printf("\nchurn rows: writer retargeting eps concurrently "
                "(characterization, not gated)\n");
  }
  return gate_ok ? 0 : 1;
}
