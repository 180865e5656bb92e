#!/usr/bin/env bash
# Emit a machine-readable perf snapshot of the BVH traversal hot path and
# the session-API ε-sweep.
#
# Usage: scripts/bench_snapshot.sh [build-dir] [output.json]
#   scripts/bench_snapshot.sh build/release BENCH_PR5.json
#
# Runs the micro sweeps of bench_micro_bvh (google-benchmark JSON) for
# BOTH geometry modes — the sphere-mode QuerySweep1M_Wide and the §VI-C
# triangle-mode TriangleSweep_Wide/1000000 — plus the session-vs-rebuild
# ε-sweep of bench_micro_sweep and the per-backend table of bench_breakdown
# (CSV), then merges everything into one JSON document.  The sphere and
# triangle sweeps are characterization only: they report the wide walk's
# µs/query (there is no binary ray walk left to gate them against).  The
# script fails if any gated headline regresses below its recorded floor,
# so the perf harness doubles as a regression gate:
#   * session sweep: rtd::Clusterer::sweep must stay >= 1.3x over
#     rebuild-per-eps on the BVH-backed backends (PR 5 floor — the index
#     is built once at the ladder maximum, and one fused count-and-cluster
#     launch serves every ladder value);
#   * serving: aggregate QPS of the concurrent snapshot read path at R
#     reader threads must stay >= 0.9x the single-reader QPS for every
#     quiescent row (PR 6 floor — the steady-state read path is one atomic
#     load, so extra readers must never collapse throughput);
#   * streaming: steady-state small-batch advance() (B = 1 and B = 64) on a
#     1M-point live session must stay >= 5x faster than a full rebuild +
#     recluster of the window (PR 7 floor — incremental maintenance exists
#     to beat the batch pipeline; the 4096 row is characterization only).
set -euo pipefail

build_dir="${1:-build/release}"
out_file="${2:-BENCH_PR8.json}"
micro="${build_dir}/bench/bench_micro_bvh"
sweep="${build_dir}/bench/bench_micro_sweep"
breakdown="${build_dir}/bench/bench_breakdown"
serving="${build_dir}/bench/bench_serving"
streaming="${build_dir}/bench/bench_streaming"

for bin in "${micro}" "${sweep}" "${serving}" "${streaming}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not found (configure with system google-benchmark" \
         "and build first: cmake --preset release && cmake --build" \
         "--preset release)" >&2
    exit 1
  fi
done

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

echo "== bench_micro_bvh (traversal sweeps, both geometries)"
"${micro}" \
  --benchmark_filter='QuerySweep1M|TriangleSweep.*/1000000$|PointQueryTraversal|OverlapQueryTraversal|CollapseWide|BuildLbvh' \
  --benchmark_repetitions="${BENCH_REPS:-3}" \
  --benchmark_min_time="${BENCH_MIN_TIME:-0.25}" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json >"${tmp_dir}/micro.json"

echo "== bench_micro_sweep (session refit vs rebuild-per-eps, 60K points)"
"${sweep}" \
  --benchmark_filter='EpsSweep.*/60000$|MinPtsRerun.*/60000$' \
  --benchmark_repetitions="${BENCH_REPS:-3}" \
  --benchmark_min_time="${BENCH_MIN_TIME:-0.25}" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json >"${tmp_dir}/sweep.json"

echo "== bench_breakdown (per-backend build vs clustering)"
"${breakdown}" --csv --reps "${BENCH_REPS:-3}" >"${tmp_dir}/breakdown.csv"

echo "== bench_serving (concurrent snapshot read path: QPS / latency)"
# The binary itself exits non-zero if a quiescent row drops below the 0.9x
# floor; the merge step below re-checks from the JSON so the gate cannot be
# lost to a pipeline typo.
"${serving}" --json --reps "${BENCH_REPS:-3}" >"${tmp_dir}/serving.json"

echo "== bench_streaming (live-session advance() vs full rebuild+recluster)"
"${streaming}" --json --n "${BENCH_STREAM_N:-1000000}" \
  --reps "${BENCH_REPS:-3}" >"${tmp_dir}/streaming.json"

python3 - "${tmp_dir}/micro.json" "${tmp_dir}/sweep.json" \
  "${tmp_dir}/breakdown.csv" "${tmp_dir}/serving.json" \
  "${tmp_dir}/streaming.json" "${out_file}" <<'PYEOF'
import json
import sys

(micro_path, sweep_path, breakdown_path, serving_path, streaming_path,
 out_path) = sys.argv[1:7]
with open(micro_path) as f:
    micro = json.load(f)
with open(sweep_path) as f:
    sweep = json.load(f)
with open(breakdown_path) as f:
    breakdown_csv = f.read()
with open(serving_path) as f:
    serving = json.load(f)
with open(streaming_path) as f:
    streaming = json.load(f)

def median_time(doc, name):
    for b in doc["benchmarks"]:
        if b["name"] == name + "_median":
            return b["real_time"]  # in the benchmark's time_unit
    return None

def ratio(a, b):
    return (a / b) if (a and b) else None

sphere_wide = median_time(micro, "BM_QuerySweep1M_Wide")
tri_wide = median_time(micro, "BM_TriangleSweep_Wide/1000000")

session_backends = ("bvhrt", "pointbvh", "grid", "densebox")
session_sweep = {}
for backend in session_backends:
    rebuild = median_time(sweep, f"BM_EpsSweepRebuild/{backend}/60000")
    refit = median_time(sweep, f"BM_EpsSweepSession/{backend}/60000")
    session_sweep[backend] = {
        "rebuild_per_eps_ms": rebuild,
        "session_sweep_ms": refit,
        "session_speedup": ratio(rebuild, refit),
    }

snapshot = {
    "pr": 8,
    "headline": {
        "sphere_mode": {
            "benchmark": "BM_QuerySweep1M (1M-point uniform cube, "
                         "eps-sphere point queries, single core)",
            "wide_us_per_query": sphere_wide,
            "target": "characterization only",
        },
        "triangle_mode": {
            "benchmark": "BM_TriangleSweep/1000000 (50K tessellated "
                         "eps-spheres = 1M triangles, uniform cube, +z "
                         "AnyHit query rays, single core)",
            "wide_us_per_query": tri_wide,
            "target": "characterization only",
        },
        "session_sweep": {
            "benchmark": "BM_EpsSweep{Rebuild,Session} (5-value eps "
                         "ladder, 60K sparse uniform cube, single core): "
                         "fresh session per eps vs one Clusterer::sweep "
                         "(index built once, one fused "
                         "count-and-cluster launch)",
            "backends": session_sweep,
            "target": "session >= 1.3x on the BVH backends "
                      "(bvhrt, pointbvh)",
        },
        "serving": {
            "benchmark": "bench_serving (60K-point session, N reader "
                         "threads draining a shared request queue through "
                         "the const snapshot path; churn rows add a writer "
                         "retargeting eps concurrently)",
            "rows": serving["rows"],
            "target": "quiescent rows: QPS at R readers >= 0.9x "
                      "single-reader QPS (churn rows are "
                      "characterization only)",
        },
        "streaming": {
            "benchmark": "bench_streaming (1M-point live session on "
                         "bvhrt, steady-state sliding-window advance(): "
                         "expire B oldest + insert B new with incremental "
                         "count/index/label maintenance, vs a fresh index "
                         "build + full recluster of the window)",
            "n": streaming["n"],
            "full_rebuild_recluster_ms":
                streaming["full_rebuild_recluster_ms"],
            "rows": streaming["rows"],
            "target": "per-mutation latency at B = 1 and B = 64 >= 5x "
                      "faster than full rebuild + recluster (B = 4096 is "
                      "characterization only)",
        },
    },
    "context": micro.get("context", {}),
    "micro_benchmarks": micro["benchmarks"],
    "sweep_benchmarks": sweep["benchmarks"],
    "breakdown_csv": breakdown_csv,
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")

gate_ratios = [sphere_wide, tri_wide] + [
    session_sweep[b]["session_speedup"] for b in ("bvhrt", "pointbvh")]
if None in gate_ratios:
    # Fail closed: a renamed benchmark or filter drift must not silently
    # disable the regression gate.
    print("FAIL: headline sweep medians not found in benchmark output",
          file=sys.stderr)
    sys.exit(1)
print(f"characterization: sphere mode wide walk {sphere_wide:.3f} us/query")
print(f"characterization: triangle mode wide walk {tri_wide:.3f} us/query")
for backend in session_backends:
    s = session_sweep[backend]["session_speedup"]
    if s is not None:
        print(f"headline: session eps-sweep {s:.2f}x over rebuild-per-eps "
              f"on {backend}")
for backend in ("bvhrt", "pointbvh"):
    if session_sweep[backend]["session_speedup"] < 1.3:
        print(f"FAIL: session eps-sweep below the 1.3x floor on {backend}",
              file=sys.stderr)
        sys.exit(1)
quiescent = [r for r in serving["rows"] if not r["churn"]]
if not quiescent:
    print("FAIL: no quiescent serving rows in bench_serving output",
          file=sys.stderr)
    sys.exit(1)
for row in quiescent:
    rel = row["qps_vs_single_reader"]
    print(f"headline: serving {row['backend']} x{row['readers']} readers "
          f"{row['qps']:.0f} QPS ({rel:.2f}x single-reader, "
          f"p99 {row['p99_us']:.1f}us)")
    if rel < 0.9:
        print(f"FAIL: serving QPS at {row['readers']} readers below the "
              f"0.9x single-reader floor on {row['backend']}",
              file=sys.stderr)
        sys.exit(1)
gated_batches = {1, 64}
seen_batches = set()
for row in streaming["rows"]:
    print(f"headline: streaming B={row['batch']} "
          f"{row['per_mutation_ms']:.2f}ms/mutation, "
          f"{row['updates_per_sec']:.0f} updates/s "
          f"({row['speedup_vs_rebuild']:.1f}x vs rebuild+recluster)")
    seen_batches.add(row["batch"])
    if row["batch"] in gated_batches and row["speedup_vs_rebuild"] < 5.0:
        print(f"FAIL: streaming B={row['batch']} mutation only "
              f"{row['speedup_vs_rebuild']:.1f}x faster than full "
              f"rebuild+recluster (floor 5x)", file=sys.stderr)
        sys.exit(1)
if not gated_batches <= seen_batches:
    # Fail closed: a renamed row must not silently disable the gate.
    print("FAIL: streaming rows for the gated batch sizes (1, 64) missing",
          file=sys.stderr)
    sys.exit(1)
PYEOF
