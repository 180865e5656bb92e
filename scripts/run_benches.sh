#!/usr/bin/env bash
# Run every paper-reproduction bench binary and collect the output.
#
# Usage: scripts/run_benches.sh [build-dir] [-- extra bench flags...]
#   scripts/run_benches.sh build/release -- --scale 2 --reps 5
#
# Output lands in <build-dir>/bench-results/<bench-name>.txt; a run that
# fails stops the script (a benchmark of wrong results is worthless).
set -euo pipefail

build_dir="${1:-build}"
shift $(( $# > 0 ? 1 : 0 ))
if [[ "${1:-}" == "--" ]]; then shift; fi

bench_dir="${build_dir}/bench"
if [[ ! -d "${bench_dir}" ]]; then
  echo "error: ${bench_dir} not found — configure and build first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

out_dir="${build_dir}/bench-results"
mkdir -p "${out_dir}"

shopt -s nullglob
ran=0
for bench in "${bench_dir}"/bench_*; do
  [[ -x "${bench}" && -f "${bench}" ]] || continue
  name="$(basename "${bench}")"
  # bench_micro_* are google-benchmark binaries with their own flag set;
  # --scale/--reps apply to every other bench.  bench_streaming and
  # bench_serving print JSON, not CSV tables, and reject --csv: they get
  # --json in its place.
  if [[ "${name}" == bench_micro_* ]]; then
    echo "== ${name}"
    "${bench}" | tee "${out_dir}/${name}.txt"
  else
    args=("$@")
    if [[ "${name}" == bench_streaming || "${name}" == bench_serving ]]; then
      args=("${args[@]/#--csv/--json}")
    fi
    echo "== ${name} ${args[*]}"
    "${bench}" "${args[@]}" | tee "${out_dir}/${name}.txt"
  fi
  ran=$((ran + 1))
done

if [[ "${ran}" -eq 0 ]]; then
  echo "error: no bench binaries under ${bench_dir}" >&2
  exit 1
fi
echo "done: ${ran} benches, results in ${out_dir}/"
