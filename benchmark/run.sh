#!/usr/bin/env bash
# The one command of the benchmark: build it, run it, print every metric by
# name with its unit. See README.md next to this file.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#       one workload in one OS process; the last line of stdout is the
#       driver's JSON result (BENCHMARK.json at the repository root).
#   benchmark/run.sh [--seed N] [--seconds S] [--traced | --trace 0|1] [--smoke]
#       every workload, one OS process each: the untraced run, then the traced
#       run (only one of them with --trace / --traced). Writes the run set to
#       benchmark/out/results.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload="" seed=42 seconds=10 modes="0 1" smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) modes="$2"; shift 2 ;;
    --traced) modes=1; shift ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument \`$1'" >&2; exit 2 ;;
  esac
done

# The driver sets CARGO_TARGET_DIR (relative to the repository root, where we
# are); left alone, cargo builds into benchmark/target.
build_start=$(date +%s%N)
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml >&2
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))
printf 'build_s = %d.%03d s\n' $((build_ms / 1000)) $((build_ms % 1000))
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/matryoshka-benchmark"

if [ -n "$workload" ]; then
  [ "$modes" = "0 1" ] && modes=0
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$modes" "${smoke[@]}"
fi

out=benchmark/out
runs=()
for w in bounce_rate pagerank kmeans avg_distances mat_bagops mat_udf service_tcp; do
  for trace in $modes; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" "${smoke[@]}"
    [ "$trace" = 1 ] && runs+=("$out/$w.traced.json") || runs+=("$out/$w.untraced.json")
  done
done
{
  echo "{\"commit\": \"$(git rev-parse HEAD 2>/dev/null || echo unknown)\","
  echo " \"seed\": $seed, \"seconds\": $seconds, \"nproc\": $(nproc), \"rustc\": \"$(rustc -V)\","
  echo " \"runs\": ["
  for i in "${!runs[@]}"; do
    [ "$i" -gt 0 ] && echo "    ,"
    cat "${runs[$i]}"
  done
  echo " ]}"
} > "$out/results.json"
echo "run set written to $out/results.json"
