#!/usr/bin/env bash
# Repository CI gate: formatting, lints (deny warnings), docs, build, tests.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q --workspace

echo "== compiled UDFs match the interpreter in the release profile too"
# Debug builds check integer overflow and release builds wrap; the language
# defines its own, and the typed UDF programs do their `Long` arithmetic on
# unboxed `i64` registers, so the whole differential file must pass under both.
cargo test -q --release -p matryoshka-ir --test compiled_udf

echo "== clone and allocation pins in the release profile too"
# They count clones out of shared partitions and the allocations of a
# scatter, a join build, a pass (its outputs plus a constant), a `union` and
# a lifted `flatMap` (nothing per input record), which the host fast paths
# (an all-home scatter, a join index kept on a memoized right side, in-place
# `collect`s) change; the benchmark measures release builds, so the pins
# hold in that profile as well as in debug.
cargo test -q --release -p matryoshka-engine --test zero_copy --test scatter_allocs
cargo test -q --release -p matryoshka-core --test inner_allocs

echo "== benchmark builds and smoke-runs against these crates (benchmark/check.sh)"
# benchmark/ is its own workspace, so nothing above compiles it: a changed
# `pub` signature in a crate it names would otherwise go unnoticed until
# the pipeline runs it.
bash benchmark/check.sh
# Stall guard on that smoke run. A reply that leaves in pieces is held by
# Nagle's algorithm until the client's delayed ACK, never under 40 ms; a
# healthy request takes about 1 ms. The statistic is the *minimum* over the
# window, which host load cannot push up to 20 ms, so this cannot flake.
awk '/^metric service_tcp wall_ms_min = /{ms=$5}
  END{ if (ms == "" || ms + 0 >= 20) { print "service_tcp wall_ms_min = " ms \
    " ms (want < 20): a per-request Nagle/delayed-ACK stall is back" > "/dev/stderr"; exit 1 }
    print "service_tcp wall_ms_min = " ms " ms: no per-request stall" }' benchmark/out/smoke.log

echo "== static analyzer over shipped IR programs (matryoshka-check)"
# Every example program must pass the pre-lowering analyzer with no
# error-severity MAT0xx diagnostics.
cargo run -q --bin matryoshka-check -- examples/programs/*.mat

echo "== plan-rewrite explain report (matryoshka-check --explain)"
# The --explain report (before/after plan trees + per-rewrite safety
# justifications) must render for every shipped program, and the shipped
# invariant-loop example must actually exhibit a hoist.
EXPLAIN_OUT="$(mktemp)"
cargo run -q --bin matryoshka-check -- --explain examples/programs/*.mat \
  | tee "$EXPLAIN_OUT"
grep -q 'MAT093 hoist' "$EXPLAIN_OUT" || {
  echo "expected a MAT093 hoist in the --explain report for invariant_loop.mat" >&2
  exit 1
}
rm -f "$EXPLAIN_OUT"

echo "== sanitizers (best effort: miri, then TSan, else skip)"
# The container has no network, so missing toolchain components (miri,
# rust-src for -Zbuild-std) cannot be installed on the fly; skip cleanly.
# The filter covers the engine pool/fusion/partitioner tests (the scatter's
# hashing pass borrows the inputs across the pool's lifetime-erased runner;
# its placement runs write disjoint sub-slices of every bucket's spare
# capacity before the one `set_len`, and a clone that panics midway leaks
# what was written instead of dropping it twice)
# and the wide operators' and their shuffle's (a map side drives a chain on
# that same runner; a chain head hands each partition's input out of a
# per-partition slot; a broadcast join's table is probed by every task; a
# join against a memoized right side fills that node's per-partition join
# index, one `OnceLock` per partition, from inside the probing tasks),
# the UDF compiler's unit tests (thread-local frame reentrancy + take/replace
# discipline, the typed program cached in a `OnceLock` shared by threads), the service's connection loop (one reply, one write;
# request limits) and its state model (a waiter thread against the driver,
# a caught payload panic).
if cargo miri --version >/dev/null 2>&1 \
  && cargo miri test -p matryoshka-engine --lib -- pool fuse partitioner ops_wide shuffle 2>/dev/null \
  && cargo miri test -p matryoshka-ir --lib compile 2>/dev/null \
  && cargo miri test -p matryoshka-service --lib -- server service 2>/dev/null; then
  echo "miri: engine pool + fusion + partitioner + joins + ir compile + service tests passed"
elif RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -p matryoshka-engine --lib \
    -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
    -- pool fuse partitioner ops_wide shuffle 2>/dev/null \
  && RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -p matryoshka-ir --lib compile \
    -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" 2>/dev/null \
  && RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -p matryoshka-service --lib \
    -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" -- server service 2>/dev/null; then
  echo "TSan: engine pool + fusion + partitioner + joins + ir compile + service tests passed"
else
  echo "sanitizers unavailable in this toolchain (miri/rust-src not installed); skipping"
fi

echo "== deleted switches stay deleted"
# UDFs are always compiled, plan rewrites run for every program, and the
# micro harness that ablated the two is gone; a counter is the fold of the
# events (no second summary struct, no operator log beside the events, no
# hand-maintained add_* next to an event); the optimizer is the paper's
# static one (no feedback re-optimizer, no map-output history beside the
# PartitionStats event); a shuffle is one counting scatter (no per-input
# bucket sets to merge); an engine operator no caller uses is not kept "for
# the substrate" (only the names that cannot collide with a std method); a
# committed BENCH_*.json is a golden file `cargo test -p matryoshka-bench`
# regenerates (no JSON reader, row contract, sweep flag, output override or
# CSV dump beside it); a `pub` item nothing calls is deleted, and so is a
# lifted operator nothing calls; a decision is a typed rule row rendered at
# export (no prose `String` fields on `Decision`); the lifted loop's state
# has one structural method, `rebuild` (no per-step methods on
# `LiftedData`); there is one Chrome exporter and one host-pool entry
# point, `parallel_map_range`; the lowering's one shape check is the
# parsing phase (no per-operator shape errors, no UDF summaries nothing
# reads), and the shipped programs are one corpus, `examples/programs/`
# (no second copy in the tasks crate, no CLI switch for it); a leaf UDF's
# captures come from one walk (no memo beside it), a lifted loop's state is
# core's inner bag (no enum of its own), the purity gate is one walk (no
# per-fact walkers beside it), and no strategy enum outlives its callers;
# a K-means partial sum is added into its accumulator in place (no helper
# that builds a new point per merge); a pass's output partitions are one
# shared set (no `Arc` per partition inside the shared list); a shuffle
# places through the partitioner's one scatter, over the chain head's
# `Part` handle (no owned-or-shared input type beside it, no per-input-kind
# scatter entry point, no operator filling its own buckets); machine loss is
# the one fault model (no task retries, their counter, event or error), an
# engine traces from its first charge or not at all (no switch on a live
# engine), and the scalar-UDF interpreter is a test oracle (no `pub` one);
# a stage's `Stage` event names the operator its charge is issued for (no
# operator stack beside the charges), and a shuffle's `PartitionStats` event
# is made from its per-partition counts (no map-output struct between them).
# The patterns are split so this file does not match itself; the set
# operators are matched by definition, which misses std's
# `HashSet::intersection` and the word "subtracts".
if grep -rnE -e 'interpret_''udfs|BENCH_''micro|hoist_''off|Trace''Summary|trace_''report|stats\.add''_' \
  -e 'Adaptive''Config|adaptive_''coalesce|adaptive_''tag_join|adaptive_''skew_salt|BENCH_''skew|MAT0''92|map_output_''history' \
  -e 'make_''buckets|merge_''bucket_sets' \
  -e 'top_k''_by|sum''_f64|count_by''_key|full_outer''_join|right_outer''_join|join''_with' \
  -e '\bJs''on\b|validate''_rows|Row''Spec|Row''View|RECOVERY''_ROWS|SERVICE''_ROWS|bench/src/sweep''\.rs' \
  -e '_sweep( --)? --(smo''ke|vali''date)|BENCH_RECOVERY''_OUT|BENCH_SERVICE''_OUT|print''_csv|MATRYOSHKA''_CSV' \
  -e 'disable''_tracing|cancel''_requested|fx''_set\b|is_empty''_scalar|lift_flat''_bag' \
  -e 'core/src/splitting''\.rs|fn group''_by\b|fn join''_by\b|flat_map_via''_split|fn sum''_by\b|fn mean''_by\b' \
  -e 'flatten''_pairs|group''_sizes|fn lifted''_if\b|fn sub''tract\b|fn inter''section\b|scatter_by''_value' \
  -e 'aggregate''_by_key|from_partition''_records|fold_safe''_long' \
  -e 'choice: ''String|detail: ''String' \
  -e 'filter_by''_cond|union''_with' \
  -e 'export_chrome_trace''_multi|\bparallel''_map\b' \
  -e 'no''_cell|Udf''Summary|ir''_programs|--built''in' \
  -e 'captures''_memo|Cached''Captures|enum Lif''ted\b|enum Stra''tegy\b' \
  -e 'contains''_barrier|contains_lifted''_udf|lambdas''_pure' \
  -e 'add''_points' \
  -e 'Arc<Vec<''Arc<Vec<' \
  -e 'scatter_shared''_unless_home|scatter_shared''_by_key|fn scatt''ered\b|enum In''put\b' \
  -e 'task_failure''_rate|\bmax_att''empts\b|Task''Retry|task''_retry|tasks''_retried|Task''Failed' \
  -e 'enable''_tracing|set''_enabled|pub fn eval''_pure' \
  -e 'current''_op|MapOutput''Stats' \
  crates src tests examples scripts docs ./*.md \
  --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md; then
  echo "a deleted switch or artifact is named again (see above)" >&2
  exit 1
fi
# The engine's operators are the flat set the flattening layer lowers onto;
# the ones no caller reached are matched by definition, so std's `sort_by`,
# `take` and `first` do not collide.
if grep -rnE -e 'fn map''_indexed<|fn key''_by<|fn sam''ple\(|fn sort''_by<|fn broadcast''_join<' \
  -e 'fn take\(&''self|fn first\(&''self|fn empty''<|fn reduce\(&''self' \
  crates/engine/src/bag crates/engine/src/lib.rs crates/core/src; then
  echo "a deleted engine operator is defined again (see above)" >&2
  exit 1
fi
# A combine is written once: `ops_wide::merge`, whose combiner folds in
# place (`Fn(&mut V, &V)`). `reduce_by_key`'s by-value closure is a one-line
# adapter onto it, so no second merge function sits beside it in the engine.
if grep -rnE 'fn [a-z_]*mer''ge' crates/engine/src/bag \
    | grep -vE '^crates/engine/src/bag/ops_wide\.rs:[0-9]+:fn mer''ge<K: Key, V: Data>\($' \
  || [ "$(grep -cF 'f: &impl Fn(&mut V, &V),' crates/engine/src/bag/ops_wide.rs)" != 1 ]; then
  echo "a second merge function, or a by-value one, is back in crates/engine/src/bag (see above)" >&2
  exit 1
fi
# A shuffle is written once: only `bag/shuffle.rs` charges, places or
# records one, or memory-checks a wide operator's working sets. The one
# memory check elsewhere is `map_with_work`'s (`ops_narrow.rs`), which
# prices what its UDF reports.
if grep -rnE 'charge_shuffle\(|record_map_output\(|record_scatter|materialize_factor|\bscatter\(' \
    crates/engine/src/bag --exclude=shuffle.rs \
  || grep -rnE 'charge_memory\(' crates/engine/src/bag --exclude=shuffle.rs --exclude=ops_narrow.rs; then
  echo "a shuffle is charged, placed or memory-checked outside bag/shuffle.rs (see above)" >&2
  exit 1
fi
# A stage runs from shuffle to shuffle: a wide operator reads a parent only
# through its map side (`Shuffle::read`/`Shuffle::combine` in
# `bag/shuffle.rs`), which runs an exclusive narrow chain inside its own pass
# or shares a materialized parent. A bare `.eval()` there would cut the stage.
if grep -nE '\.eval\(\)' crates/engine/src/bag/ops_wide.rs; then
  echo "a wide operator evaluates a parent outside its map side (see above)" >&2
  exit 1
fi
# The host's parallelism is read once per process: `host_parallelism()`
# caches it in a `OnceLock` (`pool.rs`). On Linux every uncached read
# re-parses the affinity mask and the cgroup CPU quota, 15-22 µs that each
# pool pass and each scatter would pay; call `host_parallelism()` instead.
if grep -rn 'available_parallelism' crates/*/src src \
    | grep -vE '^crates/engine/src/pool\.rs:[0-9]+: .*get_or_init\(\|\| std::thread::available_parallelism\('; then
  echo "the host's parallelism is read outside its one cached site in pool.rs (see above)" >&2
  exit 1
fi
# Placement is the engine's own SipHash-1-3 (`partitioner.rs`), pinned to
# fixed values, so no toolchain's `DefaultHasher` can move it: std's hasher
# is named in code only as the test oracle at the end of `partitioner.rs`.
# And the engine's one `unsafe` outside the pool is the scatter's `set_len`.
# Comment lines are skipped.
oracle_from="$(grep -n '^#\[cfg(test)\]' crates/engine/src/partitioner.rs | head -1 | cut -d: -f1)"
if grep -rn 'DefaultHasher' crates/*/src \
    | grep -vE '^[^:]+:[0-9]+: *//' \
    | awk -F: -v from="$oracle_from" '!($1 == "crates/engine/src/partitioner.rs" && $2 > from)' \
    | grep .; then
  echo "std's DefaultHasher is named outside the partitioner's test oracle (see above)" >&2
  exit 1
fi
if grep -rnw 'unsafe' crates/engine/src --exclude=pool.rs \
    | grep -vE '^[^:]+:[0-9]+: *//' \
    | grep -vE '^crates/engine/src/partitioner\.rs:[0-9]+: +unsafe \{ bucket\.set_len\(n\) \};$' \
  || [ "$(grep -cF 'unsafe { bucket.set_len(n) };' crates/engine/src/partitioner.rs)" != 1 ]; then
  echo "unsafe code in crates/engine/src outside pool.rs and the scatter's set_len (see above)" >&2
  exit 1
fi
# A `Value` tuple is one heap object, `Arc<[Value]>`. Code only:
# EXPERIMENTS.md and DESIGN.md name the two-object layout as history. The
# payload, not `Arc<Vec<Value>>`: that also spells a shared `Bag<Value>` partition.
if grep -rnF 'Tuple(Arc<''Vec<' crates src tests examples; then
  echo "a Value tuple is Arc<[Value]>: the two-allocation layout is back (see above)" >&2
  exit 1
fi

echo "== service smoke (matryoshka-serve + matryoshka-submit over TCP)"
# Start the job server on an ephemeral port, submit the example program
# corpus through the client, exercise the rejection path, and shut down
# gracefully (see docs/SERVICE.md).
SERVE_LOG="$(mktemp)"
./target/release/matryoshka-serve --policy fair --pools default:1,interactive:3 \
  --queue-capacity 32 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^LISTENING ' "$SERVE_LOG" && break
  sleep 0.1
done
SERVE_ADDR="$(sed -n 's/^LISTENING //p' "$SERVE_LOG" | head -1)"
[ -n "$SERVE_ADDR" ] || {
  echo "matryoshka-serve did not print LISTENING" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}
# The full shipped corpus must be admitted and complete (exit 0).
./target/release/matryoshka-submit --addr "$SERVE_ADDR" examples/programs/*.mat
# Analyzer-rejected programs must bounce at admission (exit 0 only because
# rejection is the expected outcome).
BAD_MAT="$(mktemp --suffix=.mat)"
printf 'map(source(xs), v => y)' >"$BAD_MAT"
./target/release/matryoshka-submit --addr "$SERVE_ADDR" --expect-reject "$BAD_MAT"
rm -f "$BAD_MAT"
# Graceful shutdown: the server must exit 0 after SHUTDOWN.
exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR#*:}"
printf 'SHUTDOWN\n' >&3
head -1 <&3 | grep -q 'OK shutting down' || {
  echo "SHUTDOWN did not acknowledge" >&2
  exit 1
}
exec 3<&- 3>&-
wait "$SERVE_PID" || {
  echo "matryoshka-serve exited non-zero" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}
rm -f "$SERVE_LOG"

echo "== docs link/anchor + mat-example check (tests/docs.rs)"
# Explicit rerun of the docs gate (also part of the workspace test run):
# every relative Markdown link/anchor must resolve and every fenced
# \`\`\`mat block must pass the static analyzer.
cargo test -q --test docs

echo "CI gate passed."
