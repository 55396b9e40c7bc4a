//! Microbenchmarks of the engine's *real* (wall-clock) performance: core
//! operators, the co-partitioned iterative fast path, lifted operators vs.
//! hand-flattened equivalents, and lifted-loop overhead. These complement
//! the simulated figures: the simulator's numbers are modeled, these are
//! measured.
//!
//! Uses a small built-in timing harness (median of repeated runs) so the
//! benches need no external framework. Run with
//! `cargo bench -p matryoshka-bench --bench micro`.
//!
//! Besides the human-readable table on stdout, every run writes a
//! machine-readable `BENCH_micro.json` (op, n, median/min milliseconds) so
//! successive PRs leave a comparable perf trajectory. The output path
//! defaults to the repository root and can be overridden with the
//! `BENCH_MICRO_OUT` environment variable.
//!
//! Pass `--smoke` (as `cargo bench -p matryoshka-bench --bench micro --
//! --smoke`) for a seconds-scale run over tiny inputs: CI uses it to keep
//! the harness and its JSON emitter from rotting.

use std::time::Instant;

use matryoshka_core::{group_by_key_into_nested_bag, MatryoshkaConfig};
use matryoshka_engine::{ClusterConfig, Engine};

fn engine() -> Engine {
    Engine::new(ClusterConfig::local_test())
}

/// One benchmark's recorded timing, destined for `BENCH_micro.json`.
struct BenchRecord {
    op: String,
    n: u64,
    median_ms: f64,
    min_ms: f64,
}

/// Scaling knobs: the full run measures real sizes; the smoke run only
/// proves the harness executes end to end.
struct Harness {
    smoke: bool,
    warmup: usize,
    runs: usize,
    records: Vec<BenchRecord>,
}

impl Harness {
    fn new(smoke: bool) -> Harness {
        Harness {
            smoke,
            warmup: if smoke { 0 } else { 1 },
            runs: if smoke { 2 } else { 5 },
            records: Vec::new(),
        }
    }

    /// Pick `full` normally, `smoke` under `--smoke`.
    fn size(&self, full: u64, smoke: u64) -> u64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Time `f` a few times and record the median/min wall-clock duration.
    fn bench<R>(&mut self, op: &str, n: u64, mut f: impl FnMut() -> R) {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut times: Vec<f64> = (0..self.runs)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let median = times[self.runs / 2] * 1e3;
        let min = times[0] * 1e3;
        println!("{op:<44} n={n:<9} median {median:>9.3} ms   min {min:>9.3} ms");
        self.records.push(BenchRecord { op: op.to_string(), n, median_ms: median, min_ms: min });
    }

    /// Serialize all records as a JSON array (no external dependencies).
    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 == self.records.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"op\": \"{}\", \"n\": {}, \"median_ms\": {:.3}, \"min_ms\": {:.3}}}{}\n",
                r.op, r.n, r.median_ms, r.min_ms, sep
            ));
        }
        out.push_str("]\n");
        out
    }
}

fn bench_engine_ops(h: &mut Harness) {
    let sizes = if h.smoke { vec![2_000u64] } else { vec![10_000u64, 100_000] };
    for &n in &sizes {
        h.bench("engine_ops/reduce_by_key", n, || {
            let e = engine();
            let bag = e.generate(n, 8, |i| (i % 997, 1u64));
            bag.reduce_by_key(|a, b| a + b).count().unwrap()
        });
        h.bench("engine_ops/join", n, || {
            let e = engine();
            let l = e.generate(n, 8, |i| (i % 997, i));
            let r = e.generate(n / 10, 4, |i| (i % 997, i * 2));
            l.join(&r).count().unwrap()
        });
        h.bench("engine_ops/group_by_key", n, || {
            let e = engine();
            let bag = e.generate(n, 8, |i| (i % 997, i));
            bag.group_by_key().count().unwrap()
        });
        h.bench("engine_ops/distinct", n, || {
            let e = engine();
            let bag = e.generate(n, 8, |i| i % 4096);
            bag.distinct().count().unwrap()
        });
    }
}

/// The workload the host-executor fast path targets: one shuffle up front,
/// then an iterative join + reduce loop that stays entirely on the
/// co-partitioned (narrow) path — as in the paper's iterative experiments,
/// where per-iteration host overhead is what separates the flattened program
/// from hand-written flat dataflow.
fn bench_copartitioned_loop(h: &mut Harness) {
    let n = h.size(100_000, 2_000);
    let iters = if h.smoke { 2 } else { 8 };
    h.bench("copartitioned_loop/join_reduce", n, || {
        let e = engine();
        let base = e.generate(n, 8, |i| (i, i)).partition_by_key(8);
        base.count().unwrap();
        let mut cur = base;
        for _ in 0..iters {
            let stepped = cur.map_values(|v| v + 1);
            cur = cur
                .join_into(8, &stepped)
                .map_values(|&(a, b)| a + b)
                .reduce_by_key_into(8, |a, b| a + b);
            cur.count().unwrap();
        }
        cur.count().unwrap()
    });
    h.bench("copartitioned_loop/shuffle_scatter", n, || {
        // Repeated explicit re-partitioning: isolates `scatter_by_key`.
        let e = engine();
        let mut cur = e.generate(n, 8, |i| (i, i));
        for p in [16usize, 8, 12, 8] {
            cur = cur.partition_by_key(p);
        }
        cur.count().unwrap()
    });
}

/// The workload narrow-stage fusion targets: a six-op shuffle-free chain
/// over a materialized base (the ablation EXPERIMENTS.md reports). The fused
/// arm drops the five intermediates before the action, so the chain is
/// exclusively owned at eval time and runs as one pass; the unfused arm
/// keeps them bound, which makes every operator a barrier for the next and
/// yields one pass and one materialization per operator.
fn bench_narrow_chain(h: &mut Harness) {
    let n = h.size(1_000_000, 10_000);
    for (label, hold) in [("narrow_chain/fused", false), ("narrow_chain/unfused", true)] {
        let e = engine();
        let base = e.generate(n, 8, |i| i);
        base.count().unwrap(); // materialize once; measure the chain alone
        h.bench(label, n, || {
            let a = base.map(|&x| x.wrapping_mul(0x9E37_79B9));
            let b = a.filter(|&x| x % 5 != 0);
            let c = b.map(|&x| x >> 3);
            let d = c.filter(|&x| x % 3 != 0);
            let f = d.map(|&x| x ^ 0xFF);
            let tail = f.flat_map(|&x| if x % 2 == 0 { Some(x) } else { None });
            if !hold {
                drop((a, b, c, d, f));
            }
            tail.count().unwrap()
        });
    }
}

fn bench_lifted_vs_flat(h: &mut Harness) {
    let n = h.size(50_000, 2_000);
    let visits: Vec<(u32, u64)> = (0..n).map(|i| ((i % 64) as u32, i % 1000)).collect();
    let v1 = visits.clone();
    h.bench("lifted_vs_flat_bounce_rate/lifted", n, move || {
        let e = engine();
        let bag = e.parallelize(v1.clone(), 8);
        matryoshka_tasks::bounce_rate::matryoshka(&e, &bag, MatryoshkaConfig::optimized()).unwrap()
    });
    h.bench("lifted_vs_flat_bounce_rate/hand_flattened", n, move || {
        // Listing 3 of the paper, written directly against the engine.
        let e = engine();
        let visits = e.parallelize(visits.clone(), 8);
        let counts = visits.map(|&(d, ip)| ((d, ip), 1u64)).reduce_by_key(|a, b| a + b);
        let bounces = counts
            .filter(|(_, c)| *c == 1)
            .map(|((d, _), _)| (*d, 1u64))
            .reduce_by_key(|a, b| a + b);
        let totals = visits.distinct().map(|&(d, _)| (d, 1u64)).reduce_by_key(|a, b| a + b);
        let mut out =
            bounces.join(&totals).map(|(d, (b, t))| (*d, *b as f64 / *t as f64)).collect().unwrap();
        out.sort_by_key(|(d, _)| *d);
        out
    });
}

fn bench_lifted_loop(h: &mut Harness) {
    let sizes = if h.smoke { vec![16u64] } else { vec![16u64, 256] };
    for &tags in &sizes {
        h.bench("lifted_loop/countdown", tags, || {
            let e = engine();
            let ctx = matryoshka_core::LiftingContext::new(
                e.clone(),
                e.parallelize((0..tags).collect(), 4),
                tags,
                MatryoshkaConfig::optimized(),
            );
            let init = matryoshka_core::InnerScalar::from_repr(
                e.parallelize((0..tags).map(|t| (t, (t % 7) as i64)).collect(), 4),
                ctx,
            );
            matryoshka_core::lifted_while(
                &init,
                |s| {
                    let next = s.map(|x| x - 1);
                    let cond = next.map(|x| *x > 0);
                    Ok((next, cond))
                },
                None,
            )
            .unwrap()
            .collect()
            .unwrap()
        });
    }
}

/// The workload the plan-rewrite pass targets: a driver loop whose
/// condition recomputes a full `count(distinct(..))` shuffle every
/// iteration. With hoisting on, the invariant subplan is cached above the
/// loop and the per-iteration shuffles vanish (the ablation EXPERIMENTS.md
/// reports alongside narrow-stage fusion).
fn bench_plan_rewrites(h: &mut Harness) {
    use matryoshka_core::PlanRewriteConfig;
    use matryoshka_ir::ast::{BinOp, Expr};
    use matryoshka_ir::{Lowering, RtVal, Value};

    let n = h.size(200_000, 2_000);
    // loop (i = 0) while i < count(distinct(source(xs))) do (i + 1) yield i
    let invariant = Expr::Count(Box::new(Expr::Distinct(Box::new(Expr::Source("xs".into())))));
    let program = Expr::Loop {
        init: vec![("i".into(), Expr::long(0))],
        cond: Box::new(Expr::bin(BinOp::Lt, Expr::var("i"), invariant)),
        step: vec![Expr::bin(BinOp::Add, Expr::var("i"), Expr::long(1))],
        result: Box::new(Expr::var("i")),
    };
    let xs: Vec<Value> = (0..n as i64).map(|i| Value::Long(i % 24)).collect();
    for (label, hoist) in [("plan_rewrites/hoist_off", false), ("plan_rewrites/hoist_on", true)] {
        h.bench(label, n, || {
            let e = engine();
            let inputs =
                std::collections::HashMap::from([("xs".to_string(), e.parallelize(xs.clone(), 8))]);
            let mut cfg = MatryoshkaConfig::optimized();
            cfg.plan =
                if hoist { PlanRewriteConfig::enabled() } else { PlanRewriteConfig::default() };
            match Lowering::new(e, cfg).run(&program, &inputs).unwrap() {
                RtVal::Scalar(v) => v,
                other => panic!("expected a scalar, got {other:?}"),
            }
        });
    }
}

/// The workload UDF compilation targets: an arithmetic-heavy scalar map UDF
/// (nested `let`s, an 8-iteration scalar loop, mixed Long/Double math)
/// evaluated per record by the lowering interpreter, plus a compiled
/// two-parameter fold combiner — once through the `eval_pure` tree walker
/// (`interpret_udfs: true`) and once compiled to slot-resolved form
/// (the default). The ablation the UDF-compilation pass is judged by.
fn bench_udf_eval(h: &mut Harness) {
    use matryoshka_ir::{Lowering, RtVal, Value};

    let n = h.size(200_000, 2_000);
    let program = matryoshka_ir::parse_program(
        "fold(map(source(xs), v =>
            let a = v.0 * 3 + v.1 in
            let b = a * a + v.0 in
            let r = loop (i = 8, acc = b) while i > 0 do (i - 1, acc + a * i) yield acc in
            if toDouble(r) > 100000.0 then toDouble(r) / 2.0 else toDouble(a + b)),
         0.0, (s, x) => s + x)",
    )
    .expect("udf_eval bench program parses");
    let xs: Vec<Value> = (0..n as i64)
        .map(|i| Value::tuple(vec![Value::Long(i % 1000), Value::Long(i % 37)]))
        .collect();
    for (label, interpret) in [("udf_eval/interpreted", true), ("udf_eval/compiled", false)] {
        h.bench(label, n, || {
            let e = engine();
            let inputs =
                std::collections::HashMap::from([("xs".to_string(), e.parallelize(xs.clone(), 8))]);
            let mut cfg = MatryoshkaConfig::optimized();
            cfg.interpret_udfs = interpret;
            match Lowering::new(e, cfg).run(&program, &inputs).unwrap() {
                RtVal::Scalar(v) => v,
                other => panic!("expected a scalar, got {other:?}"),
            }
        });
    }
}

fn bench_nesting(h: &mut Harness) {
    let n = h.size(100_000, 2_000);
    h.bench("nesting_primitives/group_by_key_into_nested_bag", n, || {
        let e = engine();
        let bag = e.generate(n, 8, |i| ((i % 512) as u32, i));
        group_by_key_into_nested_bag(&e, &bag, MatryoshkaConfig::optimized()).unwrap().ctx().size()
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `--validate <path>`: check an existing BENCH_micro.json artifact
    // (shape + the udf_eval compiled-beats-interpreted invariant) instead
    // of running the benches. CI runs this against the committed artifact.
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args.get(i + 1).map(String::as_str).unwrap_or("BENCH_micro.json").to_string();
        // `cargo bench` runs with the package as cwd; resolve repo-root
        // relative paths the same way the writer does.
        let path = if std::path::Path::new(&path).exists() {
            path
        } else {
            format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
        };
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        match matryoshka_bench::validate_micro_rows(&src) {
            Ok(rows) => {
                println!("{path}: {rows} benchmark rows validated");
                return;
            }
            Err(e) => panic!("{path}: {e}"),
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut h = Harness::new(smoke);
    bench_engine_ops(&mut h);
    bench_copartitioned_loop(&mut h);
    bench_narrow_chain(&mut h);
    bench_lifted_vs_flat(&mut h);
    bench_udf_eval(&mut h);
    bench_lifted_loop(&mut h);
    bench_plan_rewrites(&mut h);
    bench_nesting(&mut h);

    let out_path = std::env::var("BENCH_MICRO_OUT").unwrap_or_else(|_| {
        // crates/bench -> repository root.
        format!("{}/../../BENCH_micro.json", env!("CARGO_MANIFEST_DIR"))
    });
    std::fs::write(&out_path, h.to_json()).expect("write BENCH_micro.json");
    println!("\nwrote {} records to {out_path}", h.records.len());
}
