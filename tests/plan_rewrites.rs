//! Equivalence and cost-monotonicity tests for the global plan-rewrite
//! pass (`matryoshka_ir::analyze::plan`): loop-invariant hoisting, CSE with
//! auto-caching, and dead-operator elimination. `Lowering::run` applies the
//! pass to every program; the reference arm is `Lowering::run_verbatim`,
//! the same evaluator on the program as written.
//!
//! Two angles:
//!
//! * A concrete lifted-loop fixture (the shipped
//!   `examples/programs/invariant_loop.mat`) where the loop condition
//!   recomputes a `distinct` shuffle every iteration: hoisting must produce
//!   identical rows while executing at most half the stages.
//! * A seeded property sweep: 200+ random programs — driver-level operator
//!   chains, duplicated subplans behind `let`s and loops, and lifted UDFs
//!   holding the same shapes per group — run both ways; results must match,
//!   the rewritten plan must never run *more* stages than the verbatim one,
//!   and rewriting a rewritten plan must change nothing.

use std::collections::HashMap;

use matryoshka::core::{MatryoshkaConfig, PlanRewriteConfig};
use matryoshka::engine::Engine;
use matryoshka::ir::analyze::plan::rewrite_plan;
use matryoshka::ir::ast::{BinOp, Expr, Lambda, Lambda2};
use matryoshka::ir::{parse_program, parsing_phase, Dialect, Lowering, RtVal, Value};

/// Run a post-parsing-phase program — through the plan rewrites, or
/// verbatim — and render its result canonically (bags are collected and
/// sorted), returning the stage count and the number of `plan_rewrite`
/// decisions the engine logged too.
fn run(program: &Expr, inputs: &[(&str, Vec<Value>)], rewrite: bool) -> (String, u64, usize) {
    let engine = Engine::local();
    let bound: HashMap<String, _> = inputs
        .iter()
        .map(|(name, rows)| (name.to_string(), engine.parallelize(rows.clone(), 3)))
        .collect();
    let lowering = Lowering::new(engine.clone(), MatryoshkaConfig::optimized());
    let out = if rewrite {
        lowering.run(program, &bound)
    } else {
        lowering.run_verbatim(program, &bound)
    };
    let rendered = match out.unwrap() {
        RtVal::Scalar(v) => format!("{v}"),
        RtVal::Bag(b) => {
            let mut rows = b.collect().unwrap();
            rows.sort();
            format!("{rows:?}")
        }
        other => format!("{other:?}"),
    };
    let logged = engine.decisions().iter().filter(|d| d.site == "plan_rewrite").count();
    (rendered, engine.stats().stages, logged)
}

#[test]
fn hoisting_halves_stages_in_an_invariant_lifted_loop() {
    // The shipped example: a per-group lifted do-while whose condition
    // recomputes count(distinct(g.1)) — a shuffle — every iteration.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/programs/invariant_loop.mat");
    let src = std::fs::read_to_string(&path).unwrap();
    let ast = parse_program(&src).unwrap();
    let lowered = parsing_phase(&ast, &["edges"], Dialect::Matryoshka).unwrap();

    // Groups 0/1/2 hold 2/3/4 distinct values, so the loop runs up to 4
    // rounds and the verbatim plan pays the distinct shuffle each round.
    let mut edges = Vec::new();
    for k in 0..3i64 {
        for v in 0..(k + 2) {
            edges.push(Value::tuple(vec![Value::Long(k), Value::Long(v)]));
            edges.push(Value::tuple(vec![Value::Long(k), Value::Long(v % 2)]));
        }
    }
    let inputs = [("edges", edges)];

    let rewrite = rewrite_plan(&lowered, &PlanRewriteConfig);
    assert!(
        rewrite.rewrites.iter().any(|r| r.title.starts_with("hoist")),
        "expected a hoist on the fixture, got {:?}",
        rewrite.rewrites
    );

    let (rows_base, stages_base, logged_base) = run(&lowered, &inputs, false);
    let (rows_opt, stages_opt, logged_opt) = run(&lowered, &inputs, true);
    assert_eq!(rows_base, rows_opt, "hoisting changed the results");
    assert_eq!((logged_base, logged_opt), (0, rewrite.rewrites.len()));
    assert!(
        stages_base >= 2 * stages_opt,
        "expected at least 2x fewer stages with hoisting: verbatim {stages_base}, \
         rewritten {stages_opt}"
    );
}

/// splitmix64, as in the IR round-trip property tests.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One of the flat sources `xs`/`ys`.
fn source(r: &mut Rng) -> Expr {
    Expr::Source(if r.below(2) == 0 { "xs" } else { "ys" }.to_string())
}

/// A random bag expression over `leaf` (a source at driver level, the inner
/// bag `g.1` inside a lifted UDF): map, filter, distinct, and union chains
/// with pure scalar UDFs. A value grows by at most 2 per level of `depth`.
fn gen_bag(r: &mut Rng, depth: u32, leaf: &dyn Fn(&mut Rng) -> Expr) -> Expr {
    if depth == 0 {
        return leaf(r);
    }
    let d = depth - 1;
    match r.below(5) {
        0 => Expr::Map(
            Box::new(gen_bag(r, d, leaf)),
            Lambda::new("m", Expr::bin(BinOp::Add, Expr::var("m"), Expr::long(r.below(3) as i64))),
        ),
        1 => Expr::Filter(
            Box::new(gen_bag(r, d, leaf)),
            Lambda::new("f", Expr::bin(BinOp::Gt, Expr::var("f"), Expr::long(r.below(3) as i64))),
        ),
        2 => Expr::Distinct(Box::new(gen_bag(r, d, leaf))),
        3 => Expr::Union(Box::new(gen_bag(r, d, leaf)), Box::new(gen_bag(r, d, leaf))),
        _ => leaf(r),
    }
}

/// A scalar reduction over a bag expression.
fn gen_scalar(r: &mut Rng, bag: Expr) -> Expr {
    match r.below(2) {
        0 => Expr::Count(Box::new(bag)),
        _ => Expr::Fold(
            Box::new(bag),
            Box::new(Expr::long(0)),
            Lambda2::new("a", "b", Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b"))),
        ),
    }
}

/// `map(groupByKey(source(kv)), g => ..)` whose lifted body holds, per
/// group: a dead `let` (DCE), a two-variable loop with one invariant subplan
/// in both its condition and its step (hoisted once), and a subplan over a
/// flat source written twice (CSE inside the UDF region).
fn gen_lifted(r: &mut Rng) -> Expr {
    let inner = |_: &mut Rng| Expr::proj(Expr::var("g"), 1);
    // Group 0 of `kv` holds only the value 0, which two levels of maps raise
    // to at most 4: its invariant is 0 and its condition false on entry. The
    // other groups run up to a dozen rounds.
    let invariant = Expr::Count(Box::new(Expr::Distinct(Box::new(Expr::Filter(
        Box::new(gen_bag(r, 2, &inner)),
        Lambda::new("f", Expr::bin(BinOp::Gt, Expr::var("f"), Expr::long(4))),
    )))));
    let looped = Expr::Loop {
        init: vec![("i".to_string(), Expr::long(0)), ("acc".to_string(), Expr::long(0))],
        cond: Box::new(Expr::bin(BinOp::Lt, Expr::var("i"), invariant.clone())),
        step: vec![
            Expr::bin(BinOp::Add, Expr::var("i"), Expr::long(1)),
            Expr::bin(BinOp::Add, Expr::var("acc"), invariant),
        ],
        result: Box::new(Expr::bin(BinOp::Add, Expr::var("i"), Expr::var("acc"))),
    };
    let flat = gen_bag(r, 2, &source);
    let shared = gen_scalar(r, flat);
    let total = Expr::bin(BinOp::Add, looped, Expr::bin(BinOp::Add, shared.clone(), shared));
    let body = Expr::let_(
        "dead",
        Expr::Distinct(Box::new(gen_bag(r, 1, &inner))),
        Expr::Tuple(vec![Expr::proj(Expr::var("g"), 0), total]),
    );
    let program = Expr::Map(
        Box::new(Expr::GroupByKey(Box::new(Expr::Source("kv".to_string())))),
        Lambda::new("g", body),
    );
    parsing_phase(&program, &["xs", "ys", "kv"], Dialect::Matryoshka).unwrap()
}

/// A random program exercising the rewrite surface: duplicated subplans
/// (CSE), multi-consumer `let`s (auto-cache), unused operator bindings
/// (DCE), loops with invariant condition subplans (hoist), and all of them
/// inside a lifted UDF ([`gen_lifted`]).
fn gen_program(r: &mut Rng) -> Expr {
    if r.below(5) == 0 {
        return gen_lifted(r);
    }
    let b1 = gen_bag(r, 2, &source);
    let b2 = gen_bag(r, 2, &source);
    match r.below(4) {
        0 => {
            // Multi-consumer let: auto-cache.
            let s1 = gen_scalar(r, Expr::var("shared"));
            let s2 = gen_scalar(r, Expr::var("shared"));
            Expr::let_("shared", b1, Expr::bin(BinOp::Add, s1, s2))
        }
        1 => {
            // Structurally duplicated subplans: CSE.
            let s = gen_scalar(r, b1);
            Expr::bin(BinOp::Add, s.clone(), s)
        }
        2 => {
            // Unused operator binding: DCE.
            let live = gen_scalar(r, b2);
            Expr::let_("dead", b1, live)
        }
        _ => {
            // Loop with an invariant condition subplan: hoist. `distinct`
            // bounds the trip count by the source cardinality, and the
            // step strictly increases, so the loop always terminates.
            let invariant = Expr::Count(Box::new(Expr::Distinct(Box::new(b1.clone()))));
            let tail = gen_scalar(r, b1);
            let looped = Expr::Loop {
                init: vec![("i".to_string(), Expr::long(0))],
                cond: Box::new(Expr::bin(BinOp::Lt, Expr::var("i"), invariant)),
                step: vec![Expr::bin(BinOp::Add, Expr::var("i"), Expr::long(1))],
                result: Box::new(Expr::var("i")),
            };
            Expr::bin(BinOp::Add, looped, tail)
        }
    }
}

#[test]
fn rewritten_random_plans_agree_with_baseline_across_seeds() {
    let xs: Vec<Value> = (0..30).map(|i| Value::Long(i % 7)).collect();
    let ys: Vec<Value> = (0..20).map(|i| Value::Long(i % 5)).collect();
    // Group k holds the values 0..=3k, each twice.
    let kv: Vec<Value> = (0..4i64)
        .flat_map(|k| (0..=6 * k + 1).map(move |v| (k, v / 2)))
        .map(|(k, v)| Value::tuple(vec![Value::Long(k), Value::Long(v)]))
        .collect();
    let inputs = [("xs", xs), ("ys", ys), ("kv", kv)];

    let (mut total_rewrites, mut lifted) = (0usize, 0usize);
    for seed in 0..220u64 {
        let mut r = Rng(seed.wrapping_mul(0x9e37) ^ 0x6d61_7472_796f_7368);
        let program = gen_program(&mut r);
        let once = rewrite_plan(&program, &PlanRewriteConfig);
        let twice = rewrite_plan(&once.expr, &PlanRewriteConfig);
        assert!(
            twice.rewrites.is_empty() && twice.expr == once.expr,
            "seed {seed}: the rewrite is not idempotent on {program:?}"
        );
        total_rewrites += once.rewrites.len();
        if matches!(program, Expr::MapWithLiftedUdf { .. }) {
            lifted += 1;
            // The hoist (shared by condition and step), the CSE and the DCE.
            assert!(once.rewrites.len() >= 3, "seed {seed}: {:?}", once.rewrites);
        }
        let (base, stages_base, logged_base) = run(&program, &inputs, false);
        let (opt, stages_opt, logged_opt) = run(&program, &inputs, true);
        assert_eq!(base, opt, "seed {seed}: rewrites changed the result of {program:?}");
        // `run` logs each applied rewrite, `run_verbatim` none.
        assert_eq!((logged_base, logged_opt), (0, once.rewrites.len()), "seed {seed}");
        assert!(
            stages_opt <= stages_base,
            "seed {seed}: rewritten plan ran more stages ({stages_opt} > {stages_base}) \
             for {program:?}"
        );
    }
    // The sweep is only meaningful if rewrites actually fire, at both levels.
    assert!(total_rewrites >= 100, "too few rewrites across seeds: {total_rewrites}");
    assert!(lifted >= 20, "too few lifted programs across seeds: {lifted}");
}
