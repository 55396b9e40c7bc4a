//! The two-phase flattening on display: write a nested-parallel program **as
//! text** in the embedded language (the role Emma plays in the paper), watch
//! the parsing phase insert the nesting primitives (Listing 1 -> Listing 2),
//! then lower and execute it — and see the DIQL-like dialect reject the loop
//! the full system handles (Sec. 9.1's capability gap).
//!
//! Run with: `cargo run --release --example two_phase_flattening`

use std::collections::HashMap;

use matryoshka::core::MatryoshkaConfig;
use matryoshka::engine::Engine;
use matryoshka::ir::pretty::{plan_tree, to_source};
use matryoshka::ir::{parse_program, parsing_phase, Dialect, Lowering, RtVal, Value};

fn main() {
    // The paper's Listing 1, as text: per-day bounce rate with nested
    // parallel operations inside the map UDF.
    let bounce_rate_src = r#"
        map(groupByKey(source(visits)), g =>
          let group = g.1 in
          let counts = reduceByKey(map(group, ip => (ip, 1)), (a, b) => a + b) in
          let bounces = count(filter(counts, kv => kv.1 == 1)) in
          let total = count(distinct(group)) in
          (g.0, toDouble(bounces) / toDouble(total)))
    "#;
    let listing1 = parse_program(bounce_rate_src).expect("program parses");

    println!("--- Listing 1: the nested-parallel program ---\n{}\n", to_source(&listing1));

    println!("--- phase 1: the parsing phase (compile time) ---");
    let listing2 = parsing_phase(&listing1, &["visits"], Dialect::Matryoshka).expect("flattens");
    println!("{}", plan_tree(&listing2));
    println!("(groupByKey became GroupByKeyIntoNestedBag; the map became a\n mapWithLiftedUDF that runs its UDF exactly once, lifted.)\n");

    println!("--- phase 2: the lowering phase (runtime) ---");
    let engine = Engine::local();
    let visits = engine.parallelize(
        vec![
            Value::tuple(vec![Value::Long(1), Value::Long(10)]),
            Value::tuple(vec![Value::Long(1), Value::Long(10)]),
            Value::tuple(vec![Value::Long(1), Value::Long(11)]),
            Value::tuple(vec![Value::Long(2), Value::Long(12)]),
        ],
        2,
    );
    let lowering = Lowering::new(engine.clone(), MatryoshkaConfig::optimized());
    let out = lowering
        .run(&listing2, &HashMap::from([("visits".to_string(), visits)]))
        .expect("lowering");
    let mut rows = match out {
        RtVal::Bag(b) => b.collect().expect("collect"),
        other => panic!("expected a bag, got {other:?}"),
    };
    rows.sort();
    println!("per-day bounce rates:");
    for r in &rows {
        println!("  {r}");
    }

    // A per-group loop, which the DIQL-like dialect cannot flatten.
    let loop_src = r#"
        map(groupByKey(source(xs)), g =>
          loop (n = count(g.1), steps = 0)
          while n > 0
          do (n - 1, steps + 1)
          yield (g.0, steps))
    "#;
    let loop_prog = parse_program(loop_src).expect("loop program parses");
    println!("\n--- control flow at an inner nesting level ---\n{}\n", to_source(&loop_prog));
    match parsing_phase(&loop_prog, &["xs"], Dialect::DiqlLike) {
        Err(e) => println!("DIQL-like dialect: {e}"),
        Ok(_) => println!("DIQL-like dialect unexpectedly accepted the loop"),
    }
    let flattened =
        parsing_phase(&loop_prog, &["xs"], Dialect::Matryoshka).expect("Matryoshka flattens it");

    let e2 = Engine::local();
    let mut rows = Vec::new();
    for k in 1..=4i64 {
        for _ in 0..k {
            rows.push(Value::tuple(vec![Value::Long(k), Value::Long(0)]));
        }
    }
    let xs = e2.parallelize(rows, 4);
    let out = Lowering::new(e2.clone(), MatryoshkaConfig::optimized())
        .run(&flattened, &HashMap::from([("xs".to_string(), xs)]))
        .expect("lifted loop runs");
    let mut results = match out {
        RtVal::Bag(b) => b.collect().expect("collect"),
        other => panic!("expected a bag, got {other:?}"),
    };
    results.sort();
    println!("Matryoshka runs it — per-group loop steps (group k of size k => k steps):");
    for v in &results {
        println!("  {v}");
    }
    println!(
        "\n{} simulated, {} jobs — one exit check per lifted iteration, not per group ✓",
        e2.sim_time(),
        e2.stats().jobs
    );
}
