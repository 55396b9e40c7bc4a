//! Differential property tests pinning the compiled UDF evaluator
//! ([`matryoshka_ir::CompiledUdf`]) to the tree-walking interpreter
//! ([`matryoshka_ir::eval_pure`]), which stays in the codebase precisely to
//! serve as this oracle.
//!
//! For hundreds of seeded random scalar expression trees — nested `let`
//! chains, shadowing, guaranteed-terminating `loop`s, mixed Long/Double
//! arithmetic, and deliberately ill-typed or bag-containing subtrees — the
//! two evaluators must agree *exactly*: same `Value` bit-for-bit (doubles
//! compare by bit pattern), same error message, or same panic — through
//! each of the compiled UDF's three entry points. A final end-to-end test
//! runs a whole program through the [`Lowering`] and compares it with a
//! sequential reference.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::{Bag, Engine};
use matryoshka_ir::ast::{BinOp, Expr, UnOp};
use matryoshka_ir::{eval_pure, parsing_phase, CompiledUdf, Dialect, Lowering, RtVal, Value};

/// splitmix64 (same generator the round-trip property tests use).
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

/// Generates *scalar-shaped* expression trees over two parameters and three
/// captured names. Unlike the round-trip generator it needs no surface
/// syntax, so it can produce shadowing, arbitrary tuples, and (rarely)
/// bag-op subtrees whose lazy errors both evaluators must reproduce alike.
struct Gen {
    rng: Rng,
    scope: Vec<String>,
    fresh: u32,
}

impl Gen {
    fn fresh_name(&mut self) -> String {
        self.fresh += 1;
        format!("x{}", self.fresh)
    }

    fn leaf(&mut self) -> Expr {
        match self.rng.below(8) {
            0 => Expr::long(self.rng.below(100) as i64),
            1 => Expr::Const(Value::Bool(self.rng.below(2) == 0)),
            2 => Expr::Const(Value::Double([0.5, -1.25, 3.0, 10.75][self.rng.below(4) as usize])),
            3 => Expr::Const(Value::Str(["a", "bee"][self.rng.below(2) as usize].into())),
            _ => {
                let i = self.rng.below(self.scope.len() as u64) as usize;
                Expr::var(&self.scope[i].clone())
            }
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        let d = depth - 1;
        match self.rng.below(16) {
            0 | 1 => self.leaf(),
            2 => {
                let n = 2 + self.rng.below(2);
                Expr::Tuple((0..n).map(|_| self.expr(d)).collect())
            }
            3 => Expr::proj(self.expr(d), self.rng.below(3) as usize),
            4..=6 => {
                const OPS: [BinOp; 9] = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::Lt,
                    BinOp::Gt,
                    BinOp::And,
                    BinOp::Or,
                ];
                let op = OPS[self.rng.below(9) as usize];
                Expr::bin(op, self.expr(d), self.expr(d))
            }
            7 => {
                let op = [UnOp::Not, UnOp::Neg, UnOp::ToDouble][self.rng.below(3) as usize];
                Expr::Un(op, Box::new(self.expr(d)))
            }
            8..=10 => {
                // `let` chains, sometimes deliberately shadowing an
                // in-scope name (slot resolution must keep them apart).
                let n = if self.rng.below(3) == 0 && !self.scope.is_empty() {
                    let i = self.rng.below(self.scope.len() as u64) as usize;
                    self.scope[i].clone()
                } else {
                    self.fresh_name()
                };
                let v = self.expr(d);
                self.scope.push(n.clone());
                let b = self.expr(d);
                self.scope.pop();
                Expr::Let(n, Box::new(v), Box::new(b))
            }
            11 | 12 => {
                Expr::If(Box::new(self.expr(d)), Box::new(self.expr(d)), Box::new(self.expr(d)))
            }
            13 | 14 => {
                // A loop that provably terminates: a fresh counter ticks
                // down from a small literal, the extra variable is random.
                let i = self.fresh_name();
                let acc = self.fresh_name();
                let init_i = Expr::long(self.rng.below(12) as i64);
                let init_acc = self.expr(d);
                self.scope.push(i.clone());
                self.scope.push(acc.clone());
                let step_acc = self.expr(d);
                let result = self.expr(d);
                self.scope.pop();
                self.scope.pop();
                Expr::Loop {
                    init: vec![(i.clone(), init_i), (acc, init_acc)],
                    cond: Box::new(Expr::bin(BinOp::Gt, Expr::var(&i), Expr::long(0))),
                    step: vec![Expr::bin(BinOp::Sub, Expr::var(&i), Expr::long(1)), step_acc],
                    result: Box::new(result),
                }
            }
            _ => {
                // Rare bag-op subtree: unsupported in a scalar context, but
                // only when evaluation *reaches* it (laziness parity).
                Expr::Count(Box::new(Expr::Source("xs".into())))
            }
        }
    }
}

type Outcome = Result<Result<Value, String>, ()>;

/// Evaluate with panics captured (a panic must happen on both sides or
/// neither).
fn capture(f: impl FnOnce() -> Result<Value, matryoshka_ir::IrError>) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).map(|r| r.map_err(|e| e.to_string())).map_err(|_| ())
}

fn differential_case(seed: u64, depth: u32) {
    let mut g = Gen {
        rng: Rng(seed.wrapping_mul(0x9e3779b9) ^ 0x636f_6d70_696c_6564), // "compiled"
        scope: vec!["p".into(), "q".into(), "ca".into(), "cb".into(), "cc".into()],
        fresh: 0,
    };
    let body = Arc::new(g.expr(depth));
    let captures: HashMap<String, Value> = HashMap::from([
        ("ca".to_string(), Value::Long(7)),
        ("cb".to_string(), Value::Double(0.25)),
        ("cc".to_string(), Value::tuple(vec![Value::Long(1), Value::str("t")])),
    ]);
    // The three shapes the lowering compiles: a combiner over (p, q); a
    // lifted-closure UDF that receives `ca` and `q` as the components of one
    // combined tuple; and (per argument pair, below) a one-parameter UDF
    // with `q` inlined as a capture.
    let combiner = CompiledUdf::new(&body, &["p", "q"], captures.clone(), false);
    let mut unlifted = captures.clone();
    let ca = unlifted.remove("ca").unwrap();
    let with_closure = CompiledUdf::new(&body, &["p", "ca", "q"], unlifted, false);

    let args = [
        (Value::Long(5), Value::Long(-3)),
        (Value::Double(2.5), Value::Long(1000)),
        (Value::tuple(vec![Value::Long(9), Value::Bool(true)]), Value::str("s")),
        // Neighbours that are one f64: `<`/`>` must order them as integers.
        (Value::Long(1 << 53), Value::Long((1 << 53) + 1)),
        (Value::Long(-(1 << 53)), Value::Long(-(1 << 53) - 1)),
    ];
    for (p, q) in &args {
        let mut env = captures.clone();
        env.insert("q".to_string(), q.clone());
        let leaf = CompiledUdf::new(&body, &["p"], env.clone(), false);
        env.insert("p".to_string(), p.clone());
        let want = capture(|| eval_pure(&body, &env));
        let combined = Value::tuple(vec![ca.clone(), q.clone()]);
        for (entry, got) in [
            ("eval2", capture(|| combiner.eval2(p, q))),
            ("eval1", capture(|| leaf.eval1(p))),
            ("eval_with_combined", capture(|| with_closure.eval_with_combined(p, &combined))),
        ] {
            assert_eq!(
                got, want,
                "seed {seed}: {entry} and the interpreter disagree on {body:?} at p={p}, q={q}"
            );
        }
    }
}

#[test]
fn compiled_matches_interpreter_on_random_trees() {
    // Keep panics from the expected type-error cases quiet.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = catch_unwind(|| {
        for seed in 0..600u64 {
            differential_case(seed, 4);
        }
        // A handful of deep trees: long let chains and nested loops.
        for seed in [3u64, 17, 99, 256, 4095] {
            differential_case(seed, 6);
        }
    });
    std::panic::set_hook(prev);
    run.expect("differential property failed");
}

#[test]
fn deep_let_chain_is_linear_and_exact() {
    // let a1 = p + 1 in let a2 = a1 + 1 in ... yields p + n: a 400-binder
    // chain is far past where the old clone-per-let interpreter hurt, and
    // both evaluators must still agree exactly. Both walk the chain
    // recursively, so give the test thread a roomy stack for debug builds.
    std::thread::Builder::new()
        .stack_size(32 * 1024 * 1024)
        .spawn(|| {
            let mut body = Expr::var("a400");
            for i in (1..=400u32).rev() {
                let prev = if i == 1 { "p".to_string() } else { format!("a{}", i - 1) };
                body = Expr::Let(
                    format!("a{i}"),
                    Box::new(Expr::bin(BinOp::Add, Expr::var(&prev), Expr::long(1))),
                    Box::new(body),
                );
            }
            let body = Arc::new(body);
            let compiled = CompiledUdf::new(&body, &["p"], HashMap::new(), false);
            let mut env = HashMap::from([("p".to_string(), Value::Long(10))]);
            assert_eq!(compiled.eval1(&Value::Long(10)).unwrap(), Value::Long(410));
            env.insert("p".to_string(), Value::Long(-400));
            assert_eq!(
                compiled.eval1(&Value::Long(-400)).unwrap(),
                eval_pure(&body, &env).unwrap()
            );
        })
        .unwrap()
        .join()
        .unwrap();
}

/// End-to-end: a lowered program, whose per-record UDFs all run compiled,
/// against the same computation interpreted by hand, group by group.
#[test]
fn lowering_results_identical_compiled_vs_interpreted() {
    let program = matryoshka_ir::parse_program(
        "map(groupByKey(source(visits)), g =>
            let total = fold(map(g.1, ip => (let w = ip * 2 in w + 1)), 0, (a, b) => a + b) in
            (g.0, toDouble(total) / toDouble(count(g.1))))",
    )
    .unwrap();
    let parsed = parsing_phase(&program, &["visits"], Dialect::Matryoshka).unwrap();
    let visits: Vec<(i64, i64)> = (0..40).map(|i| (i % 4, i)).collect();

    let engine = Engine::local();
    let bag: Bag<Value> = engine.parallelize(
        visits.iter().map(|&(k, ip)| Value::tuple(vec![Value::Long(k), Value::Long(ip)])).collect(),
        4,
    );
    let out = Lowering::new(engine, MatryoshkaConfig::optimized())
        .run(&parsed, &HashMap::from([("visits".to_string(), bag)]))
        .unwrap();
    let RtVal::Bag(out) = out else { panic!("expected a bag, got {out:?}") };
    let mut compiled = out.collect().unwrap();
    compiled.sort();

    let interpreted: Vec<Value> = (0..4i64)
        .map(|k| {
            let group: Vec<i64> = visits.iter().filter(|v| v.0 == k).map(|v| v.1).collect();
            let total: i64 = group.iter().map(|ip| ip * 2 + 1).sum();
            Value::tuple(vec![Value::Long(k), Value::Double(total as f64 / group.len() as f64)])
        })
        .collect();
    assert_eq!(compiled, interpreted);
}

/// `Long` overflow is one defined error in every build profile (`ci.sh` runs
/// this test in release too): `i64::MAX + 1`, `-(i64::MIN)` and
/// `i64::MIN * -1` fail alike at driver level, inside a compiled UDF — as an
/// unfoldable constant, over a parameter and over a statically `Long` loop
/// variable — and in the interpreter.
#[test]
fn long_overflow_is_one_error_in_every_entry_point() {
    let (max, min) = (Expr::long(i64::MAX), Expr::long(i64::MIN));
    let neg = |x: Expr| Expr::Un(UnOp::Neg, Box::new(x));
    // `loop (i = start) while i cond 0 do (step(i)) yield i`: `i` stays
    // `Long`, so the step runs on the compiler's typed arithmetic path.
    let looped = |start: i64, cond: BinOp, step: Expr| Expr::Loop {
        init: vec![("i".into(), Expr::long(start))],
        cond: Box::new(Expr::bin(cond, Expr::var("i"), Expr::long(0))),
        step: vec![step],
        result: Box::new(Expr::var("i")),
    };
    let cases = [
        (
            "Long overflow in 9223372036854775807 + 1",
            Expr::bin(BinOp::Add, max, Expr::long(1)),
            Expr::bin(BinOp::Add, Expr::var("v"), Expr::long(1)),
            Value::Long(i64::MAX),
            looped(i64::MAX - 1, BinOp::Gt, Expr::bin(BinOp::Add, Expr::var("i"), Expr::long(1))),
        ),
        (
            "Long overflow in 0 - -9223372036854775808",
            neg(min.clone()),
            neg(Expr::var("v")),
            Value::Long(i64::MIN),
            looped(i64::MIN, BinOp::Lt, neg(Expr::var("i"))),
        ),
        (
            "Long overflow in -9223372036854775808 * -1",
            Expr::bin(BinOp::Mul, min, Expr::long(-1)),
            Expr::bin(BinOp::Mul, Expr::var("v"), Expr::long(-1)),
            Value::Long(i64::MIN),
            looped(i64::MIN, BinOp::Lt, Expr::bin(BinOp::Mul, Expr::var("i"), Expr::long(-1))),
        ),
    ];
    for (message, constant, over_v, v, over_loop) in cases {
        let want = format!("type error: {message}");
        let parsed = parsing_phase(&constant, &[], Dialect::Matryoshka).unwrap();
        let driver = Lowering::new(Engine::local(), MatryoshkaConfig::optimized())
            .run(&parsed, &HashMap::new())
            .expect_err("driver level");
        assert_eq!(driver.to_string(), want);
        let env = HashMap::from([("v".to_string(), v.clone())]);
        for body in [constant, over_v, over_loop] {
            let compiled = CompiledUdf::new(&Arc::new(body.clone()), &["v"], HashMap::new(), false);
            let got = compiled.eval1(&v).expect_err("compiled");
            assert_eq!(got.to_string(), want, "compiled {body:?}");
            let got = eval_pure(&body, &env).expect_err("interpreted");
            assert_eq!(got.to_string(), want, "eval_pure {body:?}");
        }
    }
}
