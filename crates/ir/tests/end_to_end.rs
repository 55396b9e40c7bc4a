//! End-to-end tests of the two-phase flattening through the IR: programs
//! written in the nested-parallel language, parsed (phase 1) and lowered
//! onto the engine (phase 2), checked against driver-side oracles.

use std::collections::HashMap;

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::{Bag, Engine};
use matryoshka_ir::ast::{BinOp, Expr, Lambda, Lambda2, UnOp};
use matryoshka_ir::{parsing_phase, Dialect, Lowering, RtVal, Value};

fn run(program: &Expr, sources: Vec<(&str, Bag<Value>)>, engine: &Engine) -> RtVal {
    let parsed = parsing_phase(
        program,
        &sources.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        Dialect::Matryoshka,
    )
    .expect("parsing phase");
    let inputs: HashMap<String, Bag<Value>> =
        sources.into_iter().map(|(n, b)| (n.to_string(), b)).collect();
    Lowering::new(engine.clone(), MatryoshkaConfig::optimized())
        .run(&parsed, &inputs)
        .expect("lowering")
}

fn bag_of(out: RtVal) -> Vec<Value> {
    match out {
        RtVal::Bag(b) => {
            let mut v = b.collect().unwrap();
            v.sort();
            v
        }
        other => panic!("expected a bag, got {other:?}"),
    }
}

fn pair(a: Value, b: Value) -> Value {
    Value::tuple(vec![a, b])
}

/// The paper's Listing 1: per-day bounce rate, written in the IR and
/// compared against the sequential oracle.
#[test]
fn bounce_rate_listing1_through_the_ir() {
    // (day, ip) visit records: day 1 has ips {10, 10, 11} (one bounce of
    // two visitors), day 2 has {12} (one bounce of one visitor).
    let visits: Vec<(i64, i64)> = vec![(1, 10), (1, 10), (1, 11), (2, 12)];

    let group = Expr::proj(Expr::var("g"), 1);
    let counts_per_ip = Expr::ReduceByKey(
        Box::new(Expr::Map(
            Box::new(group.clone()),
            Lambda::new("ip", Expr::Tuple(vec![Expr::var("ip"), Expr::long(1)])),
        )),
        Lambda2::new("a", "b", Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b"))),
    );
    let num_bounces = Expr::Count(Box::new(Expr::Filter(
        Box::new(counts_per_ip),
        Lambda::new("kv", Expr::bin(BinOp::Eq, Expr::proj(Expr::var("kv"), 1), Expr::long(1))),
    )));
    let num_visitors = Expr::Count(Box::new(Expr::Distinct(Box::new(group))));
    let rate = Expr::bin(
        BinOp::Div,
        Expr::Un(UnOp::ToDouble, Box::new(num_bounces)),
        Expr::Un(UnOp::ToDouble, Box::new(num_visitors)),
    );
    let program = Expr::Map(
        Box::new(Expr::GroupByKey(Box::new(Expr::Source("visits".into())))),
        Lambda::new("g", Expr::Tuple(vec![Expr::proj(Expr::var("g"), 0), rate])),
    );

    let e = Engine::local();
    let bag = e.parallelize(
        visits.iter().map(|&(d, ip)| pair(Value::Long(d), Value::Long(ip))).collect(),
        3,
    );
    let out = bag_of(run(&program, vec![("visits", bag)], &e));
    assert_eq!(
        out,
        vec![pair(Value::Long(1), Value::Double(0.5)), pair(Value::Long(2), Value::Double(1.0)),]
    );
}

/// A lifted loop: each group's counter counts down from its size; groups
/// exit at different iterations (Sec. 6.2's P1-P3 through the IR).
#[test]
fn per_group_loop_through_the_ir() {
    // Groups: key 1 -> 3 elements, key 2 -> 1 element.
    let data = [(1, 10), (1, 20), (1, 30), (2, 40)];
    // For each group: loop { steps++ ; n-- } while n > 0; result (key, steps).
    let program = Expr::Map(
        Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
        Lambda::new(
            "g",
            Expr::Loop {
                init: vec![
                    ("n".into(), Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1)))),
                    ("steps".into(), Expr::long(0)),
                ],
                cond: Box::new(Expr::bin(BinOp::Gt, Expr::var("n"), Expr::long(0))),
                step: vec![
                    Expr::bin(BinOp::Sub, Expr::var("n"), Expr::long(1)),
                    Expr::bin(BinOp::Add, Expr::var("steps"), Expr::long(1)),
                ],
                result: Box::new(Expr::Tuple(vec![
                    Expr::proj(Expr::var("g"), 0),
                    Expr::var("steps"),
                ])),
            },
        ),
    );
    let e = Engine::local();
    let bag =
        e.parallelize(data.iter().map(|&(k, v)| pair(Value::Long(k), Value::Long(v))).collect(), 2);
    let out = bag_of(run(&program, vec![("xs", bag)], &e));
    assert_eq!(
        out,
        vec![pair(Value::Long(1), Value::Long(3)), pair(Value::Long(2), Value::Long(1))]
    );
}

/// A driver-level closure referenced inside the lifted UDF (Sec. 5.2's
/// scalar replication): scale each group's count by an outer weight.
#[test]
fn scalar_closure_through_the_ir() {
    let program = Expr::let_(
        "w",
        Expr::long(100),
        Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
            Lambda::new(
                "g",
                Expr::bin(
                    BinOp::Mul,
                    Expr::var("w"),
                    Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
                ),
            ),
        ),
    );
    let e = Engine::local();
    let bag = e.parallelize(
        vec![
            pair(Value::Long(1), Value::Long(0)),
            pair(Value::Long(1), Value::Long(0)),
            pair(Value::Long(2), Value::Long(0)),
        ],
        2,
    );
    let out = bag_of(run(&program, vec![("xs", bag)], &e));
    assert_eq!(out, vec![Value::Long(100), Value::Long(200)]);
}

/// A driver-level *bag* closure consumed by a lifted map: the half-lifted
/// mapWithClosure cross product (Sec. 5.2/8.3) through the IR.
#[test]
fn half_lifted_closure_through_the_ir() {
    // For each group, the sum over the shared bag `ys` of (group_count * y).
    let program = Expr::let_(
        "ys_local",
        Expr::long(0), // placeholder to exercise Let around the map
        Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
            Lambda::new(
                "g",
                Expr::let_(
                    "n",
                    Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
                    Expr::Fold(
                        Box::new(Expr::Map(
                            Box::new(Expr::Source("ys".into())),
                            Lambda::new("y", Expr::bin(BinOp::Mul, Expr::var("n"), Expr::var("y"))),
                        )),
                        Box::new(Expr::long(0)),
                        Lambda2::new(
                            "a",
                            "b",
                            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                        ),
                    ),
                ),
            ),
        ),
    );
    // NOTE: `ys` is a source read inside the lifted UDF; the parsing phase
    // treats sources as globally available bags, so the map over `ys`
    // becomes the half-lifted cross against the lifted closure `n`.
    let e = Engine::local();
    let xs = e.parallelize(
        vec![
            pair(Value::Long(1), Value::Long(0)),
            pair(Value::Long(1), Value::Long(0)),
            pair(Value::Long(2), Value::Long(0)),
        ],
        2,
    );
    let ys = e.parallelize(vec![Value::Long(1), Value::Long(2), Value::Long(3)], 2);
    let parsed = parsing_phase(&program, &["xs", "ys"], Dialect::Matryoshka);
    // The IR keeps sources out of closure lists; a source inside a lifted
    // UDF is rejected with a clear error instead of silently mis-running.
    match parsed {
        Ok(p) => {
            let inputs = HashMap::from([("xs".to_string(), xs), ("ys".to_string(), ys)]);
            let r = Lowering::new(e.clone(), MatryoshkaConfig::optimized()).run(&p, &inputs);
            match r {
                Ok(out) => {
                    // If supported, check the values: group1 n=2 -> 2*(1+2+3)=12,
                    // group2 n=1 -> 6.
                    let mut vals = bag_of(out);
                    vals.sort();
                    assert_eq!(vals, vec![Value::Long(6), Value::Long(12)]);
                }
                Err(err) => {
                    assert!(err.to_string().contains("closure"), "unexpected error: {err}");
                }
            }
        }
        Err(err) => assert!(err.to_string().contains("closure"), "unexpected error: {err}"),
    }
}

/// The DIQL dialect rejects the loop program the Matryoshka dialect runs —
/// the capability gap the paper evaluates (Sec. 9.1, 9.4).
#[test]
fn diql_dialect_gap() {
    let program = Expr::Map(
        Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
        Lambda::new(
            "g",
            Expr::Loop {
                init: vec![("n".into(), Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))))],
                cond: Box::new(Expr::bin(BinOp::Gt, Expr::var("n"), Expr::long(0))),
                step: vec![Expr::bin(BinOp::Sub, Expr::var("n"), Expr::long(1))],
                result: Box::new(Expr::var("n")),
            },
        ),
    );
    assert!(parsing_phase(&program, &["xs"], Dialect::Matryoshka).is_ok());
    assert!(parsing_phase(&program, &["xs"], Dialect::DiqlLike).is_err());
}

/// Driver-mode programs (no nesting) execute directly: the parsed program
/// is unchanged and runs on plain engine bags.
#[test]
fn flat_program_runs_in_driver_mode() {
    // xs.map(x => x * x).filter(x > 10): word-of-god oracle.
    let program = Expr::Filter(
        Box::new(Expr::Map(
            Box::new(Expr::Source("xs".into())),
            Lambda::new("x", Expr::bin(BinOp::Mul, Expr::var("x"), Expr::var("x"))),
        )),
        Lambda::new("x", Expr::bin(BinOp::Gt, Expr::var("x"), Expr::long(10))),
    );
    let e = Engine::local();
    let xs = e.parallelize((1..=6).map(Value::Long).collect(), 3);
    let out = bag_of(run(&program, vec![("xs", xs)], &e));
    assert_eq!(out, vec![Value::Long(16), Value::Long(25), Value::Long(36)]);
}

/// Lifted `if`: groups take different branches per tag.
#[test]
fn lifted_if_through_the_ir() {
    // For each group: if count > 1 then count * 10 else -count.
    let count = Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1)));
    let program = Expr::Map(
        Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
        Lambda::new(
            "g",
            Expr::If(
                Box::new(Expr::bin(BinOp::Gt, count.clone(), Expr::long(1))),
                Box::new(Expr::bin(BinOp::Mul, count.clone(), Expr::long(10))),
                Box::new(Expr::Un(UnOp::Neg, Box::new(count))),
            ),
        ),
    );
    let e = Engine::local();
    let xs = e.parallelize(
        vec![
            pair(Value::Long(1), Value::Long(0)),
            pair(Value::Long(1), Value::Long(0)),
            pair(Value::Long(2), Value::Long(0)),
        ],
        2,
    );
    let out = bag_of(run(&program, vec![("xs", xs)], &e));
    assert_eq!(out, vec![Value::Long(-1), Value::Long(20)]);
}

/// Lifted join between two inner bags of the same group (composite-key
/// rekeying, Sec. 4.4) through the IR.
#[test]
fn lifted_join_through_the_ir() {
    // Per group: join the group's (k, v) records with themselves shifted,
    // then count matches.
    let inner = Expr::proj(Expr::var("g"), 1);
    let left = Expr::Map(
        Box::new(inner.clone()),
        Lambda::new("x", Expr::Tuple(vec![Expr::var("x"), Expr::long(1)])),
    );
    let right = Expr::Map(
        Box::new(inner),
        Lambda::new("x", Expr::Tuple(vec![Expr::var("x"), Expr::long(2)])),
    );
    let program = Expr::Map(
        Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
        Lambda::new("g", Expr::Count(Box::new(Expr::Join(Box::new(left), Box::new(right))))),
    );
    let e = Engine::local();
    // Group 1 has elements {5, 6}; group 2 has {5}. Join keys must NOT
    // cross groups: counts are 2 and 1 (5 in group2 matches only its own).
    let xs = e.parallelize(
        vec![
            pair(Value::Long(1), Value::Long(5)),
            pair(Value::Long(1), Value::Long(6)),
            pair(Value::Long(2), Value::Long(5)),
        ],
        2,
    );
    let out = bag_of(run(&program, vec![("xs", xs)], &e));
    assert_eq!(out, vec![Value::Long(1), Value::Long(2)]);
}

/// `flatMap` whose UDF captures a lifted scalar (flatMapWithClosure, Sec.
/// 5.2): each group's elements are emitted next to the group's size,
/// checked against a per-group sequential reference.
#[test]
fn flat_map_with_lifted_captures_runs() {
    let xs = [(1, 10), (1, 20), (1, 30), (2, 40), (3, 5), (3, 6)];
    let emitted = || {
        Expr::FlatMapTuple(
            Box::new(Expr::proj(Expr::var("g"), 1)),
            Lambda::new("v", Expr::Tuple(vec![Expr::var("v"), Expr::var("n")])),
        )
    };
    let program = Expr::Map(
        Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
        Lambda::new(
            "g",
            Expr::let_(
                "n",
                Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
                Expr::Tuple(vec![
                    Expr::proj(Expr::var("g"), 0),
                    Expr::Count(Box::new(emitted())),
                    Expr::Fold(
                        Box::new(emitted()),
                        Box::new(Expr::long(0)),
                        Lambda2::new(
                            "a",
                            "b",
                            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                        ),
                    ),
                ]),
            ),
        ),
    );

    let mut want = Vec::new();
    for k in [1, 2, 3] {
        let group: Vec<i64> = xs.iter().filter(|x| x.0 == k).map(|x| x.1).collect();
        let n = group.len() as i64;
        let out: Vec<i64> = group.iter().flat_map(|&v| [v, n]).collect();
        want.push(Value::tuple(vec![
            Value::Long(k),
            Value::Long(out.len() as i64),
            Value::Long(out.iter().sum()),
        ]));
    }

    let e = Engine::local();
    let bag =
        e.parallelize(xs.iter().map(|&(k, v)| pair(Value::Long(k), Value::Long(v))).collect(), 2);
    assert_eq!(bag_of(run(&program, vec![("xs", bag)], &e)), want);
}

/// Parse `src`, run it over `xs` (one source, `(key, value)` pairs) and
/// return the sorted result bag.
fn run_text(src: &str, xs: &[(i64, i64)]) -> Vec<Value> {
    let program = matryoshka_ir::parse_program(src).expect("program parses");
    let e = Engine::local();
    let bag =
        e.parallelize(xs.iter().map(|&(k, v)| pair(Value::Long(k), Value::Long(v))).collect(), 2);
    bag_of(run(&program, vec![("xs", bag)], &e))
}

/// A `map` over the nested result of a bag-valued lifted `map` is itself
/// lifted: the analyzer types the inner map `Bag(2)` and the rewriter takes
/// its word for it.
#[test]
fn map_over_a_bag_valued_lifted_map_is_lifted() {
    let xs = [(1, 2), (1, 5), (2, 7), (3, 1), (3, 9), (3, 4), (4, 0)];
    // Reference: group, keep values > 3 per group, then one row per group.
    let mut kept: Vec<(i64, Vec<i64>)> = Vec::new();
    for &(k, v) in &xs {
        if !kept.iter().any(|(g, _)| *g == k) {
            kept.push((k, Vec::new()));
        }
        if v > 3 {
            kept.iter_mut().find(|(g, _)| *g == k).unwrap().1.push(v);
        }
    }
    let keys: Vec<Value> = kept.iter().map(|(k, _)| Value::Long(*k)).collect();
    let sizes: Vec<Value> =
        kept.iter().map(|(k, vs)| pair(Value::Long(*k), Value::Long(vs.len() as i64))).collect();

    let nested = "map(groupByKey(source(xs)), g => filter(g.1, v => v > 3))";
    assert_eq!(run_text(&format!("map({nested}, h => h.0)"), &xs), keys);
    assert_eq!(run_text(&format!("let nb = {nested} in map(nb, h => h.0)"), &xs), keys);
    assert_eq!(run_text(&format!("map({nested}, h => (h.0, count(h.1)))"), &xs), sizes);
}

/// A loop initializer may read the loop variables declared before it, in a
/// leaf UDF and in a lifted one: they are bound, not captured.
#[test]
fn later_loop_initializers_read_earlier_loop_variables() {
    let xs = [(1, 3), (1, 0), (2, 5)];
    // i = n, acc = i; while i > 0 { (i, acc) = (i - 1, acc + i) }; acc
    let triangle = |n: i64| {
        let (mut i, mut acc) = (n, n);
        while i > 0 {
            (i, acc) = (i - 1, acc + i);
        }
        acc
    };

    let mut leaf: Vec<Value> = xs.iter().map(|&(_, v)| Value::Long(triangle(v))).collect();
    leaf.sort();
    let src = "map(source(xs), v => \
               loop (i = v.1, acc = i) while i > 0 do (i - 1, acc + i) yield acc)";
    assert_eq!(run_text(src, &xs), leaf);

    // Per group, starting from the group's size: key 1 has 2 records, key 2 one.
    let lifted = vec![
        pair(Value::Long(1), Value::Long(triangle(2))),
        pair(Value::Long(2), Value::Long(triangle(1))),
    ];
    let src = "map(groupByKey(source(xs)), g => \
               loop (n = count(g.1), m = n) while n > 0 do (n - 1, m + n) yield (g.0, m))";
    assert_eq!(run_text(src, &xs), lifted);
}

/// What a per-group reference sees: the group's size, its inner bag, the
/// flat source `ys`, and the records of the operand under test.
struct Group<'a> {
    n: i64,
    inner: &'a [(i64, i64)],
    ys: &'a [(i64, i64)],
    b: &'a [(i64, i64)],
}

fn sum(it: impl Iterator<Item = i64>) -> i64 {
    it.sum()
}

fn distinct(it: impl Iterator<Item = (i64, i64)>) -> i64 {
    it.collect::<std::collections::BTreeSet<_>>().len() as i64
}

/// Sum over the join of `l` and `r` of (left value - right value).
fn join_diff(l: &[(i64, i64)], r: &[(i64, i64)]) -> i64 {
    sum(l.iter().flat_map(|a| r.iter().filter(move |b| b.0 == a.0).map(move |b| a.1 - b.1)))
}

const SUM: &str = "0, (a, b) => a + b";

/// Bag operator x operand kind inside a lifted UDF: `{B}` is replaced by
/// each operand, `{SUM}` by the summing fold's tail.
const OPERATOR_TABLE: &[(&str, fn(&Group) -> i64)] = &[
    ("fold(map({B}, p => p.1 * 2), {SUM})", |g| sum(g.b.iter().map(|p| p.1 * 2))),
    ("let n = count(g.1) in fold(map({B}, p => p.1 + n), {SUM})", |g| {
        sum(g.b.iter().map(|p| p.1 + g.n))
    }),
    ("count(filter({B}, p => p.0 > 1))", |g| g.b.iter().filter(|p| p.0 > 1).count() as i64),
    ("let n = count(g.1) in count(filter({B}, p => p.0 < n))", |g| {
        g.b.iter().filter(|p| p.0 < g.n).count() as i64
    }),
    ("count(flatMap({B}, p => (p.0, p.1)))", |g| 2 * g.b.len() as i64),
    // flatMapWithClosure: a tag join over `g.1`, a cross product over a flat bag.
    ("let n = count(g.1) in fold(flatMap({B}, p => (p.1, p.1 * n)), {SUM})", |g| {
        sum(g.b.iter().map(|p| p.1 + p.1 * g.n))
    }),
    ("fold(map(reduceByKey({B}, (a, b) => a + b), p => p.0 * p.1), {SUM})", |g| {
        sum(g.b.iter().map(|p| p.0 * p.1))
    }),
    ("fold(map(join({B}, source(ys)), r => (r.1).0 - (r.1).1), {SUM})", |g| join_diff(g.b, g.ys)),
    ("fold(map(join(source(ys), {B}), r => (r.1).0 - (r.1).1), {SUM})", |g| join_diff(g.ys, g.b)),
    ("count(distinct(union(g.1, {B})))", |g| distinct(g.inner.iter().chain(g.b).copied())),
    ("count(union({B}, g.1))", |g| (g.b.len() + g.inner.len()) as i64),
    ("count(distinct({B}))", |g| distinct(g.b.iter().copied())),
    ("count({B})", |g| g.b.len() as i64),
    ("fold(map({B}, p => p.0), {SUM})", |g| sum(g.b.iter().map(|p| p.0))),
    ("count(cache({B}))", |g| g.b.len() as i64),
    // A bag as a lifted-loop variable: every group iterates on its own copy.
    (
        "loop (b = {B}, i = count(g.1)) while i > 0 do (map(b, p => (p.0, p.1 + 1)), i - 1) \
         yield fold(map(b, p => p.1), {SUM})",
        |g| sum(g.b.iter().map(|p| p.1 + g.n)),
    ),
    // The shapes ISSUE 15 lists (all but the second-to-last failed after
    // admission with `expected an inner bag`, that one with `lifted join
    // requires inner bags (left)`).
    ("count(g.1) + count(distinct(source(ys)))", |g| g.n + distinct(g.ys.iter().copied())),
    ("count(union(source(ys), source(ys)))", |g| 2 * g.ys.len() as i64),
    ("count(union(g.1, map(source(ys), y => (y.1, y.0))))", |g| g.n + g.ys.len() as i64),
    ("fold(map(source(ys), y => y.1), {SUM}) + count(g.1)", |g| {
        sum(g.ys.iter().map(|y| y.1)) + g.n
    }),
    ("count(join(source(ys), map(g.1, v => (v.0, 1))))", |g| {
        g.ys.iter().map(|y| g.inner.iter().filter(|v| v.0 == y.0).count() as i64).sum()
    }),
];

/// Every bag operator, inside a lifted UDF, over an inner bag (`g.1`), a
/// source read (`source(ys)`) and a driver `let`-bound bag, against a
/// per-group `Vec` reference. Each program goes the way a service job
/// does: `prepare_program` (no diagnostic at all), then `run`.
#[test]
fn bag_operators_over_every_operand_kind_inside_a_lifted_udf() {
    // xs: (key, (a, b)), so all three operands are bags of pairs.
    let xs: Vec<(i64, (i64, i64))> = vec![
        (1, (1, 10)),
        (1, (2, 20)),
        (1, (2, 20)),
        (2, (5, 7)),
        (3, (1, 1)),
        (3, (3, 30)),
        (3, (4, 2)),
        (3, (5, 50)),
    ];
    let ys: Vec<(i64, i64)> = vec![(1, 100), (2, 200), (2, 200), (3, 5), (9, 9)];
    let big: Vec<(i64, i64)> = ys.iter().copied().filter(|y| y.1 > 50).collect();
    let operands: [(&str, &str, Option<&[(i64, i64)]>); 3] = [
        ("", "g.1", None),
        ("", "source(ys)", Some(&ys)),
        ("let big = filter(source(ys), y => y.1 > 50) in ", "big", Some(&big)),
    ];
    let long_pair = |p: &(i64, i64)| pair(Value::Long(p.0), Value::Long(p.1));
    let run = |src: &str| -> Vec<Value> {
        let p = matryoshka_ir::prepare_program(src, Dialect::Matryoshka)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        assert!(p.analysis.diagnostics.is_empty(), "{src}: {}", p.analysis.diagnostics);
        let e = Engine::local();
        let inputs = HashMap::from([
            (
                "xs".to_string(),
                e.parallelize(
                    xs.iter().map(|(k, v)| pair(Value::Long(*k), long_pair(v))).collect(),
                    3,
                ),
            ),
            ("ys".to_string(), e.parallelize(ys.iter().map(long_pair).collect(), 2)),
        ]);
        let out = p.run(e, MatryoshkaConfig::optimized(), &inputs);
        bag_of(out.unwrap_or_else(|e| panic!("{src}: admitted, then failed: {e}")))
    };

    for (template, reference) in OPERATOR_TABLE {
        let operands = if template.contains("{B}") { &operands[..] } else { &operands[..1] };
        for (prefix, operand, records) in operands {
            let body = template.replace("{B}", operand).replace("{SUM}", SUM);
            let src = format!("{prefix}map(groupByKey(source(xs)), g => (g.0, {body}))");
            let want: Vec<Value> = [1, 2, 3]
                .iter()
                .map(|&k| {
                    let inner: Vec<(i64, i64)> =
                        xs.iter().filter(|x| x.0 == k).map(|x| x.1).collect();
                    let g = Group {
                        n: inner.len() as i64,
                        inner: &inner,
                        ys: &ys,
                        b: records.unwrap_or(&inner),
                    };
                    pair(Value::Long(k), Value::Long(reference(&g)))
                })
                .collect();
            assert_eq!(run(&src), want, "{src}");
        }
    }

    // A lifted UDF over a flat bag whose body filters another source under
    // the lifted parameter.
    let mut want: Vec<Value> = ys
        .iter()
        .map(|y| {
            pair(Value::Long(y.0), Value::Long(xs.iter().filter(|x| x.0 == y.0).count() as i64))
        })
        .collect();
    want.sort();
    assert_eq!(
        run("map(source(ys), y => (y.0, count(filter(source(xs), x => x.0 == y.0))))"),
        want
    );
    // A lifted UDF that returns a flat bag: every group gets all of it.
    let nested = "map(map(groupByKey(source(xs)), g => source(ys)), h => (h.0, count(h.1)))";
    let want: Vec<Value> =
        [1, 2, 3].iter().map(|&k| pair(Value::Long(k), Value::Long(ys.len() as i64))).collect();
    assert_eq!(run(nested), want);
}

/// What the evaluator has no cell for is turned away at admission, not
/// after it.
#[test]
fn shapes_without_a_runtime_cell_are_rejected_by_the_analyzer() {
    let g = "map(groupByKey(source(xs)), g => ";
    let nb = "let nb = groupByKey(source(ys)) in ";
    for (src, code) in [
        // The fold zero is evaluated once, outside the lifted UDF.
        (format!("{g}fold(map(g.1, v => v.1), g.0, (a, b) => a + b))"), "MAT010"),
        // The lifted `if` selects between scalars.
        (format!("{g}count(if count(g.1) > 1 then g.1 else source(ys)))"), "MAT011"),
        // A nested bag is neither a loop variable nor a lifted UDF's result.
        (
            format!("{nb}{g}loop (b = nb, i = 0) while i < 1 do (b, i + 1) yield count(b))"),
            "MAT011",
        ),
        (format!("{nb}{g}nb)"), "MAT008"),
    ] {
        let err = matryoshka_ir::prepare_program(&src, Dialect::Matryoshka)
            .expect_err(&format!("{src} must be rejected"));
        let diags = err.diagnostics().unwrap_or_else(|| panic!("{src}: {err}"));
        assert!(diags.iter().any(|d| d.code == code), "{src}: {diags}");
    }
}
