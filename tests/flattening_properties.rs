//! Property-style tests of the flattening's correctness invariants
//! (paper Sec. 7): for pseudo-randomly generated nested data, the lifted
//! operations must preserve the semantics of the original per-group
//! operations — the isomorphism `m(op(x)) = op'(m(x))` checked on many
//! seeded inputs.
//!
//! Inputs come from a deterministic SplitMix64 stream so failures are
//! reproducible by seed.

use std::collections::HashMap;

use matryoshka::core::{
    group_by_key_into_nested_bag, lifted_while, InnerScalar, LiftingContext, MatryoshkaConfig,
};
use matryoshka::engine::{ClusterConfig, Engine};
use matryoshka::tasks::bounce_rate;

fn engine() -> Engine {
    Engine::new(ClusterConfig::local_test())
}

/// Deterministic 64-bit generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    fn len(&mut self, max: u64) -> usize {
        match self.below(8) {
            0 => 0,
            1 => 1,
            _ => self.below(max) as usize,
        }
    }
    /// Tagged records: small key space so groups collide, values in a small
    /// range so aggregations are interesting.
    fn tagged_records(&mut self) -> Vec<(u32, i64)> {
        let n = self.len(120);
        (0..n).map(|_| (self.below(8) as u32, self.below(40) as i64 - 20)).collect()
    }
}

const SEEDS: u64 = 16;

/// Per-group sequential oracle for a map/filter/aggregate pipeline.
fn oracle_pipeline(records: &[(u32, i64)]) -> Vec<(u32, (i64, u64))> {
    let mut groups: HashMap<u32, Vec<i64>> = HashMap::new();
    for &(k, v) in records {
        groups.entry(k).or_default().push(v);
    }
    let mut out: Vec<(u32, (i64, u64))> = groups
        .into_iter()
        .map(|(k, vs)| {
            let mapped: Vec<i64> = vs.iter().map(|v| v * 3 + 1).filter(|v| v % 2 != 0).collect();
            let sum: i64 = mapped.iter().sum();
            (k, (sum, mapped.len() as u64))
        })
        .collect();
    out.sort_by_key(|(k, _)| *k);
    out
}

/// m(op(x)) = op'(m(x)) for a map+filter+fold+count pipeline over
/// arbitrary nested data.
#[test]
fn lifted_pipeline_matches_per_group_oracle() {
    for seed in 0..SEEDS {
        let records = Gen::new(seed).tagged_records();
        let expect = oracle_pipeline(&records);
        let e = engine();
        let bag = e.parallelize(records.clone(), 5);
        let nested = group_by_key_into_nested_bag(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
        let result = nested.map_with_lifted_udf(|_k, group| {
            let mapped = group.map(|v| v * 3 + 1).filter(|v| v % 2 != 0);
            let sum = mapped.fold(0i64, |a, v| a + v, |a, b| *a += b);
            let count = mapped.count();
            sum.zip_with(&count, |s, c| (*s, *c))
        });
        let mut got = result.collect().unwrap();
        got.sort_by_key(|(k, _)| *k);
        assert_eq!(got, expect, "seed {seed}");
    }
}

/// Lifted distinct+count equals per-group set cardinality.
#[test]
fn lifted_distinct_count_matches() {
    for seed in 0..SEEDS {
        let records = Gen::new(seed ^ 0x11).tagged_records();
        let mut expect: Vec<(u32, u64)> = {
            let mut m: HashMap<u32, std::collections::HashSet<i64>> = HashMap::new();
            for &(k, v) in &records {
                m.entry(k).or_default().insert(v);
            }
            m.into_iter().map(|(k, s)| (k, s.len() as u64)).collect()
        };
        expect.sort_by_key(|(k, _)| *k);
        let e = engine();
        let bag = e.parallelize(records.clone(), 4);
        let nested = group_by_key_into_nested_bag(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
        let mut got =
            nested.map_with_lifted_udf(|_k, group| group.distinct().count()).collect().unwrap();
        got.sort_by_key(|(k, _)| *k);
        assert_eq!(got, expect, "seed {seed}");
    }
}

/// Lifted reduce_by_key never merges across tags, for arbitrary data.
#[test]
fn lifted_reduce_by_key_respects_tags() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0x22);
        let n = g.len(100);
        let records: Vec<(u32, u32, i64)> =
            (0..n).map(|_| (g.below(5) as u32, g.below(4) as u32, 1 + g.below(9) as i64)).collect();
        let mut expect: HashMap<(u32, u32), i64> = HashMap::new();
        for &(t, k, v) in &records {
            *expect.entry((t, k)).or_insert(0) += v;
        }
        let e = engine();
        let pairs: Vec<(u32, (u32, i64))> = records.iter().map(|&(t, k, v)| (t, (k, v))).collect();
        let bag = e.parallelize(pairs, 4);
        let nested = group_by_key_into_nested_bag(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
        let got = nested
            .map_with_lifted_udf(|_t, group| group.reduce_by_key(|a, b| *a += b))
            .collect()
            .unwrap();
        assert_eq!(got.len(), expect.len(), "seed {seed}");
        for (t, (k, v)) in got {
            assert_eq!(expect.get(&(t, k)), Some(&v), "tag {t} key {k} seed {seed}");
        }
    }
}

/// The lifted do-while retires every tag after exactly its own number
/// of iterations, for arbitrary per-tag iteration counts (Listing 4's
/// P1-P3 as a property).
#[test]
fn lifted_while_matches_per_tag_loops() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0x33);
        let n = 1 + g.below(23) as usize;
        let counts: Vec<i64> = (0..n).map(|_| g.below(12) as i64).collect();
        let e = engine();
        let tags: Vec<u64> = (0..counts.len() as u64).collect();
        let ctx = LiftingContext::new(
            e.clone(),
            e.parallelize(tags.clone(), 3),
            tags.len() as u64,
            MatryoshkaConfig::optimized(),
        );
        let init = InnerScalar::from_repr(
            e.parallelize(tags.iter().map(|&t| (t, (counts[t as usize], 0i64))).collect(), 3),
            ctx,
        );
        let out = lifted_while(
            &init,
            |s: &InnerScalar<u64, (i64, i64)>| {
                let next = s.map(|(n, steps)| (n - 1, steps + 1));
                let cond = next.map(|(n, _)| *n > 0);
                Ok((next, cond))
            },
            None,
        )
        .unwrap();
        let mut got = out.collect().unwrap();
        got.sort_by_key(|(t, _)| *t);
        for (t, (_, steps)) in got {
            // A do-while runs at least once.
            let expect = counts[t as usize].max(1);
            assert_eq!(steps, expect, "tag {t} seed {seed}");
        }
    }
}

/// Matryoshka bounce rate equals the sequential oracle for arbitrary
/// visit logs (the end-to-end isomorphism on the paper's Listing 1).
#[test]
fn bounce_rate_is_correct_on_arbitrary_logs() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0x44);
        let n = 1 + g.below(149) as usize;
        let visits: Vec<(u32, u64)> = (0..n).map(|_| (g.below(6) as u32, g.below(30))).collect();
        let e = engine();
        let oracle = bounce_rate::reference(&visits);
        let bag = e.parallelize(visits.clone(), 4);
        let got = bounce_rate::matryoshka(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
        assert_eq!(got.len(), oracle.len(), "seed {seed}");
        for ((d1, r1), (d2, r2)) in got.iter().zip(&oracle) {
            assert_eq!(d1, d2, "seed {seed}");
            assert!((r1 - r2).abs() < 1e-12, "seed {seed}");
        }
    }
}

/// collect_nested is the inverse isomorphism m^-1: grouping then
/// reconstructing yields exactly the driver-side grouping.
#[test]
fn nested_bag_roundtrip() {
    for seed in 0..SEEDS {
        let records = Gen::new(seed ^ 0x55).tagged_records();
        let e = engine();
        let bag = e.parallelize(records.clone(), 4);
        let nested = group_by_key_into_nested_bag(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
        let mut got = nested.collect_nested().unwrap();
        got.iter_mut().for_each(|(_, vs)| vs.sort());
        got.sort_by_key(|(k, _)| *k);
        let mut expect: HashMap<u32, Vec<i64>> = HashMap::new();
        for &(k, v) in &records {
            expect.entry(k).or_default().push(v);
        }
        let mut expect: Vec<(u32, Vec<i64>)> = expect
            .into_iter()
            .map(|(k, mut vs)| {
                vs.sort();
                (k, vs)
            })
            .collect();
        expect.sort_by_key(|(k, _)| *k);
        assert_eq!(got, expect, "seed {seed}");
    }
}

/// The IR's pure evaluator agrees with the lifted scalar pipeline: a
/// random arithmetic expression over a per-group count computes the
/// same value lifted as it does sequentially.
#[test]
fn ir_lifted_scalars_match_pure_evaluation() {
    use matryoshka::ir::ast::{BinOp, Expr, Lambda};
    use matryoshka::ir::{parsing_phase, Dialect, Lowering, RtVal, Value};

    for seed in 0..8u64 {
        let mut g = Gen::new(seed ^ 0x66);
        let n = 1 + g.below(39) as usize;
        let records: Vec<(i64, i64)> =
            (0..n).map(|_| (g.below(4) as i64, g.below(5) as i64)).collect();
        let mul = 1 + g.below(4) as i64;
        let add = g.below(10) as i64 - 5;

        let program = Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
            Lambda::new(
                "g",
                Expr::Tuple(vec![
                    Expr::proj(Expr::var("g"), 0),
                    Expr::bin(
                        BinOp::Add,
                        Expr::bin(
                            BinOp::Mul,
                            Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
                            Expr::long(mul),
                        ),
                        Expr::long(add),
                    ),
                ]),
            ),
        );
        let parsed = parsing_phase(&program, &["xs"], Dialect::Matryoshka).unwrap();
        let e = engine();
        let xs = e.parallelize(
            records
                .iter()
                .map(|&(k, v)| Value::tuple(vec![Value::Long(k), Value::Long(v)]))
                .collect(),
            3,
        );
        let lowering = Lowering::new(e.clone(), MatryoshkaConfig::optimized());
        let out = lowering.run(&parsed, &HashMap::from([("xs".to_string(), xs)])).unwrap();
        let mut got = match out {
            RtVal::Bag(b) => b.collect().unwrap(),
            other => panic!("expected bag, got {other:?}"),
        };
        got.sort();
        let mut expect: HashMap<i64, i64> = HashMap::new();
        for &(k, _) in &records {
            *expect.entry(k).or_insert(0) += 1;
        }
        let mut expect: Vec<Value> = expect
            .into_iter()
            .map(|(k, n)| Value::tuple(vec![Value::Long(k), Value::Long(n * mul + add)]))
            .collect();
        expect.sort();
        assert_eq!(got, expect, "seed {seed}");
    }
}
