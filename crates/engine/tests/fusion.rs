//! Randomized fusion-equivalence tests: where a chain is cut must be
//! *unobservable* — same results, same simulated time, same
//! [`StatsSnapshot`] (up to the two fusion counters). Every seed builds its
//! chain twice on fresh engines: once dropping the intermediates (the chain
//! fuses) and once keeping every intermediate bound, which trips the
//! multi-consumer barrier at each node and forces the operator-at-a-time
//! schedule of length-1 chains. Both must also equal a sequential `Vec`
//! interpretation of the same op list. Chains of length 1–8 mix every narrow
//! operator with wide ones — `reduce_by_key`, `distinct`, `group_by_key` and
//! a join under both plans — whose map side absorbs the narrow run before
//! them and whose reduce side heads the one after, and a third of the cases
//! hang a second consumer off a mid-chain node.

use std::any::Any;

use matryoshka_engine::fx::{fx_map, fx_map_with_capacity};
use matryoshka_engine::partitioner::{partition_for, stable_hash};
use matryoshka_engine::{
    Bag, ClusterConfig, Data, Engine, EngineEvent, FxHashMap, JoinAlgorithm, Rule, StatsSnapshot,
};

/// splitmix64: a tiny, seedable generator so every case is reproducible
/// from its seed alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One randomly drawn link of a chain (some expand to two or three engine
/// operators).
enum Op {
    Add(u64),
    DropMultiples(u64),
    Expand(u64),
    KeyRotate,
    ZipAdd,
    /// Keeps a record where the hash of the seed and its unique id falls
    /// under [`SAMPLE_FRACTION`].
    Sample(u64),
    KeyedAdd,
    /// `reduce_by_key_into` that many partitions.
    SumByKey(usize),
    Distinct(usize),
    GroupByKey(usize),
    /// A repartition join into that many partitions, or a broadcast join.
    Join(Option<usize>),
}

/// The right side of every [`Op::Join`]: keys 0..23, the low 17 twice.
fn right_rows() -> Vec<(u64, u64)> {
    (0..40).map(|i| (i % 23, i * 1_000 + 1)).collect()
}

const RIGHT_PARTS: usize = 3;

fn joined(k: &u64, v: &u64, w: &u64) -> u64 {
    v.wrapping_add(*w) ^ k
}

fn folded(k: u64, vs: &[u64]) -> u64 {
    vs.iter().fold(k, |a, v| a.wrapping_mul(31).wrapping_add(*v))
}

const SAMPLE_FRACTION: f64 = 0.6;

fn sampled(seed: u64, id: u64) -> bool {
    stable_hash(&(seed, id)) <= (SAMPLE_FRACTION * u64::MAX as f64) as u64
}

fn expand(x: u64, c: u64) -> Vec<u64> {
    if x.is_multiple_of(3) {
        vec![x, x ^ c]
    } else if x.is_multiple_of(7) {
        vec![]
    } else {
        vec![x]
    }
}

/// Everything about a case is derived from its seed.
struct Case {
    n: u64,
    parts: usize,
    mul: u64,
    ops: Vec<Op>,
    fork_at: Option<usize>,
    fork_before_collect: bool,
}

fn draw_case(seed: u64) -> Case {
    let mut rng = seed;
    let n = 64 + splitmix64(&mut rng) % 200;
    let parts = 1 + (splitmix64(&mut rng) % 8) as usize;
    let mul = splitmix64(&mut rng) | 1;
    let len = 1 + (splitmix64(&mut rng) % 8) as usize;
    let fork_at = if splitmix64(&mut rng).is_multiple_of(3) {
        Some((splitmix64(&mut rng) % len as u64) as usize)
    } else {
        None
    };
    let fork_before_collect = splitmix64(&mut rng).is_multiple_of(2);
    let ops = (0..len)
        .map(|_| {
            let p = 1 + (splitmix64(&mut rng) % 6) as usize;
            match splitmix64(&mut rng) % 12 {
                0 => Op::Add(splitmix64(&mut rng)),
                1 => Op::DropMultiples(2 + splitmix64(&mut rng) % 5),
                2 => Op::Expand(splitmix64(&mut rng)),
                3 | 4 => Op::KeyRotate,
                5 => Op::ZipAdd,
                6 => Op::Sample(splitmix64(&mut rng)),
                7 => Op::KeyedAdd,
                8 => Op::SumByKey(p),
                9 => Op::Distinct(p),
                10 => Op::GroupByKey(p),
                _ => Op::Join((p > 3).then_some(p)),
            }
        })
        .collect();
    Case { n, parts, mul, ops, fork_at, fork_before_collect }
}

/// Live handles to a chain's intermediates. While `on`, every intermediate
/// stays bound until the case ends, so no operator can fuse through its
/// parent.
struct Held {
    on: bool,
    bags: Vec<Box<dyn Any>>,
}

impl Held {
    fn keep<T: Data>(&mut self, bag: Bag<T>) -> Bag<T> {
        if self.on {
            self.bags.push(Box::new(bag.clone()));
        }
        bag
    }
}

fn apply(bag: &Bag<u64>, op: &Op, held: &mut Held) -> Bag<u64> {
    match *op {
        Op::Add(c) => bag.map(move |&x| x.wrapping_add(c)),
        Op::DropMultiples(m) => bag.filter(move |&x| x % m != 0),
        Op::Expand(c) => bag.flat_map(move |&x| expand(x, c)),
        Op::KeyRotate => held.keep(bag.map(|&x| (x % 13, x))).map(|&(k, v)| v.rotate_left(1) ^ k),
        Op::ZipAdd => held.keep(bag.zip_with_unique_id()).map(|&(x, id)| x.wrapping_add(id)),
        Op::Sample(s) => {
            let ids = held.keep(bag.zip_with_unique_id());
            held.keep(ids.filter(move |&(_, id)| sampled(s, id))).map(|&(x, _)| x)
        }
        Op::KeyedAdd => {
            let keyed = held.keep(bag.map(|&x| (x % 11, x)));
            held.keep(keyed.map_values(|&v| v.wrapping_add(7))).map(|&(k, v)| k ^ v)
        }
        Op::SumByKey(p) => {
            let keyed = held.keep(bag.map(|&x| (x % 13, x)));
            held.keep(keyed.reduce_by_key_into(p, |a, b| a.wrapping_add(*b))).map(|&(k, v)| k ^ v)
        }
        Op::Distinct(p) => held.keep(bag.map(|&x| x % 29)).distinct_into(p),
        Op::GroupByKey(p) => {
            let keyed = held.keep(bag.map(|&x| (x % 7, x)));
            held.keep(keyed.group_by_key_into(p)).map(|(k, vs)| folded(*k, vs))
        }
        Op::Join(plan) => {
            let keyed = held.keep(bag.map(|&x| (x % 17, x)));
            let right = bag.engine().parallelize(right_rows(), RIGHT_PARTS);
            let join = match plan {
                Some(p) => keyed.joined_into(p, &right),
                None => keyed.joined_with(&right, JoinAlgorithm::BroadcastRight),
            };
            // The held arm takes the classic schedule: the tuple bag, then a map.
            if held.on {
                held.keep(join.pairs()).map(|(k, (v, w))| joined(k, v, w))
            } else {
                join.map(joined)
            }
        }
    }
}

/// Records placed by key hash, in input order, as the engine's scatter does.
fn scatter<T>(parts: Vec<Vec<T>>, partitions: usize, key: impl Fn(&T) -> u64) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
    for rec in parts.into_iter().flatten() {
        out[partition_for(&key(&rec), partitions)].push(rec);
    }
    out
}

/// First occurrences, in order.
fn first_occurrences(part: Vec<u64>) -> Vec<u64> {
    let mut seen = std::collections::HashSet::new();
    part.into_iter().filter(|x| seen.insert(*x)).collect()
}

/// Sums per key in an `FxHashMap` that starts as `acc`, read back in its
/// iteration order, as the engine's combine and merge do.
fn summed(mut acc: FxHashMap<u64, u64>, part: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    for (k, v) in part {
        let sum = acc.entry(k).or_insert(0);
        *sum = sum.wrapping_add(v);
    }
    acc.into_iter().collect()
}

/// The sequential oracle of a wide link over whole partition sets.
fn reference_wide(parts: Vec<Vec<u64>>, op: &Op) -> Vec<Vec<u64>> {
    match *op {
        Op::SumByKey(p) => {
            let keyed = parts.into_iter().map(|part| part.into_iter().map(|x| (x % 13, x)));
            let combined = keyed.map(|part| {
                let part: Vec<_> = part.collect();
                summed(fx_map_with_capacity(part.len()), part)
            });
            let placed = scatter(combined.collect(), p, |r| r.0);
            let merged = placed.into_iter().map(|part| summed(fx_map(), part));
            merged.map(|part| part.into_iter().map(|(k, v)| k ^ v).collect()).collect()
        }
        Op::Distinct(p) => {
            let combined = parts
                .into_iter()
                .map(|part| first_occurrences(part.iter().map(|x| x % 29).collect()));
            scatter(combined.collect(), p, |x| *x).into_iter().map(first_occurrences).collect()
        }
        Op::GroupByKey(p) => {
            let keyed =
                parts.into_iter().map(|part| part.into_iter().map(|x| (x % 7, x)).collect());
            let groups = scatter(keyed.collect(), p, |r| r.0).into_iter().map(|part| {
                let mut groups: FxHashMap<u64, Vec<u64>> = fx_map();
                part.into_iter().for_each(|(k, v)| groups.entry(k).or_default().push(v));
                groups
            });
            groups.map(|g| g.into_iter().map(|(k, vs)| folded(k, &vs)).collect()).collect()
        }
        Op::Join(plan) => {
            let keyed: Vec<Vec<(u64, u64)>> = parts
                .into_iter()
                .map(|part| part.into_iter().map(|x| (x % 17, x)).collect())
                .collect();
            let chunk = right_rows().len().div_ceil(RIGHT_PARTS);
            let right: Vec<Vec<(u64, u64)>> =
                right_rows().chunks(chunk).map(<[_]>::to_vec).collect();
            let (left, right) = match plan {
                Some(p) => (scatter(keyed, p, |r| r.0), scatter(right, p, |r| r.0)),
                None => {
                    let all = right.concat();
                    (keyed.clone(), keyed.iter().map(|_| all.clone()).collect())
                }
            };
            let probe = |(l, r): (Vec<(u64, u64)>, Vec<(u64, u64)>)| {
                let matches = |(k, v): (u64, u64)| {
                    let r = &r;
                    r.iter().filter(move |(rk, _)| *rk == k).map(move |(_, w)| joined(&k, &v, w))
                };
                l.into_iter().flat_map(matches).collect()
            };
            left.into_iter().zip(right).map(probe).collect()
        }
        _ => unreachable!("narrow links run per partition"),
    }
}

/// The sequential oracle: one link applied to plain per-partition vectors.
fn reference(parts: Vec<Vec<u64>>, op: &Op) -> Vec<Vec<u64>> {
    if matches!(op, Op::SumByKey(_) | Op::Distinct(_) | Op::GroupByKey(_) | Op::Join(_)) {
        return reference_wide(parts, op);
    }
    let nparts = parts.len() as u64;
    parts
        .into_iter()
        .zip(0u64..)
        .map(|(p, pi)| {
            let ids = p.iter().copied().zip((0u64..).map(|i| i * nparts + pi));
            match *op {
                Op::Add(c) => p.iter().map(|x| x.wrapping_add(c)).collect(),
                Op::DropMultiples(m) => p.iter().copied().filter(|x| x % m != 0).collect(),
                Op::Expand(c) => p.iter().flat_map(|&x| expand(x, c)).collect(),
                Op::KeyRotate => p.iter().map(|x| x.rotate_left(1) ^ (x % 13)).collect(),
                Op::ZipAdd => ids.map(|(x, id)| x.wrapping_add(id)).collect(),
                Op::Sample(s) => ids.filter(|&(_, id)| sampled(s, id)).map(|(x, _)| x).collect(),
                Op::KeyedAdd => p.iter().map(|x| (x % 11) ^ x.wrapping_add(7)).collect(),
                _ => unreachable!("wide links run over all partitions"),
            }
        })
        .collect()
}

fn run_reference(case: &Case) -> Vec<u64> {
    let chunk = case.n.div_ceil(case.parts as u64);
    let base: Vec<Vec<u64>> = (0..case.parts as u64)
        .map(|p| {
            ((p * chunk).min(case.n)..((p + 1) * chunk).min(case.n))
                .map(|i| i.wrapping_mul(case.mul))
                .collect()
        })
        .collect();
    case.ops.iter().fold(base, reference).concat()
}

/// Build and run the case's chain on a fresh engine, with the intermediates
/// either dropped (`hold == false`) or all kept alive.
fn run_case(case: &Case, hold: bool) -> (Vec<u64>, Option<u64>, u64, StatsSnapshot, bool) {
    let e = Engine::new(ClusterConfig::local_test());
    let mul = case.mul;
    let mut held = Held { on: hold, bags: Vec::new() };
    let mut bag = e.generate(case.n, case.parts, move |i| i.wrapping_mul(mul));
    let mut side: Option<Bag<u64>> = None;
    for (k, op) in case.ops.iter().enumerate() {
        if case.fork_at == Some(k) {
            // Second consumer: this node now has an external handle, so the
            // ops on either side of it must not fuse across it.
            side = Some(bag.clone());
        }
        let next = apply(&bag, op, &mut held);
        bag = held.keep(next);
    }
    let mut side_count = None;
    if case.fork_before_collect {
        if let Some(s) = &side {
            side_count = Some(s.count().unwrap());
        }
    }
    let out = bag.collect().unwrap();
    if !case.fork_before_collect {
        if let Some(s) = &side {
            side_count = Some(s.count().unwrap());
        }
    }
    // Whether a wide operator's side took part in a fused pass.
    let wide_fused = e.decisions().iter().any(|d| match d.rule {
        Rule::NarrowFusion { ops: name, .. } => {
            ["reduce_by_key", "distinct", "group_by_key", "join"]
                .iter()
                .any(|op| name.contains(&format!("{op}|")) || name.contains(&format!("|{op})")))
        }
        _ => false,
    });
    (out, side_count, e.sim_time().as_nanos(), e.stats(), wide_fused)
}

#[test]
fn chain_cuts_are_unobservable() {
    let (mut fused_somewhere, mut wide, mut wide_fused) = (false, 0, 0);
    for seed in 0..220u64 {
        let case = draw_case(seed);
        wide += case.ops.iter().filter(|op| matches!(op, Op::SumByKey(_) | Op::Join(_))).count();
        let (r_h, s_h, nanos_h, stats_h, _) = run_case(&case, true);
        let (r_f, s_f, nanos_f, mut stats_f, across) = run_case(&case, false);
        wide_fused += usize::from(across);
        assert_eq!(r_f, run_reference(&case), "seed {seed}: result differs from the oracle");
        assert_eq!(r_h, r_f, "seed {seed}: results diverge");
        assert_eq!(s_h, s_f, "seed {seed}: side-consumer counts diverge");
        assert_eq!(nanos_h, nanos_f, "seed {seed}: simulated time diverges");
        assert_eq!(
            (stats_h.stages_fused, stats_h.intermediates_elided),
            (0, 0),
            "seed {seed}: a held intermediate was fused through"
        );
        fused_somewhere |= stats_f.stages_fused > 0;
        stats_f.stages_fused = 0;
        stats_f.intermediates_elided = 0;
        assert_eq!(stats_h, stats_f, "seed {seed}: stats diverge beyond the fusion counters");
    }
    assert!(fused_somewhere, "the dropped-intermediates arm never fused");
    assert!(wide >= 100, "only {wide} reduce_by_key and join links drawn");
    assert!(wide_fused >= 50, "only {wide_fused} cases fused a pass across a wide operator");
}

/// The fused tail advertises its composite provenance after evaluation, and
/// the decision log records what was fused and why.
#[test]
fn fused_tail_reports_composite_name_and_logs_a_decision() {
    let e = Engine::new(ClusterConfig::local_test());
    let base = e.generate(100, 4, |i| i);
    // Bind the tail before the action: the map's temporary dies at the end
    // of this statement, leaving the chain exclusively owned at eval time.
    let tail = base.map(|&x| x + 1).filter(|&x| x % 2 == 0);
    assert_eq!(tail.op_name(), "filter", "pre-eval: a bag reports its own op");
    tail.count().unwrap();
    assert_eq!(tail.op_name(), "fused(map|filter)", "post-eval: composite provenance");
    let decisions = e.decisions();
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d.rule, Rule::NarrowFusion { ops: "fused(map|filter)", .. })),
        "expected a narrow_fusion decision, got: {decisions:?}"
    );
}

/// A chain of length 1 runs through the same executor but is not a fusion:
/// own op name, no `StageFused` event, no counters, no decision.
#[test]
fn a_chain_of_one_is_not_a_fusion() {
    let e = Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::local_test() });
    let mapped = e.generate(100, 4, |i| i).map(|&x| x + 1);
    assert_eq!(mapped.count().unwrap(), 100);
    assert_eq!(mapped.op_name(), "map");
    let events = e.events();
    assert!(events.iter().any(|ev| matches!(ev, EngineEvent::Stage { operator: "map", .. })));
    assert!(!events.iter().any(|ev| matches!(ev, EngineEvent::StageFused { .. })), "{events:?}");
    assert!(e.decisions().iter().all(|d| d.site != "narrow_fusion"));
    assert_eq!((e.stats().stages_fused, e.stats().intermediates_elided), (0, 0));
}
