//! A join that pushes its matches ([`Joined::map`], `flat_map`, `filter`) must
//! be *unobservable* next to the classic schedule it replaces: `pairs()`
//! followed by the narrow operator(s) of the same name with every
//! intermediate held (so nothing fuses). Every seed draws a shape — 1–16
//! partitions per side with empty ones, duplicate keys on both sides, keys
//! missing on either side, either plan, sides co-partitioned or not — and
//! runs each output shape both ways on fresh traced engines, with a `map`
//! and a `filter` after the join's own follower: same records in the same
//! per-partition order, same simulated time, same [`StatsSnapshot`] up to
//! the two fusion counters, and the same sequence of charges in the event
//! stream.

use matryoshka_engine::trace::assert_reconciles;
use matryoshka_engine::{
    Bag, ClusterConfig, Engine, EngineEvent, JoinAlgorithm, Joined, Rule, SimTime, StatsSnapshot,
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

/// Everything about a case is derived from its seed.
struct Case {
    left: Vec<(u64, u64)>,
    right: Vec<(u64, u64)>,
    left_parts: usize,
    right_parts: usize,
    /// Output partitions of the repartition plan; `None` broadcasts the right.
    plan: Option<usize>,
    /// Pre-place the left / right side by key into the plan's partition count.
    co_partition: (bool, bool),
}

fn draw_case(seed: u64) -> Case {
    let mut rng = seed;
    let mut below = |n: u64| splitmix64(&mut rng) % n;
    // Fewer records than partitions leaves some partitions empty; a small
    // key space repeats keys; the two ranges overlap only partly.
    let (left_parts, right_parts) = (1 + below(16) as usize, 1 + below(16) as usize);
    let (left_n, right_n) = (below(120), below(40));
    let (left_keys, right_keys, right_lo) = (1 + below(24), 1 + below(24), below(12));
    let left = (0..left_n).map(|i| (below(left_keys), i)).collect();
    let right = (0..right_n).map(|i| (right_lo + below(right_keys), 1_000 + i)).collect();
    let plan = (below(2) == 0).then(|| 1 + below(16) as usize);
    let co_partition = (below(2) == 0, below(2) == 0);
    Case { left, right, left_parts, right_parts, plan, co_partition }
}

/// Which of the three pushed shapes a run exercises.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Map,
    FlatMap,
    Filter,
}

fn mapped(k: &u64, v: &u64, w: &u64) -> (u64, u64) {
    (k ^ w, v.wrapping_mul(31).wrapping_add(*w))
}

fn expanded(k: &u64, v: &u64, w: &u64) -> Vec<(u64, u64)> {
    match (v + w) % 3 {
        0 => vec![],
        1 => vec![(*k, *v)],
        _ => vec![(*k, *v), (*w, *k)],
    }
}

fn kept(k: &u64, v: &u64, w: &u64) -> bool {
    !(k + v + w).is_multiple_of(3)
}

/// The pushed form: one node.
fn pushed(joined: &Joined<u64, u64, u64>, shape: Shape) -> Bag<(u64, u64)> {
    match shape {
        Shape::Map => joined.map(mapped),
        Shape::FlatMap => joined.flat_map(expanded),
        Shape::Filter => joined.filter(kept),
    }
}

/// The classic form: the tuple bag, then the narrow operators over it, every
/// intermediate returned so the caller keeps it alive.
fn classic(
    joined: &Joined<u64, u64, u64>,
    shape: Shape,
) -> (Bag<(u64, u64)>, Vec<Bag<(u64, (u64, u64))>>) {
    let pairs = joined.pairs();
    match shape {
        Shape::Map => (pairs.map(|(k, (v, w))| mapped(k, v, w)), vec![pairs]),
        Shape::FlatMap => (pairs.flat_map(|(k, (v, w))| expanded(k, v, w)), vec![pairs]),
        Shape::Filter => {
            let filtered = pairs.filter(|(k, (v, w))| kept(k, v, w));
            (filtered.map(|(k, (v, _))| (*k, *v)), vec![pairs, filtered])
        }
    }
}

/// Narrow operators after the join's own follower: pushed, they run in the
/// join's pass; classic, one at a time behind held bags.
fn narrow_tail(out: Bag<(u64, u64)>, push: bool) -> (Bag<(u64, u64)>, Vec<Bag<(u64, u64)>>) {
    let mapped = out.map(|&(a, b)| (b, a ^ b));
    let kept = mapped.filter(|(a, _)| !a.is_multiple_of(5));
    (kept, if push { vec![] } else { vec![out, mapped] })
}

/// A charge as the event stream shows it: `(kind, operator, tasks, records)`
/// (bytes where a charge has no record count).
type Charge = (&'static str, &'static str, u64, u64);

fn charges(engine: &Engine) -> Vec<Charge> {
    let charge = |ev: EngineEvent| match ev {
        EngineEvent::Stage { operator, tasks, records, .. } => {
            Some(("stage", operator, tasks, records))
        }
        EngineEvent::Shuffle { operator, records, .. } => Some(("shuffle", operator, 0, records)),
        EngineEvent::Broadcast { operator, bytes, .. } => Some(("broadcast", operator, 0, bytes)),
        EngineEvent::MemoryPeak { operator, peak_bytes, .. } => {
            Some(("memory_peak", operator, 0, peak_bytes))
        }
        EngineEvent::PartitionStats { operator, partitions, records, .. } => {
            Some(("partition_stats", operator, partitions, records))
        }
        _ => None,
    };
    engine.events().into_iter().filter_map(charge).collect()
}

type Outcome = (Result<Vec<Vec<(u64, u64)>>, String>, SimTime, StatsSnapshot, Vec<Charge>);

fn run_case(case: &Case, shape: Shape, push: bool) -> Outcome {
    let e = Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::local_test() });
    let place = |bag: Bag<(u64, u64)>, co: bool| match case.plan {
        Some(p) if co => bag.partition_by_key(p),
        _ => bag,
    };
    let left = place(e.parallelize(case.left.clone(), case.left_parts), case.co_partition.0);
    let right = place(e.parallelize(case.right.clone(), case.right_parts), case.co_partition.1);
    let joined = match case.plan {
        Some(p) => left.joined_into(p, &right),
        None => left.joined_with(&right, JoinAlgorithm::BroadcastRight),
    };
    let (out, _held) =
        if push { (pushed(&joined, shape), vec![]) } else { classic(&joined, shape) };
    let (out, _tail) = narrow_tail(out, push);
    let records = out.collect_partitions().map_err(|err| err.to_string());
    assert_reconciles(&e);
    (records, e.sim_time(), e.stats(), charges(&e))
}

#[test]
fn pushed_matches_are_unobservable() {
    let (mut repartitioned, mut broadcast, mut matched) = (0, 0, 0);
    for seed in 0..240u64 {
        let case = draw_case(seed);
        repartitioned += usize::from(case.plan.is_some());
        broadcast += usize::from(case.plan.is_none());
        for shape in [Shape::Map, Shape::FlatMap, Shape::Filter] {
            let what = format!("seed {seed}, {shape:?}");
            let (records_c, nanos_c, stats_c, charges_c) = run_case(&case, shape, false);
            let (records_p, nanos_p, mut stats_p, charges_p) = run_case(&case, shape, true);
            assert_eq!(records_p, records_c, "{what}: records per partition");
            assert_eq!(nanos_p, nanos_c, "{what}: simulated time");
            assert_eq!(charges_p, charges_c, "{what}: charge sequence");
            assert_eq!(
                (stats_c.stages_fused, stats_c.intermediates_elided),
                (0, 0),
                "{what}: a held intermediate was fused through"
            );
            assert!(stats_p.stages_fused > 0, "{what}: the pushed pass reports as a fusion");
            stats_p.stages_fused = 0;
            stats_p.intermediates_elided = 0;
            assert_eq!(stats_p, stats_c, "{what}: stats beyond the fusion counters");
            matched += records_p.map_or(0, |parts| parts.concat().len());
        }
    }
    assert!(repartitioned >= 60 && broadcast >= 60 && matched > 10_000);
}

/// A pushed pass reports through the fusion channel under the join's name:
/// one `StageFused` event and one `narrow_fusion` decision naming the join
/// and the followers it absorbed.
#[test]
fn a_pushed_pass_reports_as_a_join_headed_chain() {
    let fused = |build: fn(&Joined<u64, u64, u64>) -> Bag<(u64, u64)>| {
        let e = Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::local_test() });
        let left = e.parallelize((0..100u64).map(|i| (i % 10, i)).collect::<Vec<_>>(), 4);
        let right = e.parallelize((0..10u64).map(|i| (i, i * i)).collect::<Vec<_>>(), 2);
        build(&left.joined_with(&right, JoinAlgorithm::Repartition)).count().unwrap();
        let names: Vec<&'static str> = e
            .events()
            .into_iter()
            .filter_map(|ev| match ev {
                EngineEvent::StageFused { ops, .. } => Some(ops),
                _ => None,
            })
            .collect();
        let decided: Vec<&'static str> = e
            .decisions()
            .into_iter()
            .filter_map(|d| match d.rule {
                Rule::NarrowFusion { ops, .. } => Some(ops),
                _ => None,
            })
            .collect();
        assert_eq!(decided, names, "one decision per StageFused event");
        names
    };
    assert_eq!(fused(|j| j.map(mapped)), ["fused(join|map)"]);
    assert_eq!(fused(|j| j.flat_map(expanded)), ["fused(join|flat_map)"]);
    assert_eq!(fused(|j| j.filter(kept)), ["fused(join|filter|map)"]);
    // The join heads whatever narrow chain follows it, `pairs()` included.
    assert_eq!(fused(|j| j.pairs().map(|(k, (v, _))| (*k, *v))), ["fused(join|map)"]);
    let tail = |j: &Joined<u64, u64, u64>| j.map(mapped).filter(|(a, _)| a % 2 == 0);
    assert_eq!(fused(tail), ["fused(join|map|filter)"]);
}

/// Listing 4's PageRank loop in miniature: each iteration places its state by
/// key (after the first, every record is already home, so the scatter hands
/// the records on as they are) and joins it against one memoized,
/// co-partitioned relation (whose build tables are kept on its node and
/// built once). The same loop against a fresh, never-evaluated view of the
/// relation each iteration builds its tables per task: every iteration's
/// records, the simulated time, the stats and the charge sequence agree.
#[test]
fn a_loop_against_a_memoized_relation_matches_one_against_fresh_views() {
    const ITERATIONS: usize = 4;
    let run = |case: &Case, fresh: bool| {
        let e = Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::local_test() });
        let p = case.plan.unwrap_or(case.left_parts);
        // One record per key, placed by key: the loop's static relation.
        let relation = e.parallelize(case.right.clone(), case.right_parts);
        let relation = relation.reduce_by_key_into(p, |a, b| *a.max(b));
        relation.count().unwrap();
        let mut state = e.parallelize(case.left.clone(), case.left_parts);
        let mut rounds = Vec::new();
        for _ in 0..ITERATIONS {
            state = {
                let placed = state.partition_by_key(p);
                let view = if fresh {
                    relation.with_record_bytes(relation.record_bytes())
                } else {
                    relation.clone()
                };
                let joined = match case.plan {
                    Some(p) => placed.joined_into(p, &view),
                    None => placed.joined_with(&view, JoinAlgorithm::BroadcastRight),
                };
                joined.map(|k, v, w| (*k, v.wrapping_mul(31) ^ w))
            };
            rounds.push(state.collect_partitions().map_err(|err| err.to_string()));
        }
        assert_reconciles(&e);
        (rounds, e.sim_time(), e.stats(), charges(&e))
    };
    let mut matched = 0;
    for seed in 0..60u64 {
        let case = draw_case(seed);
        let kept = run(&case, false);
        let fresh = run(&case, true);
        assert_eq!(kept.0, fresh.0, "seed {seed}: records per iteration");
        assert_eq!(kept.1, fresh.1, "seed {seed}: simulated time");
        assert_eq!(kept.2, fresh.2, "seed {seed}: stats");
        assert_eq!(kept.3, fresh.3, "seed {seed}: charge sequence");
        matched += kept.0.iter().flatten().map(|parts| parts.concat().len()).sum::<usize>();
    }
    assert!(matched > 1_000, "{matched} records over every iteration");
}
