//! Lineage-based recovery tests (see `docs/FAULTS.md`).
//!
//! The machine-loss fault model must be (a) deterministic per seed, (b)
//! invisible in results — programs execute for real, a loss only costs
//! simulated time — and (c) bounded by checkpoints: truncating lineage caps
//! how much recomputation one loss can cause. The golden fixture pins the
//! exact event sequence and simulated time of one seeded run; regenerate
//! with
//!
//! ```text
//! cargo test -p matryoshka-engine --test recovery -- --ignored --nocapture
//! ```

use matryoshka_engine::trace::assert_reconciles;
use matryoshka_engine::{Bag, ClusterConfig, Engine, EngineError, EngineEvent};

fn lossy_config(rate: f64, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::local_test();
    cfg.faults.machine_loss_rate = rate;
    cfg.faults.seed = seed;
    cfg
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

// The four golden workloads (mirroring tests/golden_sim.rs), returning
// their results so fault-free and faulty runs can be compared for value
// identity.

fn kmeans_step(e: &Engine) -> Vec<(u32, (u64, u64, u64))> {
    let points = e.generate(2_000, 8, |i| ((i % 100) as f64, ((i * 7) % 100) as f64));
    let centroids = [(10.0f64, 10.0f64), (50.0, 50.0), (90.0, 10.0), (25.0, 75.0)];
    let assigned = points.map(move |&(x, y)| {
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (ci, &(cx, cy)) in centroids.iter().enumerate() {
            let d = (x - cx) * (x - cx) + (y - cy) * (y - cy);
            if d < best_d {
                best_d = d;
                best = ci as u32;
            }
        }
        (best, (x, y, 1u64))
    });
    let sums = assigned.reduce_by_key(|a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    // Compare on integer centimils to keep the comparison Ord-friendly.
    sorted(
        sums.collect()
            .unwrap()
            .into_iter()
            .map(|(k, (x, y, n))| (k, ((x * 100.0) as u64, (y * 100.0) as u64, n)))
            .collect(),
    )
}

fn copartitioned_join_loop(e: &Engine) -> Vec<(u64, u64)> {
    let base = e.generate(2_000, 8, |i| (i, i)).partition_by_key(8);
    base.count().unwrap();
    let mut cur = base;
    for _ in 0..4 {
        let stepped = cur.map_values(|v| v + 1);
        cur = cur.join_into(8, &stepped).map_values(|&(a, b)| a + b);
        cur.count().unwrap();
    }
    sorted(cur.collect().unwrap())
}

fn distinct_program(e: &Engine) -> Vec<u64> {
    let b = e.generate(10_000, 8, |i| (i.wrapping_mul(2_654_435_761)) % 4_096);
    sorted(b.distinct_into(6).collect().unwrap())
}

fn shuffle_heavy(e: &Engine) -> Vec<(u64, (u64, u64))> {
    let l = e.generate(5_000, 8, |i| (i % 97, i));
    let agg = l.reduce_by_key(|a, b| a + b);
    let r = e.generate(500, 4, |i| (i % 97, i * 3));
    let joined = sorted(agg.join(&r).collect().unwrap());
    l.group_by_key().count().unwrap();
    joined
}

/// An iterative wide chain of configurable depth, optionally checkpointed
/// every iteration. Each `reduce_by_key` into a fresh partition count forces
/// a real shuffle (a stage-starting charge), growing lineage one stage per
/// iteration.
fn deep_chain(e: &Engine, depth: usize, checkpoint_each: bool) -> Vec<(u64, u64)> {
    let mut b: Bag<(u64, u64)> = e.generate(2_000, 8, |i| (i % 128, 1));
    for i in 0..depth {
        let parts = if i % 2 == 0 { 8 } else { 6 };
        b = b.reduce_by_key_into(parts, |a, c| a + c);
        if checkpoint_each {
            b = b.checkpoint();
        }
    }
    sorted(b.collect().unwrap())
}

#[test]
fn machine_loss_is_deterministic_and_costly() {
    let run = || {
        let e = Engine::new(lossy_config(0.2, 7));
        copartitioned_join_loop(&e);
        (e.sim_time(), e.stats())
    };
    let (t1, s1) = run();
    let (t2, s2) = run();
    assert_eq!(t1, t2, "machine loss must be deterministic per seed");
    assert_eq!(s1, s2);
    assert!(s1.partitions_lost > 0, "rate 0.2 over this chain must lose partitions");
    assert!(s1.recompute_nanos > 0, "losses must charge lineage replay time");

    let baseline = {
        let e = Engine::new(ClusterConfig::local_test());
        copartitioned_join_loop(&e);
        e.sim_time()
    };
    assert!(t1 > baseline, "recovery must cost simulated time over a fault-free run");
}

#[test]
fn results_are_value_identical_under_machine_loss() {
    // Machine loss invalidates simulated placement, never real data: every
    // workload's output must match its fault-free run bit for bit while the
    // fault counters prove losses actually happened.
    let lost_total: u64 = [
        {
            let a = kmeans_step(&Engine::new(ClusterConfig::local_test()));
            let e = Engine::new(lossy_config(0.3, 11));
            assert_eq!(a, kmeans_step(&e), "kmeans results changed under loss");
            e.stats().partitions_lost
        },
        {
            let a = copartitioned_join_loop(&Engine::new(ClusterConfig::local_test()));
            let e = Engine::new(lossy_config(0.3, 11));
            assert_eq!(a, copartitioned_join_loop(&e), "join-loop results changed under loss");
            e.stats().partitions_lost
        },
        {
            let a = distinct_program(&Engine::new(ClusterConfig::local_test()));
            let e = Engine::new(lossy_config(0.3, 11));
            assert_eq!(a, distinct_program(&e), "distinct results changed under loss");
            e.stats().partitions_lost
        },
        {
            let a = shuffle_heavy(&Engine::new(ClusterConfig::local_test()));
            let e = Engine::new(lossy_config(0.3, 11));
            assert_eq!(a, shuffle_heavy(&e), "shuffle-heavy results changed under loss");
            e.stats().partitions_lost
        },
    ]
    .iter()
    .sum();
    assert!(lost_total > 0, "rate 0.3 must lose partitions across the four workloads");
}

#[test]
fn recovery_exhaustion_fails_the_job_gracefully() {
    let mut cfg = lossy_config(0.999_999, 3);
    cfg.faults.max_recovery_attempts = 2;
    cfg.trace_events = true;
    let e = Engine::new(cfg);
    let b = e.parallelize((0..100u64).collect::<Vec<_>>(), 4);
    match b.count() {
        Err(EngineError::RecoveryFailed { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected RecoveryFailed, got {other:?}"),
    }
    // The stage ran before the boundary that killed the job: it is counted,
    // and the counters are still the fold of the events.
    assert_eq!((e.stats().stages, e.stats().records, e.stats().jobs_failed), (1, 100, 1));
    assert_reconciles(&e);
}

#[test]
fn checkpointing_bounds_recomputation() {
    let run = |depth: usize, checkpoint_each: bool| {
        let e = Engine::new(lossy_config(0.25, 0));
        let out = deep_chain(&e, depth, checkpoint_each);
        (out, e.stats())
    };
    // Deeper lineage means each loss replays more accumulated work.
    let (out3, plain3) = run(3, false);
    let (out9, plain9) = run(9, false);
    assert!(plain9.partitions_lost > 0, "rate 0.25 over 9 stages must lose partitions");
    assert!(
        plain9.recompute_nanos > plain3.recompute_nanos,
        "deeper lineage must recompute more: {} vs {}",
        plain9.recompute_nanos,
        plain3.recompute_nanos
    );
    // Checkpointing every iteration truncates lineage, so the per-loss
    // replay stays flat no matter how deep the chain gets.
    let (cout9, ckpt9) = run(9, true);
    assert_eq!(out9, cout9, "checkpointing must not change results");
    assert_eq!(out3.len(), 128, "chain reduces to the 128 keys");
    assert!(ckpt9.checkpoint_bytes > 0, "checkpoints must write modeled bytes");
    assert!(
        ckpt9.recompute_nanos < plain9.recompute_nanos,
        "truncated lineage must recompute less: {} vs {}",
        ckpt9.recompute_nanos,
        plain9.recompute_nanos
    );
}

/// The golden fixture: exact fault-event sequence and simulated time of one
/// seeded machine-loss run, so the recovery model itself is frozen the same
/// way `golden_sim.rs` freezes the fault-free cost model.
fn seeded_fixture_run() -> (u64, Vec<String>) {
    let mut cfg = lossy_config(0.2, 7);
    cfg.trace_events = true;
    let e = Engine::new(cfg);
    deep_chain(&e, 4, false);
    let events = e
        .events()
        .iter()
        .filter_map(|ev| match ev {
            EngineEvent::MachineLost { machine, stage, partitions_lost, .. } => {
                Some(format!("lost machine={machine} stage={stage} partitions={partitions_lost}"))
            }
            EngineEvent::PartitionRecomputed { machine, stage, partitions, .. } => {
                Some(format!("replay machine={machine} stage={stage} partitions={partitions}"))
            }
            EngineEvent::Checkpoint { bytes, .. } => Some(format!("checkpoint bytes={bytes}")),
            _ => None,
        })
        .collect();
    (e.sim_time().as_nanos(), events)
}

#[test]
fn golden_recovery_fixture_is_frozen() {
    let (sim_nanos, events) = seeded_fixture_run();
    assert_eq!(sim_nanos, GOLDEN_SIM_NANOS);
    assert_eq!(events, GOLDEN_EVENTS.iter().map(|s| s.to_string()).collect::<Vec<_>>());
}

const GOLDEN_SIM_NANOS: u64 = 480_747_955;

const GOLDEN_EVENTS: &[&str] = &[
    "lost machine=0 stage=1 partitions=8",
    "replay machine=0 stage=1 partitions=8",
    "lost machine=0 stage=3 partitions=15",
    "replay machine=0 stage=3 partitions=15",
];

/// Regeneration helper (see module docs): prints the pinned values.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_fixture_values() {
    let (sim_nanos, events) = seeded_fixture_run();
    println!("const GOLDEN_SIM_NANOS: u64 = {sim_nanos};");
    println!("const GOLDEN_EVENTS: &[&str] = &[");
    for ev in events {
        println!("    \"{ev}\",");
    }
    println!("];");
}
