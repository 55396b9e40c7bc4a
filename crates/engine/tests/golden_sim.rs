//! Golden determinism tests: the simulated cost model is frozen.
//!
//! Host-side (wall-clock) optimizations — lock-free pools, zero-copy
//! partition flow, faster hash tables — must never change what a program
//! *costs* on the simulated cluster. These tests pin the exact simulated
//! time (in nanoseconds) and the full [`StatsSnapshot`] of representative
//! programs to values recorded before the host-executor fast path landed
//! (PR 2). If an engine change moves any of these numbers, it changed the
//! model, not just the host execution, and the figures are no longer
//! comparable across versions.
//!
//! To regenerate after an *intentional* model change, run:
//!
//! ```text
//! cargo test -p matryoshka-engine --test golden_sim -- --ignored --nocapture
//! ```
//!
//! and paste the printed values into the `golden_*` constants below.

use matryoshka_engine::{ClusterConfig, Engine, Partitioning, StatsSnapshot};

/// One program's pinned simulated outcome.
#[derive(Debug, PartialEq)]
struct Golden {
    sim_nanos: u64,
    stats: StatsSnapshot,
}

fn run<R>(program: impl FnOnce(&Engine) -> R) -> Golden {
    let e = Engine::new(ClusterConfig::local_test());
    program(&e);
    Golden { sim_nanos: e.sim_time().as_nanos(), stats: e.stats() }
}

/// One K-means assignment + re-aggregation step (the inner loop of the
/// paper's Fig. 1 motivation workload), written directly against the engine.
fn kmeans_step(e: &Engine) {
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
    let out = sums.collect().unwrap();
    assert_eq!(out.len(), 4, "every centroid attracts some points");
}

/// Iterative co-partitioned join/reduce loop: after one `partition_by_key`,
/// every iteration's join and by-key aggregation ride the narrow
/// (shuffle-free) path — the workload whose wall-clock cost the fast path
/// targets.
fn copartitioned_join_loop(e: &Engine) {
    let base = e.generate(2_000, 8, |i| (i, i)).partition_by_key(8);
    base.count().unwrap();
    let mut cur = base;
    for _ in 0..4 {
        let stepped = cur.map_values(|v| v + 1);
        assert_eq!(stepped.partitioning(), Partitioning::HashByKey { partitions: 8 });
        cur = cur.join_into(8, &stepped).map_values(|&(a, b)| a + b);
        cur.count().unwrap();
    }
}

/// Distinct over a skewed value set (exercises the map-side dedup + shuffle
/// scatter path rewritten by the fast path).
fn distinct_program(e: &Engine) {
    let b = e.generate(10_000, 8, |i| (i.wrapping_mul(2_654_435_761)) % 4_096);
    let d = b.distinct_into(6);
    d.count().unwrap();
}

/// A shuffle-heavy mix covering the non-co-partitioned scatter paths:
/// `reduce_by_key`, repartition `join`, and `group_by_key`.
fn shuffle_heavy(e: &Engine) {
    let l = e.generate(5_000, 8, |i| (i % 97, i));
    let agg = l.reduce_by_key(|a, b| a + b);
    let r = e.generate(500, 4, |i| (i % 97, i * 3));
    agg.join(&r).count().unwrap();
    l.group_by_key().count().unwrap();
}

fn golden_kmeans() -> Golden {
    Golden {
        sim_nanos: 313_271_737,
        stats: StatsSnapshot {
            jobs: 1,
            stages: 2,
            tasks: 16,
            records: 6_032,
            shuffle_bytes: 512,
            spill_bytes: 0,
            broadcast_bytes: 0,
            peak_memory_bytes: 1_152,
            tasks_retried: 0,
            peak_partition_bytes: 256,
            peak_partition_skew_milli: 4_000,
            partitions_lost: 0,
            recompute_nanos: 0,
            checkpoint_bytes: 0,
            stages_fused: 0,
            intermediates_elided: 0,
            jobs_completed: 0,
            jobs_cancelled: 0,
            jobs_rejected: 0,
            queue_wait_nanos: 0,
            jobs_failed: 0,
            collected_records: 4,
            partitions_recomputed: 0,
        },
    }
}

fn golden_copartitioned_join_loop() -> Golden {
    Golden {
        sim_nanos: 1_540_552_277,
        stats: StatsSnapshot {
            jobs: 5,
            stages: 6,
            tasks: 48,
            records: 28_000,
            shuffle_bytes: 32_000,
            spill_bytes: 0,
            broadcast_bytes: 0,
            peak_memory_bytes: 395_136,
            tasks_retried: 0,
            peak_partition_bytes: 4_368,
            peak_partition_skew_milli: 1_092,
            partitions_lost: 0,
            recompute_nanos: 0,
            checkpoint_bytes: 0,
            stages_fused: 0,
            intermediates_elided: 0,
            jobs_completed: 0,
            jobs_cancelled: 0,
            jobs_rejected: 0,
            queue_wait_nanos: 0,
            jobs_failed: 0,
            collected_records: 0,
            partitions_recomputed: 0,
        },
    }
}

fn golden_distinct() -> Golden {
    Golden {
        sim_nanos: 313_346_764,
        stats: StatsSnapshot {
            jobs: 1,
            stages: 2,
            tasks: 14,
            records: 30_000,
            shuffle_bytes: 80_000,
            spill_bytes: 0,
            broadcast_bytes: 0,
            peak_memory_bytes: 122_832,
            tasks_retried: 0,
            peak_partition_bytes: 13_896,
            peak_partition_skew_milli: 1_042,
            partitions_lost: 0,
            recompute_nanos: 0,
            checkpoint_bytes: 0,
            stages_fused: 0,
            intermediates_elided: 0,
            jobs_completed: 0,
            jobs_cancelled: 0,
            jobs_rejected: 0,
            queue_wait_nanos: 0,
            jobs_failed: 0,
            collected_records: 0,
            partitions_recomputed: 0,
        },
    }
}

fn golden_shuffle_heavy() -> Golden {
    Golden {
        sim_nanos: 632_582_513,
        stats: StatsSnapshot {
            jobs: 2,
            stages: 5,
            tasks: 36,
            records: 16_776,
            shuffle_bytes: 100_416,
            spill_bytes: 0,
            broadcast_bytes: 0,
            peak_memory_bytes: 138_384,
            tasks_retried: 0,
            peak_partition_bytes: 12_368,
            peak_partition_skew_milli: 1_237,
            partitions_lost: 0,
            recompute_nanos: 0,
            checkpoint_bytes: 0,
            stages_fused: 0,
            intermediates_elided: 0,
            jobs_completed: 0,
            jobs_cancelled: 0,
            jobs_rejected: 0,
            queue_wait_nanos: 0,
            jobs_failed: 0,
            collected_records: 0,
            partitions_recomputed: 0,
        },
    }
}

#[test]
fn kmeans_step_simulation_is_frozen() {
    assert_eq!(run(kmeans_step), golden_kmeans());
}

#[test]
fn copartitioned_join_loop_simulation_is_frozen() {
    assert_eq!(run(copartitioned_join_loop), golden_copartitioned_join_loop());
}

#[test]
fn distinct_simulation_is_frozen() {
    assert_eq!(run(distinct_program), golden_distinct());
}

#[test]
fn shuffle_heavy_simulation_is_frozen() {
    assert_eq!(run(shuffle_heavy), golden_shuffle_heavy());
}

/// Regeneration helper (see module docs): prints the current values in the
/// shape of the `golden_*` constants above.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_actual_values() {
    for (name, g) in [
        ("kmeans", run(kmeans_step)),
        ("copartitioned_join_loop", run(copartitioned_join_loop)),
        ("distinct", run(distinct_program)),
        ("shuffle_heavy", run(shuffle_heavy)),
    ] {
        println!("{name}: {g:#?}");
    }
}
