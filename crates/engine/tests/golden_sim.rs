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
//!
//! Every program is also pinned by its [`Fingerprint`]: the traced event
//! sequence and the records it returns, partition by partition. A charge
//! issued in another order, or a record placed in another partition or
//! position, fails there even when the simulated total does not move.

use std::fmt::Debug;

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

/// One program's traced run: its event count, and the FNV-1a hashes of its
/// `trace_json()` and of the `Debug` rendering of what it returned.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: usize,
    trace_fnv1a: u64,
    output_fnv1a: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn fingerprint<R: Debug>(program: impl FnOnce(&Engine) -> R) -> Fingerprint {
    let e = Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::local_test() });
    let output = program(&e);
    Fingerprint {
        events: e.events().len(),
        trace_fnv1a: fnv1a(e.trace_json().as_bytes()),
        output_fnv1a: fnv1a(format!("{output:?}").as_bytes()),
    }
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

/// Output partitions, as a program hands them to [`fingerprint`].
type Parts<T> = Vec<Vec<T>>;

/// `co_group` and `left_outer_join` (a `co_group`, then a `flat_map`): two
/// sides shuffled into one set of reduce partitions.
fn co_group_program(
    e: &Engine,
) -> (Parts<(u64, (Vec<u64>, Vec<u64>))>, Parts<(u64, (u64, Option<u64>))>) {
    let l = e.generate(3_000, 8, |i| (i % 61, i));
    let r = e.generate(700, 4, |i| (i % 89, i * 5));
    let grouped = l.co_group(&r).collect_partitions().unwrap();
    (grouped, l.left_outer_join(&r).collect_partitions().unwrap())
}

/// Round-robin `repartition`, then a narrow op reading the new partitions.
fn repartition_program(e: &Engine) -> Parts<u64> {
    e.generate(4_000, 3, |i| i * 7).repartition(11).map(|x| x + 1).collect_partitions().unwrap()
}

/// Range-partitioned `sort_by`.
fn sort_by_program(e: &Engine) -> Parts<u64> {
    e.generate(5_000, 6, |i| (i * 7_919) % 10_007).sort_by(5, |x| *x).collect_partitions().unwrap()
}

/// `group_by_key` and `reduce_by_key` over input already hash-placed by key
/// into their partition count: both skip the shuffle.
fn copartitioned_shortcuts(e: &Engine) -> (Parts<(u64, Vec<u64>)>, Parts<(u64, u64)>) {
    let base = e.generate(3_000, 8, |i| (i % 113, i)).partition_by_key(6);
    base.count().unwrap();
    let groups = base.group_by_key_into(6).collect_partitions().unwrap();
    (groups, base.reduce_by_key_into(6, |a, b| a + b).collect_partitions().unwrap())
}

/// A broadcast hash join: the right side is collected and broadcast, the
/// left probed in place.
fn broadcast_join_program(e: &Engine) -> Parts<(u64, (u64, u64))> {
    let l = e.generate(4_000, 8, |i| (i % 50, i));
    let r = e.generate(120, 2, |i| (i % 40, i * 3));
    l.broadcast_join(&r).collect_partitions().unwrap()
}

/// A `group_by_key` whose reduce-side working sets exceed the spill
/// threshold (but not the OOM limit) of a 4 GB machine.
fn spilling_group_by_key(e: &Engine) -> Parts<(u64, Vec<u64>)> {
    let fat = e.generate(8_000, 8, |i| (i % 64, i)).with_record_bytes(200_000.0);
    let groups = fat.group_by_key().collect_partitions().unwrap();
    assert!(e.stats().spill_bytes > 0, "the program must spill");
    groups
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

// The pins below list only the counters that are not zero.

fn golden_co_group() -> Golden {
    Golden {
        sim_nanos: 629_991_361,
        stats: StatsSnapshot {
            jobs: 2,
            stages: 4,
            tasks: 28,
            records: 27_878,
            shuffle_bytes: 118_400,
            collected_records: 24_089,
            peak_memory_bytes: 97_968,
            peak_partition_bytes: 8_560,
            peak_partition_skew_milli: 1_156,
            ..StatsSnapshot::default()
        },
    }
}

fn golden_repartition() -> Golden {
    Golden {
        sim_nanos: 318_435_591,
        stats: StatsSnapshot {
            jobs: 1,
            stages: 2,
            tasks: 14,
            records: 12_000,
            shuffle_bytes: 32_000,
            collected_records: 4_000,
            peak_partition_bytes: 2_912,
            peak_partition_skew_milli: 1_001,
            ..StatsSnapshot::default()
        },
    }
}

fn golden_sort_by() -> Golden {
    Golden {
        sim_nanos: 312_869_012,
        stats: StatsSnapshot {
            jobs: 1,
            stages: 2,
            tasks: 11,
            records: 10_000,
            shuffle_bytes: 40_000,
            collected_records: 5_000,
            peak_memory_bytes: 72_000,
            peak_partition_bytes: 8_000,
            peak_partition_skew_milli: 1_000,
            ..StatsSnapshot::default()
        },
    }
}

fn golden_copartitioned_shortcuts() -> Golden {
    Golden {
        sim_nanos: 925_500_191,
        stats: StatsSnapshot {
            jobs: 3,
            stages: 4,
            tasks: 26,
            records: 12_113,
            shuffle_bytes: 48_000,
            collected_records: 226,
            peak_memory_bytes: 80_352,
            peak_partition_bytes: 9_328,
            peak_partition_skew_milli: 1_166,
            ..StatsSnapshot::default()
        },
    }
}

fn golden_broadcast_join() -> Golden {
    Golden {
        sim_nanos: 313_691_438,
        stats: StatsSnapshot {
            jobs: 1,
            stages: 2,
            tasks: 10,
            records: 13_720,
            broadcast_bytes: 1_920,
            collected_records: 9_720,
            ..StatsSnapshot::default()
        },
    }
}

fn golden_spilling_group_by_key() -> Golden {
    Golden {
        sim_nanos: 6_895_067_732,
        stats: StatsSnapshot {
            jobs: 1,
            stages: 2,
            tasks: 16,
            records: 16_000,
            shuffle_bytes: 1_600_000_000,
            spill_bytes: 1_121_761_447,
            collected_records: 64,
            peak_memory_bytes: 2_625_000_000,
            peak_partition_bytes: 225_000_000,
            peak_partition_skew_milli: 1_125,
            ..StatsSnapshot::default()
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

#[test]
fn co_group_simulation_is_frozen() {
    assert_eq!(run(co_group_program), golden_co_group());
}

#[test]
fn repartition_simulation_is_frozen() {
    assert_eq!(run(repartition_program), golden_repartition());
}

#[test]
fn sort_by_simulation_is_frozen() {
    assert_eq!(run(sort_by_program), golden_sort_by());
}

#[test]
fn copartitioned_shortcuts_simulation_is_frozen() {
    assert_eq!(run(copartitioned_shortcuts), golden_copartitioned_shortcuts());
}

#[test]
fn broadcast_join_simulation_is_frozen() {
    assert_eq!(run(broadcast_join_program), golden_broadcast_join());
}

#[test]
fn spilling_group_by_key_simulation_is_frozen() {
    assert_eq!(run(spilling_group_by_key), golden_spilling_group_by_key());
}

/// Every program's fingerprint, taken now.
fn fingerprints() -> Vec<(&'static str, Fingerprint)> {
    vec![
        ("kmeans", fingerprint(kmeans_step)),
        ("copartitioned_join_loop", fingerprint(copartitioned_join_loop)),
        ("distinct", fingerprint(distinct_program)),
        ("shuffle_heavy", fingerprint(shuffle_heavy)),
        ("co_group", fingerprint(co_group_program)),
        ("repartition", fingerprint(repartition_program)),
        ("sort_by", fingerprint(sort_by_program)),
        ("copartitioned_shortcuts", fingerprint(copartitioned_shortcuts)),
        ("broadcast_join", fingerprint(broadcast_join_program)),
        ("spilling_group_by_key", fingerprint(spilling_group_by_key)),
    ]
}

/// `(events, trace_fnv1a, output_fnv1a)` per program, in [`fingerprints`]
/// order.
const GOLDEN_FINGERPRINTS: [(&str, usize, u64, u64); 10] = [
    ("kmeans", 14, 0xc6d4ac2248657672, 0x07e11f07b4a6665a),
    ("copartitioned_join_loop", 44, 0x3727f151785caeb3, 0x07e11f07b4a6665a),
    ("distinct", 11, 0xeaa14f3a41a329c5, 0x07e11f07b4a6665a),
    ("shuffle_heavy", 25, 0x1e5f21c3d8ed25f0, 0x07e11f07b4a6665a),
    ("co_group", 24, 0xe1d313e2ee429848, 0xbe7a81831af8f083),
    ("repartition", 11, 0xe2cb3ff60a46c96f, 0xdabbaa27cadea7ef),
    ("sort_by", 10, 0xee77a15048123ed5, 0x09f5501d7bb70193),
    ("copartitioned_shortcuts", 22, 0x5e192cea4cc3a00f, 0xf23d441e89e23b48),
    ("broadcast_join", 11, 0x4bbf8f312842f8b5, 0xcc2ce59446fe265d),
    ("spilling_group_by_key", 12, 0x7a55df1b3b1399b1, 0xfd7c89d49fb52139),
];

#[test]
fn traced_event_sequences_and_outputs_are_frozen() {
    for ((name, got), (golden_name, events, trace_fnv1a, output_fnv1a)) in
        fingerprints().into_iter().zip(GOLDEN_FINGERPRINTS)
    {
        assert_eq!(name, golden_name);
        assert_eq!(got, Fingerprint { events, trace_fnv1a, output_fnv1a }, "{name}");
    }
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
        ("co_group", run(co_group_program)),
        ("repartition", run(repartition_program)),
        ("sort_by", run(sort_by_program)),
        ("copartitioned_shortcuts", run(copartitioned_shortcuts)),
        ("broadcast_join", run(broadcast_join_program)),
        ("spilling_group_by_key", run(spilling_group_by_key)),
    ] {
        println!("{name}: {g:#?}");
    }
    for (name, f) in fingerprints() {
        println!(
            "    ({name:?}, {}, {:#018x}, {:#018x}),",
            f.events, f.trace_fnv1a, f.output_fnv1a
        );
    }
}
