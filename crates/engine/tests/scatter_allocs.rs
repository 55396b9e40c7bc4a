//! Allocation-count pin for the shuffle scatter.
//!
//! A shuffle must cost its records, not (input partitions × output
//! partitions). The scatter this pins hashes once into one table of
//! destinations and allocates each output bucket once at its exact size;
//! the one it replaced built a private set of output buckets per input
//! partition — 1,200 × 1,200 = 1.44 M `Vec`s for the shape below, at any
//! record count. The first test runs it under `partition_by_key`, 1,200
//! partitions to 1,200, out of a materialized parent (records cloned) and
//! out of an unmaterialized `map` chain (records moved). The assertion is
//! on *allocations*, counted by a std-only `#[global_allocator]`, so it does
//! not depend on the host's speed.
//!
//! The second test pins a join that pushes its matches: it allocates per
//! *output record*, not per match × the size of what it matched.
//!
//! The third pins the lowering-decision log: recording a rule builds no
//! text, so the log's own growth is all a decision allocates.
//!
//! The fourth pins the in-place combine: a `reduce_by_key` of heap values
//! allocates per partition and per key, not per merged record. The fifth
//! pins a source: `parallelize` moves its records into their partitions and
//! clones none of them when it is evaluated.
//!
//! The last three pin what a pass allocates besides its output: a node's
//! partitions are one shared set, and a fused chain writes the sizes of its
//! intermediate batches into one table per pass, so a pass over 1,200
//! partitions allocates its non-empty output partitions plus a constant,
//! and a `union` of two evaluated bags lists their sets and copies nothing.
//!
//! The counter is process-wide and the harness runs the tests of a binary
//! concurrently, so each test holds `SERIAL` while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use matryoshka_engine::{ClusterConfig, Engine, JoinAlgorithm, Rule};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// relaxed statistic that publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by a test for as long as it counts.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocations (and reallocations) performed while `f` runs, on any thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

const RECORDS: u64 = 10_000; // above the pooled-hashing threshold
/// Enough records per bucket that a multi-core host places them in runs.
const PLACED_IN_RUNS: u64 = 100_000;
const INPUTS: usize = 1_200; // the paper's 25 × 16 cluster, 3 partitions per core
const OUTPUTS: usize = 1_200;

/// The bound is in inputs + outputs (one bucket per non-empty output, a
/// handful for the destination table, the pool dispatch and per placement
/// run; the engine run adds one `Vec` per non-empty partition on each side
/// of the shuffle), with slack for the harness — two orders of magnitude
/// under inputs × outputs.
const BOUND: usize = 10_000;

fn inputs(records: u64) -> Vec<Vec<(u64, u64)>> {
    let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); INPUTS];
    for i in 0..records {
        parts[i as usize % INPUTS].push((i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i));
    }
    parts
}

#[test]
fn a_shuffle_allocates_per_partition_not_per_partition_pair() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = Engine::new(ClusterConfig::local_test());
    for records in [RECORDS, PLACED_IN_RUNS] {
        let data: Vec<(u64, u64)> = inputs(records).into_iter().flatten().collect();
        let base = engine.parallelize(data, INPUTS);
        assert_eq!(base.count().unwrap(), records);
        // Warm-up: start the pool's workers and fault in whatever is lazy.
        let warm = base.partition_by_key(OUTPUTS).collect_partitions().unwrap();
        assert_eq!(warm.iter().map(Vec::len).sum::<usize>(), records as usize);

        // Out of the materialized parent's shared partitions.
        let cloned = base.partition_by_key(OUTPUTS);
        let (cloning, count) = allocations_during(|| cloned.count().unwrap());
        assert_eq!(count, records);
        assert!(cloning < BOUND, "{records}: {cloning} allocations to clone, want < {BOUND}");

        // Out of an unmaterialized `map` chain's owned output.
        let moved = base.map(|&r| r).partition_by_key(OUTPUTS);
        let (moving, count) = allocations_during(|| moved.count().unwrap());
        assert_eq!(count, records);
        assert!(moving < BOUND, "{records}: {moving} allocations to move, want < {BOUND}");
        assert_eq!(cloned.collect_partitions().unwrap(), warm, "both shapes place alike");
        assert_eq!(moved.collect_partitions().unwrap(), warm);
    }

    // The same shuffle from a source, base partitions included.
    let data: Vec<(u64, u64)> = inputs(RECORDS).into_iter().flatten().collect();
    let (through_engine, count) = allocations_during(|| {
        engine.parallelize(data, INPUTS).partition_by_key(OUTPUTS + 1).count().unwrap()
    });
    assert_eq!(count, RECORDS);
    assert!(through_engine < BOUND, "engine shuffle: {through_engine} allocations, want < {BOUND}");
}

/// K-means' assignment step in miniature: 10,000 points meet the centroids of
/// their configuration (256 configurations of 8 centroids × 4 coordinates,
/// each a `Vec<Vec<f64>>` of 9 allocations) through a broadcast join whose
/// UDF reads both by reference and emits the point with its nearest centroid.
/// The bound is per *output record* — the one `Vec` the UDF clones, plus
/// per-partition and per-job overhead — not per match × closure size: a join
/// that materialised `(k, (v.clone(), w.clone()))` for a following `map`
/// allocated 11 times per point here.
#[test]
fn a_pushed_join_allocates_per_output_record_not_per_closure_copy() {
    const POINTS: u64 = 10_000;
    const CONFIGS: u64 = 256;
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = Engine::new(ClusterConfig::local_test());
    let coordinate = |i: u64, d: u64| (i.wrapping_mul(31).wrapping_add(d * 7) % 97) as f64;
    let point = |i: u64| -> Vec<f64> { (0..4).map(|d| coordinate(i, d)).collect() };
    let points: Vec<(u64, Vec<f64>)> = (0..POINTS).map(|i| (i % CONFIGS, point(i))).collect();
    let centroids: Vec<(u64, Vec<Vec<f64>>)> =
        (0..CONFIGS).map(|c| (c, (0..8).map(|j| point(c * 8 + j)).collect())).collect();
    let (left, right) = (engine.parallelize(points, 8), engine.parallelize(centroids, 1));
    assert_eq!((left.count().unwrap(), right.count().unwrap()), (POINTS, CONFIGS));
    let nearest = |cs: &Vec<Vec<f64>>, p: &Vec<f64>| {
        let distance = |c: &Vec<f64>| c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
        (0..cs.len()).min_by(|&a, &b| distance(&cs[a]).total_cmp(&distance(&cs[b]))).unwrap()
    };
    let assigned = left
        .joined_with(&right, JoinAlgorithm::BroadcastRight)
        .map(move |config, p, cs| (*config, (nearest(cs, p), p.clone())));
    let (allocations, count) = allocations_during(|| assigned.count().unwrap());
    assert_eq!(count, POINTS);
    assert!(
        allocations < 2 * POINTS as usize,
        "{allocations} allocations for {POINTS} output records, want < 2 per record"
    );
}

/// A lifted loop logs a decision per iteration and a fused pass one per
/// pass, so a decision must cost no more than its slot in the log. Before
/// rules were typed rows, every call built a `choice` and a `detail`
/// `String`: 20,000 allocations here.
#[test]
fn recording_a_decision_allocates_nothing_but_the_log() {
    const DECISIONS: u64 = 10_000;
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = Engine::new(ClusterConfig::local_test());
    let (allocations, ()) = allocations_during(|| {
        for i in 0..DECISIONS {
            engine.record_decision(match i % 3 {
                0 => Rule::LiftedWhile { iteration: i, tags: 7, live: 9, choice: "continue" },
                1 => Rule::NarrowFusion {
                    ops: "fused(map|filter)",
                    fused: 2,
                    partitions: 8,
                    records: i,
                    elided: 1,
                },
                _ => Rule::TagJoinOverCap { records: i, bytes: 1 << 30, cap: 1 << 20 },
            });
        }
    });
    assert_eq!(engine.decisions().len(), DECISIONS as usize);
    // Doubling a `Vec` to 10,000 entries reallocates 14 times.
    assert!(allocations <= 20, "{allocations} allocations for {DECISIONS} decisions, want <= 20");
}

/// K-means' partial sums in miniature: 20,000 records of a 4-coordinate
/// `Vec<f64>` over 64 keys, made by a map that the reduce's map side absorbs,
/// so its combine owns every record. What the reduce adds over the map alone
/// is bounded by partitions and keys: a seed moves into the table and every
/// later record is added into it in place. A combiner that built its result
/// (`a.iter().zip(b).map(..).collect()`) allocated once per merged record,
/// about 20,000 here.
#[test]
fn an_in_place_combine_allocates_per_partition_and_key_not_per_record() {
    const RECORDS: u64 = 20_000;
    const KEYS: u64 = 64;
    const PARTITIONS: usize = 8;
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = Engine::new(ClusterConfig::local_test());
    let base = engine.parallelize((0..RECORDS).map(|i| (i % KEYS, i)).collect(), PARTITIONS);
    base.count().unwrap();
    let point = |&(k, i): &(u64, u64)| (k, vec![i as f64; 4]);
    let add = |a: &mut Vec<f64>, b: &Vec<f64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    };
    let (mapping, count) = allocations_during(|| base.map(point).count().unwrap());
    assert_eq!(count, RECORDS);
    let reduced = base.map(point).reduce_by_key_partials(PARTITIONS, 64.0, add);
    let (reducing, count) = allocations_during(|| reduced.count().unwrap());
    assert_eq!(count, KEYS);
    let extra = reducing.saturating_sub(mapping);
    let bound = 16 * (PARTITIONS + KEYS as usize);
    assert!(
        extra < bound,
        "the reduce added {extra} allocations to the map's {mapping} for {RECORDS} records, \
         want < {bound}"
    );
}

static SOURCE_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A record whose clones are counted.
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        SOURCE_CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

/// `parallelize` moves each record into its partition once, when the bag is
/// built, and evaluating it hands out those partitions: a source that copied
/// its input at evaluation (`data[lo..hi].to_vec()`) cloned every record.
#[test]
fn a_source_moves_its_records_and_clones_none() {
    const RECORDS: u64 = 10_000;
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = Engine::new(ClusterConfig::local_test());
    let before = SOURCE_CLONES.load(Ordering::Relaxed);
    let bag = engine.parallelize((0..RECORDS).map(Counted).collect(), 7);
    assert_eq!(bag.count().unwrap(), RECORDS);
    assert_eq!(SOURCE_CLONES.load(Ordering::Relaxed) - before, 0, "a source clones no record");
}

/// What a pass may allocate beyond its non-empty output partitions: the
/// chain's assembly, the partition set, the size table, the pool dispatch,
/// the job, its charges and its decision (about 50 for a fused chain of
/// three, 20 for one operator).
const PER_PASS: usize = 100;

/// 3,000 records over 1,200 partitions: chunks of three fill the first
/// 1,000, and the last 200 are empty. Evaluated, and read once by a pass so
/// that the pool's workers are running.
fn spread(engine: &Engine) -> matryoshka_engine::Bag<(u64, u64)> {
    let base = engine.parallelize((0..3_000u64).map(|i| (i, i * 3)).collect(), INPUTS);
    assert_eq!(base.map(|r| r.0).count().unwrap(), 3_000);
    base
}

/// Non-empty partitions of an evaluated bag (`collect_partitions` copies
/// them, so call it after counting).
fn non_empty<T: matryoshka_engine::Data>(bag: &matryoshka_engine::Bag<T>) -> usize {
    bag.collect_partitions().unwrap().iter().filter(|p| !p.is_empty()).count()
}

/// `map ▸ filter ▸ map_into` over a materialized parent runs as one pass, and
/// the filter and the re-keying map reuse the first map's batch in place, so
/// the pass allocates one `Vec` per non-empty output partition and a
/// constant. A pass that kept each partition's intermediate batch sizes in a
/// `Vec` of its own, and wrapped each output partition in an `Arc`, added
/// 2,200 here.
#[test]
fn a_fused_chain_allocates_its_outputs_and_a_constant() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = Engine::new(ClusterConfig::local_test());
    let base = spread(&engine);
    let chain =
        base.map(|&(k, v)| (k, v + 1)).filter(|&(k, _)| k % 3 != 2).map_into(|(k, v)| (v, k));
    let (allocations, count) = allocations_during(|| chain.count().unwrap());
    assert_eq!(count, 2_000);
    assert_eq!(chain.op_name(), "fused(map|filter|map)");
    let outputs = non_empty(&chain);
    assert_eq!(outputs, 1_000);
    assert!(
        allocations <= outputs + PER_PASS,
        "{allocations} allocations for {outputs} output partitions, want <= {outputs} + {PER_PASS}"
    );
}

/// Evaluating a node allocates its partitions' `Vec`s and a constant: a
/// one-operator pass over a materialized parent, and a source that computes
/// its partitions.
#[test]
fn evaluating_a_node_allocates_its_partitions_and_a_constant() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = Engine::new(ClusterConfig::local_test());
    let base = spread(&engine);
    let mapped = base.map(|&(k, v)| k ^ v);
    let (allocations, count) = allocations_during(|| mapped.count().unwrap());
    assert_eq!(count, 3_000);
    let outputs = non_empty(&mapped);
    assert!(allocations <= outputs + PER_PASS, "map: {allocations} for {outputs} partitions");

    let generated = engine.generate(600, INPUTS, |i| i * i);
    let (allocations, count) = allocations_during(|| generated.count().unwrap());
    assert_eq!(count, 600);
    let outputs = non_empty(&generated);
    assert!(allocations <= outputs + PER_PASS, "generate: {allocations} for {outputs} partitions");
}

/// A `union` of two evaluated bags is metadata: it lists both parents'
/// partition sets, allocating a constant and cloning no record.
#[test]
fn a_union_of_evaluated_bags_allocates_a_constant_and_clones_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = Engine::new(ClusterConfig::local_test());
    let a = engine.parallelize((0..3_000).map(Counted).collect(), INPUTS);
    let b = engine.parallelize((0..1_000).map(Counted).collect(), INPUTS);
    assert_eq!(a.count().unwrap() + b.count().unwrap(), 4_000);
    let union = a.union(&b);
    let clones = SOURCE_CLONES.load(Ordering::Relaxed);
    let (allocations, count) = allocations_during(|| union.count().unwrap());
    assert_eq!((count, union.num_partitions()), (4_000, 2 * INPUTS));
    assert_eq!(SOURCE_CLONES.load(Ordering::Relaxed) - clones, 0, "a union clones no record");
    assert!(allocations <= PER_PASS, "{allocations} allocations for a union, want <= {PER_PASS}");
}
