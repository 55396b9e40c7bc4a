//! Allocation-count pin for the shuffle scatter.
//!
//! A shuffle must cost its records, not (input partitions × output
//! partitions). The scatter this pins hashes once into one `Vec<u32>` per
//! input partition and allocates each output bucket once at its exact size;
//! the one it replaced built a private set of output buckets per input
//! partition — 1,200 × 1,200 = 1.44 M `Vec`s for the shape below, at any
//! record count. The assertion is on *allocations*, counted by a std-only
//! `#[global_allocator]`, so it does not depend on the host's speed.
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
//! The counter is process-wide and the harness runs the tests of a binary
//! concurrently, so each test holds `SERIAL` while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use matryoshka_engine::partitioner::{scatter_by_key, scatter_shared_by_key};
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
const INPUTS: usize = 1_200; // the paper's 25 × 16 cluster, 3 partitions per core
const OUTPUTS: usize = 1_200;

/// The bound is in inputs + outputs (one destination vector per non-empty
/// input, one bucket per non-empty output, a handful for the pool dispatch;
/// the engine run adds one `Vec` + one `Arc` per partition on each side of
/// the shuffle), with slack for the harness — two orders of magnitude under
/// inputs × outputs.
const BOUND: usize = 10_000;

fn inputs() -> Vec<Vec<(u64, u64)>> {
    let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); INPUTS];
    for i in 0..RECORDS {
        parts[i as usize % INPUTS].push((i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i));
    }
    parts
}

#[test]
fn a_shuffle_allocates_per_partition_not_per_partition_pair() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Warm-up: start the pool's workers and fault in whatever is lazy.
    let warm = scatter_by_key(inputs(), OUTPUTS, |r| &r.0);
    assert_eq!(warm.iter().map(Vec::len).sum::<usize>(), RECORDS as usize);

    let shared: Vec<Arc<Vec<(u64, u64)>>> = inputs().into_iter().map(Arc::new).collect();
    let (cloning, out) = allocations_during(|| scatter_shared_by_key(&shared, OUTPUTS, |r| &r.0));
    assert_eq!(out, warm, "both entry points build the same buckets");
    assert!(cloning < BOUND, "scatter_shared_by_key: {cloning} allocations, want < {BOUND}");

    let owned = inputs();
    let (moving, out) = allocations_during(|| scatter_by_key(owned, OUTPUTS, |r| &r.0));
    assert_eq!(out, warm);
    assert!(moving < BOUND, "scatter_by_key: {moving} allocations, want < {BOUND}");

    // The same shuffle through the engine, base partitions included.
    let engine = Engine::new(ClusterConfig::local_test());
    let data: Vec<(u64, u64)> = inputs().into_iter().flatten().collect();
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
    let engine = Engine::new(ClusterConfig::local_test());
    let before = SOURCE_CLONES.load(Ordering::Relaxed);
    let bag = engine.parallelize((0..RECORDS).map(Counted).collect(), 7);
    assert_eq!(bag.count().unwrap(), RECORDS);
    assert_eq!(SOURCE_CLONES.load(Ordering::Relaxed) - before, 0, "a source clones no record");
}
