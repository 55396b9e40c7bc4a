//! Clone-accounting tests for the zero-copy partition flow.
//!
//! The engine memoizes evaluated partitions as shared `Arc<Vec<T>>`s; the
//! fast path (PR 2) guarantees operators read straight out of those shared
//! partitions instead of deep-copying them first. These tests pin that
//! guarantee with an instrumented `Clone` type: they assert the *exact*
//! number of value clones an operator performs, so any reintroduced
//! `p.to_vec()`-style input copy (one extra clone per record) fails loudly.
//!
//! Each test uses its own counter type because the test harness runs tests
//! concurrently in one process.

use std::sync::atomic::{AtomicUsize, Ordering};

use matryoshka_engine::JoinAlgorithm::BroadcastRight;
use matryoshka_engine::{ClusterConfig, Engine, Partitioning};

/// Declare a value type whose clones are counted in a dedicated static.
macro_rules! tracked {
    ($ty:ident, $counter:ident) => {
        static $counter: AtomicUsize = AtomicUsize::new(0);

        #[derive(Debug, PartialEq, Eq, Hash)]
        struct $ty(u64);

        impl Clone for $ty {
            fn clone(&self) -> Self {
                $counter.fetch_add(1, Ordering::Relaxed);
                $ty(self.0)
            }
        }
    };
}

fn engine() -> Engine {
    Engine::new(ClusterConfig::local_test())
}

tracked!(JoinVal, JOIN_CLONES);

/// A co-partitioned `join_into` clones each value exactly once — for the
/// output tuple it lands in — and never to copy the input partitions.
#[test]
fn copartitioned_join_clones_only_the_output() {
    const N: u64 = 1_000;
    let e = engine();
    // Unique keys on both sides: exactly one match per left record.
    let left =
        e.parallelize((0..N).map(|i| (i, JoinVal(i))).collect::<Vec<_>>(), 8).partition_by_key(8);
    let right =
        e.parallelize((0..N).map(|i| (i, i * 2)).collect::<Vec<_>>(), 8).partition_by_key(8);
    // Force both parents (their own scatters may clone); then measure the
    // join alone.
    left.count().unwrap();
    right.count().unwrap();
    assert_eq!(left.partitioning(), Partitioning::HashByKey { partitions: 8 });
    JOIN_CLONES.store(0, Ordering::Relaxed);
    let joined = left.join_into(8, &right);
    assert_eq!(joined.count().unwrap(), N);
    assert_eq!(
        JOIN_CLONES.load(Ordering::Relaxed),
        N as usize,
        "co-partitioned join must clone each left value exactly once (into its output \
         tuple); any more means an input partition was deep-copied"
    );
}

tracked!(PushedLeft, PUSHED_LEFT_CLONES);
tracked!(PushedRight, PUSHED_RIGHT_CLONES);

/// A join that pushes its matches (`Joined::map`) hands the UDF `&V` and
/// `&W` out of the shared partitions: zero clones of either under both
/// plans, where `pairs()` clones each exactly once per match into the tuple
/// it returns — and neither plan clones a right value to build its table.
#[test]
fn pushed_join_clones_nothing_where_pairs_clone_once_per_match() {
    const N: u64 = 1_000;
    const KEYS: u64 = 50; // one right record per key: N matches
    let e = engine();
    let left = e
        .parallelize((0..N).map(|i| (i % KEYS, PushedLeft(i))).collect::<Vec<_>>(), 8)
        .partition_by_key(8);
    let right = e
        .parallelize((0..KEYS).map(|k| (k, PushedRight(k))).collect::<Vec<_>>(), 8)
        .partition_by_key(8);
    // Force both parents (their own scatters clone); then measure the joins
    // alone — the repartition plan finds both sides co-partitioned.
    left.count().unwrap();
    right.count().unwrap();
    let clones = |run: &dyn Fn() -> u64| {
        PUSHED_LEFT_CLONES.store(0, Ordering::Relaxed);
        PUSHED_RIGHT_CLONES.store(0, Ordering::Relaxed);
        assert_eq!(run(), N);
        (PUSHED_LEFT_CLONES.load(Ordering::Relaxed), PUSHED_RIGHT_CLONES.load(Ordering::Relaxed))
    };
    for joined in [left.joined_into(8, &right), left.joined_with(&right, BroadcastRight)] {
        let pushed = clones(&|| joined.map(|k, v, w| k + v.0 + w.0).count().unwrap());
        assert_eq!(pushed, (0, 0), "a pushed match is read by reference");
        let pairs = clones(&|| joined.pairs().count().unwrap());
        assert_eq!(pairs, (N as usize, N as usize), "pairs() clones once per match, no more");
    }
}

tracked!(ReduceVal, REDUCE_CLONES);

/// A co-partitioned `reduce_by_key_into` clones one value per *distinct key*
/// (seeding the combine accumulator) — never one per record.
#[test]
fn copartitioned_reduce_clones_per_key_not_per_record() {
    const N: u64 = 2_000;
    const KEYS: u64 = 7;
    let e = engine();
    let base = e
        .parallelize((0..N).map(|i| (i % KEYS, ReduceVal(1))).collect::<Vec<_>>(), 8)
        .partition_by_key(4);
    base.count().unwrap();
    REDUCE_CLONES.store(0, Ordering::Relaxed);
    let reduced = base.reduce_by_key_into(4, |a, b| ReduceVal(a.0 + b.0));
    assert_eq!(reduced.count().unwrap(), KEYS);
    // Co-partitioning puts all records of a key in one partition, so the
    // map-side combine seeds exactly one accumulator per key; the reduce
    // side then owns its records and moves them.
    assert_eq!(
        REDUCE_CLONES.load(Ordering::Relaxed),
        KEYS as usize,
        "reduce over {KEYS} keys must clone exactly {KEYS} values regardless of the \
         {N}-record input"
    );
}

tracked!(DistinctVal, DISTINCT_CLONES);

/// `distinct` clones a record only to lift it out of the shared input
/// partition, once per survivor of the map-side dedup; the reduce side owns
/// its partition and dedups it in place, cloning nothing.
#[test]
fn distinct_clones_each_kept_record_once() {
    const N: u64 = 2_000;
    const VALUES: u64 = 50;
    const INPUTS: usize = 8;
    let e = engine();
    // Consecutive chunks of 250 records: every input partition sees all 50
    // values, so 8 x 50 records survive the map side and 50 the reduce side.
    let base = e.parallelize((0..N).map(|i| DistinctVal(i % VALUES)).collect::<Vec<_>>(), INPUTS);
    base.count().unwrap();
    DISTINCT_CLONES.store(0, Ordering::Relaxed);
    assert_eq!(base.distinct_into(6).count().unwrap(), VALUES);
    assert_eq!(
        DISTINCT_CLONES.load(Ordering::Relaxed),
        INPUTS * VALUES as usize,
        "one clone per record that survives the map-side dedup, none on the reduce side"
    );
}

tracked!(NarrowVal, NARROW_CLONES);

/// `map_values` on the narrow path performs zero per-record deep clones of
/// the input values: it reads them through the shared partition.
#[test]
fn map_values_is_zero_clone_on_values() {
    const N: u64 = 1_000;
    let e = engine();
    let base =
        e.parallelize((0..N).map(|i| (i, NarrowVal(i))).collect::<Vec<_>>(), 8).partition_by_key(8);
    base.count().unwrap();
    NARROW_CLONES.store(0, Ordering::Relaxed);
    let mapped = base.map_values(|v| v.0 + 1);
    assert_eq!(mapped.count().unwrap(), N);
    assert_eq!(
        NARROW_CLONES.load(Ordering::Relaxed),
        0,
        "map_values reads values by reference; zero deep clones"
    );
}

tracked!(FusedVal, FUSED_CLONES);

/// A fused narrow chain clones each record at most once — when the *head* op
/// lifts it out of the shared base partition — and never again in the elided
/// middle stages. With every intermediate kept bound (so each filter runs as
/// its own length-1 chain), the same three-filter chain clones every
/// survivor at every stage (500 + 167 + 34 here); fused, only the head's 500.
#[test]
fn fused_filter_chain_clones_only_at_the_head() {
    const N: u64 = 1_000;
    let run = |hold: bool| {
        let e = engine();
        let base = e.parallelize((0..N).map(FusedVal).collect::<Vec<_>>(), 8);
        base.count().unwrap();
        let s0 = e.stats();
        FUSED_CLONES.store(0, Ordering::Relaxed);
        let by2 = base.filter(|v| v.0 % 2 == 0);
        let by6 = by2.filter(|v| v.0 % 3 == 0);
        let tail = by6.filter(|v| v.0 % 5 == 0);
        if !hold {
            // Without these handles the chain is exclusively owned at eval
            // time and fuses.
            drop((by2, by6));
        }
        assert_eq!(tail.count().unwrap(), 34, "multiples of 30 in 0..1000");
        (FUSED_CLONES.load(Ordering::Relaxed), e.stats().since(&s0))
    };
    let (held_clones, held_stats) = run(true);
    let (fused_clones, fused_stats) = run(false);
    assert_eq!(
        held_clones,
        500 + 167 + 34,
        "held: every filter clones its survivors out of its parent's shared partitions"
    );
    assert_eq!(
        fused_clones, 500,
        "fused: only the head filter clones records out of the shared base partition; \
         the two elided middles pass ownership through"
    );
    assert_eq!(held_stats.stages_fused, 0);
    assert_eq!(held_stats.intermediates_elided, 0);
    assert_eq!(fused_stats.stages_fused, 1, "three filters collapse into one fused pass");
    assert_eq!(fused_stats.intermediates_elided, 2);
}

tracked!(ScatterVal, SCATTER_CLONES);

/// A shuffle out of shared partitions (`partition_by_key`) clones each
/// record exactly once — straight into its destination bucket.
#[test]
fn shuffle_scatter_clones_each_record_exactly_once() {
    const N: u64 = 10_000; // above the parallel-scatter threshold
    let e = engine();
    let base = e.parallelize((0..N).map(|i| (i, ScatterVal(i))).collect::<Vec<_>>(), 8);
    base.count().unwrap();
    SCATTER_CLONES.store(0, Ordering::Relaxed);
    let shuffled = base.partition_by_key(6);
    assert_eq!(shuffled.count().unwrap(), N);
    assert_eq!(
        SCATTER_CLONES.load(Ordering::Relaxed),
        N as usize,
        "scatter must clone once per record (no pre-shuffle deep copy of the input)"
    );
}

tracked!(DirectVal, DIRECT_CLONES);

/// The scatter under a shuffle, below and above the threshold from which
/// destinations are hashed on the pool: a `partition_by_key` over a
/// materialized parent clones each record exactly once, out of its shared
/// partitions; one over an unmaterialized `map` chain moves every record the
/// chain made into its bucket — zero clones. Both build the same partitions.
#[test]
fn scatter_clones_once_from_shared_and_never_from_owned() {
    for n in [1_000u64, 10_000] {
        let e = engine();
        let base = e.parallelize((0..n).map(|i| (i, DirectVal(i))).collect::<Vec<_>>(), 8);
        base.count().unwrap();
        DIRECT_CLONES.store(0, Ordering::Relaxed);
        let cloned = base.partition_by_key(6);
        assert_eq!(cloned.count().unwrap(), n);
        assert_eq!(
            DIRECT_CLONES.load(Ordering::Relaxed),
            n as usize,
            "{n} records: a scatter out of shared partitions clones each record exactly once"
        );
        let ids = e.parallelize((0..n).collect::<Vec<u64>>(), 8);
        ids.count().unwrap();
        DIRECT_CLONES.store(0, Ordering::Relaxed);
        let moved = ids.map(|&i| (i, DirectVal(i))).partition_by_key(6);
        assert_eq!(moved.count().unwrap(), n);
        assert_eq!(
            DIRECT_CLONES.load(Ordering::Relaxed),
            0,
            "{n} records: a scatter out of a chain's owned output moves every record"
        );
        assert_eq!(cloned.collect_partitions().unwrap(), moved.collect_partitions().unwrap());
    }
}

tracked!(StageVal, STAGE_CLONES);

/// A stage runs from shuffle to shuffle: a `filter` absorbed into the map
/// side of the `partition_by_key` after it clones each survivor once, out of
/// the shared base partition, and the scatter then moves it. With the filter
/// bound to a live handle, its output materializes and the scatter clones
/// every survivor a second time.
#[test]
fn a_chain_absorbed_by_a_wide_map_side_moves_into_the_scatter() {
    const N: u64 = 10_000;
    let run = |hold: bool| {
        let e = engine();
        let base = e.parallelize((0..N).map(|i| (i, StageVal(i))).collect::<Vec<_>>(), 8);
        base.count().unwrap();
        STAGE_CLONES.store(0, Ordering::Relaxed);
        let kept = base.filter(|(k, _)| k % 2 == 0);
        let shuffled = kept.partition_by_key(6);
        let _held = hold.then_some(kept);
        assert_eq!(shuffled.count().unwrap(), N / 2);
        STAGE_CLONES.load(Ordering::Relaxed)
    };
    assert_eq!(run(true), N as usize, "held: the filter and the scatter each clone");
    assert_eq!(run(false), N as usize / 2, "one stage: only the chain's head clones");
}
