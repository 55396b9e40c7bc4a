//! Deterministic hash partitioning.
//!
//! Partition *placement* ([`stable_hash`] / [`partition_for`]) is part of
//! the simulated cost model's identity: where a record lands decides task
//! sizes, skew, and therefore simulated schedules. It stays SipHash-1-3 with
//! fixed keys, bit-stable forever. The *scatter* below is host-side
//! mechanics only: one counting scatter behind two entry points (move out of
//! owned partitions, clone out of shared ones) that produces the exact same
//! buckets in the exact same order as the naive sequential loop, at a host
//! cost of O(records + input partitions + output partitions) — never
//! (input partitions × output partitions), which at the paper's 1,200
//! partitions is 1.44 M.
//!
//! A scatter whose records are all already home — one input per output, and
//! every record hashed to its own input's index — places nothing: its first
//! pass finds that out, and the inputs come back as they are (owned ones as
//! the same buffers, shared ones with no clone). Those are the buckets the
//! sequential loop builds, by construction. A co-partitioned loop re-keys
//! and re-shuffles state that an earlier shuffle of the same key already
//! placed, so in Listing 4's lifted PageRank 21 of a job's 41 scatters are of
//! this kind. A scatter into one partition hashes nothing either: every key
//! lands in partition 0, so its bucket is the inputs concatenated in order.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::pool::parallel_map_range;

/// Deterministic hash of a key (SipHash-1-3 with fixed keys, the std default
/// hasher constructed via `new()`), stable across runs and threads so that
/// simulated schedules and test results are reproducible.
pub fn stable_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Partition index for `key` among `partitions` partitions.
pub fn partition_for<K: Hash + ?Sized>(key: &K, partitions: usize) -> usize {
    (stable_hash(key) % partitions.max(1) as u64) as usize
}

/// Below this many total records a scatter hashes on the calling thread.
/// A pool dispatch costs ~1 µs (`engine.pool.dispatch_us`), yet a lower cut
/// measured no faster: at 512 on a 2-core host, `service_tcp` `wall_ms_min`
/// read 1.06x this value's (lower in 1 of 6 alternating pairs) and
/// `avg_distances` 1.02x (1 of 3), so handing the workers a few thousand
/// hashes still costs about what it saves.
const PARALLEL_SCATTER_MIN_RECORDS: usize = 4096;

/// Scatter `(key, value)`-shaped records of several input partitions into
/// `partitions` output buckets by key hash, consuming the inputs (no
/// per-record clone).
///
/// Bucket contents and record order are those of the sequential loop over
/// inputs in input order, whichever thread hashed what. Inputs whose records
/// are all home come back unchanged, the same buffers.
pub fn scatter_by_key<T, K, F>(inputs: Vec<Vec<T>>, partitions: usize, key_of: F) -> Vec<Vec<T>>
where
    T: Send + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Send + Sync,
{
    let partitions = partitions.max(1);
    if partitions == 1 {
        return match inputs.len() {
            1 => inputs,
            _ => vec![concat(inputs.iter().map(Vec::len).sum(), inputs.into_iter().flatten())],
        };
    }
    match destinations(&inputs, partitions, key_of) {
        Some(dests) => place(&dests, partitions, inputs.into_iter().map(Vec::into_iter), |rec| rec),
        None => inputs,
    }
}

/// [`scatter_by_key`] over *shared* partitions (`Arc<Vec<T>>`, the engine's
/// memoized representation): records are cloned exactly once, straight into
/// their destination bucket, with no intermediate deep copy of the input.
///
/// This is what lets every shuffle site take its input as `&Parts<T>`
/// instead of materializing `p.to_vec()` first.
pub fn scatter_shared_by_key<T, K, F>(
    inputs: &[Arc<Vec<T>>],
    partitions: usize,
    key_of: F,
) -> Vec<Vec<T>>
where
    T: Clone + Send + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Send + Sync,
{
    scatter_shared_unless_home(inputs, partitions, key_of)
        .unwrap_or_else(|| inputs.iter().map(|p| p.to_vec()).collect())
}

/// [`scatter_shared_by_key`], or `None` where every record is already home:
/// the caller keeps the shared partitions as they are, and no record is
/// cloned.
pub(crate) fn scatter_shared_unless_home<T, K, F>(
    inputs: &[Arc<Vec<T>>],
    partitions: usize,
    key_of: F,
) -> Option<Vec<Vec<T>>>
where
    T: Clone + Send + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Send + Sync,
{
    let partitions = partitions.max(1);
    if partitions == 1 {
        return match inputs.len() {
            1 => None,
            _ => Some(vec![concat(
                inputs.iter().map(|p| p.len()).sum(),
                inputs.iter().flat_map(|p| p.iter().cloned()),
            )]),
        };
    }
    let dests = destinations(inputs, partitions, key_of)?;
    Some(place(&dests, partitions, inputs.iter().map(|p| p.iter()), T::clone))
}

/// The one bucket of a scatter into one partition: every record, in input
/// order. Every key hashes to partition 0, so nothing is hashed.
fn concat<T>(total: usize, records: impl Iterator<Item = T>) -> Vec<T> {
    let mut bucket = Vec::with_capacity(total);
    bucket.extend(records);
    bucket
}

/// Pass 1 of the scatter: every record's destination partition, one
/// `Vec<u32>` per input partition (owned `Vec<T>` or shared `Arc<Vec<T>>`,
/// borrowed either way) — the only [`partition_for`] call a record gets.
/// Hashing is the expensive, order-free part, so large scatters run it on
/// the pool. Each input also reports whether all its records are home
/// (destined for its own index); `None` when, with one input per output,
/// every input is.
fn destinations<T, P, K, F>(inputs: &[P], partitions: usize, key_of: F) -> Option<Vec<Vec<u32>>>
where
    P: Borrow<Vec<T>> + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Sync,
{
    assert!(partitions <= u32::MAX as usize, "scatter exceeds u32 destination capacity");
    let hash_input = |i: usize| -> (Vec<u32>, bool) {
        let part: &Vec<T> = inputs[i].borrow();
        let mut home = true;
        let ids = part
            .iter()
            .map(|rec| {
                let d = partition_for(key_of(rec), partitions);
                home &= d == i;
                d as u32
            })
            .collect();
        (ids, home)
    };
    let total: usize = inputs.iter().map(|p| p.borrow().len()).sum();
    let hashed: Vec<(Vec<u32>, bool)> = if total < PARALLEL_SCATTER_MIN_RECORDS
        || inputs.len() <= 1
        || crate::pool::host_parallelism() <= 1
    {
        (0..inputs.len()).map(hash_input).collect()
    } else {
        parallel_map_range(inputs.len(), hash_input)
    };
    if inputs.len() == partitions && hashed.iter().all(|&(_, home)| home) {
        return None;
    }
    Some(hashed.into_iter().map(|(ids, _)| ids).collect())
}

/// Passes 2 and 3 of the scatter: fold the destinations into per-output
/// counts, allocate every bucket at its exact size (an empty bucket
/// allocates nothing, no bucket regrows), then walk the inputs in input
/// order on the calling thread and push each record into its bucket. Input
/// order is what the sequential scatter iterates in, so the output is
/// record-for-record identical to it.
///
/// `take` turns what the input iterators yield into the stored record at the
/// push site: the identity for a move, `T::clone` for a borrow. (A cloning
/// *iterator* zipped with the ids builds every clone in a temporary first —
/// twice the time of this loop on 48-byte `Value` pairs.)
fn place<R, T>(
    dests: &[Vec<u32>],
    partitions: usize,
    inputs: impl Iterator<Item = impl Iterator<Item = R>>,
    take: impl Fn(R) -> T,
) -> Vec<Vec<T>> {
    let mut counts = vec![0usize; partitions];
    for &d in dests.iter().flatten() {
        counts[d as usize] += 1;
    }
    let mut out: Vec<Vec<T>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (part, ids) in inputs.zip(dests) {
        for (rec, &d) in part.zip(ids) {
            out[d as usize].push(take(rec));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(stable_hash(&42u64), stable_hash(&42u64));
        assert_eq!(stable_hash(&"abc"), stable_hash(&"abc"));
    }

    #[test]
    fn partition_in_range() {
        for k in 0..1000u64 {
            assert!(partition_for(&k, 7) < 7);
        }
    }

    #[test]
    fn zero_partitions_clamped_to_one() {
        assert_eq!(partition_for(&1u64, 0), 0);
    }

    #[test]
    fn scatter_groups_same_keys_together() {
        let inputs = vec![vec![(1u64, "a"), (2, "b")], vec![(1, "c"), (3, "d")]];
        let out = scatter_by_key(inputs, 4, |r| &r.0);
        // All records with key 1 must land in the same partition.
        let p1 = partition_for(&1u64, 4);
        let ones: Vec<_> = out[p1].iter().filter(|r| r.0 == 1).collect();
        assert_eq!(ones.len(), 2);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn scatter_spreads_distinct_keys() {
        let inputs = vec![(0..1000u64).map(|k| (k, ())).collect::<Vec<_>>()];
        let out = scatter_by_key(inputs, 8, |r| &r.0);
        let nonempty = out.iter().filter(|p| !p.is_empty()).count();
        assert!(nonempty >= 7, "hash partitioning should use nearly all partitions");
    }

    /// Reference implementation: the naive sequential scatter every variant
    /// must reproduce bit-for-bit (contents *and* order).
    fn sequential_scatter<T: Clone>(
        inputs: &[Vec<T>],
        partitions: usize,
        key_of: impl Fn(&T) -> u64,
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
        for part in inputs {
            for rec in part {
                out[(stable_hash(&key_of(rec)) % partitions as u64) as usize].push(rec.clone());
            }
        }
        out
    }

    #[test]
    fn parallel_scatter_matches_sequential_exactly() {
        // Well above the parallel threshold, uneven partition sizes.
        let inputs: Vec<Vec<(u64, u64)>> = (0..9)
            .map(|p| (0..(1500 + p * 321)).map(|i| ((i * 31 + p) % 4093, i)).collect())
            .collect();
        let expect = sequential_scatter(&inputs, 13, |r| r.0);
        let owned = scatter_by_key(inputs.clone(), 13, |r| &r.0);
        assert_eq!(owned, expect, "owned parallel scatter must match the sequential loop");
        let shared: Vec<Arc<Vec<(u64, u64)>>> = inputs.into_iter().map(Arc::new).collect();
        let zero_copy = scatter_shared_by_key(&shared, 13, |r| &r.0);
        assert_eq!(zero_copy, expect, "shared parallel scatter must match the sequential loop");
    }

    /// splitmix64, the repository's seedable generator: every case is
    /// reproducible from its number alone.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Both entry points equal the naive loop — contents *and* order — over
    /// random shapes: 0–64 input partitions (some empty, sometimes all),
    /// 1–1,500 outputs, totals on both sides of `PARALLEL_SCATTER_MIN_RECORDS`,
    /// uniform / single-key / Zipf-ish keys, a non-`Copy` record type.
    #[test]
    fn scatter_equals_the_sequential_loop_on_random_shapes() {
        const CASES: u64 = 240;
        let (mut inline, mut pooled, mut all_empty, mut one_output) = (0, 0, 0, 0);
        for case in 0..CASES {
            let mut rng = case;
            let n_inputs = (splitmix64(&mut rng) % 65) as usize;
            let partitions =
                if case % 8 == 0 { 1 } else { 1 + (splitmix64(&mut rng) % 1500) as usize };
            // Every third case aims well above the threshold, every 16th is
            // all-empty, the rest stay below it.
            let target = match (case % 16, case % 3) {
                (5, _) => 0,
                (_, 0) => PARALLEL_SCATTER_MIN_RECORDS + (splitmix64(&mut rng) % 4000) as usize,
                _ => (splitmix64(&mut rng) % 3000) as usize,
            };
            let key_shape = splitmix64(&mut rng) % 3;
            // A quarter of the input partitions stay empty; the rest share
            // exactly `target` records.
            let open: Vec<usize> =
                (0..n_inputs).filter(|_| !splitmix64(&mut rng).is_multiple_of(4)).collect();
            let mut inputs: Vec<Vec<(u64, String)>> = vec![Vec::new(); n_inputs];
            let records = if open.is_empty() { 0 } else { target };
            for id in 0..records {
                let r = splitmix64(&mut rng);
                let key = match key_shape {
                    0 => r,                     // uniform
                    1 => 7,                     // a single key
                    _ => 1000 / (1 + r % 1000), // Zipf-ish: a few hot keys
                };
                let part = open[splitmix64(&mut rng) as usize % open.len()];
                inputs[part].push((key, format!("rec-{id}")));
            }
            let total: usize = inputs.iter().map(Vec::len).sum();
            match total {
                0 => all_empty += 1,
                t if t >= PARALLEL_SCATTER_MIN_RECORDS && n_inputs > 1 => pooled += 1,
                _ => inline += 1,
            }
            one_output += usize::from(partitions == 1);

            let expect = sequential_scatter(&inputs, partitions, |r| r.0);
            assert_eq!(expect.iter().map(Vec::len).sum::<usize>(), total);
            let shared: Vec<Arc<Vec<(u64, String)>>> =
                inputs.iter().cloned().map(Arc::new).collect();
            let cloned = scatter_shared_by_key(&shared, partitions, |r| &r.0);
            assert!(cloned == expect, "case {case}: shared scatter differs from the loop");
            let moved = scatter_by_key(inputs, partitions, |r| &r.0);
            assert!(moved == expect, "case {case}: owned scatter differs from the loop");
            // Exact-size buckets: an empty bucket never allocated.
            assert!(moved.iter().all(|b| !b.is_empty() || b.capacity() == 0), "case {case}");
        }
        // The draw must actually cover what the doc comment promises.
        assert!(inline >= 50 && pooled >= 50, "inline {inline}, pooled {pooled}");
        assert!(all_empty >= 10 && one_output >= 20, "empty {all_empty}, one {one_output}");
    }

    /// Inputs already placed by key, one per output: every record home.
    fn home_inputs(partitions: usize, records: u64) -> Vec<Vec<(u64, u64)>> {
        let all: Vec<(u64, u64)> = (0..records).map(|i| (i % 997, i)).collect();
        sequential_scatter(&[all], partitions, |r| r.0)
    }

    /// Below and above the pooled-hashing threshold, owned inputs whose
    /// records are all home come back as the same buffers, and shared ones
    /// place nothing; both are what the sequential loop builds.
    #[test]
    fn inputs_all_home_come_back_as_they_are() {
        for records in [300, 3 * PARALLEL_SCATTER_MIN_RECORDS as u64] {
            let inputs = home_inputs(7, records);
            let expect = sequential_scatter(&inputs, 7, |r| r.0);
            assert_eq!(expect, inputs, "{records}: placed inputs are the loop's buckets");
            let shared: Vec<Arc<Vec<(u64, u64)>>> = inputs.iter().cloned().map(Arc::new).collect();
            assert!(scatter_shared_unless_home(&shared, 7, |r| &r.0).is_none(), "{records}");
            assert_eq!(scatter_shared_by_key(&shared, 7, |r| &r.0), expect, "{records}");
            let buffers: Vec<*const (u64, u64)> = inputs.iter().map(|p| p.as_ptr()).collect();
            let moved = scatter_by_key(inputs, 7, |r| &r.0);
            assert_eq!(moved, expect, "{records}");
            let same: Vec<*const (u64, u64)> = moved.iter().map(|p| p.as_ptr()).collect();
            assert_eq!(same, buffers, "{records}: the same buffers, not copies");
            // One input more than outputs: a scatter, though every record
            // hashes to an index it could keep.
            let mut wider = home_inputs(7, records);
            wider.push(Vec::new());
            assert_eq!(scatter_by_key(wider, 7, |r| &r.0), expect, "{records}");
        }
    }

    /// A shared input whose records are all home clones none of them.
    #[test]
    fn shared_inputs_all_home_clone_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CLONES: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug, PartialEq)]
        struct Counted(u64);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }
        let records = 2 * PARALLEL_SCATTER_MIN_RECORDS as u64;
        let shared: Vec<Arc<Vec<(u64, Counted)>>> = home_inputs(5, records)
            .into_iter()
            .map(|p| Arc::new(p.into_iter().map(|(k, v)| (k, Counted(v))).collect()))
            .collect();
        CLONES.store(0, Ordering::Relaxed);
        assert!(scatter_shared_unless_home(&shared, 5, |r| &r.0).is_none());
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "an all-home scatter clones nothing");
    }

    /// One record out of place and the whole scatter runs, equal to the
    /// sequential loop through both entry points.
    #[test]
    fn one_misplaced_record_falls_back_to_the_counting_scatter() {
        for records in [300, 3 * PARALLEL_SCATTER_MIN_RECORDS as u64] {
            let mut inputs = home_inputs(7, records);
            let stray = inputs[2].pop().expect("a record to misplace");
            inputs[5].insert(1, stray);
            let expect = sequential_scatter(&inputs, 7, |r| r.0);
            assert_ne!(expect, inputs, "{records}: the stray record moves home");
            let shared: Vec<Arc<Vec<(u64, u64)>>> = inputs.iter().cloned().map(Arc::new).collect();
            assert_eq!(scatter_shared_unless_home(&shared, 7, |r| &r.0), Some(expect.clone()));
            assert_eq!(scatter_by_key(inputs, 7, |r| &r.0), expect, "{records}");
        }
    }

    #[test]
    fn shared_scatter_small_input_serial_path_matches_too() {
        let inputs: Vec<Arc<Vec<u64>>> = vec![Arc::new((0..50).collect())];
        let out = scatter_shared_by_key(&inputs, 4, |x| x);
        let expect = sequential_scatter(&[(0..50).collect()], 4, |x| *x);
        assert_eq!(out, expect);
    }
}
