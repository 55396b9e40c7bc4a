//! Operators beside the narrow/wide core: sampling, sorting, set operations
//! and key-preserving value maps with the per-key aggregation built on them.

use std::sync::Arc;

use super::fuse::{fusible, Batch, ChargeRule, Step};
use super::ops_wide::{record_scatter, record_scatter_pair};
use super::{to_parts, Bag, Partitioning};
use crate::fx::{fx_set_with_capacity, FxHashSet};
use crate::partitioner::{scatter_shared_by_key, stable_hash};
use crate::pool::parallel_map;
use crate::types::{Data, Key};

impl<T: Data> Bag<T> {
    /// Deterministic Bernoulli sample: keeps each record with probability
    /// `fraction`, decided by a stable per-record hash of `(seed, index)` so
    /// the sample is reproducible across runs and engines.
    pub fn sample(&self, fraction: f64, seed: u64) -> Bag<T> {
        let threshold = (fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        let step: Step<T, T> = Arc::new(move |pi, batch: Batch<'_, T>| {
            let keep = move |i: usize| stable_hash(&(seed, pi as u64, i as u64)) <= threshold;
            match batch {
                Batch::Shared(xs) => xs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| keep(*i))
                    .map(|(_, x)| x.clone())
                    .collect(),
                Batch::Owned(xs) => {
                    xs.into_iter().enumerate().filter(|(i, _)| keep(*i)).map(|(_, x)| x).collect()
                }
            }
        });
        let bytes = self.record_bytes();
        fusible(self, "sample", bytes, Partitioning::Arbitrary, ChargeRule::Input, step)
    }

    /// Total sort by a key function: range-partition by sampled split
    /// points, then sort each partition (Spark `sortBy`). Output partition
    /// `i` holds keys entirely `<=` those of partition `i+1`.
    pub fn sort_by<K: Data + Ord>(
        &self,
        partitions: usize,
        key: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Bag<T> {
        let parent = self.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        let partitions = partitions.max(1);
        Bag::new(engine.clone(), "sort_by", bytes, partitions, move || {
            let input = parent.eval()?;
            let records: u64 = input.iter().map(|p| p.len() as u64).sum();
            engine.charge_shuffle("sort_by", records, bytes);
            // Exact split points from the full key set (a simulator can
            // afford exact quantiles; Spark samples).
            let mut keys: Vec<K> = input.iter().flat_map(|p| p.iter().map(&key)).collect();
            keys.sort();
            let splits: Vec<K> = (1..partitions)
                .filter_map(|i| keys.get(i * keys.len() / partitions).cloned())
                .collect();
            let mut out: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
            for p in input.iter() {
                for x in p.iter() {
                    let k = key(x);
                    let idx = splits.partition_point(|s| *s <= k);
                    out[idx].push(x.clone());
                }
            }
            record_scatter(&engine, "sort_by", &out, bytes);
            let factor = engine.config().costs.materialize_factor;
            let ws: Vec<u64> =
                out.iter().map(|p| (p.len() as f64 * bytes * factor) as u64).collect();
            engine.charge_memory("sort_by", &ws)?;
            let counts: Vec<usize> = out.iter().map(Vec::len).collect();
            let out: Vec<Vec<T>> = parallel_map(out, |_, mut p| {
                p.sort_by_key(|a| key(a));
                p
            });
            engine.charge_compute(&counts, bytes, true)?;
            Ok(to_parts(out))
        })
    }
}

impl<T: Key> Bag<T> {
    /// Multiset difference: records of `self` whose value does not occur in
    /// `other` (Spark `subtract`, by hash co-partitioning).
    pub fn subtract(&self, other: &Bag<T>) -> Bag<T> {
        assert!(self.engine().same_as(other.engine()), "subtract across engines");
        let partitions = self.num_partitions().max(other.num_partitions()).max(1);
        let left = self.clone();
        let right = other.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        Bag::new(engine.clone(), "subtract", bytes, partitions, move || {
            let lp = left.eval()?;
            let rp = right.eval()?;
            let lrec: u64 = lp.iter().map(|p| p.len() as u64).sum();
            let rrec: u64 = rp.iter().map(|p| p.len() as u64).sum();
            engine.charge_shuffle("subtract", lrec, bytes);
            engine.charge_shuffle("subtract", rrec, right.record_bytes());
            let ls = scatter_by_value(&lp, partitions);
            let rs = scatter_by_value(&rp, partitions);
            let sides = ls.iter().zip(&rs).map(|(l, r)| (l.len(), r.len()));
            record_scatter_pair(&engine, "subtract", sides, bytes, right.record_bytes());
            let zipped: Vec<(Vec<T>, Vec<T>)> = ls.into_iter().zip(rs).collect();
            let out: Vec<Vec<T>> = parallel_map(zipped, |_, (l, r)| {
                let mut exclude: FxHashSet<T> = fx_set_with_capacity(r.len());
                exclude.extend(r);
                l.into_iter().filter(|x| !exclude.contains(x)).collect()
            });
            let counts: Vec<usize> = out.iter().map(Vec::len).collect();
            engine.charge_compute(&counts, bytes, true)?;
            Ok(to_parts(out))
        })
    }

    /// Set intersection (distinct records present in both bags).
    pub fn intersection(&self, other: &Bag<T>) -> Bag<T> {
        assert!(self.engine().same_as(other.engine()), "intersection across engines");
        let partitions = self.num_partitions().max(other.num_partitions()).max(1);
        let left = self.clone();
        let right = other.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        Bag::new(engine.clone(), "intersection", bytes, partitions, move || {
            let lp = left.eval()?;
            let rp = right.eval()?;
            let lrec: u64 = lp.iter().map(|p| p.len() as u64).sum();
            let rrec: u64 = rp.iter().map(|p| p.len() as u64).sum();
            engine.charge_shuffle("intersection", lrec, bytes);
            engine.charge_shuffle("intersection", rrec, right.record_bytes());
            let ls = scatter_by_value(&lp, partitions);
            let rs = scatter_by_value(&rp, partitions);
            let sides = ls.iter().zip(&rs).map(|(l, r)| (l.len(), r.len()));
            record_scatter_pair(&engine, "intersection", sides, bytes, right.record_bytes());
            let zipped: Vec<(Vec<T>, Vec<T>)> = ls.into_iter().zip(rs).collect();
            let out: Vec<Vec<T>> = parallel_map(zipped, |_, (l, r)| {
                let mut rset: FxHashSet<T> = fx_set_with_capacity(r.len());
                rset.extend(r);
                let mut seen: FxHashSet<T> = fx_set_with_capacity(l.len().min(rset.len()));
                l.into_iter().filter(|x| rset.contains(x) && seen.insert(x.clone())).collect()
            });
            let counts: Vec<usize> = out.iter().map(Vec::len).collect();
            engine.charge_compute(&counts, bytes, true)?;
            Ok(to_parts(out))
        })
    }
}

/// Shuffle whole records by their own hash: the zero-copy parallel scatter
/// with the identity key.
fn scatter_by_value<T: Key>(parts: &super::Parts<T>, partitions: usize) -> Vec<Vec<T>> {
    scatter_shared_by_key(parts, partitions, |x| x)
}

impl<K: Key, V: Data> Bag<(K, V)> {
    /// Value-side map that provably preserves the key — and therefore the
    /// bag's hash partitioning (a narrow op that keeps co-partitioned joins
    /// co-partitioned, like Spark `mapValues`).
    pub fn map_values<W: Data>(&self, f: impl Fn(&V) -> W + Send + Sync + 'static) -> Bag<(K, W)> {
        // Keys clone out of the shared partition at a chain's head and move
        // for free mid-chain.
        let step: Step<(K, V), (K, W)> = Arc::new(move |_, batch: Batch<'_, (K, V)>| match batch {
            Batch::Shared(xs) => xs.iter().map(|(k, v)| (k.clone(), f(v))).collect(),
            Batch::Owned(xs) => xs.into_iter().map(|(k, v)| (k, f(&v))).collect(),
        });
        let bytes = self.record_bytes();
        fusible(self, "map_values", bytes, self.partitioning(), ChargeRule::Output, step)
    }

    /// Spark `combineByKey`/`aggregateByKey`: per-key aggregation with a
    /// distinct accumulator type, map-side combining included.
    pub fn aggregate_by_key<A: Data>(
        &self,
        zero: A,
        seq_op: impl Fn(&A, &V) -> A + Send + Sync + 'static,
        comb_op: impl Fn(&A, &A) -> A + Send + Sync + 'static,
    ) -> Bag<(K, A)> {
        let z = zero.clone();
        self.map_values(move |v| seq_op(&z, v)).reduce_by_key(comb_op)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, Partitioning};

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn sample_is_deterministic_and_roughly_sized() {
        let e = Engine::local();
        let b = e.parallelize((0..10_000u64).collect::<Vec<_>>(), 8);
        let s1 = b.sample(0.25, 7).collect().unwrap();
        let s2 = b.sample(0.25, 7).collect().unwrap();
        assert_eq!(s1, s2, "same seed, same sample");
        let frac = s1.len() as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "sample fraction {frac}");
        let s3 = b.sample(0.25, 8).collect().unwrap();
        assert_ne!(s1, s3, "different seed, different sample");
    }

    #[test]
    fn sample_extremes() {
        let e = Engine::local();
        let b = e.parallelize((0..100u64).collect::<Vec<_>>(), 4);
        assert_eq!(b.sample(0.0, 1).count().unwrap(), 0);
        assert_eq!(b.sample(1.0, 1).count().unwrap(), 100);
    }

    #[test]
    fn sort_by_globally_orders() {
        let e = Engine::local();
        let data: Vec<i64> = (0..500).map(|i| (i * 7919) % 1000 - 500).collect();
        let b = e.parallelize(data.clone(), 7).sort_by(5, |x| *x);
        let parts = b.collect_partitions().unwrap();
        // Within-partition sorted...
        for p in &parts {
            assert!(p.windows(2).all(|w| w[0] <= w[1]));
        }
        // ...and across partitions ordered.
        let flat: Vec<i64> = parts.into_iter().flatten().collect();
        let mut expect = data;
        expect.sort();
        assert_eq!(flat, expect);
    }

    #[test]
    fn subtract_and_intersection() {
        let e = Engine::local();
        let a = e.parallelize(vec![1, 2, 2, 3, 4], 3);
        let b = e.parallelize(vec![2, 4, 5], 2);
        assert_eq!(sorted(a.subtract(&b).collect().unwrap()), vec![1, 3]);
        assert_eq!(sorted(a.intersection(&b).collect().unwrap()), vec![2, 4]);
    }

    #[test]
    fn subtract_of_disjoint_is_identity() {
        let e = Engine::local();
        let a = e.parallelize(vec![1, 2, 3], 2);
        let b = e.parallelize(vec![9], 1);
        assert_eq!(sorted(a.subtract(&b).collect().unwrap()), vec![1, 2, 3]);
    }

    #[test]
    fn map_values_preserves_partitioning() {
        let e = Engine::local();
        let b = e
            .parallelize((0..100u32).map(|i| (i % 7, i)).collect::<Vec<_>>(), 4)
            .partition_by_key(5);
        let m = b.map_values(|v| v * 2);
        assert_eq!(m.partitioning(), Partitioning::HashByKey { partitions: 5 });
        // And a by-key op after it skips the shuffle entirely.
        m.count().unwrap();
        let s0 = e.stats();
        m.reduce_by_key_into(5, |a, b| a + b).count().unwrap();
        assert_eq!(e.stats().since(&s0).shuffle_bytes, 0);
    }

    #[test]
    fn aggregate_by_key_computes_averages() {
        let e = Engine::local();
        let b = e.parallelize(vec![(1u32, 10.0f64), (1, 20.0), (2, 5.0)], 2);
        let sums = b.aggregate_by_key(
            (0.0f64, 0u64),
            |z, v| (z.0 + v, z.1 + 1),
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        let mut avgs: Vec<(u32, f64)> =
            sums.collect().unwrap().into_iter().map(|(k, (s, n))| (k, s / n as f64)).collect();
        avgs.sort_by_key(|(k, _)| *k);
        assert_eq!(avgs, vec![(1, 15.0), (2, 5.0)]);
    }
}
