//! Operators beside the narrow/wide core: sampling, sorting and
//! key-preserving value maps.

use std::sync::Arc;

use super::fuse::{fusible, Batch, ChargeRule, Step};
use super::shuffle::Shuffle;
use super::{Bag, Partitioning};
use crate::partitioner::stable_hash;
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
        let (parent, bytes, partitions) = (self.clone(), self.record_bytes(), partitions.max(1));
        let shuffle = Shuffle::new(self.engine(), "sort_by", partitions);
        shuffle.node(bytes, Partitioning::Arbitrary, move |s| {
            let input = parent.eval()?;
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
            let side = s.scattered(keys.len(), bytes, out);
            s.reduce(side, ChargeRule::Input, bytes, |batch| {
                let mut p = batch.into_vec();
                p.sort_by_key(|a| key(a));
                p
            })
        })
    }
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
}

#[cfg(test)]
mod tests {
    use crate::{Engine, Partitioning};

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
}
