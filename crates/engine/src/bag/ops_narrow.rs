//! Narrow (pipelined, shuffle-free) transformations.

use std::sync::Arc;

use super::fuse::{fusible, Batch, ChargeRule, Step};
use super::{Bag, Partitioning, Parts};
use crate::pool::parallel_map_range;
use crate::types::Data;

/// Simulated resource estimate returned by the UDF of
/// [`Bag::map_with_work`].
///
/// `cost_units` is interpreted as "equivalent records of the *input* bag's
/// record size" — e.g. an outer-parallel UDF that runs 10 PageRank iterations
/// over a group of 5000 edges reports `cost_units = 50_000`. `mem_bytes` is
/// the peak working set the UDF holds while processing one record; the
/// heaviest record of a partition defines the task's working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkEstimate {
    /// Work in units of one input-record processing cost.
    pub cost_units: u64,
    /// Peak simulated working-set bytes while processing this record.
    pub mem_bytes: u64,
}

impl<T: Data> Bag<T> {
    /// Element-wise transformation.
    pub fn map<U: Data>(&self, f: impl Fn(&T) -> U + Send + Sync + 'static) -> Bag<U> {
        let step: Step<T, U> =
            Arc::new(move |_, batch: Batch<'_, T>| batch.as_slice().iter().map(&f).collect());
        fusible(self, "map", self.record_bytes(), Partitioning::Arbitrary, ChargeRule::Output, step)
    }

    /// Element-wise transformation that takes each record by value, charged
    /// as `map`: a record handed on by the step before moves into `f`, and one
    /// read out of a materialized partition is cloned once. This is the
    /// re-keying map: `((t, k), v)` to `(t, (k, v))` and back moves every part.
    pub fn map_into<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Bag<U> {
        let step: Step<T, U> = Arc::new(move |_, batch: Batch<'_, T>| match batch {
            Batch::Shared(xs) => xs.iter().cloned().map(&f).collect(),
            Batch::Owned(xs) => xs.into_iter().map(&f).collect(),
        });
        fusible(self, "map", self.record_bytes(), Partitioning::Arbitrary, ChargeRule::Output, step)
    }

    /// Element-wise transformation that also sees the record's position:
    /// `(partition_index, offset_in_partition, record)`. The position is
    /// deterministic, so it can derive stable per-record tags without extra
    /// shuffles or state.
    pub fn map_indexed<U: Data>(
        &self,
        f: impl Fn(usize, usize, &T) -> U + Send + Sync + 'static,
    ) -> Bag<U> {
        let step: Step<T, U> = Arc::new(move |pi, batch: Batch<'_, T>| {
            batch.as_slice().iter().enumerate().map(|(i, x)| f(pi, i, x)).collect()
        });
        let bytes = self.record_bytes();
        fusible(self, "map_indexed", bytes, Partitioning::Arbitrary, ChargeRule::Output, step)
    }

    /// Element-wise transformation that also reports a simulated resource
    /// estimate per record. This is how *sequential* inner computations
    /// (the outer-parallel workaround's UDFs) are priced honestly: the UDF
    /// does its real work and tells the simulator how much work that was.
    ///
    /// Never fused: the memory accounting below must observe the real
    /// per-record estimates, and its weighted task costs have no
    /// `charge_compute` equivalent to replay.
    pub fn map_with_work<U: Data>(
        &self,
        f: impl Fn(&T) -> (U, WorkEstimate) + Send + Sync + 'static,
    ) -> Bag<U> {
        let parent = self.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        Bag::new(engine.clone(), "map_with_work", bytes, self.num_partitions(), move || {
            let input = parent.eval()?;
            let computed: Vec<(Vec<U>, u64, u64)> = parallel_map_range(input.len(), |i| {
                let p = &input[i];
                let mut out = Vec::with_capacity(p.len());
                let mut work = 0u64;
                let mut mem = 0u64;
                for rec in p.iter() {
                    let (u, est) = f(rec);
                    out.push(u);
                    work += est.cost_units;
                    mem = mem.max(est.mem_bytes);
                }
                (out, work, mem)
            });
            let per_record = engine.record_cost(bytes);
            let task_costs: Vec<crate::SimTime> =
                computed.iter().map(|(_, work, _)| per_record * *work).collect();
            let mut working_sets: Vec<u64> = computed.iter().map(|(_, _, mem)| *mem).collect();
            engine.charge_memory("map_with_work", &mut working_sets)?;
            let records = computed.iter().map(|(o, _, _)| o.len() as u64).sum();
            engine.charge_weighted(&task_costs, records, false)?;
            Ok(Parts::new(computed.into_iter().map(|(o, _, _)| o).collect()))
        })
    }

    /// Keep records satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Bag<T> {
        // Survivors clone out of the shared partition at a chain's head and
        // move for free mid-chain, where the in-place
        // `into_iter().collect()` also reuses the batch's allocation.
        let step: Step<T, T> = Arc::new(move |_, batch: Batch<'_, T>| match batch {
            Batch::Shared(xs) => xs.iter().filter(|x| f(x)).cloned().collect(),
            Batch::Owned(xs) => xs.into_iter().filter(|x| f(x)).collect(),
        });
        let bytes = self.record_bytes();
        fusible(self, "filter", bytes, Partitioning::Arbitrary, ChargeRule::Input, step)
    }

    /// Element-to-many transformation. Cost is charged on
    /// `max(input, output)` records per partition, so expansion (e.g. a
    /// flattened cross product) is priced by what it produces.
    pub fn flat_map<U: Data, I>(&self, f: impl Fn(&T) -> I + Send + Sync + 'static) -> Bag<U>
    where
        I: IntoIterator<Item = U>,
    {
        let step: Step<T, U> =
            Arc::new(move |_, batch: Batch<'_, T>| batch.as_slice().iter().flat_map(&f).collect());
        let bytes = self.record_bytes();
        fusible(self, "flat_map", bytes, Partitioning::Arbitrary, ChargeRule::MaxSide, step)
    }

    /// Pair every record with a unique id (Spark `zipWithUniqueId`:
    /// `index_in_partition * num_partitions + partition_index`).
    pub fn zip_with_unique_id(&self) -> Bag<(T, u64)> {
        let nparts = self.num_partitions() as u64;
        let step: Step<T, (T, u64)> = Arc::new(move |pi, batch: Batch<'_, T>| match batch {
            Batch::Shared(xs) => xs
                .iter()
                .enumerate()
                .map(|(i, x)| (x.clone(), i as u64 * nparts + pi as u64))
                .collect(),
            Batch::Owned(xs) => xs
                .into_iter()
                .enumerate()
                .map(|(i, x)| (x, i as u64 * nparts + pi as u64))
                .collect(),
        });
        let bytes = self.record_bytes();
        fusible(
            self,
            "zip_with_unique_id",
            bytes,
            Partitioning::Arbitrary,
            ChargeRule::Output,
            step,
        )
    }

    /// Concatenate two bags (free metadata operation, like Spark `union`):
    /// the output lists both parents' partition sets, and copies none.
    pub fn union(&self, other: &Bag<T>) -> Bag<T> {
        assert!(self.engine().same_as(other.engine()), "union of bags from different engines");
        let a = self.clone();
        let b = other.clone();
        let bytes = self.record_bytes().max(other.record_bytes());
        let parts = self.num_partitions() + other.num_partitions();
        Bag::new(self.engine().clone(), "union", bytes, parts, move || {
            let pa = a.eval()?;
            let pb = b.eval()?;
            Ok(Parts::union(&pa, &pb))
        })
    }

    /// Convenience: key every record by `f` (a `map` producing pairs).
    pub fn key_by<K: Data>(&self, f: impl Fn(&T) -> K + Send + Sync + 'static) -> Bag<(K, T)> {
        self.map(move |x| (f(x), x.clone()))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, WorkEstimate};

    #[test]
    fn map_filter_flat_map_semantics() {
        let e = Engine::local();
        let b = e.parallelize((1..=10).collect::<Vec<i64>>(), 3);
        let out = b
            .map(|x| x * 10)
            .filter(|x| x % 20 == 0)
            .flat_map(|x| vec![*x, -*x])
            .collect()
            .unwrap();
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(sorted, vec![-100, -80, -60, -40, -20, 20, 40, 60, 80, 100]);
    }

    #[test]
    fn map_indexed_sees_stable_positions() {
        let e = Engine::local();
        let b = e.parallelize((0..20u32).collect::<Vec<_>>(), 4);
        let tagged = b.map_indexed(|pi, i, x| (pi, i, *x)).collect().unwrap();
        assert_eq!(tagged.len(), 20);
        // Offsets restart at 0 in every partition and positions are unique.
        let mut pos: Vec<(usize, usize)> = tagged.iter().map(|(pi, i, _)| (*pi, *i)).collect();
        pos.sort_unstable();
        pos.dedup();
        assert_eq!(pos.len(), 20, "(partition, offset) must be unique");
        assert!(tagged.iter().any(|(_, i, _)| *i == 0));
        // Deterministic: a second run tags identically.
        let again = e
            .parallelize((0..20u32).collect::<Vec<_>>(), 4)
            .map_indexed(|pi, i, x| (pi, i, *x))
            .collect()
            .unwrap();
        let mut a = tagged.clone();
        let mut b2 = again.clone();
        a.sort_unstable();
        b2.sort_unstable();
        assert_eq!(a, b2);
    }

    #[test]
    fn zip_with_unique_id_is_unique() {
        let e = Engine::local();
        let b = e.parallelize((0..57).collect::<Vec<u32>>(), 5).zip_with_unique_id();
        let ids: Vec<u64> = b.collect().unwrap().into_iter().map(|(_, id)| id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 57, "ids must be unique");
    }

    #[test]
    fn union_concatenates() {
        let e = Engine::local();
        let a = e.parallelize(vec![1, 2], 2);
        let b = e.parallelize(vec![3], 1);
        let mut out = a.union(&b).collect().unwrap();
        out.sort();
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(a.union(&b).num_partitions(), 3);
    }

    #[test]
    #[should_panic(expected = "different engines")]
    fn union_across_engines_panics() {
        let a = Engine::local().parallelize(vec![1], 1);
        let b = Engine::local().parallelize(vec![2], 1);
        let _ = a.union(&b);
    }

    #[test]
    fn map_with_work_charges_declared_work() {
        let e = Engine::local();
        let b = e.parallelize(vec![1u64, 2, 3], 1);
        let cheap = b.map_with_work(|x| (*x, WorkEstimate { cost_units: 1, mem_bytes: 0 }));
        let t0 = e.sim_time();
        cheap.collect().unwrap();
        let cheap_dt = e.sim_time() - t0;

        let b2 = e.parallelize(vec![1u64, 2, 3], 1);
        let pricey =
            b2.map_with_work(|x| (*x, WorkEstimate { cost_units: 1_000_000, mem_bytes: 0 }));
        let t1 = e.sim_time();
        pricey.collect().unwrap();
        let pricey_dt = e.sim_time() - t1;
        assert!(pricey_dt > cheap_dt);
    }

    #[test]
    fn map_with_work_memory_can_oom() {
        let e = Engine::local(); // 4 GB per machine
        let b = e.parallelize(vec![0u8], 1);
        let huge =
            b.map_with_work(|_| ((), WorkEstimate { cost_units: 1, mem_bytes: 64 * crate::GB }));
        assert!(matches!(huge.collect(), Err(crate::EngineError::OutOfMemory { .. })));
    }

    #[test]
    fn key_by_keys_records() {
        let e = Engine::local();
        let b = e.parallelize(vec!["aa".to_string(), "b".to_string()], 1);
        let mut out = b.key_by(|s| s.len()).collect().unwrap();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out, vec![(1, "b".to_string()), (2, "aa".to_string())]);
    }
}
