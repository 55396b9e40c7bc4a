//! The shuffle stage, the one statement of the protocol under every wide
//! operator (as Spark runs one shuffle under all of them). An operator names
//! itself ([`Shuffle::new`]), may shrink its input on the map side
//! ([`Shuffle::combine`]), places each side into the reduce partitions
//! ([`Shuffle::place`], or its own buckets via [`Shuffle::scattered`]) and
//! hands the sides to the reduce side ([`Shuffle::reduce_pair`]). Charges,
//! their order and `PartitionStats` events are this file's alone
//! (`tests/golden_sim.rs` pins every path, event by event).

use std::hash::Hash;
use std::sync::Arc;

use super::fuse::{settle, Batch, ChargeRule, FusedOpMeta};
use super::{to_parts, Bag, Partitioning, Parts};
use crate::error::Result;
use crate::map_output::MapOutputStats;
use crate::partitioner::{scatter_by_key, scatter_shared_by_key};
use crate::pool::parallel_map;
use crate::types::Data;
use crate::Engine;

/// One wide operator's shuffle: its name (naming the shuffle, stats, memory
/// check and stage) and its reduce partitions.
#[derive(Clone)]
pub(super) struct Shuffle {
    engine: Engine,
    name: &'static str,
    partitions: usize,
}

/// What a side is placed from: a parent's shared partitions, or the owned
/// ones a map-side combine produced.
pub(super) enum Input<'a, T> {
    Shared(&'a [Arc<Vec<T>>]),
    Owned(Vec<Vec<T>>),
}

/// One side of a shuffle, placed: a [`Batch`] per reduce partition, `Shared`
/// where the input was reused and `Owned` after a scatter.
pub(super) struct Side<'a, T> {
    batches: Vec<Batch<'a, T>>,
    /// Modeled bytes per record.
    bytes: f64,
    /// Whether this shuffle scattered the side (else it is read as placed).
    pub(super) scattered: bool,
    /// Bytes per record the reduce step holds in memory: `bytes`, or 0 for a
    /// side it streams.
    held: f64,
}

impl<'a, T> Side<'a, T> {
    fn new(batches: Vec<Batch<'a, T>>, bytes: f64, scattered: bool) -> Self {
        Side { batches, bytes, scattered, held: bytes }
    }

    /// The reduce step streams this side's records: its memory check does
    /// not count them (a stage holding nothing emits no memory event).
    pub(super) fn streamed(self) -> Self {
        Side { held: 0.0, ..self }
    }
}

impl Shuffle {
    pub(super) fn new(engine: &Engine, name: &'static str, partitions: usize) -> Self {
        Shuffle { engine: engine.clone(), name, partitions: partitions.max(1) }
    }

    /// Hash-placed by key into this shuffle's partitions.
    pub(super) fn by_key(&self) -> Partitioning {
        Partitioning::HashByKey { partitions: self.partitions }
    }

    /// Whether records placed as `known` already sit where this shuffle would
    /// put them (Spark's co-partitioned narrow dependency).
    pub(super) fn reuses(&self, known: Partitioning) -> bool {
        known == self.by_key()
    }

    /// The operator's lineage node, evaluated by `compute`.
    pub(super) fn node<O: Data>(
        &self,
        bytes: f64,
        placement: Partitioning,
        compute: impl Fn(&Shuffle) -> Result<Parts<O>> + Send + Sync + 'static,
    ) -> Bag<O> {
        let (engine, name, parts, s) =
            (self.engine.clone(), self.name, self.partitions, self.clone());
        Bag::new_with_partitioning(engine, name, bytes, parts, placement, move || compute(&s))
    }

    /// A map-side combine: `step` shrinks each input partition on the pool,
    /// charged as a narrow pass over its `bytes`-sized input records; what it
    /// keeps is memory-checked as `memory`, at `kept_bytes` per record.
    pub(super) fn combine<T: Data, O: Send>(
        &self,
        input: &[Arc<Vec<T>>],
        memory: &'static str,
        bytes: f64,
        kept_bytes: f64,
        step: impl Fn(&[T]) -> Vec<O> + Sync,
    ) -> Result<Vec<Vec<O>>> {
        let counts: Vec<usize> = input.iter().map(|p| p.len()).collect();
        let combined = parallel_map(input.iter().map(|p| p.as_slice()).collect(), |_, p| step(p));
        self.engine.charge_compute(&counts, bytes, false)?;
        self.check_memory(memory, combined.iter().map(|p| p.len() as f64 * kept_bytes))?;
        Ok(combined)
    }

    /// Place a side by `key_of`: read as it is when [`Shuffle::reuses`] its
    /// `known` placement, else scattered — records cloned once out of shared
    /// partitions, moved out of owned ones.
    pub(super) fn place<'a, T: Data, K: Hash + ?Sized>(
        &self,
        input: Input<'a, T>,
        known: Partitioning,
        bytes: f64,
        key_of: impl Fn(&T) -> &K + Send + Sync,
    ) -> Side<'a, T> {
        if self.reuses(known) {
            let batches = match input {
                Input::Shared(parts) => parts.iter().map(|p| Batch::Shared(p.as_slice())).collect(),
                Input::Owned(parts) => parts.into_iter().map(Batch::Owned).collect(),
            };
            return Side::new(batches, bytes, false);
        }
        let (records, buckets) = match input {
            Input::Shared(parts) => (
                parts.iter().map(|p| p.len()).sum(),
                scatter_shared_by_key(parts, self.partitions, key_of),
            ),
            Input::Owned(parts) => {
                (parts.iter().map(Vec::len).sum(), scatter_by_key(parts, self.partitions, key_of))
            }
        };
        self.scattered(records, bytes, buckets)
    }

    /// Charge a shuffle of `records` records of `bytes` each, placed into
    /// `buckets` ([`Shuffle::place`]'s, or an operator's own round-robin or
    /// range buckets).
    pub(super) fn scattered<'a, T>(
        &self,
        records: usize,
        bytes: f64,
        buckets: Vec<Vec<T>>,
    ) -> Side<'a, T> {
        self.engine.charge_shuffle(self.name, records as u64, bytes);
        Side::new(buckets.into_iter().map(Batch::Owned).collect(), bytes, true)
    }

    /// The reduce side of a one-sided shuffle, [`Shuffle::reduce_pair`] with
    /// an empty right side: `step` turns each placed partition into an output
    /// partition, and the stage is charged by `charge` on records of `bytes`.
    pub(super) fn reduce<T: Data, O: Data>(
        &self,
        side: Side<'_, T>,
        charge: ChargeRule,
        bytes: f64,
        step: impl Fn(Batch<'_, T>) -> Vec<O> + Sync,
    ) -> Result<Parts<O>> {
        let none = (0..side.batches.len()).map(|_| Batch::Owned(Vec::<()>::new())).collect();
        let head = [FusedOpMeta { name: self.name, bytes, charge }];
        self.reduce_pair(self.name, (side, Side::new(none, 0.0, false)), &head, |l, _| {
            let out = step(l);
            let n = out.len();
            (out, n)
        })
    }

    /// The reduce side: the `PartitionStats` event of what was scattered
    /// (per reduce partition, both sides' records, each weighed by its own
    /// record size), the memory check `memory` of what the step holds, the
    /// step on the pool, then the stage charge: [`settle`] over `metas`, the
    /// operator then any followers it absorbed (a join's), with task
    /// overhead. `step` returns a partition's output and the operator's own
    /// output count, which the followers read.
    pub(super) fn reduce_pair<L: Data, R: Data, O: Data>(
        &self,
        memory: &'static str,
        (left, right): (Side<'_, L>, Side<'_, R>),
        metas: &[FusedOpMeta],
        step: impl Fn(Batch<'_, L>, Batch<'_, R>) -> (Vec<O>, usize) + Sync,
    ) -> Result<Parts<O>> {
        let counts: Vec<(usize, usize)> = (left.batches.iter().zip(&right.batches))
            .map(|(l, r)| (l.as_slice().len(), r.as_slice().len()))
            .collect();
        if left.scattered || right.scattered {
            let (lb, rb) = (left.bytes, right.bytes);
            let (partition_records, partition_bytes) = counts
                .iter()
                .map(|&(l, r)| ((l + r) as u64, (l as f64 * lb + r as f64 * rb) as u64))
                .unzip();
            let operator = self.name;
            let stats = MapOutputStats { operator, partition_records, partition_bytes };
            self.engine.record_map_output(&stats);
        }
        let (lh, rh) = (left.held, right.held);
        self.check_memory(memory, counts.iter().map(|&(l, r)| l as f64 * lh + r as f64 * rh))?;
        let pairs = left.batches.into_iter().zip(right.batches).collect();
        let per_part = parallel_map(pairs, |_, (l, r)| step(l, r));
        let boundary = |pi: usize, j: usize| match j {
            0 => counts[pi].0 + counts[pi].1,
            1 => per_part[pi].1,
            _ => per_part[pi].0.len(),
        };
        settle(&self.engine, metas, true, per_part.len(), boundary)?;
        Ok(to_parts(per_part.into_iter().map(|(out, _)| out).collect()))
    }

    /// Memory-check one task per partition holding `bytes` modeled bytes,
    /// materialized by the cost model's `materialize_factor`.
    fn check_memory(&self, operator: &'static str, bytes: impl Iterator<Item = f64>) -> Result<()> {
        let factor = self.engine.config().costs.materialize_factor;
        let working_sets: Vec<u64> = bytes.map(|b| (b * factor) as u64).collect();
        self.engine.charge_memory(operator, &working_sets)
    }
}
