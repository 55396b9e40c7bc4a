//! The shuffle stage, the one statement of the protocol under every wide
//! operator (as Spark runs one shuffle under all of them). An operator names
//! itself ([`Shuffle::new`]), reads each parent on its map side
//! ([`Shuffle::read`], or [`Shuffle::combine`] to shrink it there), places
//! each side into the reduce partitions ([`Shuffle::place`], or its own
//! buckets via [`Shuffle::scattered`]) and hands the sides to the reduce side
//! ([`Shuffle::reduce_pair`]). The map side runs an absorbable narrow chain in
//! its own pass and moves its records into the scatter; the reduce side heads
//! the chain after it (`fuse::headed`). Charges, their order and
//! `PartitionStats` events are this file's alone (`tests/golden_sim.rs` pins
//! every path, event by event).

use std::hash::Hash;

use super::fuse::{self, Assembled, Batch, ChargeRule, FusedOpMeta, Part};
use super::{Bag, Partitioning, Parts};
use crate::error::Result;
use crate::map_output::MapOutputStats;
use crate::partitioner::{scatter_by_key, scatter_shared_unless_home};
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

/// What a map side read of a parent: its memoized partitions, shared, or the
/// owned output of the chain it ran.
pub(super) enum Input<T> {
    Shared(Parts<T>),
    Owned(Vec<Vec<T>>),
}

impl<T: Data> Input<T> {
    /// Each partition, whole, for a chain head to take.
    pub(super) fn into_parts(self) -> Vec<Part<T>> {
        match self {
            Input::Shared(parts) => parts.shared().collect(),
            Input::Owned(parts) => parts.into_iter().map(Part::Owned).collect(),
        }
    }
}

/// One side of a shuffle, placed: a [`Part`] per reduce partition, `Shared`
/// where a materialized input was reused and `Owned` after a scatter or a
/// map-side pass.
pub(super) struct Side<T> {
    parts: Vec<Part<T>>,
    /// Modeled bytes per record.
    bytes: f64,
    /// Whether this shuffle scattered the side (else it is read as placed).
    pub(super) scattered: bool,
    /// Bytes per record the reduce step holds in memory: `bytes`, or 0 for a
    /// side it streams.
    held: f64,
}

impl<T> Side<T> {
    fn new(parts: Vec<Part<T>>, bytes: f64, scattered: bool) -> Self {
        Side { parts, bytes, scattered, held: bytes }
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

    /// The operator's lineage node: evaluating it, or a chain it heads, runs
    /// `assemble` (map side, placement, then the reduce side as a chain head).
    pub(super) fn node<O: Data>(
        &self,
        bytes: f64,
        placement: Partitioning,
        assemble: impl Fn(&Shuffle) -> Result<Assembled<O>> + Send + Sync + 'static,
    ) -> Bag<O> {
        let (engine, s) = (self.engine.clone(), self.clone());
        fuse::chain_node(engine, self.name, bytes, self.partitions, placement, move || assemble(&s))
    }

    /// The map side's read of `parent`, the one way a wide operator reads a
    /// parent (`scripts/ci.sh`): an absorbable chain runs here, in one pass,
    /// and its owned output moves on; any other parent's memoized partitions
    /// are read shared, with no pass.
    pub(super) fn read<T: Data>(&self, parent: &Bag<T>) -> Result<Input<T>> {
        let chain = fuse::chain(parent)?;
        Ok(match chain.drive.parts() {
            Some(parts) => Input::Shared(parts.clone()),
            None => Input::Owned(fuse::pass(&self.engine, chain, None)?.0),
        })
    }

    /// [`Shuffle::read`] with a map-side combine: `step` shrinks each
    /// partition as the last step of the read's pass, charged as this
    /// operator over its `bytes`-sized input records; what it keeps is
    /// memory-checked as `memory`, at `kept_bytes` per record.
    pub(super) fn combine<T: Data>(
        &self,
        parent: &Bag<T>,
        memory: &'static str,
        bytes: f64,
        kept_bytes: f64,
        step: impl Fn(Batch<'_, T>) -> Vec<T> + Sync,
    ) -> Result<Input<T>> {
        let meta =
            FusedOpMeta { name: self.name, bytes, charge: ChargeRule::Input, overhead: false };
        let tail = Some((meta, &step as &(dyn Fn(Batch<'_, T>) -> Vec<T> + Sync)));
        let (combined, _) = fuse::pass(&self.engine, fuse::chain(parent)?, tail)?;
        self.check_memory(memory, combined.iter().map(|p| p.len() as f64 * kept_bytes))?;
        Ok(Input::Owned(combined))
    }

    /// Place a side by `key_of`: read as it is when [`Shuffle::reuses`] its
    /// `known` placement, else scattered — records cloned once out of shared
    /// partitions, moved out of owned ones. A scatter that finds every record
    /// already home hands the input on as it is, a shared one with no clone;
    /// it is charged and reported as the shuffle it models all the same.
    pub(super) fn place<T: Data, K: Hash + ?Sized>(
        &self,
        input: Input<T>,
        known: Partitioning,
        bytes: f64,
        key_of: impl Fn(&T) -> &K + Send + Sync,
    ) -> Side<T> {
        if self.reuses(known) {
            return Side::new(input.into_parts(), bytes, false);
        }
        let (records, parts) = match input {
            Input::Shared(parts) => {
                let inputs: Vec<&Vec<T>> = parts.iter().collect();
                let records = inputs.iter().map(|p| p.len()).sum();
                let placed = match scatter_shared_unless_home(&inputs, self.partitions, key_of) {
                    Some(buckets) => buckets.into_iter().map(Part::Owned).collect(),
                    None => Input::Shared(parts).into_parts(),
                };
                (records, placed)
            }
            Input::Owned(parts) => (
                parts.iter().map(Vec::len).sum(),
                scatter_by_key(parts, self.partitions, key_of)
                    .into_iter()
                    .map(Part::Owned)
                    .collect(),
            ),
        };
        self.charged(records, bytes, parts)
    }

    /// Charge a shuffle of `records` records of `bytes` each, placed into
    /// `buckets` (an operator's own round-robin or range buckets).
    pub(super) fn scattered<T>(&self, records: usize, bytes: f64, buckets: Vec<Vec<T>>) -> Side<T> {
        self.charged(records, bytes, buckets.into_iter().map(Part::Owned).collect())
    }

    /// Charge a shuffle of `records` records of `bytes` each, which placed
    /// `parts`.
    fn charged<T>(&self, records: usize, bytes: f64, parts: Vec<Part<T>>) -> Side<T> {
        self.engine.charge_shuffle(self.name, records as u64, bytes);
        Side::new(parts, bytes, true)
    }

    /// The reduce side of a one-sided shuffle, [`Shuffle::reduce_pair`] with
    /// an empty right side: `step` turns each placed partition into an output
    /// partition, and the stage is charged by `charge` on records of `bytes`.
    pub(super) fn reduce<T: Data, O: Data>(
        &self,
        side: Side<T>,
        charge: ChargeRule,
        bytes: f64,
        step: impl Fn(Batch<'_, T>) -> Vec<O> + Send + Sync + 'static,
    ) -> Result<Assembled<O>> {
        let none = (0..side.parts.len()).map(|_| Part::Owned(Vec::<()>::new())).collect();
        let head = FusedOpMeta { name: self.name, bytes, charge, overhead: true };
        let sides = (side, Side::new(none, 0.0, false));
        self.reduce_pair(self.name, sides, vec![head], move |_, l, _| {
            let out = step(l);
            let n = out.len();
            (out, n)
        })
    }

    /// The reduce side: the `PartitionStats` event of what was scattered
    /// (per reduce partition, both sides' records, each weighed by its own
    /// record size), the memory check `memory` of what the step holds, then
    /// the chain `step` heads, charged over `metas` (the operator with task
    /// overhead, then any followers it absorbed: a join's) and whatever
    /// narrow operators extend it. `step` takes a partition's index and both
    /// sides' batches, and returns its output and the operator's own output
    /// count, which the followers read.
    pub(super) fn reduce_pair<L: Data, R: Data, O: Data>(
        &self,
        memory: &'static str,
        (left, right): (Side<L>, Side<R>),
        metas: Vec<FusedOpMeta>,
        step: impl Fn(usize, Batch<'_, L>, Batch<'_, R>) -> (Vec<O>, usize) + Send + Sync + 'static,
    ) -> Result<Assembled<O>> {
        let counts: Vec<(usize, usize)> = (left.parts.iter().zip(&right.parts))
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
        let records = counts.into_iter().map(|(l, r)| l + r).collect();
        let inputs = left.parts.into_iter().zip(right.parts).enumerate();
        Ok(fuse::headed(metas, records, inputs, move |(pi, (l, r))| {
            l.read(|l| r.read(|r| step(pi, l, r)))
        }))
    }

    /// Memory-check one task per partition holding `bytes` modeled bytes,
    /// materialized by the cost model's `materialize_factor`.
    fn check_memory(&self, operator: &'static str, bytes: impl Iterator<Item = f64>) -> Result<()> {
        let factor = self.engine.config().costs.materialize_factor;
        let mut working_sets: Vec<u64> = bytes.map(|b| (b * factor) as u64).collect();
        self.engine.charge_memory(operator, &mut working_sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;

    #[test]
    fn shuffle_read_moves_an_absorbed_chain_and_shares_a_materialized_parent() {
        let e = Engine::new(ClusterConfig::local_test());
        let base = e.parallelize((0..100u64).collect(), 4);
        base.count().unwrap();
        let s = Shuffle::new(&e, "test", 2);
        let Ok(Input::Shared(shared)) = s.read(&base) else { panic!("a materialized parent") };
        assert!(shared.same(&base.eval().unwrap()), "read in place, not copied");
        let records = e.stats().records;
        let Ok(Input::Owned(owned)) = s.read(&base.map(|x| x + 1)) else { panic!("a chain") };
        assert_eq!(owned.iter().map(Vec::len).sum::<usize>(), 100);
        assert_eq!(e.stats().records, records + 100, "the absorbed map is charged once");
    }
}
