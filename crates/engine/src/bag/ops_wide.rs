//! Wide (shuffle) transformations: grouping, aggregation, joins, distinct,
//! repartitioning.
//!
//! Every wide operator charges: map-side serialization + network transfer
//! for the shuffled records, then a new stage (driver scheduling + task
//! launch per output partition + per-record processing), and a memory check
//! for whatever it materializes per task (hash tables, grouped values).
//!
//! # Wall-clock fast path
//!
//! Host-side, these operators are on the zero-copy partition flow (see
//! `DESIGN.md`): co-partitioned (narrow) branches read straight out of the
//! shared `Arc<Vec<T>>` partitions instead of deep-copying them, shuffling
//! branches go through the counting scatter of [`crate::partitioner`]
//! (destinations hashed once, on the pool when large; exact-size buckets;
//! each record moved or cloned once — a shuffle costs its records, not
//! input partitions × output partitions), and worker-private hash tables
//! use the deterministic [`crate::fx`] hasher; `distinct`'s reduce side
//! dedups in place (one hash, no clone). A join ([`Joined`]) pushes
//! each match into its caller's closure by reference: the join and the
//! `map`/`flat_map`/`filter` after it are one node that replays the
//! follower's charge, and no `(K, (V, W))` tuple is built. None of this
//! changes a charge: simulated times and [`crate::StatsSnapshot`] are pinned
//! bit-identical by `tests/golden_sim.rs` and `tests/golden_lifted.rs`.

use std::sync::Arc;

use super::fuse::{settle, ChargeRule, FusedOpMeta};
use super::{to_parts, Bag, Partitioning};
use crate::fx::{fx_map, fx_map_with_capacity, fx_set_with_capacity, FxHashMap};
use crate::map_output::MapOutputStats;
use crate::partitioner::{scatter_by_key, scatter_shared_by_key};
use crate::pool::parallel_map;
use crate::types::{Data, Key};

/// Record the exact per-reduce-partition map-output counts of a shuffle
/// (the `PartitionStats` event and the partition-size peaks). Pure
/// bookkeeping — charges nothing.
pub(super) fn record_scatter<T>(
    engine: &crate::Engine,
    operator: &'static str,
    shuffled: &[Vec<T>],
    record_bytes: f64,
) {
    let counts: Vec<u64> = shuffled.iter().map(|p| p.len() as u64).collect();
    engine.record_map_output(&MapOutputStats::from_partition_records(
        operator,
        counts,
        record_bytes,
    ));
}

/// [`record_scatter`] for a shuffle of two sides into the same reduce
/// partitions: `sides` yields each partition's `(left, right)` record
/// counts, and the combined load weighs each side by its own record size.
pub(super) fn record_scatter_pair(
    engine: &crate::Engine,
    operator: &'static str,
    sides: impl Iterator<Item = (usize, usize)>,
    lbytes: f64,
    rbytes: f64,
) {
    let (partition_records, partition_bytes) = sides
        .map(|(l, r)| ((l + r) as u64, (l as f64 * lbytes + r as f64 * rbytes) as u64))
        .unzip();
    engine.record_map_output(&MapOutputStats { operator, partition_records, partition_bytes });
}

/// How a join should be executed. The Matryoshka optimizer (crate
/// `matryoshka-core`) picks between these at runtime; baselines may force
/// one (the ablation of the paper's Fig. 8, left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Shuffle both sides by key hash; build a hash table from the right
    /// side per partition.
    Repartition,
    /// Collect and broadcast the right side; the left side stays in place
    /// (narrow). Fails with simulated OOM if the right side cannot fit on a
    /// single machine.
    BroadcastRight,
}

impl<K: Key, V: Data> Bag<(K, V)> {
    /// Group values by key into in-memory `Vec`s (Spark `groupByKey`).
    ///
    /// The output's `record_bytes` still refers to bytes per *inner element*
    /// `V`; the memory model uses real group sizes, so a giant group makes a
    /// giant task exactly as on a real engine (the outer-parallel failure
    /// mode of the paper's Sec. 9.4-9.5).
    pub fn group_by_key(&self) -> Bag<(K, Vec<V>)> {
        self.group_by_key_into(self.default_wide_partitions())
    }

    /// Default output partition count for wide by-key operators: the parent
    /// partition count capped at the configured default parallelism (as
    /// Spark caps at `spark.default.parallelism`) — without the cap,
    /// `union`-then-aggregate loops would grow partition counts without
    /// bound.
    fn default_wide_partitions(&self) -> usize {
        self.num_partitions().min(self.engine().config().default_parallelism)
    }

    /// [`Bag::group_by_key`] with an explicit output partition count.
    pub fn group_by_key_into(&self, partitions: usize) -> Bag<(K, Vec<V>)> {
        let parent = self.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        let partitions = partitions.max(1);
        let co_partitioned = parent.partitioning() == Partitioning::HashByKey { partitions };
        let meta = Partitioning::HashByKey { partitions };
        Bag::new_with_partitioning(
            engine.clone(),
            "group_by_key",
            bytes,
            partitions,
            meta,
            move || {
                let input = parent.eval()?;
                if co_partitioned {
                    // Already hash-placed by key with the right modulus: a
                    // narrow dependency, no shuffle (Spark co-partitioning) —
                    // and zero-copy: group straight out of the shared
                    // partitions.
                    let in_counts: Vec<usize> = input.iter().map(|p| p.len()).collect();
                    let factor = engine.config().costs.materialize_factor;
                    let working_sets: Vec<u64> =
                        in_counts.iter().map(|&n| (n as f64 * bytes * factor) as u64).collect();
                    engine.charge_memory("group_by_key", &working_sets)?;
                    let out: Vec<Vec<(K, Vec<V>)>> =
                        parallel_map(input.to_vec(), |_, p: Arc<Vec<(K, V)>>| {
                            let mut groups: FxHashMap<K, Vec<V>> = fx_map();
                            for (k, v) in p.iter() {
                                groups.entry(k.clone()).or_default().push(v.clone());
                            }
                            groups.into_iter().collect()
                        });
                    engine.charge_compute(&in_counts, bytes, true)?;
                    return Ok(to_parts(out));
                }
                let records: u64 = input.iter().map(|p| p.len() as u64).sum();
                engine.charge_shuffle("group_by_key", records, bytes);
                let shuffled = scatter_shared_by_key(&input, partitions, |r| &r.0);
                record_scatter(&engine, "group_by_key", &shuffled, bytes);
                let factor = engine.config().costs.materialize_factor;
                let working_sets: Vec<u64> =
                    shuffled.iter().map(|p| (p.len() as f64 * bytes * factor) as u64).collect();
                engine.charge_memory("group_by_key", &working_sets)?;
                let in_counts: Vec<usize> = shuffled.iter().map(Vec::len).collect();
                let out: Vec<Vec<(K, Vec<V>)>> = parallel_map(shuffled, |_, part| {
                    let mut groups: FxHashMap<K, Vec<V>> = fx_map();
                    for (k, v) in part {
                        groups.entry(k).or_default().push(v);
                    }
                    groups.into_iter().collect()
                });
                engine.charge_compute(&in_counts, bytes, true)?;
                Ok(to_parts(out))
            },
        )
    }

    /// Merge values per key with an associative function, with map-side
    /// combining (Spark `reduceByKey`).
    pub fn reduce_by_key(&self, f: impl Fn(&V, &V) -> V + Send + Sync + 'static) -> Bag<(K, V)> {
        self.reduce_by_key_into(self.default_wide_partitions(), f)
    }

    /// [`Bag::reduce_by_key`] with an explicit output partition count.
    pub fn reduce_by_key_into(
        &self,
        partitions: usize,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> Bag<(K, V)> {
        let bytes = self.record_bytes();
        self.reduce_by_key_partials(partitions, bytes, f)
    }

    /// [`Bag::reduce_by_key_into`] with an explicit modeled size for the
    /// *post-combine* partial records.
    ///
    /// By default partials inherit the input's record weight, which is right
    /// when the key cardinality scales with the data (word counts). When the
    /// key space is structural (one partial per cluster per configuration in
    /// K-means), a partial is a small real record no matter how much data it
    /// aggregates — pass that size here so the combine output's shuffle and
    /// memory are modeled honestly.
    pub fn reduce_by_key_partials(
        &self,
        partitions: usize,
        partial_bytes: f64,
        f: impl Fn(&V, &V) -> V + Send + Sync + 'static,
    ) -> Bag<(K, V)> {
        let parent = self.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        let partitions = partitions.max(1);
        let co_partitioned = parent.partitioning() == Partitioning::HashByKey { partitions };
        let meta = Partitioning::HashByKey { partitions };
        let f = Arc::new(f);
        Bag::new_with_partitioning(
            engine.clone(),
            "reduce_by_key",
            partial_bytes,
            partitions,
            meta,
            move || {
                let input = parent.eval()?;
                let in_counts: Vec<usize> = input.iter().map(|p| p.len()).collect();
                // Map-side combine.
                let fc = Arc::clone(&f);
                let combined: Vec<Vec<(K, V)>> =
                    parallel_map(input.to_vec(), move |_, p: Arc<Vec<(K, V)>>| {
                        let mut acc: FxHashMap<K, V> = fx_map_with_capacity(p.len());
                        for (k, v) in p.iter() {
                            match acc.get_mut(k) {
                                Some(cur) => *cur = fc(cur, v),
                                None => {
                                    acc.insert(k.clone(), v.clone());
                                }
                            }
                        }
                        acc.into_iter().collect()
                    });
                engine.charge_compute(&in_counts, bytes, false)?;
                let factor = engine.config().costs.materialize_factor;
                let combine_ws: Vec<u64> = combined
                    .iter()
                    .map(|p| (p.len() as f64 * partial_bytes * factor) as u64)
                    .collect();
                engine.charge_memory("reduce_by_key(combine)", &combine_ws)?;
                if co_partitioned {
                    // Co-location puts every record of a key in exactly one
                    // partition, so the map-side combine already produced the
                    // final value per key: the reduce pass would rebuild an
                    // identical table. Skip the rebuild host-side but charge
                    // the reduce stage exactly as before — the *model* still
                    // runs it.
                    let reduce_ws: Vec<u64> = combined
                        .iter()
                        .map(|p| (p.len() as f64 * partial_bytes * factor) as u64)
                        .collect();
                    engine.charge_memory("reduce_by_key", &reduce_ws)?;
                    let counts: Vec<usize> = combined.iter().map(Vec::len).collect();
                    engine.charge_compute(&counts, bytes, true)?;
                    return Ok(to_parts(combined));
                }
                let shuffled = {
                    let records: u64 = combined.iter().map(|p| p.len() as u64).sum();
                    engine.charge_shuffle("reduce_by_key", records, partial_bytes);
                    scatter_by_key(combined, partitions, |r| &r.0)
                };
                record_scatter(&engine, "reduce_by_key", &shuffled, partial_bytes);
                let reduce_ws: Vec<u64> = shuffled
                    .iter()
                    .map(|p| (p.len() as f64 * partial_bytes * factor) as u64)
                    .collect();
                engine.charge_memory("reduce_by_key", &reduce_ws)?;
                let counts: Vec<usize> = shuffled.iter().map(Vec::len).collect();
                let fr = Arc::clone(&f);
                let out: Vec<Vec<(K, V)>> = parallel_map(shuffled, move |_, part| {
                    let mut acc: FxHashMap<K, V> = fx_map();
                    for (k, v) in part {
                        match acc.get_mut(&k) {
                            Some(cur) => *cur = fr(cur, &v),
                            None => {
                                acc.insert(k, v);
                            }
                        }
                    }
                    acc.into_iter().collect()
                });
                engine.charge_compute(&counts, bytes, true)?;
                Ok(to_parts(out))
            },
        )
    }

    /// Repartition (shuffle) equi-join.
    pub fn join<W: Data>(&self, other: &Bag<(K, W)>) -> Bag<(K, (V, W))> {
        self.joined_with(other, JoinAlgorithm::Repartition).pairs()
    }

    /// [`Bag::join`] with an explicit output partition count.
    pub fn join_into<W: Data>(&self, partitions: usize, other: &Bag<(K, W)>) -> Bag<(K, (V, W))> {
        self.joined_into(partitions, other).pairs()
    }

    /// Broadcast-hash equi-join: the right side is collected and broadcast,
    /// the left side is probed in place (no shuffle of the left side).
    pub fn broadcast_join<W: Data>(&self, other: &Bag<(K, W)>) -> Bag<(K, (V, W))> {
        self.joined_with(other, JoinAlgorithm::BroadcastRight).pairs()
    }

    /// Plan an equi-join with `algorithm`, leaving what a match becomes to
    /// [`Joined`]. A repartition join defaults to the wider side's partition
    /// count, capped at the default parallelism.
    pub fn joined_with<W: Data>(
        &self,
        other: &Bag<(K, W)>,
        algorithm: JoinAlgorithm,
    ) -> Joined<K, V, W> {
        let wider = self.num_partitions().max(other.num_partitions());
        let p = wider.min(self.engine().config().default_parallelism);
        let partitions = (algorithm == JoinAlgorithm::Repartition).then_some(p);
        Joined { partitions, ..self.joined_into(p, other) }
    }

    /// Plan a repartition equi-join into `partitions` output partitions.
    pub fn joined_into<W: Data>(&self, partitions: usize, other: &Bag<(K, W)>) -> Joined<K, V, W> {
        assert!(self.engine().same_as(other.engine()), "join of bags from different engines");
        Joined { left: self.clone(), right: other.clone(), partitions: Some(partitions.max(1)) }
    }

    /// Group both sides by key (Spark `cogroup`).
    pub fn co_group<W: Data>(&self, other: &Bag<(K, W)>) -> Bag<(K, (Vec<V>, Vec<W>))> {
        assert!(self.engine().same_as(other.engine()), "co_group of bags from different engines");
        let partitions = self.num_partitions().max(other.num_partitions()).max(1);
        let left = self.clone();
        let right = other.clone();
        let engine = self.engine().clone();
        let lbytes = self.record_bytes();
        let rbytes = other.record_bytes();
        Bag::new_with_partitioning(
            engine.clone(),
            "co_group",
            lbytes + rbytes,
            partitions,
            Partitioning::Arbitrary,
            move || {
                let lp = left.eval()?;
                let rp = right.eval()?;
                let lrecords: u64 = lp.iter().map(|p| p.len() as u64).sum();
                let rrecords: u64 = rp.iter().map(|p| p.len() as u64).sum();
                engine.charge_shuffle("co_group", lrecords, lbytes);
                engine.charge_shuffle("co_group", rrecords, rbytes);
                let ls = scatter_shared_by_key(&lp, partitions, |r| &r.0);
                let rs = scatter_shared_by_key(&rp, partitions, |r| &r.0);
                let sides = ls.iter().zip(&rs).map(|(l, r)| (l.len(), r.len()));
                record_scatter_pair(&engine, "co_group", sides, lbytes, rbytes);
                let factor = engine.config().costs.materialize_factor;
                let ws: Vec<u64> = ls
                    .iter()
                    .zip(rs.iter())
                    .map(|(l, r)| {
                        ((l.len() as f64 * lbytes + r.len() as f64 * rbytes) * factor) as u64
                    })
                    .collect();
                engine.charge_memory("co_group", &ws)?;
                let zipped: Vec<(Vec<(K, V)>, Vec<(K, W)>)> = ls.into_iter().zip(rs).collect();
                let out: Vec<Vec<(K, (Vec<V>, Vec<W>))>> = parallel_map(zipped, |_, (l, r)| {
                    let mut table: FxHashMap<K, (Vec<V>, Vec<W>)> = fx_map();
                    for (k, v) in l {
                        table.entry(k).or_default().0.push(v);
                    }
                    for (k, w) in r {
                        table.entry(k).or_default().1.push(w);
                    }
                    table.into_iter().collect()
                });
                let counts: Vec<usize> = out.iter().map(Vec::len).collect();
                engine.charge_compute(&counts, lbytes + rbytes, true)?;
                Ok(to_parts(out))
            },
        )
    }

    /// Left outer equi-join (implemented over [`Bag::co_group`]).
    pub fn left_outer_join<W: Data>(&self, other: &Bag<(K, W)>) -> Bag<(K, (V, Option<W>))> {
        self.co_group(other).flat_map(|(k, (vs, ws))| {
            let mut res = Vec::new();
            for v in vs {
                if ws.is_empty() {
                    res.push((k.clone(), (v.clone(), None)));
                } else {
                    for w in ws {
                        res.push((k.clone(), (v.clone(), Some(w.clone()))));
                    }
                }
            }
            res
        })
    }

    /// Hash-partition by key (identity wide operation, used to co-partition
    /// inputs). A no-op if the bag is already hash-partitioned by key with
    /// the same partition count.
    pub fn partition_by_key(&self, partitions: usize) -> Bag<(K, V)> {
        let partitions = partitions.max(1);
        if self.partitioning() == (Partitioning::HashByKey { partitions }) {
            return self.clone();
        }
        let parent = self.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        let meta = Partitioning::HashByKey { partitions };
        Bag::new_with_partitioning(
            engine.clone(),
            "partition_by_key",
            bytes,
            partitions,
            meta,
            move || {
                let input = parent.eval()?;
                let records: u64 = input.iter().map(|p| p.len() as u64).sum();
                engine.charge_shuffle("partition_by_key", records, bytes);
                let shuffled = scatter_shared_by_key(&input, partitions, |r| &r.0);
                record_scatter(&engine, "partition_by_key", &shuffled, bytes);
                let counts: Vec<usize> = shuffled.iter().map(Vec::len).collect();
                engine.charge_compute(&counts, bytes, true)?;
                Ok(to_parts(shuffled))
            },
        )
    }
}

/// An equi-join that has not chosen its output shape yet: two sides and a
/// plan. Each method builds **one** lineage node that runs the plan's build
/// and probe and hands every match to the caller *by reference*: nothing is
/// cloned that the caller does not clone, and no `(K, (V, W))` bag exists for
/// a follower to take apart. `map`, `flat_map` and `filter` are
/// [`Joined::pairs`] then that narrow operator, in one pass, charged as both.
pub struct Joined<K: Key, V: Data, W: Data> {
    left: Bag<(K, V)>,
    right: Bag<(K, W)>,
    /// Repartition both sides into this many; `None` broadcasts the right.
    partitions: Option<usize>,
}

impl<K: Key, V: Data, W: Data> Joined<K, V, W> {
    /// Every match as an owned `(k, (v, w))` record (the classic join).
    pub fn pairs(&self) -> Bag<(K, (V, W))> {
        self.node(&[], |k, v, w| Some((k.clone(), (v.clone(), w.clone()))))
    }

    /// The join followed by `map`: one output record per match.
    pub fn map<R: Data>(&self, f: impl Fn(&K, &V, &W) -> R + Send + Sync + 'static) -> Bag<R> {
        self.node(&[("map", ChargeRule::Output)], move |k, v, w| Some(f(k, v, w)))
    }

    /// The join followed by `flat_map`: any number of records per match.
    pub fn flat_map<R: Data, I: IntoIterator<Item = R>>(
        &self,
        f: impl Fn(&K, &V, &W) -> I + Send + Sync + 'static,
    ) -> Bag<R> {
        self.node(&[("flat_map", ChargeRule::MaxSide)], f)
    }

    /// The join followed by `filter`, then the `map` that projects a
    /// surviving match back to its left record.
    pub fn filter(&self, pred: impl Fn(&K, &V, &W) -> bool + Send + Sync + 'static) -> Bag<(K, V)> {
        self.node(&[("filter", ChargeRule::Input), ("map", ChargeRule::Output)], move |k, v, w| {
            pred(k, v, w).then(|| (k.clone(), v.clone()))
        })
    }

    /// The one node behind every shape: the plan's charges and build, a probe
    /// that extends each output partition with `emit(k, v, w)` per match,
    /// then [`settle`] for the compute charges of the join and of the
    /// `followers` (`(name, rule)`, source-first) it absorbed. A follower's
    /// output has the join's record size; only `pairs` keeps the placement.
    fn node<R: Data, I: IntoIterator<Item = R>>(
        &self,
        followers: &'static [(&'static str, ChargeRule)],
        emit: impl Fn(&K, &V, &W) -> I + Send + Sync + 'static,
    ) -> Bag<R> {
        let (left, right, plan) = (self.left.clone(), self.right.clone(), self.partitions);
        let engine = left.engine().clone();
        let (lbytes, rbytes) = (left.record_bytes(), right.record_bytes());
        let (name, parts) = plan.map_or(("broadcast_join", left.num_partitions()), |p| ("join", p));
        let placement = match plan {
            Some(partitions) if followers.is_empty() => Partitioning::HashByKey { partitions },
            _ => Partitioning::Arbitrary,
        };
        let head = FusedOpMeta { name, bytes: lbytes + rbytes, charge: ChargeRule::Output };
        let tail = followers.iter().map(|&(name, charge)| FusedOpMeta { name, charge, ..head });
        let metas: Vec<FusedOpMeta> = std::iter::once(head).chain(tail).collect();
        Bag::new_with_partitioning(engine.clone(), name, head.bytes, parts, placement, move || {
            let per_part: Vec<(Vec<R>, usize)> = if let Some(partitions) = plan {
                let (lp, rp) = (left.eval()?, right.eval()?);
                let (ls, l_co) = join_side(&left, &lp, partitions);
                let (rs, r_co) = join_side(&right, &rp, partitions);
                if !(l_co && r_co) {
                    let sides = ls.iter().zip(&rs).map(|(l, r)| (l.len(), r.len()));
                    record_scatter_pair(&engine, "join", sides, lbytes, rbytes);
                }
                let factor = engine.config().costs.materialize_factor;
                let build_ws: Vec<u64> =
                    rs.iter().map(|p| (p.len() as f64 * rbytes * factor) as u64).collect();
                engine.charge_memory("join(build)", &build_ws)?;
                parallel_map(ls.into_iter().zip(rs).collect(), |_, (l, r)| {
                    Multimap::build(std::slice::from_ref(&r)).probe(&l, &emit)
                })
            } else {
                let rp = right.eval()?;
                let rrecords: u64 = rp.iter().map(|p| p.len() as u64).sum();
                engine.charge_driver_collect(rrecords, rbytes);
                engine.charge_broadcast("broadcast_join", (rrecords as f64 * rbytes) as u64)?;
                // Built once, over borrowed records, and probed by every task.
                let table = Multimap::build(&rp);
                parallel_map(left.eval()?.to_vec(), |_, l| table.probe(&l, &emit))
            };
            // The probe is charged on its matches (boundaries 0 and 1), with
            // task overhead when it read a shuffle; the rest are the emitted.
            let boundary =
                |pi: usize, j| if j <= 1 { per_part[pi].1 } else { per_part[pi].0.len() };
            settle(&engine, &metas, plan.is_some(), per_part.len(), boundary)?;
            Ok(to_parts(per_part.into_iter().map(|(out, _)| out).collect()))
        })
    }
}

/// One side of a repartition join, placed into `partitions`: reused as it is
/// (refcount bumps; the flag) when already hash-placed so, else charged and
/// scattered straight from the shared partitions. Neither deep-copies.
fn join_side<K: Key, X: Data>(
    side: &Bag<(K, X)>,
    parts: &[Arc<Vec<(K, X)>>],
    partitions: usize,
) -> (Vec<Arc<Vec<(K, X)>>>, bool) {
    if side.partitioning() == (Partitioning::HashByKey { partitions }) {
        return (parts.to_vec(), true);
    }
    let records: u64 = parts.iter().map(|p| p.len() as u64).sum();
    side.engine().charge_shuffle("join", records, side.record_bytes());
    let scattered = scatter_shared_by_key(parts, partitions, |r| &r.0);
    (scattered.into_iter().map(Arc::new).collect(), false)
}

/// Chained-index multimap over borrowed right-side records, the build side
/// of both join algorithms: `head` maps a key to the first slot of its chain,
/// and a record's slot holds its value and the next slot of the chain or
/// `NIL` — no per-key `Vec` allocations, and nothing is cloned. Chains are
/// threaded back-to-front so a probe walks matches in right-side order.
struct Multimap<'a, K, W> {
    head: FxHashMap<&'a K, u32>,
    slots: Vec<(&'a W, u32)>,
}
const NIL: u32 = u32::MAX;

impl<'a, K: Key, W> Multimap<'a, K, W> {
    fn build(parts: &'a [Arc<Vec<(K, W)>>]) -> Self {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert!(total < NIL as usize, "join build side exceeds u32 chain capacity");
        let mut head: FxHashMap<&K, u32> = fx_map_with_capacity(total);
        let mut slots: Vec<(&W, u32)> =
            parts.iter().flat_map(|p| p.iter()).map(|(_, w)| (w, NIL)).collect();
        let keys = parts.iter().rev().flat_map(|p| p.iter().rev());
        for (i, (k, _)) in (0..total).rev().zip(keys) {
            if let Some(later) = head.insert(k, i as u32) {
                slots[i].1 = later;
            }
        }
        Multimap { head, slots }
    }

    /// Probe one left partition: `emit` per match, in left-record then
    /// right-record order. Returns the output and the number of matches.
    fn probe<V, R, I: IntoIterator<Item = R>>(
        &self,
        left: &[(K, V)],
        emit: &impl Fn(&K, &V, &W) -> I,
    ) -> (Vec<R>, usize) {
        let mut out = Vec::with_capacity(left.len());
        let mut matched = 0;
        for (k, v) in left {
            let mut i = self.head.get(k).copied().unwrap_or(NIL);
            while i != NIL {
                let (w, next) = self.slots[i as usize];
                out.extend(emit(k, v, w));
                matched += 1;
                i = next;
            }
        }
        (out, matched)
    }
}

impl<T: Key> Bag<T> {
    /// Remove duplicates (shuffle by value, dedup per partition).
    pub fn distinct(&self) -> Bag<T> {
        self.distinct_into(self.num_partitions().min(self.engine().config().default_parallelism))
    }

    /// [`Bag::distinct`] with an explicit output partition count.
    ///
    /// Like Spark's `distinct` (a `reduceByKey` underneath), duplicates are
    /// first removed per input partition (map-side combine), then the
    /// partial results shuffle.
    pub fn distinct_into(&self, partitions: usize) -> Bag<T> {
        let parent = self.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        let partitions = partitions.max(1);
        Bag::new_with_partitioning(
            engine.clone(),
            "distinct",
            bytes,
            partitions,
            Partitioning::Arbitrary,
            move || {
                let input = parent.eval()?;
                let in_counts: Vec<usize> = input.iter().map(|p| p.len()).collect();
                // Map-side dedup: the seen-set borrows from the shared partition,
                // so each kept record is cloned exactly once.
                let combined: Vec<Vec<T>> = parallel_map(input.to_vec(), |_, p: Arc<Vec<T>>| {
                    let mut seen = fx_set_with_capacity(p.len());
                    let mut out = Vec::new();
                    for x in p.iter() {
                        if seen.insert(x) {
                            out.push(x.clone());
                        }
                    }
                    out
                });
                engine.charge_compute(&in_counts, bytes, false)?;
                let factor = engine.config().costs.materialize_factor;
                let combine_ws: Vec<u64> =
                    combined.iter().map(|p| (p.len() as f64 * bytes * factor) as u64).collect();
                engine.charge_memory("distinct(combine)", &combine_ws)?;
                let records: u64 = combined.iter().map(|p| p.len() as u64).sum();
                engine.charge_shuffle("distinct", records, bytes);
                // Whole-record keys: the shuffle is the ordinary by-key scatter.
                let shuffled = scatter_by_key(combined, partitions, |rec| rec);
                record_scatter(&engine, "distinct", &shuffled, bytes);
                let ws: Vec<u64> =
                    shuffled.iter().map(|p| (p.len() as f64 * bytes * factor) as u64).collect();
                engine.charge_memory("distinct", &ws)?;
                let in_counts: Vec<usize> = shuffled.iter().map(Vec::len).collect();
                // In place: the set borrows from the owned partition.
                let out: Vec<Vec<T>> = parallel_map(shuffled, |_, mut part| {
                    let mut first = {
                        let mut seen = fx_set_with_capacity(part.len());
                        part.iter().map(|x| seen.insert(x)).collect::<Vec<bool>>().into_iter()
                    };
                    part.retain(|_| first.next().expect("one flag per record"));
                    part
                });
                engine.charge_compute(&in_counts, bytes, true)?;
                Ok(to_parts(out))
            },
        )
    }
}

impl<T: Data> Bag<T> {
    /// Round-robin shuffle into `n` partitions (Spark `repartition`).
    pub fn repartition(&self, n: usize) -> Bag<T> {
        let parent = self.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        let n = n.max(1);
        Bag::new_with_partitioning(
            engine.clone(),
            "repartition",
            bytes,
            n,
            Partitioning::Arbitrary,
            move || {
                let input = parent.eval()?;
                let records: u64 = input.iter().map(|p| p.len() as u64).sum();
                engine.charge_shuffle("repartition", records, bytes);
                // Round-robin: bucket `i` receives exactly this many records.
                let total = records as usize;
                let mut out: Vec<Vec<T>> = (0..n)
                    .map(|i| Vec::with_capacity(total / n + usize::from(i < total % n)))
                    .collect();
                let mut i = 0usize;
                for p in input.iter() {
                    for rec in p.iter() {
                        out[i % n].push(rec.clone());
                        i += 1;
                    }
                }
                record_scatter(&engine, "repartition", &out, bytes);
                let counts: Vec<usize> = out.iter().map(Vec::len).collect();
                engine.charge_compute(&counts, bytes, true)?;
                Ok(to_parts(out))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn group_by_key_groups_everything() {
        let e = Engine::local();
        let b = e.parallelize(vec![(1u32, 10), (2, 20), (1, 11), (2, 21), (3, 30)], 3);
        let out = b.group_by_key().collect().unwrap();
        let mut groups: Vec<(u32, Vec<i32>)> =
            out.into_iter().map(|(k, mut vs)| (k, sorted(std::mem::take(&mut vs)))).collect();
        groups.sort_by_key(|(k, _)| *k);
        assert_eq!(groups, vec![(1, vec![10, 11]), (2, vec![20, 21]), (3, vec![30])]);
    }

    #[test]
    fn reduce_by_key_matches_group_then_fold() {
        let e = Engine::local();
        let data: Vec<(u8, u64)> = (0..1000).map(|i| ((i % 7) as u8, i)).collect();
        let expect: std::collections::HashMap<u8, u64> =
            data.iter().fold(std::collections::HashMap::new(), |mut m, (k, v)| {
                *m.entry(*k).or_insert(0) += v;
                m
            });
        let b = e.parallelize(data, 8).reduce_by_key(|a, b| a + b);
        for (k, v) in b.collect().unwrap() {
            assert_eq!(expect[&k], v);
        }
    }

    #[test]
    fn join_algorithms_agree() {
        let e = Engine::local();
        let l = e.parallelize(vec![(1u32, "a"), (2, "b"), (2, "B"), (3, "c")], 2);
        let r = e.parallelize(vec![(1u32, 10), (2, 20), (4, 40)], 3);
        let rep = sorted(l.join(&r).collect().unwrap());
        let bro = sorted(l.broadcast_join(&r).collect().unwrap());
        assert_eq!(rep, bro);
        assert_eq!(rep, vec![(1, ("a", 10)), (2, ("B", 20)), (2, ("b", 20))]);
    }

    #[test]
    fn broadcast_join_avoids_shuffling_left() {
        let e = Engine::local();
        let l = e.parallelize((0..1000u32).map(|i| (i, i)).collect::<Vec<_>>(), 4);
        let r = e.parallelize(vec![(1u32, 1u32)], 1);
        let s0 = e.stats();
        l.broadcast_join(&r).collect().unwrap();
        let d = e.stats().since(&s0);
        assert_eq!(d.shuffle_bytes, 0, "broadcast join must not shuffle");
        assert!(d.broadcast_bytes > 0);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let e = Engine::local();
        let b = e.parallelize(vec![1, 2, 2, 3, 3, 3, 1], 3).distinct();
        assert_eq!(sorted(b.collect().unwrap()), vec![1, 2, 3]);
    }

    #[test]
    fn left_outer_join_keeps_unmatched_left() {
        let e = Engine::local();
        let l = e.parallelize(vec![(1u32, "a"), (2, "b")], 2);
        let r = e.parallelize(vec![(1u32, 10)], 1);
        let out = sorted(l.left_outer_join(&r).collect().unwrap());
        assert_eq!(out, vec![(1, ("a", Some(10))), (2, ("b", None))]);
    }

    #[test]
    fn co_group_collects_both_sides() {
        let e = Engine::local();
        let l = e.parallelize(vec![(1u32, 'x'), (1, 'y')], 2);
        let r = e.parallelize(vec![(1u32, 9), (2, 8)], 2);
        let mut out = l.co_group(&r).collect().unwrap();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out.len(), 2);
        let (k1, (vs, ws)) = &out[0];
        assert_eq!(*k1, 1);
        assert_eq!(sorted(vs.clone()), vec!['x', 'y']);
        assert_eq!(ws, &vec![9]);
        assert_eq!(out[1], (2, (vec![], vec![8])));
    }

    #[test]
    fn repartition_changes_partition_count_not_data() {
        let e = Engine::local();
        let b = e.parallelize((0..50).collect::<Vec<u32>>(), 2).repartition(7);
        assert_eq!(b.num_partitions(), 7);
        assert_eq!(sorted(b.collect().unwrap()), (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn partition_by_key_colocates_keys() {
        let e = Engine::local();
        let b = e
            .parallelize((0..100u32).map(|i| (i % 5, i)).collect::<Vec<_>>(), 4)
            .partition_by_key(3);
        let parts = b.collect_partitions().unwrap();
        for part in &parts {
            // Every key must appear in exactly one partition.
            for (k, _) in part {
                let elsewhere = parts
                    .iter()
                    .filter(|p| !std::ptr::eq(*p, part))
                    .any(|p| p.iter().any(|(k2, _)| k2 == k));
                assert!(!elsewhere, "key {k} appears in multiple partitions");
            }
        }
    }

    #[test]
    fn co_partitioned_join_skips_shuffle() {
        let e = Engine::local();
        let l =
            e.parallelize((0..1000u32).map(|i| (i, i)).collect::<Vec<_>>(), 4).partition_by_key(8);
        let r = e
            .parallelize((0..1000u32).map(|i| (i, i * 2)).collect::<Vec<_>>(), 4)
            .partition_by_key(8);
        // Force both sides computed so the join's delta is clean.
        l.count().unwrap();
        r.count().unwrap();
        let s0 = e.stats();
        let out = l.join_into(8, &r);
        assert_eq!(out.count().unwrap(), 1000);
        let d = e.stats().since(&s0);
        assert_eq!(d.shuffle_bytes, 0, "co-partitioned join must not shuffle");
        // And the result is marked partitioned for further by-key ops.
        assert_eq!(out.partitioning(), Partitioning::HashByKey { partitions: 8 });
    }

    #[test]
    fn partition_by_key_is_idempotent() {
        let e = Engine::local();
        let b = e.parallelize(vec![(1u32, 1)], 1).partition_by_key(4);
        b.count().unwrap();
        let s0 = e.stats();
        let again = b.partition_by_key(4);
        again.count().unwrap();
        assert_eq!(e.stats().since(&s0).shuffle_bytes, 0);
    }

    #[test]
    fn reduce_by_key_on_partitioned_input_skips_shuffle() {
        let e = Engine::local();
        let b = e
            .parallelize((0..500u32).map(|i| (i % 7, 1u64)).collect::<Vec<_>>(), 4)
            .partition_by_key(6);
        b.count().unwrap();
        let s0 = e.stats();
        let out = b.reduce_by_key_into(6, |a, b| a + b).collect().unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(e.stats().since(&s0).shuffle_bytes, 0);
    }

    /// The `PartitionStats` events of a traced run as
    /// `(operator, partitions, records)`, in emission order.
    fn partition_stats(e: &Engine) -> Vec<(&'static str, u64, u64)> {
        e.events()
            .into_iter()
            .filter_map(|ev| match ev {
                crate::EngineEvent::PartitionStats { operator, partitions, records, .. } => {
                    Some((operator, partitions, records))
                }
                _ => None,
            })
            .collect()
    }

    fn traced() -> Engine {
        Engine::new(crate::ClusterConfig {
            trace_events: true,
            ..crate::ClusterConfig::local_test()
        })
    }

    #[test]
    fn shuffles_record_exact_map_output_stats() {
        let e = traced();
        let data: Vec<(u8, u64)> = (0..1000).map(|i| ((i % 7) as u8, i)).collect();
        let b = e.parallelize(data, 8).reduce_by_key_into(4, |a, b| a + b);
        assert!(partition_stats(&e).is_empty(), "no stats before evaluation");
        b.count().unwrap();
        // Map-side combine: 7 keys per input partition at most, 8 partitions.
        assert_eq!(partition_stats(&e), vec![("reduce_by_key", 4, 7 * 8)]);
        assert!(e.stats().peak_partition_bytes > 0);
        b.count().unwrap();
        assert_eq!(partition_stats(&e).len(), 1, "a cached shuffle is not observed twice");
    }

    #[test]
    fn co_partitioned_paths_record_no_stats() {
        let e = traced();
        let b = e
            .parallelize((0..500u32).map(|i| (i % 7, 1u64)).collect::<Vec<_>>(), 4)
            .partition_by_key(6);
        b.count().unwrap();
        let out = b.reduce_by_key_into(6, |a, b| a + b);
        out.count().unwrap();
        // The partitioning shuffle itself is observed; the co-partitioned
        // reduce does not shuffle.
        assert_eq!(partition_stats(&e), vec![("partition_by_key", 6, 500)]);
    }

    #[test]
    fn join_stats_combine_both_sides() {
        let e = traced();
        let l = e.parallelize((0..100u32).map(|i| (i % 5, i)).collect::<Vec<_>>(), 4);
        let r = e.parallelize((0..50u32).map(|i| (i % 5, i)).collect::<Vec<_>>(), 2);
        l.join_into(4, &r).count().unwrap();
        assert_eq!(partition_stats(&e), vec![("join", 4, 150)], "both sides counted");
        // The shuffling operators of `ops_misc.rs`: exactly one event per
        // operator, both sides counted (output partitions = the wider side).
        let e = traced();
        let a = e.parallelize((0..100u32).collect::<Vec<_>>(), 4);
        let b = e.parallelize((50..80u32).collect::<Vec<_>>(), 2);
        a.subtract(&b).count().unwrap();
        a.intersection(&b).count().unwrap();
        a.sort_by(3, |x| *x).count().unwrap();
        assert_eq!(
            partition_stats(&e),
            vec![("subtract", 4, 130), ("intersection", 4, 130), ("sort_by", 3, 100)]
        );
    }

    #[test]
    fn group_by_key_giant_group_ooms_on_small_cluster() {
        let mut cfg = crate::ClusterConfig::local_test();
        cfg.memory_per_machine = crate::MB;
        let e = Engine::new(cfg);
        // One key, many fat records: the single group cannot fit in a task.
        let b = e
            .parallelize_with_bytes((0..10_000u32).map(|i| (0u8, i)).collect::<Vec<_>>(), 4, 1000.0)
            .group_by_key();
        assert!(matches!(b.collect(), Err(crate::EngineError::OutOfMemory { .. })));
    }
}
