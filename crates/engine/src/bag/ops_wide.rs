//! Wide (shuffle) transformations: grouping, aggregation, joins, distinct,
//! repartitioning.
//!
//! Every wide operator charges: map-side serialization + network transfer
//! for the shuffled records, then a new stage (driver scheduling + task
//! launch per output partition + per-record processing), and a memory check
//! for whatever it materializes per task (hash tables, grouped values). That
//! protocol is [`super::shuffle`]'s: an operator here states its name, key,
//! record sizes, map-side combine and reduce step, and reads a parent only
//! through its map side (`Shuffle::read`/`Shuffle::combine`).
//!
//! # Wall-clock fast path
//!
//! The narrow chain before an operator runs inside its map side, so the
//! combine and the scatter move its records; its reduce side heads the chain
//! after it. A reduce step reads a co-partitioned input straight out of the
//! shared partition sets (a `Shared` batch) and owns what the
//! counting scatter of [`crate::partitioner`] placed (an `Owned` batch);
//! worker-private hash tables use the deterministic [`crate::fx`] hasher, and
//! `distinct` dedups an owned batch in place. A join ([`Joined`]) pushes each
//! match into its caller's closure by reference: the join and the `map`/
//! `flat_map`/`filter` after it are one head that replays the follower's
//! charge, and no `(K, (V, W))` tuple is built. A right side read in place
//! from a memoized node is hashed once: its build tables stay on that node
//! ([`JoinIndex`]), so a loop that joins against a loop-invariant relation
//! probes the tables the first iteration built, and a probe sizes its output
//! for the matches it expects. None of this changes a charge
//! (`tests/golden_sim.rs`, `tests/golden_lifted.rs`).

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use super::fuse::{self, Batch, ChargeRule, FusedOpMeta, Part};
use super::shuffle::{Input, Shuffle};
use super::{Bag, Partitioning};
use crate::fx::{fx_map, fx_map_with_capacity, fx_set_with_capacity, FxHashMap};
use crate::types::{Data, Key};

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
        let (parent, bytes) = (self.clone(), self.record_bytes());
        let shuffle = Shuffle::new(self.engine(), "group_by_key", partitions);
        shuffle.node(bytes, shuffle.by_key(), move |s| {
            let side = s.place(s.read(&parent)?, parent.partitioning(), bytes, |r| &r.0);
            s.reduce(side, ChargeRule::Input, bytes, |batch| {
                let mut groups: FxHashMap<K, Vec<V>> = fx_map();
                batch.for_each(|(k, v)| groups.entry(k).or_default().push(v));
                groups.into_iter().collect()
            })
        })
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
        self.reduce_by_key_partials(partitions, self.record_bytes(), move |a, b| *a = f(a, b))
    }

    /// [`Bag::reduce_by_key_into`] with an in-place combiner, `f(acc, v)`
    /// folding `v` into `acc`, and an explicit modeled size for the
    /// *post-combine* partial records.
    ///
    /// The combiner takes the accumulator by `&mut` so that a merge of heap
    /// values (a K-means partial sum) allocates nothing, and the value by
    /// `&` so that a record read out of a shared partition is never cloned
    /// just to be merged: only the first record of each key is, to seed it.
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
        f: impl Fn(&mut V, &V) + Send + Sync + 'static,
    ) -> Bag<(K, V)> {
        let (parent, bytes, f) = (self.clone(), self.record_bytes(), Arc::new(f));
        let shuffle = Shuffle::new(self.engine(), "reduce_by_key", partitions);
        shuffle.node(partial_bytes, shuffle.by_key(), move |s| {
            let combined =
                s.combine(&parent, "reduce_by_key(combine)", bytes, partial_bytes, |p| {
                    merge(fx_map_with_capacity(p.as_slice().len()), p, &*f)
                })?;
            let side = s.place(combined, parent.partitioning(), partial_bytes, |r| &r.0);
            // Co-located input left one partial per key, already final: only
            // scattered partials merge again (the model charges both alike).
            let (again, f) = (side.scattered, Arc::clone(&f));
            s.reduce(side, ChargeRule::Input, bytes, move |batch| {
                if again {
                    merge(fx_map(), batch, &*f)
                } else {
                    batch.into_vec()
                }
            })
        })
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

    /// Group both sides by key (Spark `cogroup`). Both sides are shuffled,
    /// whatever their placement.
    pub fn co_group<W: Data>(&self, other: &Bag<(K, W)>) -> Bag<(K, (Vec<V>, Vec<W>))> {
        assert!(self.engine().same_as(other.engine()), "co_group of bags from different engines");
        let (left, right) = (self.clone(), other.clone());
        let (lbytes, rbytes) = (self.record_bytes(), other.record_bytes());
        let partitions = self.num_partitions().max(other.num_partitions());
        let shuffle = Shuffle::new(self.engine(), "co_group", partitions);
        let head = FusedOpMeta {
            name: "co_group",
            bytes: lbytes + rbytes,
            charge: ChargeRule::Output,
            overhead: true,
        };
        shuffle.node(head.bytes, Partitioning::Arbitrary, move |s| {
            let (lp, rp) = (s.read(&left)?, s.read(&right)?);
            let l = s.place(lp, Partitioning::Arbitrary, lbytes, |r| &r.0);
            let r = s.place(rp, Partitioning::Arbitrary, rbytes, |r| &r.0);
            s.reduce_pair("co_group", (l, r), vec![head], |_, l, r| {
                let mut table: FxHashMap<K, (Vec<V>, Vec<W>)> = fx_map();
                l.for_each(|(k, v)| table.entry(k).or_default().0.push(v));
                r.for_each(|(k, w)| table.entry(k).or_default().1.push(w));
                let out: Vec<_> = table.into_iter().collect();
                let n = out.len();
                (out, n)
            })
        })
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
        let shuffle = Shuffle::new(self.engine(), "partition_by_key", partitions);
        if shuffle.reuses(self.partitioning()) {
            return self.clone();
        }
        let (parent, bytes) = (self.clone(), self.record_bytes());
        shuffle.node(bytes, shuffle.by_key(), move |s| {
            let side = s.place(s.read(&parent)?, parent.partitioning(), bytes, |r| &r.0);
            s.reduce(side.streamed(), ChargeRule::Input, bytes, |batch| batch.into_vec())
        })
    }
}

/// Fold each key's values into one with `f`, starting from `acc`: the first
/// record of a key seeds it (moved in when owned, cloned out of a shared
/// partition), and every later one is folded into that seed in place.
fn merge<K: Key, V: Data>(
    mut acc: FxHashMap<K, V>,
    batch: Batch<'_, (K, V)>,
    f: &impl Fn(&mut V, &V),
) -> Vec<(K, V)> {
    match batch {
        Batch::Shared(p) => {
            for (k, v) in p.iter() {
                match acc.get_mut(k) {
                    Some(cur) => f(cur, v),
                    None => {
                        acc.insert(k.clone(), v.clone());
                    }
                }
            }
        }
        Batch::Owned(p) => {
            for (k, v) in p {
                match acc.get_mut(&k) {
                    Some(cur) => f(cur, &v),
                    None => {
                        acc.insert(k, v);
                    }
                }
            }
        }
    }
    acc.into_iter().collect()
}

/// An equi-join that has not chosen its output shape yet: two sides and a
/// plan. Each method builds **one** lineage node whose chain is headed by the
/// plan's probe, which hands every match to the caller *by reference*:
/// nothing is cloned that the caller does not clone, and no `(K, (V, W))` bag
/// exists for a follower to take apart. `map`, `flat_map` and `filter` are
/// [`Joined::pairs`] then that narrow operator, in one pass, charged as both;
/// narrow operators after any of them extend the same pass.
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

    /// The one node behind every shape: the plan's placement and build, then
    /// a chain headed by the probe, which extends each output partition with
    /// `emit(k, v, w)` per match and charges the join and the `followers`
    /// (`(name, rule)`, source-first) it absorbed: the join is charged on its
    /// matches, with task overhead when it read a shuffle. A follower's
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
        let (bytes, overhead) = (lbytes + rbytes, plan.is_some());
        let head = FusedOpMeta { name, bytes, charge: ChargeRule::Output, overhead };
        let tail = followers.iter().map(|&(name, charge)| FusedOpMeta {
            name,
            bytes,
            charge,
            overhead: false,
        });
        let metas: Vec<FusedOpMeta> = std::iter::once(head).chain(tail).collect();
        let emit = Arc::new(emit);
        Shuffle::new(&engine, name, parts).node(bytes, placement, move |s| {
            let (metas, emit) = (metas.clone(), Arc::clone(&emit));
            if plan.is_none() {
                let rp = s.read(&right)?;
                let index = JoinIndex::kept(&right, &rp);
                let rp = rp.into_parts();
                let rrecords = rp.iter().map(|p| p.as_slice().len() as u64).sum();
                engine.charge_driver_collect(rrecords, rbytes);
                engine.charge_broadcast("broadcast_join", (rrecords as f64 * rbytes) as u64)?;
                // Built once and probed by every task, charged on its
                // matches without task overhead: the probe rides the left
                // side's stage. Keys are cloned into the table, values read
                // in place.
                let table = match index {
                    Some(index) => index.broadcast(&rp),
                    None => Arc::new(Broadcast::build(&rp)),
                };
                let left = s.read(&left)?.into_parts();
                let counts = left.iter().map(|p| p.as_slice().len()).collect();
                return Ok(fuse::headed(metas, counts, left.into_iter(), move |l| {
                    let value = |i: usize| &rp[table.at[i].0].as_slice()[table.at[i].1].1;
                    l.read(|l| table.chains.probe(l.as_slice(), value, &*emit))
                }));
            }
            let (lp, rp) = (s.read(&left)?, s.read(&right)?);
            // A right side read in place keeps its tables on its node.
            let reused = s.reuses(right.partitioning());
            let index = if reused { JoinIndex::kept(&right, &rp) } else { None };
            let l = s.place(lp, left.partitioning(), lbytes, |r| &r.0);
            let r = s.place(rp, right.partitioning(), rbytes, |r| &r.0);
            s.reduce_pair("join(build)", (l.streamed(), r), metas, move |pi, l, r| {
                let right = r.as_slice();
                let value = |i: usize| &right[i].1;
                match &index {
                    Some(index) => index.part(pi, right).probe(l.as_slice(), value, &*emit),
                    None => Chains::build(right.len(), right.iter().rev().map(|(k, _)| k)).probe(
                        l.as_slice(),
                        value,
                        &*emit,
                    ),
                }
            })
        })
    }
}

/// The build tables of the joins that read one memoized right side in place,
/// kept on its node ([`Bag::kept`]) so that every join against it — each
/// iteration of a loop against a loop-invariant relation — probes what the
/// first one built. Each table is made the first time a join needs it: a
/// repartition join's by the task that first probes that partition, the
/// broadcast plan's by the driver.
struct JoinIndex<K> {
    /// One table per partition of the memo, for a repartition join that
    /// reuses its placement.
    parts: Vec<OnceLock<Chains<K>>>,
    /// The broadcast plan's table over all of them.
    broadcast: OnceLock<Arc<Broadcast<K>>>,
    /// Tables built, to pin that each is built once.
    #[cfg(test)]
    built: std::sync::atomic::AtomicUsize,
}

impl<K: Key> JoinIndex<K> {
    /// The index kept on `right`, if `input` is its memoized partitions read
    /// in place; else `None`, and each join builds its own tables.
    fn kept<W: Data>(right: &Bag<(K, W)>, input: &Input<(K, W)>) -> Option<Arc<Self>> {
        let Input::Shared(parts) = input else { return None };
        right.kept(parts, || JoinIndex {
            parts: (0..parts.len()).map(|_| OnceLock::new()).collect(),
            broadcast: OnceLock::new(),
            #[cfg(test)]
            built: Default::default(),
        })
    }

    /// Partition `pi`'s table, `right` being that partition.
    fn part<W>(&self, pi: usize, right: &[(K, W)]) -> &Chains<K> {
        self.parts[pi].get_or_init(|| {
            self.count_build();
            Chains::build(right.len(), right.iter().rev().map(|(k, _)| k.clone())).compact()
        })
    }

    /// The broadcast table over `parts`, the memo's partitions.
    fn broadcast<W>(&self, parts: &[Part<(K, W)>]) -> Arc<Broadcast<K>> {
        let table = self.broadcast.get_or_init(|| {
            self.count_build();
            let Broadcast { at, chains } = Broadcast::build(parts);
            Arc::new(Broadcast { at, chains: chains.compact() })
        });
        Arc::clone(table)
    }

    fn count_build(&self) {
        #[cfg(test)]
        self.built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// The broadcast plan's table: every right record's `(partition, index)`,
/// threaded by key across all partitions.
struct Broadcast<K> {
    at: Vec<(usize, usize)>,
    chains: Chains<K>,
}

impl<K: Key> Broadcast<K> {
    fn build<W>(parts: &[Part<(K, W)>]) -> Self {
        let at: Vec<(usize, usize)> = (parts.iter().enumerate())
            .flat_map(|(pi, p)| (0..p.as_slice().len()).map(move |i| (pi, i)))
            .collect();
        let keys = at.iter().rev().map(|&(pi, i)| parts[pi].as_slice()[i].0.clone());
        let chains = Chains::build(at.len(), keys);
        Broadcast { at, chains }
    }
}

/// The build side of both join algorithms: every right record threaded into
/// its key's chain (`head` a key's first record, `next` the one after each,
/// or `NIL`), back to front so a probe walks matches in right-side order. No
/// value is cloned; keys are borrowed where one task builds and probes, and
/// cloned into a table that outlives the task (the broadcast plan's, and
/// those a [`JoinIndex`] keeps).
struct Chains<Q> {
    head: FxHashMap<Q, u32>,
    next: Vec<u32>,
}
const NIL: u32 = u32::MAX;

impl<Q: Hash + Eq> Chains<Q> {
    /// Thread `total` right records, given their keys last record first.
    fn build(total: usize, keys_back_to_front: impl Iterator<Item = Q>) -> Self {
        assert!(total < NIL as usize, "join build side exceeds u32 chain capacity");
        let mut head: FxHashMap<Q, u32> = fx_map_with_capacity(total);
        let mut next = vec![NIL; total];
        for (i, k) in (0..total).rev().zip(keys_back_to_front) {
            if let Some(later) = head.insert(k, i as u32) {
                next[i] = later;
            }
        }
        Chains { head, next }
    }

    /// Give back `head`'s spare capacity, for a table that outlives its
    /// build: `build` sizes it for one key per record, and keys repeat
    /// (the lifted PageRank's edge relation has ten records per key).
    fn compact(mut self) -> Self {
        self.head.shrink_to_fit();
        self
    }

    /// Probe one left partition: `emit` per match, with `value(i)` the value
    /// of right record `i`, in left-record then right-record order. Returns
    /// the output and the number of matches.
    ///
    /// The output starts at the expected number of matches, each left record
    /// meeting its key's average chain, so that a one-to-many join does not
    /// regrow it (the lifted PageRank's edge join meets ten edges per rank);
    /// never more than the two sides' records together.
    fn probe<'w, K: Hash + Eq, V, W: 'w, R, I: IntoIterator<Item = R>>(
        &self,
        left: &[(K, V)],
        value: impl Fn(usize) -> &'w W,
        emit: &impl Fn(&K, &V, &W) -> I,
    ) -> (Vec<R>, usize)
    where
        Q: Borrow<K>,
    {
        let expected = left.len().saturating_mul(self.next.len()).div_ceil(self.head.len().max(1));
        let mut out = Vec::with_capacity(expected.min(left.len() + self.next.len()));
        let mut matched = 0;
        for (k, v) in left {
            let mut i = self.head.get(k).copied().unwrap_or(NIL);
            while i != NIL {
                out.extend(emit(k, v, value(i as usize)));
                matched += 1;
                i = self.next[i as usize];
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
        let (parent, bytes) = (self.clone(), self.record_bytes());
        let shuffle = Shuffle::new(self.engine(), "distinct", partitions);
        shuffle.node(bytes, Partitioning::Arbitrary, move |s| {
            let combined = s.combine(&parent, "distinct(combine)", bytes, bytes, dedup)?;
            // Whole-record keys, which no `Partitioning` describes: always
            // scattered.
            let side = s.place(combined, Partitioning::Arbitrary, bytes, |rec| rec);
            s.reduce(side, ChargeRule::Input, bytes, dedup)
        })
    }
}

/// Keep each record's first occurrence, in order. The seen-set borrows from
/// the batch, so a shared partition clones each kept record once and an
/// owned one is deduplicated in place, cloning nothing.
fn dedup<T: Key>(batch: Batch<'_, T>) -> Vec<T> {
    match batch {
        Batch::Shared(p) => {
            let mut seen = fx_set_with_capacity(p.len());
            p.iter().filter(|x| seen.insert(*x)).cloned().collect()
        }
        Batch::Owned(mut part) => {
            let mut first = {
                let mut seen = fx_set_with_capacity(part.len());
                part.iter().map(|x| seen.insert(x)).collect::<Vec<bool>>().into_iter()
            };
            part.retain(|_| first.next().expect("one flag per record"));
            part
        }
    }
}

impl<T: Data> Bag<T> {
    /// Round-robin shuffle into `n` partitions (Spark `repartition`).
    pub fn repartition(&self, n: usize) -> Bag<T> {
        let (parent, bytes, n) = (self.clone(), self.record_bytes(), n.max(1));
        let shuffle = Shuffle::new(self.engine(), "repartition", n);
        shuffle.node(bytes, Partitioning::Arbitrary, move |s| {
            let input = s.read(&parent)?.into_parts();
            // Round-robin: bucket `i` receives exactly this many records.
            let total: usize = input.iter().map(|p| p.as_slice().len()).sum();
            let mut out: Vec<Vec<T>> = (0..n)
                .map(|i| Vec::with_capacity(total / n + usize::from(i < total % n)))
                .collect();
            let mut i = 0usize;
            for p in input {
                p.read(|batch| {
                    batch.for_each(|rec| {
                        out[i % n].push(rec);
                        i += 1;
                    })
                });
            }
            let side = s.scattered(total, bytes, out).streamed();
            s.reduce(side, ChargeRule::Input, bytes, |batch| batch.into_vec())
        })
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
        // Exactly one event per shuffling operator; a two-sided one counts
        // both sides (output partitions = the wider side).
        let e = traced();
        let a = e.parallelize((0..100u32).map(|i| (i, i)).collect::<Vec<_>>(), 4);
        let b = e.parallelize((50..80u32).map(|i| (i, i)).collect::<Vec<_>>(), 2);
        a.co_group(&b).count().unwrap();
        a.sort_by(3, |x| *x).count().unwrap();
        assert_eq!(partition_stats(&e), vec![("co_group", 4, 130), ("sort_by", 3, 100)]);
    }

    /// The tables kept on `right`'s node: how many were built, or `None`
    /// where no join kept any.
    fn tables_built(right: &Bag<(u64, u64)>) -> Option<usize> {
        let kept = Arc::clone(right.node.kept.get()?).downcast::<JoinIndex<u64>>().ok()?;
        Some(kept.built.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Joins against one memoized, co-partitioned right side build each of
    /// its tables once, under both plans: a repartition join's one per
    /// partition, the broadcast plan's one. Everything else is that of the
    /// same joins against a fresh view of the right side each time, which
    /// keeps nothing and builds per task: output partitions, stats and the
    /// traced events.
    #[test]
    fn joins_against_a_memoized_right_side_build_its_tables_once() {
        const JOINS: usize = 4;
        const P: usize = 6;
        let run = |plan: JoinAlgorithm, kept: bool| {
            let e = traced();
            let left = e.parallelize((0..600u64).map(|i| (i % 90, i)).collect::<Vec<_>>(), 4);
            let right = e.parallelize((0..200u64).map(|i| (i % 70, i * 3)).collect::<Vec<_>>(), 3);
            let (left, right) = (left.partition_by_key(P), right.partition_by_key(P));
            left.count().unwrap();
            right.count().unwrap();
            let outs: Vec<Vec<Vec<(u64, u64)>>> = (0..JOINS)
                .map(|_| {
                    // A fresh view is absorbed by the join that owns it: it
                    // reads the same partitions but is never evaluated.
                    let view = if kept {
                        right.clone()
                    } else {
                        right.with_record_bytes(right.record_bytes())
                    };
                    let joined = match plan {
                        JoinAlgorithm::Repartition => left.joined_into(P, &view),
                        JoinAlgorithm::BroadcastRight => left.joined_with(&view, plan),
                    };
                    let out = joined.map(|k, v, w| (*k, v + w));
                    drop((view, joined));
                    out.collect_partitions().unwrap()
                })
                .collect();
            (outs, e.stats(), e.events(), tables_built(&right))
        };
        for (plan, tables) in [(JoinAlgorithm::Repartition, P), (JoinAlgorithm::BroadcastRight, 1)]
        {
            let (outs, stats, events, built) = run(plan, true);
            assert_eq!(built, Some(tables), "{plan:?}: each table is built once");
            let (fresh_outs, fresh_stats, fresh_events, fresh_built) = run(plan, false);
            assert_eq!(fresh_built, None, "{plan:?}: a fresh view keeps nothing");
            assert_eq!(outs, fresh_outs, "{plan:?}: output partitions");
            assert_eq!(stats, fresh_stats, "{plan:?}: stats");
            assert_eq!(events, fresh_events, "{plan:?}: traced events");
            assert!(outs.iter().all(|o| o.concat().len() > 400), "{plan:?}: joins matched");
        }
    }

    /// A probe sizes its output for the matches it expects: a one-to-many
    /// join fills it without regrowing, and one that matches nothing
    /// allocates nothing.
    #[test]
    fn a_probe_sizes_its_output_for_the_expected_matches() {
        let right: Vec<(u64, u64)> = (0..40u64).map(|i| (i % 4, i)).collect();
        let chains = Chains::build(right.len(), right.iter().rev().map(|(k, _)| k));
        let emit = |k: &u64, v: &u64, w: &u64| Some(k + v + w);
        let (out, matched) = chains.probe(&[(1u64, 0u64), (3, 0)], |i| &right[i].1, &emit);
        assert_eq!((out.len(), out.capacity(), matched), (20, 20, 20));
        let (none, _) = chains.probe(&[(9u64, 0u64)], |i| &right[i].1, &emit);
        assert_eq!(none.capacity(), 10, "at most the expected matches of one record");
        let empty = Chains::build(0, std::iter::empty::<&u64>());
        assert_eq!(empty.probe(&[(1u64, 0u64)], |i| &right[i].1, &emit).0.capacity(), 0);
    }

    /// A left side whose records are all home, though its placement is not
    /// known, is scattered as a shuffle but hands its shared partitions on:
    /// the join reads them in place and clones no left value.
    #[test]
    fn an_all_home_shared_side_is_joined_in_place() {
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
        let e = traced();
        let placed = e
            .parallelize((0..500u64).map(|i| (i % 40, Counted(i))).collect::<Vec<_>>(), 3)
            .partition_by_key(5);
        let home = placed.map(|(k, v)| (*k, v.clone()));
        home.count().unwrap();
        assert_eq!(home.partitioning(), Partitioning::Arbitrary);
        let right = e.parallelize((0..40u64).map(|k| (k, k)).collect::<Vec<_>>(), 5);
        CLONES.store(0, Ordering::Relaxed);
        let out = home.joined_into(5, &right).map(|k, v, w| k + v.0 + w);
        assert_eq!(out.count().unwrap(), 500);
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "no left record was re-placed");
        assert_eq!(partition_stats(&e).last(), Some(&("join", 5, 540)), "still a shuffle");
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
