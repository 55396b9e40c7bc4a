//! The distributed-collection abstraction: a lazy, partitioned [`Bag`].
//!
//! A `Bag<T>` is a handle to a node in a lineage DAG, exactly like an RDD in
//! Spark: transformations (`map`, `filter`, `join`, ...) build new nodes
//! lazily; *actions* (`collect`, `count`, ...) launch a simulated job that
//! evaluates the lineage. Evaluated nodes memoize their partitions (as if
//! every RDD were cached), so iterative programs do not recompute their
//! history and simulated costs are charged exactly once per operator.
//!
//! Memoized partitions are shared as [`Parts`]: one partition set per pass
//! (its partitions' `Vec`s in one shared allocation), read by a chain head
//! through a (set, index) handle, and listed, not copied, by a `union`.
//! Dropping a node's lineage frees each partition's records and one set per
//! pass.

mod actions;
mod fuse;
mod ops_misc;
mod ops_narrow;
mod ops_wide;
mod shuffle;

pub use ops_narrow::WorkEstimate;
pub use ops_wide::{JoinAlgorithm, Joined};

/// How a bag's records are known to be distributed across partitions.
///
/// Wide by-key operators record that their output is hash-partitioned by
/// key; a later by-key operator with the same partition count can then skip
/// the shuffle entirely (Spark's co-partitioned narrow dependency — the
/// reason `partitionBy` + cached lineage makes iterative joins cheap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// No known structure.
    Arbitrary,
    /// Records are placed by `stable_hash(key) % partitions` of their key
    /// component.
    HashByKey {
        /// Number of partitions the hash was taken modulo.
        partitions: usize,
    },
}

use std::any::Any;
use std::sync::{Arc, OnceLock};

use crate::error::Result;
use crate::trace::EngineEvent;
use crate::types::Data;
use crate::Engine;

/// One pass's output partitions: every partition's records in its own
/// `Vec`, the headers side by side in one shared allocation.
pub(crate) type PartSet<T> = Arc<Vec<Vec<T>>>;

/// Evaluated partitions, cheap to clone and share across lineage: the
/// partition sets they are made of, in order, each with the index of its
/// first partition. A pass's output is one set, so its only per-partition
/// allocations are its partitions' records (an empty partition has none); a
/// `union` lists its parents' sets and copies no partition.
pub(crate) struct Parts<T> {
    sets: Arc<[(usize, PartSet<T>)]>,
}

impl<T> Clone for Parts<T> {
    fn clone(&self) -> Self {
        Parts { sets: Arc::clone(&self.sets) }
    }
}

impl<T> Parts<T> {
    /// One pass's output partitions, as one set.
    pub(crate) fn new(parts: Vec<Vec<T>>) -> Self {
        Parts { sets: std::iter::once((0, Arc::new(parts))).collect() }
    }

    /// `a`'s partitions, then `b`'s: both lists of sets, one after the other.
    fn union(a: &Parts<T>, b: &Parts<T>) -> Self {
        let offset = a.len();
        let later = b.sets.iter().map(|(start, set)| (offset + start, Arc::clone(set)));
        Parts { sets: a.sets.iter().cloned().chain(later).collect() }
    }

    /// Number of partitions.
    pub(crate) fn len(&self) -> usize {
        self.sets.last().map_or(0, |(start, set)| start + set.len())
    }

    /// Every partition, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Vec<T>> + '_ {
        self.sets.iter().flat_map(|(_, set)| set.iter())
    }

    /// Every partition, in order, as a chain head's handle on it: its set and
    /// its index there.
    pub(crate) fn shared(&self) -> impl Iterator<Item = fuse::Part<T>> + '_ {
        (self.sets.iter())
            .flat_map(|(_, set)| (0..set.len()).map(|i| fuse::Part::Shared(Arc::clone(set), i)))
    }

    /// Whether `other` is a clone of these partitions: the same evaluation's.
    pub(crate) fn same(&self, other: &Parts<T>) -> bool {
        Arc::ptr_eq(&self.sets, &other.sets)
    }
}

impl<T> std::ops::Index<usize> for Parts<T> {
    type Output = Vec<T>;

    /// Partition `pi`.
    fn index(&self, pi: usize) -> &Vec<T> {
        let (start, set) = match &*self.sets {
            [one] => one,
            sets => &sets[sets.partition_point(|(start, _)| *start <= pi) - 1],
        };
        &set[pi - start]
    }
}

pub(crate) struct Node<T> {
    engine: Engine,
    name: &'static str,
    /// Approximate serialized bytes per record; drives shuffle/memory models.
    /// For grouped bags (`Bag<(K, Vec<V>)>`) this refers to bytes per *inner
    /// element* `V`, not per group (see `ops_wide::group_by_key`).
    record_bytes: f64,
    /// Statically known partition count of the output.
    partitions: usize,
    /// Known placement of records across partitions.
    partitioning: Partitioning,
    compute: Box<dyn Fn() -> Result<Parts<T>> + Send + Sync>,
    cache: OnceLock<Result<Parts<T>>>,
    /// Host state derived from `cache`'s partitions alone, built by the first
    /// consumer that asks ([`Bag::kept`]) and shared by every later one: the
    /// build tables of the joins that read this node in place as their right
    /// side (`ops_wide::JoinIndex`). It costs the memory of a copy of the
    /// keys and lives as long as the node, so a join inside a loop against a
    /// loop-invariant right side hashes it once, not once per iteration.
    kept: OnceLock<Arc<dyn Any + Send + Sync>>,
    /// Fusion recipe, present on the nodes `fuse::chain_node` builds
    /// (narrow and wide operators, joins, `with_record_bytes`): lets a
    /// downstream narrow operator or wide map side extend this node's chain
    /// instead of materializing it. `None` marks a chain barrier (sources,
    /// `union`, `cache`, `checkpoint`, `map_with_work`).
    fuse: Option<fuse::FuseHook<T>>,
}

/// A lazy, partitioned, immutable distributed collection (Spark RDD
/// equivalent). Cloning is cheap (shares the lineage node).
pub struct Bag<T: Data> {
    pub(crate) node: Arc<Node<T>>,
}

impl<T: Data> Clone for Bag<T> {
    fn clone(&self) -> Self {
        Bag { node: Arc::clone(&self.node) }
    }
}

impl<T: Data> Bag<T> {
    pub(crate) fn new(
        engine: Engine,
        name: &'static str,
        record_bytes: f64,
        partitions: usize,
        compute: impl Fn() -> Result<Parts<T>> + Send + Sync + 'static,
    ) -> Bag<T> {
        Bag::new_with_partitioning(
            engine,
            name,
            record_bytes,
            partitions,
            Partitioning::Arbitrary,
            compute,
        )
    }

    pub(crate) fn new_with_partitioning(
        engine: Engine,
        name: &'static str,
        record_bytes: f64,
        partitions: usize,
        partitioning: Partitioning,
        compute: impl Fn() -> Result<Parts<T>> + Send + Sync + 'static,
    ) -> Bag<T> {
        Bag {
            node: Arc::new(Node {
                engine,
                name,
                record_bytes,
                partitions: partitions.max(1),
                partitioning,
                compute: Box::new(compute),
                cache: OnceLock::new(),
                kept: OnceLock::new(),
                fuse: None,
            }),
        }
    }

    /// The shared reuse-barrier predicate for chain-extending rewrites:
    /// a node may be absorbed into a longer chain only while it is
    /// **unmaterialized** and **exclusively owned** — the one handle being
    /// the single downstream consumer asking. Already-evaluated nodes
    /// (including `checkpoint` and `cache` parents, whose whole point is a
    /// stable materialization) and multi-consumer nodes must stay as they
    /// are so every consumer finds the shared partitions cached. Used by
    /// operator fusion here and relied upon by the IR plan-rewrite pass
    /// (`matryoshka-ir::analyze::plan`), whose hoist/CSE auto-caching
    /// inserts `cache` nodes precisely so this predicate keeps them
    /// materialized instead of re-deriving the rule.
    pub(crate) fn absorbable(&self) -> bool {
        self.node.cache.get().is_none() && Arc::strong_count(&self.node) == 1
    }

    /// The fusion recipe of this bag, if a downstream chain may extend it:
    /// requires a node with a hook that passes the shared
    /// [`Bag::absorbable`] barrier predicate. Any second handle — a user
    /// binding, another consumer, a still-live temporary of the enclosing
    /// statement — keeps the shared prefix materialized so a later
    /// evaluation finds it cached.
    pub(crate) fn fuse_through(&self) -> Option<&fuse::FuseHook<T>> {
        if self.absorbable() {
            self.node.fuse.as_ref()
        } else {
            None
        }
    }

    /// Known placement of this bag's records (see [`Partitioning`]).
    pub fn partitioning(&self) -> Partitioning {
        self.node.partitioning
    }

    /// Evaluate (or fetch memoized) partitions, charging simulated costs on
    /// the first evaluation only (which also emits the node's `Operator`
    /// event).
    pub(crate) fn eval(&self) -> Result<Parts<T>> {
        self.node
            .cache
            .get_or_init(|| {
                // While this node computes, charge-site events attribute to it.
                self.node.engine.push_current_op(self.node.name);
                let result = (self.node.compute)();
                self.node.engine.pop_current_op();
                let (records, ok) = match &result {
                    Ok(parts) => (parts.iter().map(|p| p.len() as u64).sum(), true),
                    Err(_) => (0, false),
                };
                self.node.engine.observe(EngineEvent::Operator {
                    // A tail that executed as a fused chain reports its
                    // composite provenance (`fused(map|filter)`).
                    op: self.op_name(),
                    partitions: self.node.partitions as u64,
                    records,
                    ok,
                    at: self.node.engine.sim_time(),
                });
                result
            })
            .clone()
    }

    /// The state kept on this node (see `Node::kept`), made by `init` on
    /// first use. `None` unless `parts` are this node's own memoized
    /// partitions: state derived from anything else must not outlive the
    /// consumer that read it.
    pub(crate) fn kept<X: Any + Send + Sync>(
        &self,
        parts: &Parts<T>,
        init: impl FnOnce() -> X,
    ) -> Option<Arc<X>> {
        match self.node.cache.get() {
            Some(Ok(memo)) if memo.same(parts) => {}
            _ => return None,
        }
        let kept = self.node.kept.get_or_init(|| Arc::new(init()));
        Arc::clone(kept).downcast().ok()
    }

    /// The engine this bag belongs to.
    pub fn engine(&self) -> &Engine {
        &self.node.engine
    }

    /// Operator name of the defining node (diagnostics). After a bag has
    /// evaluated as the tail of a fused narrow chain (two or more
    /// operators in one pass), this reports the composite provenance, e.g.
    /// `fused(map|filter)`.
    pub fn op_name(&self) -> &'static str {
        self.node
            .fuse
            .as_ref()
            .and_then(|hook| hook.fused_name.get().copied())
            .unwrap_or(self.node.name)
    }

    /// Statically known partition count.
    pub fn num_partitions(&self) -> usize {
        self.node.partitions
    }

    /// Approximate serialized bytes per record used by the cost model.
    pub fn record_bytes(&self) -> f64 {
        self.node.record_bytes
    }

    /// Override the modeled bytes-per-record (no data movement, no cost).
    ///
    /// Use this where the default (`size_of::<T>()`) misrepresents the data
    /// the record stands for, e.g. when a small in-memory struct models a
    /// fat on-disk record in a scaled-down experiment. Metadata only: a
    /// chain passes through it, and a materialized parent's partitions are
    /// shared as they are.
    pub fn with_record_bytes(&self, bytes: f64) -> Bag<T> {
        let parent = self.clone();
        let (engine, partitions) = (self.engine().clone(), self.num_partitions());
        fuse::chain_node(
            engine,
            "with_record_bytes",
            bytes,
            partitions,
            self.partitioning(),
            move || fuse::chain(&parent),
        )
    }

    /// Explicitly mark this bag for reuse: evaluate the parent once and
    /// share its partitions with every consumer (zero-copy — `Parts` is an
    /// `Arc` of shared partition sets, like Spark's `cache()` without the
    /// storage-level bookkeeping).
    ///
    /// The node charges nothing of its own (memoization already makes every
    /// evaluated bag reusable), but it is a **fusion barrier** by
    /// construction (no fuse hook), so downstream narrow chains cannot
    /// absorb the parent and recompute it per consumer. The plan-rewrite
    /// pass (`matryoshka-ir::analyze::plan`) lowers its hoisted and merged
    /// subplans onto this node.
    pub fn cache(&self) -> Bag<T> {
        let parent = self.clone();
        Bag::new_with_partitioning(
            self.engine().clone(),
            "cache",
            self.record_bytes(),
            self.num_partitions(),
            self.partitioning(),
            move || parent.eval(),
        )
    }

    /// Checkpoint this bag to simulated replicated storage, truncating
    /// lineage for the machine-loss fault model (see `docs/FAULTS.md`).
    ///
    /// The records are untouched (zero-copy: partitions are shared with the
    /// parent) and the partitioning is preserved, but on first evaluation the
    /// engine charges writing the bag's modeled bytes to checkpoint storage
    /// and clears the recovery ledger — a machine lost after this point only
    /// replays lineage built *after* the checkpoint. With faults disabled the
    /// write cost is still charged (like Spark's `checkpoint()`), so only add
    /// checkpoints when the fault model is in play or the overhead is the
    /// thing being measured.
    pub fn checkpoint(&self) -> Bag<T> {
        let parent = self.clone();
        let engine = self.engine().clone();
        let bytes = self.record_bytes();
        Bag::new_with_partitioning(
            self.engine().clone(),
            "checkpoint",
            bytes,
            self.num_partitions(),
            self.partitioning(),
            move || {
                let parts = parent.eval()?;
                let records: u64 = parts.iter().map(|p| p.len() as u64).sum();
                engine.charge_checkpoint("checkpoint", (records as f64 * bytes) as u64);
                Ok(parts)
            },
        )
    }

    /// Default modeled record size for `T`.
    pub(crate) fn default_record_bytes() -> f64 {
        (std::mem::size_of::<T>() as f64).max(8.0)
    }

    /// Modeled total size in bytes, available only once the bag has been
    /// computed (Spark `SizeEstimator` equivalent: cheap, no job). Returns
    /// `None` for unevaluated or failed bags.
    pub fn size_estimate(&self) -> Option<u64> {
        match self.node.cache.get() {
            Some(Ok(parts)) => {
                let records: u64 = parts.iter().map(|p| p.len() as u64).sum();
                Some((records as f64 * self.node.record_bytes) as u64)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ClusterConfig;
    use crate::{Engine, EngineEvent, Rule};

    fn traced_engine(cfg: ClusterConfig) -> Engine {
        Engine::new(ClusterConfig { trace_events: true, ..cfg })
    }

    /// The `Operator` events of a traced run as `(op, records, ok)`.
    fn operators(e: &Engine) -> Vec<(&'static str, u64, bool)> {
        e.events()
            .iter()
            .filter_map(|ev| match ev {
                EngineEvent::Operator { op, records, ok, .. } => Some((*op, *records, *ok)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn bags_are_lazy_until_action() {
        let e = Engine::new(ClusterConfig::local_test());
        let before = e.stats();
        let b = e.parallelize((0..100).collect::<Vec<i32>>(), 4);
        let _mapped = b.map(|x| x * 2);
        // No action ran: no jobs, no stages.
        let after = e.stats();
        assert_eq!(after.jobs, before.jobs);
        assert_eq!(after.stages, before.stages);
    }

    #[test]
    fn eval_is_memoized_and_charged_once() {
        let e = Engine::new(ClusterConfig::local_test());
        let b = e.parallelize((0..1000).collect::<Vec<i32>>(), 4).map(|x| x + 1);
        let t0 = e.sim_time();
        let c1 = b.count().unwrap();
        let t1 = e.sim_time();
        let c2 = b.count().unwrap();
        let t2 = e.sim_time();
        assert_eq!(c1, c2);
        // Second count only pays the job launch, not recomputation.
        let first = t1 - t0;
        let second = t2 - t1;
        assert!(second < first, "memoized action should be cheaper: {second} vs {first}");
    }

    /// Every *evaluated* node reports once, after its parents: a node a
    /// downstream stage absorbed runs inside that stage and reports nothing of
    /// its own, so only the nodes that materialize appear, in order.
    #[test]
    fn trace_records_each_operator_once_in_topological_order() {
        let e = traced_engine(ClusterConfig::local_test());
        let b = e.parallelize((0..100u32).map(|i| (i % 5, i)).collect::<Vec<_>>(), 4);
        let m = b.map(|(k, v)| (*k, v + 1));
        let r = m.reduce_by_key(|a, b| a + b);
        // The wide operator heads the map after it: one node, one report.
        let t = r.reduce_by_key(|a, b| a + b).map(|(k, v)| (*k, v * 2));
        m.count().unwrap();
        t.count().unwrap();
        t.count().unwrap(); // memoized: no new operator events
        drop(m);
        let expect = [
            ("parallelize", 100, true),
            ("map", 100, true),
            ("reduce_by_key", 5, true),
            ("fused(reduce_by_key|map)", 5, true),
        ];
        assert_eq!(operators(&e), expect);
        assert!(e.trace_json().contains("\"type\":\"operator\",\"op\":\"reduce_by_key\""));
    }

    /// A narrow chain runs inside the map side of the wide operator after it:
    /// the map's output never materializes, and its charge is replayed before
    /// the combine's, as one stage.
    #[test]
    fn a_wide_operator_absorbs_the_narrow_chain_before_it() {
        let e = traced_engine(ClusterConfig::local_test());
        let b = e.parallelize((0..100u32).map(|i| (i % 5, i)).collect::<Vec<_>>(), 4);
        let r = b.map(|(k, v)| (*k, v + 1)).filter(|(_, v)| v % 2 == 0).reduce_by_key(|a, b| a + b);
        r.count().unwrap();
        assert_eq!(operators(&e), [("parallelize", 100, true), ("reduce_by_key", 5, true)]);
        let decided: Vec<Rule> = e.decisions().into_iter().map(|d| d.rule).collect();
        let ops = "fused(map|filter|reduce_by_key)";
        assert_eq!(
            decided,
            [Rule::NarrowFusion { ops, fused: 3, partitions: 4, records: 20, elided: 2 }]
        );
    }

    #[test]
    fn trace_marks_failed_operators() {
        let mut cfg = ClusterConfig::local_test();
        cfg.memory_per_machine = 1; // everything OOMs
        let e = traced_engine(cfg);
        let b = e.parallelize((0..100u32).map(|i| (0u8, i)).collect::<Vec<_>>(), 2).group_by_key();
        assert!(b.collect().is_err());
        assert!(operators(&e).contains(&("group_by_key", 0, false)));
    }

    #[test]
    fn cache_is_a_zero_cost_identity_sharing_partitions() {
        let e = Engine::new(ClusterConfig::local_test());
        let b = e.parallelize((0..100).collect::<Vec<i32>>(), 4).map(|x| x * 2);
        let c = b.cache();
        assert_eq!(c.num_partitions(), b.num_partitions());
        assert_eq!(c.record_bytes(), b.record_bytes());
        assert_eq!(c.collect().unwrap(), b.collect().unwrap());
        // Zero-copy: the cache node's partitions are the parent's.
        let (cp, bp) = (c.eval().unwrap(), b.eval().unwrap());
        assert!(cp.same(&bp) && cp.iter().zip(bp.iter()).all(|(a, b)| std::ptr::eq(a, b)));
    }

    #[test]
    fn cache_and_checkpoint_parents_block_fusion() {
        let run = |wrap: fn(&crate::Bag<i32>) -> crate::Bag<i32>| {
            let e = traced_engine(ClusterConfig::local_test());
            let b = wrap(&e.parallelize((0..100).collect::<Vec<i32>>(), 4).map(|x| x + 1));
            let out = b.map(|x| x * 2).filter(|x| x % 4 == 0);
            out.count().unwrap();
            let ops = operators(&e).into_iter().map(|(op, _, _)| op).collect::<Vec<_>>();
            (out.collect().unwrap(), ops)
        };
        let (plain_rows, _plain_ops) = run(|b| b.clone());
        let (cached_rows, cached_ops) = run(|b| b.cache());
        let (ckpt_rows, ckpt_ops) = run(|b| b.checkpoint());
        assert_eq!(plain_rows, cached_rows);
        assert_eq!(plain_rows, ckpt_rows);
        // The downstream map|filter chain still fuses, but never through
        // the barrier node: the barrier appears in the trace by name.
        assert!(cached_ops.contains(&"cache"), "{cached_ops:?}");
        assert!(ckpt_ops.contains(&"checkpoint"), "{ckpt_ops:?}");
        assert!(
            cached_ops.iter().all(|op| !op.contains("cache|") && !op.contains("|cache")),
            "fused through a cache barrier: {cached_ops:?}"
        );
    }

    /// A pass's partitions are one set: each partition keeps the buffer the
    /// pass filled (an empty one has none), and a union lists its parents'
    /// sets, so every partition it reads is the one its parent holds.
    #[test]
    fn a_partition_set_keeps_its_buffers_and_a_union_shares_them() {
        use super::Parts;
        let (a, b) = (vec![vec![], vec![1u32], vec![], vec![2, 3], vec![]], vec![vec![4u32]]);
        let buffers: Vec<*const u32> = a.iter().chain(&b).map(|p| p.as_ptr()).collect();
        let (a, b) = (Parts::new(a), Parts::new(b));
        assert_eq!(a.iter().map(|p| p.len()).collect::<Vec<_>>(), [0, 1, 0, 2, 0]);
        assert!(
            a.iter().all(|p| !p.is_empty() || p.capacity() == 0),
            "an empty partition allocates"
        );
        let u = Parts::union(&Parts::union(&a, &b), &a);
        assert_eq!(u.len(), 11);
        assert_eq!(
            (0..u.len()).map(|pi| u[pi].len()).collect::<Vec<_>>(),
            [0, 1, 0, 2, 0, 1, 0, 1, 0, 2, 0]
        );
        let read: Vec<*const u32> = u.iter().map(|p| p.as_ptr()).collect();
        assert_eq!(read[..6], buffers[..], "a union copies no partition");
        assert!((0..u.len()).all(|pi| std::ptr::eq(&u[pi], u.iter().nth(pi).unwrap())));
        let handles: Vec<_> = u.shared().map(|p| p.as_slice().as_ptr()).collect();
        assert_eq!(handles, read, "a handle reads its partition in place");
        assert!(a.same(&a.clone()) && !u.same(&Parts::union(&a, &b)));
    }

    #[test]
    fn record_bytes_override_propagates() {
        let e = Engine::new(ClusterConfig::local_test());
        let b = e.parallelize(vec![1u8, 2, 3], 2).with_record_bytes(1024.0);
        assert_eq!(b.record_bytes(), 1024.0);
        let m = b.map(|x| *x as u64);
        assert_eq!(m.record_bytes(), 1024.0, "derived bags inherit record bytes");
        assert_eq!(m.collect().unwrap(), vec![1u64, 2, 3]);
    }
}
