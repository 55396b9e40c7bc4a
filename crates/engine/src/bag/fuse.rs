//! Stages: every operator between two shuffles runs as a step of one pass.
//!
//! Every narrow operator built by [`fusible`] (`map`, `map_into`, `filter`,
//! `flat_map`, `map_indexed`, `zip_with_unique_id`, `sample`, `map_values`,
//! and `key_by` via `map`) states its per-partition logic exactly once, as a
//! [`Step`]. Every node that can take part in a stage carries a [`FuseHook`]
//! that assembles the *maximal chain* ending at that node. A chain starts at a
//! **head** — a materialized partition set, read in place, or the reduce side
//! of a wide operator or a join's probe, which hand each output partition on
//! owned — and runs in **one** pool pass: each operator is a single dynamic
//! call per partition whose body is its own *monomorphized* loop over the
//! whole [`Batch`]. Mid-chain batches are owned `Vec`s handed from step to
//! step, so `into_iter().collect()` reuses the allocation in place where
//! layouts allow, record clones are elided (ownership moves), and no elided
//! middle becomes a cached partition set. Per partition a pass allocates its
//! output and nothing else: the outputs become the node's one partition set
//! ([`Parts`]) as they are. A chain ends where a node is
//! evaluated ([`run_chain`]) or at the map side of the next wide operator
//! (`shuffle::Shuffle::read`), which runs it in its own pass, combine
//! included. `with_record_bytes` is metadata: its chain is its parent's. A
//! wide node evaluated on its own is the chain of just itself: there is one
//! driver and one charge replay.
//!
//! # Chains of length 1
//!
//! A pass that runs one operator is *not* a fusion: the bag keeps its own
//! operator name, and no `StageFused` event, `stages_fused`/
//! `intermediates_elided` bump or `narrow_fusion` decision is emitted.
//!
//! # Sim-transparency invariant
//!
//! Chain length changes *wall-clock* execution only. The pass records the
//! size of every batch an operator reads, per partition — the head's input,
//! then each intermediate batch in the partition's row of one size table
//! for the whole pass ([`Row`]), then the output — and issues one
//! `charge_compute` call per operator: source-first, per-partition counts
//! read off the operator's two boundaries by its [`ChargeRule`], the
//! operator's own record size and attribution, and task overhead for a head
//! that reads a shuffle. That is the sequence a run of length-1 chains over
//! the same operators issues, so simulated time, `StatsSnapshot` counters
//! (other than the two fusion counters), `Stage` trace events and
//! fault-model draws do not depend on where chains are cut (`golden_sim` and
//! the `fusion` property tests pin this).
//!
//! # Chain barriers
//!
//! A chain starts afresh at a parent that is:
//!
//! - a source, `checkpoint`, `cache`, `union` or `map_with_work` (none carry
//!   a fuse hook — `map_with_work` because its memory accounting must observe
//!   real per-partition outputs, `cache`/`checkpoint` because their whole
//!   point is a stable materialization every consumer can share);
//! - already **materialized** (its memoized partitions are reused as-is);
//! - **multi-consumer**: any other live handle to the parent (a user
//!   binding, a second downstream operator, or a still-live temporary of the
//!   enclosing statement) keeps the shared prefix materialized. That handle
//!   could evaluate the parent later and must find it cached; fusing through
//!   it would make the later evaluation re-charge the prefix.
//!
//! Exclusivity is detected by `Arc` strong count: a child holds exactly one
//! reference to its parent (inside its assemble hook), so a count of 1 proves
//! no other handle exists. Binding every intermediate of a chain to a live
//! handle therefore forces length-1 chains throughout, which is how the
//! tests and the `narrow_chain/unfused` bench row reach the
//! operator-at-a-time schedule. The materialized/multi-consumer check is the
//! shared barrier predicate [`Bag::absorbable`](super::Bag::absorbable),
//! which the IR plan-rewrite pass also leans on: its hoist/CSE auto-caching
//! inserts `cache` nodes so shared subplans stay materialized under exactly
//! the same rule.
//!
//! # Iteration stability
//!
//! Composite names like `fused(map|filter)` are `&'static str` (the rest of
//! the trace plumbing stores static operator names). They are interned in a
//! global leak-once table keyed by the composite string, so a `lifted_while`
//! loop that rebuilds the same chain every iteration allocates the name once
//! for the chain *shape* — per-iteration cost stays O(chain length) closure
//! allocations with zero leaked memory after the first iteration.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use super::{Bag, PartSet, Partitioning, Parts};
use crate::error::Result;
use crate::pool::parallel_map_range;
use crate::trace::{EngineEvent, Rule};
use crate::types::Data;
use crate::Engine;

/// Which side of an operator its `charge_compute` call counts per partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChargeRule {
    /// Charged on emitted records (`map`, `map_indexed`, `map_values`,
    /// `zip_with_unique_id`).
    Output,
    /// Charged on consumed records (`filter`, `sample`).
    Input,
    /// Charged on `max(input, output)` (`flat_map`: expansion is priced by
    /// what it produces).
    MaxSide,
}

impl ChargeRule {
    fn count(self, input: usize, output: usize) -> usize {
        match self {
            ChargeRule::Output => output,
            ChargeRule::Input => input,
            ChargeRule::MaxSide => input.max(output),
        }
    }
}

/// Static description of one operator inside an assembled chain — everything
/// its `charge_compute` call needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedOpMeta {
    /// The operator's own name (`map`, `filter`, ...).
    pub name: &'static str,
    /// The `record_bytes` its `charge_compute` call passes.
    pub bytes: f64,
    /// Which side its per-partition counts come from.
    pub charge: ChargeRule,
    /// Whether it starts a stage by reading a shuffle, paying task overhead.
    pub overhead: bool,
}

/// One operator's whole-partition input inside a chain: borrowed from the
/// materialized base partition at the chain head, owned (handed off by the
/// upstream step) everywhere else. Operators that re-emit their input
/// (`filter`, `sample`, `zip_with_unique_id`, `map_values`' keys) clone in
/// the `Shared` head position — records must leave the shared partition —
/// and consume the `Owned` vector by value mid-chain, so only a chain's head
/// ever clones and `into_iter().collect()` can reuse the allocation in place.
pub(crate) enum Batch<'a, T> {
    /// Borrowed view of the head's materialized input partition.
    Shared(&'a [T]),
    /// Produced (and owned) by the upstream step.
    Owned(Vec<T>),
}

impl<T> Batch<'_, T> {
    /// Borrow the records (for operators whose UDF takes `&T` and produces
    /// owned output, where the two ownership cases collapse).
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Batch::Shared(s) => s,
            Batch::Owned(v) => v,
        }
    }
}

impl<T: Clone> Batch<'_, T> {
    /// The records as an owned `Vec`: moved when owned, cloned out of a
    /// shared partition.
    pub(crate) fn into_vec(self) -> Vec<T> {
        match self {
            Batch::Shared(s) => s.to_vec(),
            Batch::Owned(v) => v,
        }
    }

    /// Hand each record to `f` by value: moved when owned, cloned out of a
    /// shared partition.
    pub(crate) fn for_each(self, f: impl FnMut(T)) {
        match self {
            Batch::Shared(s) => s.iter().cloned().for_each(f),
            Batch::Owned(v) => v.into_iter().for_each(f),
        }
    }
}

/// A whole partition a chain head takes by value (a reduce side's placed
/// input, a probe's left partition): a materialized partition it reads in
/// place, or records it owns.
pub(crate) enum Part<T> {
    /// A materialized partition, shared: its set and its index there.
    Shared(PartSet<T>, usize),
    /// Records this head owns.
    Owned(Vec<T>),
}

impl<T> Part<T> {
    /// The records.
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Part::Shared(set, i) => &set[*i],
            Part::Owned(v) => v,
        }
    }

    /// Run `f` over the partition as a [`Batch`]: borrowed when shared, moved
    /// when owned.
    pub(crate) fn read<R>(self, f: impl FnOnce(Batch<'_, T>) -> R) -> R {
        match self {
            Part::Shared(set, i) => f(Batch::Shared(&set[i])),
            Part::Owned(v) => f(Batch::Owned(v)),
        }
    }
}

/// One operator's batch transducer step: receives the partition index and
/// the operator's entire per-partition input stream (so `enumerate`
/// positions inside the step are the per-partition offsets that
/// `map_indexed`/`zip_with_unique_id`/`sample` observe wherever the chain is
/// cut), and returns the operator's output batch. One dynamic call per
/// operator per partition; the loop inside is the operator's own
/// monomorphized code.
pub(crate) type Step<I, O> = Arc<dyn Fn(usize, Batch<'_, I>) -> Vec<O> + Send + Sync>;

/// One partition's row of a pass's size table: the size of every
/// *intermediate* batch of the chain, source-first, written in order. A
/// chain of one has no intermediates and an empty row.
pub(crate) struct Row<'a> {
    cells: &'a [AtomicUsize],
    written: usize,
}

impl Row<'_> {
    /// Record the size of the next intermediate batch.
    fn push(&mut self, len: usize) {
        self.cells[self.written].store(len, Ordering::Relaxed);
        self.written += 1;
    }
}

/// Drives one partition of an assembled chain from its head, writing the
/// size of every intermediate batch into the partition's [`Row`], so each
/// operator's input and output counts can be read off afterwards.
pub(crate) trait Drive<T>: Send + Sync {
    fn drive(&self, pi: usize, row: &mut Row<'_>) -> Batch<'_, T>;

    /// The partitions of a chain of no operators, read as they are.
    fn parts(&self) -> Option<&Parts<T>> {
        None
    }
}

/// The head of a chain over a materialized parent: its partitions, read in
/// place.
struct Materialized<T>(Parts<T>);

impl<T: Data> Drive<T> for Materialized<T> {
    fn drive(&self, pi: usize, _: &mut Row<'_>) -> Batch<'_, T> {
        Batch::Shared(&self.0[pi])
    }

    fn parts(&self) -> Option<&Parts<T>> {
        Some(&self.0)
    }
}

/// A narrow operator's step after the chain that feeds it.
struct Extend<P, T> {
    upstream: Box<dyn Drive<P>>,
    step: Step<P, T>,
    /// Reads the head's partition, counted already.
    first: bool,
}

impl<P: Data, T: Data> Drive<T> for Extend<P, T> {
    fn drive(&self, pi: usize, row: &mut Row<'_>) -> Batch<'_, T> {
        let input = self.upstream.drive(pi, row);
        if !self.first {
            row.push(input.as_slice().len());
        }
        Batch::Owned((self.step)(pi, input))
    }
}

/// A head that takes one input per partition by value: `(output, own count)`
/// per partition from `step`.
struct Headed<X, F> {
    slots: Vec<Mutex<Option<X>>>,
    step: F,
    ops: usize,
}

impl<X: Send, O: Data, F: Fn(X) -> (Vec<O>, usize) + Send + Sync> Drive<O> for Headed<X, F> {
    fn drive(&self, pi: usize, row: &mut Row<'_>) -> Batch<'_, O> {
        let taken = self.slots[pi].lock().expect("partition slot lock poisoned").take();
        let (out, own) = (self.step)(taken.expect("a partition is driven once"));
        // The followers the head absorbed (a join's) read its own count
        // first, then the final one.
        if self.ops > 1 {
            row.push(own);
            for _ in 2..self.ops {
                row.push(out.len());
            }
        }
        Batch::Owned(out)
    }
}

/// A maximal chain, assembled at evaluation time: the per-operator metadata
/// (source-first; none for a materialized parent read as it is) and a
/// per-partition driver.
pub(crate) struct Assembled<T> {
    /// Chain operators, source-first; the evaluating tail is last.
    pub metas: Vec<FusedOpMeta>,
    /// Record count of every partition the head reads.
    pub base_counts: Vec<usize>,
    /// Per-partition driver.
    pub drive: Box<dyn Drive<T>>,
}

/// The fusion recipe of a node that can take part in a chain: assembles the
/// maximal chain ending at that node, plus the slot its composite name lands
/// in when the node executes as the tail of a chain of two or more.
pub(crate) struct FuseHook<T> {
    /// Assemble the maximal chain ending at this node.
    pub assemble: Arc<dyn Fn() -> Result<Assembled<T>> + Send + Sync>,
    /// Composite name (`fused(map|filter)`), set by [`run_chain`];
    /// shared with the node so `op_name()` and the execution trace report
    /// provenance after evaluation.
    pub fused_name: Arc<OnceLock<&'static str>>,
}

/// The one absorb-or-materialize decision: an absorbable parent's own chain,
/// to be extended, or its memoized partitions.
pub(super) fn chain<T: Data>(parent: &Bag<T>) -> Result<Assembled<T>> {
    if let Some(hook) = parent.fuse_through() {
        return (hook.assemble)();
    }
    let parts = parent.eval()?;
    let base_counts = parts.iter().map(Vec::len).collect();
    Ok(Assembled { metas: Vec::new(), base_counts, drive: Box::new(Materialized(parts)) })
}

/// A chain headed by an operator that takes one input per partition (a wide
/// operator's reduce side, a join's probe): `metas` are the head's own,
/// `base_counts` and `inputs` each partition's record count and input, and `step`
/// returns the partition's output and the head's own output count.
pub(super) fn headed<X: Send + 'static, O: Data>(
    metas: Vec<FusedOpMeta>,
    base_counts: Vec<usize>,
    inputs: impl Iterator<Item = X>,
    step: impl Fn(X) -> (Vec<O>, usize) + Send + Sync + 'static,
) -> Assembled<O> {
    let slots = inputs.map(|x| Mutex::new(Some(x))).collect();
    let drive = Box::new(Headed { slots, step, ops: metas.len() });
    Assembled { metas, base_counts, drive }
}

/// A lineage node evaluated by running the chain `assemble` builds, and
/// carrying it as its fuse hook so a downstream chain can extend it instead.
pub(super) fn chain_node<T: Data>(
    engine: Engine,
    name: &'static str,
    record_bytes: f64,
    partitions: usize,
    partitioning: Partitioning,
    assemble: impl Fn() -> Result<Assembled<T>> + Send + Sync + 'static,
) -> Bag<T> {
    let assemble: Arc<dyn Fn() -> Result<Assembled<T>> + Send + Sync> = Arc::new(assemble);
    let fused_name: Arc<OnceLock<&'static str>> = Arc::new(OnceLock::new());
    let (run, named, e) = (Arc::clone(&assemble), Arc::clone(&fused_name), engine.clone());
    let compute = move || run_chain(&e, run()?, &named);
    let mut bag =
        Bag::new_with_partitioning(engine, name, record_bytes, partitions, partitioning, compute);
    let node = Arc::get_mut(&mut bag.node).expect("a new node has one handle");
    node.fuse = Some(FuseHook { assemble, fused_name });
    bag
}

/// Construct a narrow operator from its transducer `step`, the only
/// statement of its per-partition logic: evaluating the returned bag
/// assembles the maximal chain ending here and runs it through
/// [`run_chain`].
pub(crate) fn fusible<P: Data, T: Data>(
    parent: &Bag<P>,
    name: &'static str,
    record_bytes: f64,
    partitioning: Partitioning,
    charge: ChargeRule,
    step: Step<P, T>,
) -> Bag<T> {
    let meta = FusedOpMeta { name, bytes: record_bytes, charge, overhead: false };
    // The hook owns this node's only handle to its parent (see the module
    // docs on exclusivity).
    let parent = parent.clone();
    let (engine, partitions) = (parent.engine().clone(), parent.num_partitions());
    chain_node(engine, name, record_bytes, partitions, partitioning, move || {
        let Assembled { mut metas, base_counts, drive: upstream } = chain(&parent)?;
        let first = metas.is_empty();
        metas.push(meta);
        let drive = Box::new(Extend { upstream, step: Arc::clone(&step), first });
        Ok(Assembled { metas, base_counts, drive })
    })
}

/// Evaluate an assembled chain as a node's partitions.
fn run_chain<T: Data>(
    engine: &Engine,
    assembled: Assembled<T>,
    fused_name: &OnceLock<&'static str>,
) -> Result<Parts<T>> {
    if let Some(parts) = assembled.drive.parts() {
        return Ok(parts.clone());
    }
    let (out, composite) = pass(engine, assembled, None)?;
    if let Some(composite) = composite {
        fused_name.get_or_init(|| composite);
    }
    Ok(Parts::new(out))
}

/// A wide operator's map-side combine as the last step of a pass: its
/// charge and the per-partition step.
pub(super) type Tail<'a, T> = (FusedOpMeta, &'a (dyn Fn(Batch<'_, T>) -> Vec<T> + Sync));

/// Run a chain's operators, then `tail` if any, as one pass — one pool
/// dispatch — and [`settle`] it; returns each partition's output and the
/// composite name of a fusion.
///
/// The sizes of the intermediate batches go into one table for the whole
/// pass, a [`Row`] of `ops - 1` cells per partition, so that what a pass
/// allocates per partition is its output and nothing else.
pub(super) fn pass<T: Data>(
    engine: &Engine,
    chain: Assembled<T>,
    tail: Option<Tail<'_, T>>,
) -> Result<(Vec<Vec<T>>, Option<&'static str>)> {
    let Assembled { mut metas, base_counts, drive } = chain;
    let partitions = base_counts.len();
    let (chained, ops) = (!metas.is_empty(), metas.len() + usize::from(tail.is_some()));
    let width = ops - 1;
    let table: Vec<AtomicUsize> = (0..partitions * width).map(|_| AtomicUsize::new(0)).collect();
    let out: Vec<Vec<T>> = parallel_map_range(partitions, |pi| {
        let mut row = Row { cells: &table[pi * width..][..width], written: 0 };
        let out = drive.drive(pi, &mut row);
        match tail {
            Some((_, step)) => {
                if chained {
                    row.push(out.as_slice().len());
                }
                step(out)
            }
            // The last operator's output: always owned.
            None => out.into_vec(),
        }
    });
    // The cells publish nothing else, and a pool call returns only once every
    // item has completed (its output slots rely on the same), so `Relaxed`
    // stores are all read here.
    let table: Vec<usize> = table.into_iter().map(AtomicUsize::into_inner).collect();
    metas.extend(tail.map(|(meta, _)| meta));
    // Boundary 0 is the head's input and boundary `ops` the final output.
    let boundary = |pi: usize, j: usize| match j {
        0 => base_counts[pi],
        j if j == ops => out[pi].len(),
        j => table[pi * width + j - 1],
    };
    let composite = settle(engine, &metas, partitions, boundary)?;
    Ok((out, composite))
}

/// Settle a pass that ran `metas` (source-first) over `partitions`
/// partitions: one `charge_compute` per operator under its own name, where
/// operator `j` reads `boundary(partition, j)` records and writes
/// `boundary(partition, j + 1)`, with task overhead where it reads a
/// shuffle. Two or more operators are a fusion: it also emits `StageFused`
/// (feeding the fusion counters), logs `narrow_fusion` and returns its
/// composite name.
fn settle(
    engine: &Engine,
    metas: &[FusedOpMeta],
    partitions: usize,
    boundary: impl Fn(usize, usize) -> usize,
) -> Result<Option<&'static str>> {
    let ops = metas.len();
    for (j, meta) in metas.iter().enumerate() {
        let counts: Vec<usize> = (0..partitions)
            .map(|pi| meta.charge.count(boundary(pi, j), boundary(pi, j + 1)))
            .collect();
        engine.push_current_op(meta.name);
        let charged = engine.charge_compute(&counts, meta.bytes, meta.overhead);
        engine.pop_current_op();
        charged?;
    }
    if ops == 1 {
        return Ok(None);
    }
    let composite = intern_fused_name(metas);
    let records = (0..partitions).map(|pi| boundary(pi, ops) as u64).sum();
    let (fused, partitions) = (ops as u64, partitions as u64);
    let elided = fused - 1;
    engine.observe(EngineEvent::StageFused {
        ops: composite,
        ops_fused: fused,
        intermediates_elided: elided,
        partitions,
        at: engine.sim_time(),
    });
    engine.record_decision(Rule::NarrowFusion {
        ops: composite,
        fused,
        partitions,
        records,
        elided,
    });
    Ok(Some(composite))
}

/// Leak-once interner for composite chain names (see the module docs on
/// iteration stability). The table is tiny — one entry per distinct chain
/// shape ever fused in the process — so a linear scan beats hashing.
static FUSED_NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern_fused_name(metas: &[FusedOpMeta]) -> &'static str {
    let mut label = String::with_capacity(8 + metas.len() * 10);
    label.push_str("fused(");
    for (i, meta) in metas.iter().enumerate() {
        if i > 0 {
            label.push('|');
        }
        label.push_str(meta.name);
    }
    label.push(')');
    let mut names = FUSED_NAMES.lock().expect("fused-name interner lock poisoned");
    if let Some(existing) = names.iter().find(|n| ***n == *label) {
        return existing;
    }
    let leaked: &'static str = Box::leak(label.into_boxed_str());
    names.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &'static str) -> FusedOpMeta {
        FusedOpMeta { name, bytes: 8.0, charge: ChargeRule::Output, overhead: false }
    }

    #[test]
    fn fuse_interner_returns_one_allocation_per_shape() {
        let a = intern_fused_name(&[meta("map"), meta("filter")]);
        let b = intern_fused_name(&[meta("map"), meta("filter")]);
        assert_eq!(a, "fused(map|filter)");
        assert_eq!(a.as_ptr(), b.as_ptr(), "same shape must reuse the leaked name");
        let c = intern_fused_name(&[meta("map"), meta("filter"), meta("flat_map")]);
        assert_eq!(c, "fused(map|filter|flat_map)");
        assert_ne!(a.as_ptr(), c.as_ptr());
    }

    #[test]
    fn fuse_charge_rules_pick_the_charged_count() {
        assert_eq!(ChargeRule::Output.count(10, 4), 4);
        assert_eq!(ChargeRule::Input.count(10, 4), 10);
        assert_eq!(ChargeRule::MaxSide.count(10, 4), 10);
        assert_eq!(ChargeRule::MaxSide.count(3, 9), 9, "expansion is priced by its output");
    }

    #[test]
    fn fuse_batch_exposes_both_ownership_cases() {
        let v = vec![1u32, 2, 3];
        let shared: Batch<'_, u32> = Batch::Shared(&v);
        assert_eq!(shared.as_slice(), &[1, 2, 3]);
        let owned: Batch<'_, u32> = Batch::Owned(v.clone());
        assert_eq!(owned.as_slice(), &[1, 2, 3]);
        let part = Part::Shared(Arc::new(vec![v]), 0);
        assert_eq!(part.as_slice(), &[1, 2, 3]);
        assert!(part.read(|b| matches!(b, Batch::Shared(_))));
    }

    #[test]
    fn fuse_headed_pass_takes_each_input_once_and_counts_the_head() {
        let e = Engine::new(crate::ClusterConfig::local_test());
        let metas = vec![meta("head"), meta("follower")];
        let inputs = vec![vec![1u32, 2], vec![3]];
        let step = |v: Vec<u32>| (v.iter().map(|x| x * 10).collect(), 7);
        let head = headed(metas, vec![2, 1], inputs.into_iter(), step);
        let (out, composite) = pass(&e, head, None).unwrap();
        assert_eq!(out, vec![vec![10, 20], vec![30]]);
        assert_eq!(composite, Some("fused(head|follower)"));
    }
}
