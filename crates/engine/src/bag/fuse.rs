//! Narrow operators: every one runs as a batch-transducer step, and maximal
//! runs of them fuse into a single pass.
//!
//! Every narrow operator built by [`fusible`] (`map`, `filter`, `flat_map`,
//! `map_indexed`, `zip_with_unique_id`, `sample`, `map_values`, and `key_by`
//! via `map`) states its per-partition logic exactly once, as a [`Step`],
//! and carries a [`FuseHook`]: a recipe for assembling the *maximal run* of
//! narrow ancestors ending at that operator into one composed transducer
//! chain. Evaluating such an operator assembles its chain and executes it as
//! **one** `parallel_map_range` pass per partition: one pool dispatch total,
//! and per partition each operator is a single dynamic call whose body is the
//! operator's own *monomorphized* tight loop over the whole [`Batch`].
//! Mid-chain batches are owned `Vec`s handed from step to step, so
//! `into_iter().collect()` reuses the allocation in place where layouts
//! allow, record clones are elided (ownership moves), and none of the elided
//! middles ever becomes a cached partition set (`Arc<Vec<Arc<Vec<_>>>>`) in
//! the lineage.
//!
//! # Chains of length 1
//!
//! An operator whose parent is a barrier (below) assembles a chain of just
//! itself and runs through the same driver and charge replay. That is *not*
//! a fusion: the bag keeps its own operator name, and no `StageFused` event,
//! `stages_fused`/`intermediates_elided` bump or `narrow_fusion` decision is
//! emitted.
//!
//! # Sim-transparency invariant
//!
//! Chain length changes *wall-clock* execution only. The pass records the
//! size of every intermediate batch per partition while it runs and then
//! issues one `charge_compute` call per operator: source-first, per-partition
//! counts read off the operator's two boundaries by its [`ChargeRule`], the
//! operator's own record size and `current_operator` attribution. That is
//! the sequence a run of length-1 chains over the same operators issues, so
//! simulated time, `StatsSnapshot` counters (other than the two fusion
//! counters), `Stage` trace events and fault-model draws do not depend on
//! where chains are cut (`golden_sim` and the `fusion` property tests pin
//! this).
//!
//! # Fusion barriers
//!
//! A narrow operator materializes its parent (starting a fresh chain there)
//! instead of fusing through it when the parent is:
//!
//! - a **wide** operator, a source, `checkpoint`, `cache`, `union`,
//!   `with_record_bytes` or `map_with_work` (none carry a fuse
//!   hook — `map_with_work` because its memory accounting must observe real
//!   per-partition outputs, `cache`/`checkpoint` because their whole point
//!   is a stable materialization every consumer can share). A join is the
//!   *head* of a chain for the followers handed to `ops_wide::Joined`
//!   ([`settle`] charges them like any chain), a barrier for all else;
//! - already **materialized** (its memoized partitions are reused as-is);
//! - **multi-consumer**: any other live handle to the parent (a user
//!   binding, a second downstream operator, or a still-live temporary of the
//!   enclosing statement) keeps the shared prefix materialized. That handle
//!   could evaluate the parent later and must find it cached; fusing through
//!   it would make the later evaluation re-charge the prefix.
//!
//! Exclusivity is detected by `Arc` strong count: a narrow child holds
//! exactly one reference to its parent (inside its assemble hook), so a
//! count of 1 proves no other handle exists. Binding every intermediate of a
//! chain to a live handle therefore forces length-1 chains throughout, which
//! is how the tests and the `narrow_chain/unfused` bench row reach the
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
//! loop that rebuilds the same narrow chain every iteration allocates the
//! name once for the chain *shape* — per-iteration cost stays O(chain
//! length) closure allocations with zero leaked memory after the first
//! iteration.

use std::sync::{Arc, Mutex, OnceLock};

use super::{to_parts, Bag, Node, Partitioning, Parts};
use crate::error::Result;
use crate::pool::parallel_map_range;
use crate::trace::EngineEvent;
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
    pub fn as_slice(&self) -> &[T] {
        match self {
            Batch::Shared(s) => s,
            Batch::Owned(v) => v,
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

/// Drives one partition of an assembled chain: threads the base partition
/// through the composed steps, pushing the size of every *intermediate*
/// batch (source-first) so each operator's input and output counts can be
/// read off afterwards. A chain of one has no intermediates and pushes
/// nothing.
type DriveFn<T> = Box<dyn Fn(usize, &mut Vec<usize>) -> Vec<T> + Send + Sync>;

/// A maximal narrow run, assembled at evaluation time: the per-operator
/// metadata (source-first) and a per-partition driver over the materialized
/// base input.
pub(crate) struct Assembled<T> {
    /// Chain operators, source-first; the evaluating tail is last.
    pub metas: Vec<FusedOpMeta>,
    /// Record count of every partition of the materialized base input.
    pub base_counts: Vec<usize>,
    /// Per-partition driver.
    pub drive: DriveFn<T>,
}

/// The fusion recipe carried by every narrow node: assembles the maximal
/// chain ending at that node, plus the slot its composite name lands in when
/// the node executes as the tail of a chain of two or more.
pub(crate) struct FuseHook<T> {
    /// Assemble the maximal chain ending at this operator.
    pub assemble: Arc<dyn Fn() -> Result<Assembled<T>> + Send + Sync>,
    /// Composite name (`fused(map|filter)`), set by [`run_chain`];
    /// shared with the node so `op_name()` and the execution trace report
    /// provenance after evaluation.
    pub fused_name: Arc<OnceLock<&'static str>>,
}

/// Construct a narrow operator from its transducer `step`, the only
/// statement of its per-partition logic: evaluating the returned bag
/// assembles the maximal chain ending here (length 1 behind a barrier) and
/// runs it through [`run_chain`].
pub(crate) fn fusible<P: Data, T: Data>(
    parent: &Bag<P>,
    name: &'static str,
    record_bytes: f64,
    partitioning: Partitioning,
    charge: ChargeRule,
    step: Step<P, T>,
) -> Bag<T> {
    let engine = parent.engine().clone();
    let partitions = parent.num_partitions();
    let fused_name: Arc<OnceLock<&'static str>> = Arc::new(OnceLock::new());

    // The hook owns this node's only handle to its parent (see the module
    // docs on exclusivity).
    let assemble: Arc<dyn Fn() -> Result<Assembled<T>> + Send + Sync> = {
        let parent = parent.clone();
        Arc::new(move || {
            let meta = FusedOpMeta { name, bytes: record_bytes, charge };
            if let Some(hook) = parent.fuse_through() {
                // Exclusive narrow parent: extend its chain with this step.
                let Assembled { mut metas, base_counts, drive: upstream } = (hook.assemble)()?;
                metas.push(meta);
                let step = Arc::clone(&step);
                let drive: DriveFn<T> = Box::new(move |pi, mids| {
                    let input = upstream(pi, mids);
                    mids.push(input.len());
                    step(pi, Batch::Owned(input))
                });
                Ok(Assembled { metas, base_counts, drive })
            } else {
                // Barrier: materialize the parent (memoized, charged by its
                // own evaluation) and start a fresh chain reading its shared
                // partitions by reference.
                let parts = parent.eval()?;
                let base_counts = parts.iter().map(|p| p.len()).collect();
                let step = Arc::clone(&step);
                let drive: DriveFn<T> =
                    Box::new(move |pi, _| step(pi, Batch::Shared(parts[pi].as_slice())));
                Ok(Assembled { metas: vec![meta], base_counts, drive })
            }
        })
    };

    let compute = {
        let engine = engine.clone();
        let assemble = Arc::clone(&assemble);
        let fused_name = Arc::clone(&fused_name);
        move || run_chain(&engine, assemble()?, &fused_name)
    };

    Bag {
        node: Arc::new(Node {
            engine,
            name,
            record_bytes,
            partitions,
            partitioning,
            compute: Box::new(compute),
            cache: OnceLock::new(),
            fuse: Some(FuseHook { assemble, fused_name }),
        }),
    }
}

/// Execute an assembled chain: one pool dispatch over the base partitions,
/// then [`settle`] its charges.
fn run_chain<T: Data>(
    engine: &Engine,
    assembled: Assembled<T>,
    fused_name: &OnceLock<&'static str>,
) -> Result<Parts<T>> {
    let Assembled { metas, base_counts, drive } = assembled;
    let (ops, partitions) = (metas.len(), base_counts.len());
    let per_part: Vec<(Vec<T>, Vec<usize>)> = parallel_map_range(partitions, |pi| {
        let mut mids = Vec::with_capacity(ops - 1);
        let out = drive(pi, &mut mids);
        (out, mids)
    });
    // Boundary 0 is the base input and boundary `ops` the final output.
    let boundary = |pi: usize, j: usize| match j {
        0 => base_counts[pi],
        j if j == ops => per_part[pi].0.len(),
        j => per_part[pi].1[j - 1],
    };
    if let Some(composite) = settle(engine, &metas, false, partitions, boundary)? {
        fused_name.get_or_init(|| composite);
    }
    Ok(to_parts(per_part.into_iter().map(|(out, _)| out).collect()))
}

/// Settle a pass that ran `metas` (source-first) over `partitions`
/// partitions: one `charge_compute` per operator under its own name, where
/// operator `j` reads `boundary(partition, j)` records and writes
/// `boundary(partition, j + 1)`, and `head_overhead` is the head's
/// `task_overhead` (true only for a join's shuffle read, `ops_wide::Joined`).
/// Two or more operators are a fusion: it also emits `StageFused` (feeding
/// the fusion counters), logs `narrow_fusion` and returns its composite name.
pub(super) fn settle(
    engine: &Engine,
    metas: &[FusedOpMeta],
    head_overhead: bool,
    partitions: usize,
    boundary: impl Fn(usize, usize) -> usize,
) -> Result<Option<&'static str>> {
    let ops = metas.len();
    for (j, meta) in metas.iter().enumerate() {
        let counts: Vec<usize> = (0..partitions)
            .map(|pi| meta.charge.count(boundary(pi, j), boundary(pi, j + 1)))
            .collect();
        engine.push_current_op(meta.name);
        let charged = engine.charge_compute(&counts, meta.bytes, head_overhead && j == 0);
        engine.pop_current_op();
        charged?;
    }
    if ops == 1 {
        return Ok(None);
    }
    let composite = intern_fused_name(metas);
    let elided = (ops - 1) as u64;
    engine.observe(EngineEvent::StageFused {
        ops: composite,
        ops_fused: ops as u64,
        intermediates_elided: elided,
        partitions: partitions as u64,
        at: engine.sim_time(),
    });
    let records: u64 = (0..partitions).map(|pi| boundary(pi, ops) as u64).sum();
    engine.record_decision(
        "narrow_fusion",
        composite.to_string(),
        records,
        0,
        format!("{ops} narrow ops in one pass over {partitions} partitions; {elided} intermediate materializations elided"),
    );
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
        FusedOpMeta { name, bytes: 8.0, charge: ChargeRule::Output }
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
    }
}
