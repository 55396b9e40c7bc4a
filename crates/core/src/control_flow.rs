//! Lifted control flow (paper Sec. 6): `while` loops inside lifted UDFs.
//! (A lifted `if` over pure expressions needs no routing: `matryoshka-ir`
//! evaluates both branches for every tag and selects per tag.)
//!
//! A lifted loop runs the work of many original loops at once: its i-th
//! iteration executes the i-th iteration of every original loop that is
//! still running. Because the original loops may exit at different
//! iterations, every iteration must (P1) discard the tags whose loop has
//! finished, (P2) save the discarded parts as results, and (P3) exit when
//! nothing is left — exactly Listing 4 of the paper.

use matryoshka_engine::{Data, Key, Result};

use crate::context::LiftingContext;
use crate::inner_bag::InnerBag;
use crate::scalar::InnerScalar;

/// Data that can flow around a lifted loop: InnerScalars, InnerBags, and
/// tuples of them (the "loop variables" of Sec. 6.1, turned into lifted
/// state).
pub trait LiftedData<T: Key>: Clone {
    /// The lifting context of this state.
    fn ctx(&self) -> &LiftingContext<T>;
    /// Keep only the tags whose condition equals `keep` (the tag join +
    /// filter of Listing 4 lines 5-7), adopting `new_ctx` (the narrowed
    /// context over the surviving tags).
    fn filter_by_cond(
        &self,
        cond: &InnerScalar<T, bool>,
        keep: bool,
        new_ctx: &LiftingContext<T>,
    ) -> Self;
    /// Tag-disjoint union (Listing 4 line 8: accumulating results).
    fn union_with(&self, other: &Self) -> Self;
    /// The same data under a different context (used to restore the full
    /// context on loop exit).
    fn with_ctx(&self, ctx: &LiftingContext<T>) -> Self;
    /// Checkpoint the underlying flat representation to simulated replicated
    /// storage ([`Bag::checkpoint`](matryoshka_engine::Bag::checkpoint)),
    /// truncating lineage for the machine-loss fault model. Records and
    /// partitioning are unchanged.
    fn checkpoint(&self) -> Self;
}

impl<T: Key, S: Data> LiftedData<T> for InnerScalar<T, S> {
    fn ctx(&self) -> &LiftingContext<T> {
        InnerScalar::ctx(self)
    }

    fn filter_by_cond(
        &self,
        cond: &InnerScalar<T, bool>,
        keep: bool,
        new_ctx: &LiftingContext<T>,
    ) -> Self {
        let joined = self.ctx().tag_join(self.repr(), cond.repr());
        let repr =
            joined.filter(move |_, _, c| *c == keep).with_record_bytes(self.repr().record_bytes());
        InnerScalar::from_repr(repr, new_ctx.clone())
    }

    fn union_with(&self, other: &Self) -> Self {
        InnerScalar::from_repr(self.repr().union(other.repr()), self.ctx().clone())
    }

    fn with_ctx(&self, ctx: &LiftingContext<T>) -> Self {
        InnerScalar::from_repr(self.repr().clone(), ctx.clone())
    }

    fn checkpoint(&self) -> Self {
        InnerScalar::from_repr(self.repr().checkpoint(), self.ctx().clone())
    }
}

impl<T: Key, E: Data> LiftedData<T> for InnerBag<T, E> {
    fn ctx(&self) -> &LiftingContext<T> {
        InnerBag::ctx(self)
    }

    fn filter_by_cond(
        &self,
        cond: &InnerScalar<T, bool>,
        keep: bool,
        new_ctx: &LiftingContext<T>,
    ) -> Self {
        let joined = self.ctx().tag_join(self.repr(), cond.repr());
        let repr =
            joined.filter(move |_, _, c| *c == keep).with_record_bytes(self.repr().record_bytes());
        InnerBag::from_repr(repr, new_ctx.clone())
    }

    fn union_with(&self, other: &Self) -> Self {
        InnerBag::from_repr(self.repr().union(other.repr()), self.ctx().clone())
    }

    fn with_ctx(&self, ctx: &LiftingContext<T>) -> Self {
        self.with_ctx(ctx.clone())
    }

    fn checkpoint(&self) -> Self {
        InnerBag::from_repr(self.repr().checkpoint(), InnerBag::ctx(self).clone())
    }
}

impl<T: Key, A: LiftedData<T>, B: LiftedData<T>> LiftedData<T> for (A, B) {
    fn ctx(&self) -> &LiftingContext<T> {
        self.0.ctx()
    }
    fn filter_by_cond(
        &self,
        cond: &InnerScalar<T, bool>,
        keep: bool,
        new_ctx: &LiftingContext<T>,
    ) -> Self {
        (self.0.filter_by_cond(cond, keep, new_ctx), self.1.filter_by_cond(cond, keep, new_ctx))
    }
    fn union_with(&self, other: &Self) -> Self {
        (self.0.union_with(&other.0), self.1.union_with(&other.1))
    }
    fn with_ctx(&self, ctx: &LiftingContext<T>) -> Self {
        (self.0.with_ctx(ctx), self.1.with_ctx(ctx))
    }
    fn checkpoint(&self) -> Self {
        (self.0.checkpoint(), self.1.checkpoint())
    }
}

impl<T: Key, A: LiftedData<T>, B: LiftedData<T>, C: LiftedData<T>> LiftedData<T> for (A, B, C) {
    fn ctx(&self) -> &LiftingContext<T> {
        self.0.ctx()
    }
    fn filter_by_cond(
        &self,
        cond: &InnerScalar<T, bool>,
        keep: bool,
        new_ctx: &LiftingContext<T>,
    ) -> Self {
        (
            self.0.filter_by_cond(cond, keep, new_ctx),
            self.1.filter_by_cond(cond, keep, new_ctx),
            self.2.filter_by_cond(cond, keep, new_ctx),
        )
    }
    fn union_with(&self, other: &Self) -> Self {
        (self.0.union_with(&other.0), self.1.union_with(&other.1), self.2.union_with(&other.2))
    }
    fn with_ctx(&self, ctx: &LiftingContext<T>) -> Self {
        (self.0.with_ctx(ctx), self.1.with_ctx(ctx), self.2.with_ctx(ctx))
    }
    fn checkpoint(&self) -> Self {
        (self.0.checkpoint(), self.1.checkpoint(), self.2.checkpoint())
    }
}

/// Any number of loop variables of one type (a dynamically typed front end
/// has one lifted value type and learns the variable count at run time).
impl<T: Key, A: LiftedData<T>> LiftedData<T> for Vec<A> {
    fn ctx(&self) -> &LiftingContext<T> {
        self.first().expect("a loop has at least one variable").ctx()
    }
    fn filter_by_cond(
        &self,
        cond: &InnerScalar<T, bool>,
        keep: bool,
        new_ctx: &LiftingContext<T>,
    ) -> Self {
        self.iter().map(|a| a.filter_by_cond(cond, keep, new_ctx)).collect()
    }
    fn union_with(&self, other: &Self) -> Self {
        self.iter().zip(other).map(|(a, b)| a.union_with(b)).collect()
    }
    fn with_ctx(&self, ctx: &LiftingContext<T>) -> Self {
        self.iter().map(|a| a.with_ctx(ctx)).collect()
    }
    fn checkpoint(&self) -> Self {
        self.iter().map(A::checkpoint).collect()
    }
}

/// A lifted do-while loop (paper Listing 4).
///
/// `body` maps the loop state to `(next_state, continue_condition)`; the
/// per-tag boolean condition is `true` while that tag's original loop keeps
/// running. Each lifted iteration:
///
/// 1. runs the (already lifted) body once for all live tags,
/// 2. splits the output on the condition (P1),
/// 3. accumulates the finished tags' state into the result (P2),
/// 4. exits when no tag wants to continue (P3) — checked with one engine
///    job per iteration, the `bodyIn.repr.notEmpty` of Listing 4 line 9.
///
/// `max_iterations`, when given, force-finishes all remaining tags after
/// that many iterations (a safety net the paper's programs express as part
/// of their exit conditions).
///
/// When [`MatryoshkaConfig::checkpoint_interval`](crate::MatryoshkaConfig)
/// is non-zero, the surviving loop state is checkpointed every that many
/// iterations ([`Bag::checkpoint`](matryoshka_engine::Bag::checkpoint)),
/// bounding how much lineage a simulated machine loss has to replay at the
/// price of a modeled checkpoint write (see `docs/FAULTS.md`).
///
/// Loop-invariant subplans hoisted above a lowered loop by the IR's
/// plan-rewrite pass (`matryoshka_ir::analyze::plan`, see
/// `docs/ANALYSIS.md`) persist naturally across iterations here: the
/// hoisted binding is an engine [`Bag`](matryoshka_engine::Bag) whose
/// partitions memoize on first evaluation (behind a `cache` node, a fusion
/// barrier), so every iteration of the body closure reuses the same
/// materialized `Arc` partitions instead of replaying the subplan's
/// lineage.
pub fn lifted_while<T: Key, S: LiftedData<T>>(
    init: &S,
    body: impl Fn(&S) -> Result<(S, InnerScalar<T, bool>)>,
    max_iterations: Option<usize>,
) -> Result<S> {
    let full_ctx = init.ctx().clone();
    let mut body_in = init.clone();
    let mut result: Option<S> = None;
    let mut iterations = 0usize;
    loop {
        let (body_out, cond) = body(&body_in)?;
        iterations += 1;
        let cont_tags = cond.repr().filter(|(_, c)| *c).map(|(t, _)| t.clone());
        // P3 exit check, one job per lifted iteration (not per inner loop!).
        let n_cont = cont_tags.count()?;
        let prev = body_in.ctx().size();
        body_in.ctx().engine().record_decision(
            "lifted_while",
            if n_cont == 0 { "exit" } else { "continue" },
            n_cont,
            0,
            format!("iteration {iterations}: {n_cont} of {prev} tags continue"),
        );
        let done_tags = cond.repr().filter(|(_, c)| !*c).map(|(t, _)| t.clone());
        let done_ctx = body_in.ctx().narrowed(done_tags, prev.saturating_sub(n_cont));
        // P1 + P2: retire finished tags into the result.
        let finished = body_out.filter_by_cond(&cond, false, &done_ctx);
        result = Some(match result {
            None => finished,
            Some(r) => r.union_with(&finished),
        });
        if n_cont == 0 {
            break;
        }
        let cont_ctx = body_in.ctx().narrowed(cont_tags, n_cont);
        if let Some(max) = max_iterations {
            if iterations >= max {
                let rest = body_out.filter_by_cond(&cond, true, &cont_ctx);
                result = Some(result.expect("set above").union_with(&rest));
                break;
            }
        }
        body_in = body_out.filter_by_cond(&cond, true, &cont_ctx);
        let interval = full_ctx.config().checkpoint_interval;
        if interval > 0 && iterations.is_multiple_of(interval) {
            full_ctx.engine().record_decision(
                "checkpoint",
                "lifted_while",
                n_cont,
                0,
                format!("iteration {iterations}: checkpoint loop state, {n_cont} live tags"),
            );
            body_in = body_in.checkpoint();
        }
    }
    Ok(result.expect("do-while body runs at least once").with_ctx(&full_ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::MatryoshkaConfig;
    use matryoshka_engine::Engine;

    fn sorted<X: Ord>(mut v: Vec<X>) -> Vec<X> {
        v.sort();
        v
    }

    fn ctx(e: &Engine, tags: Vec<u64>) -> LiftingContext<u64> {
        let n = tags.len() as u64;
        LiftingContext::new(e.clone(), e.parallelize(tags, 2), n, MatryoshkaConfig::optimized())
    }

    /// Each tag t counts down from its initial value; loops exit at
    /// different iterations (tag 0 immediately, tag 3 after 3 decrements).
    #[test]
    fn loops_exit_at_different_iterations() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1, 2, 3]);
        let init =
            InnerScalar::from_repr(e.parallelize(vec![(0u64, 0i64), (1, 1), (2, 2), (3, 3)], 2), c);
        let out = lifted_while(
            &init,
            |s: &InnerScalar<u64, i64>| {
                let next = s.map(|x| x - 1);
                let cond = next.map(|x| *x > 0);
                Ok((next, cond))
            },
            None,
        )
        .unwrap();
        // Every counter ends exactly at 0 or below after its own number of
        // iterations: tag 0 ran once (-1), others count down to 0.
        assert_eq!(sorted(out.collect().unwrap()), vec![(0, -1), (1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn loop_jobs_are_bounded_by_iterations_not_tags() {
        let e = Engine::local();
        // Many tags, all finishing after 3 iterations.
        let tags: Vec<u64> = (0..500).collect();
        let c = ctx(&e, tags.clone());
        let init =
            InnerScalar::from_repr(e.parallelize(tags.iter().map(|&t| (t, 3i64)).collect(), 4), c);
        let s0 = e.stats();
        let _ = lifted_while(
            &init,
            |s: &InnerScalar<u64, i64>| {
                let next = s.map(|x| x - 1);
                let cond = next.map(|x| *x > 0);
                Ok((next, cond))
            },
            None,
        )
        .unwrap();
        let d = e.stats().since(&s0);
        // One exit-check job per lifted iteration (3 iterations), maybe a
        // couple more for broadcasts — but nowhere near 500.
        assert!(d.jobs < 20, "jobs must not scale with tag count, got {}", d.jobs);
    }

    #[test]
    fn max_iterations_force_finishes() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let init = InnerScalar::from_repr(e.parallelize(vec![(0u64, 0i64), (1, 0)], 1), c);
        let out = lifted_while(
            &init,
            |s: &InnerScalar<u64, i64>| {
                let next = s.map(|x| x + 1);
                let cond = next.map(|_| true); // would never exit
                Ok((next, cond))
            },
            Some(5),
        )
        .unwrap();
        assert_eq!(sorted(out.collect().unwrap()), vec![(0, 5), (1, 5)]);
    }

    #[test]
    fn loop_over_tuple_state() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let counter =
            InnerScalar::from_repr(e.parallelize(vec![(0u64, 2i64), (1, 1)], 1), c.clone());
        let acc = InnerScalar::from_repr(e.parallelize(vec![(0u64, 0i64), (1, 0)], 1), c);
        let out = lifted_while(
            &(counter, acc),
            |(cnt, acc): &(InnerScalar<u64, i64>, InnerScalar<u64, i64>)| {
                let next_cnt = cnt.map(|x| x - 1);
                let next_acc = acc.map(|x| x + 10);
                let cond = next_cnt.map(|x| *x > 0);
                Ok(((next_cnt, next_acc), cond))
            },
            None,
        )
        .unwrap();
        // Tag 0 iterates twice (acc 20), tag 1 once (acc 10).
        assert_eq!(sorted(out.1.collect().unwrap()), vec![(0, 20), (1, 10)]);
    }

    #[test]
    fn periodic_checkpointing_preserves_results_and_writes_bytes() {
        let run = |interval: usize| {
            let e = Engine::local();
            let mut cfg = MatryoshkaConfig::optimized();
            cfg.checkpoint_interval = interval;
            let tags: Vec<u64> = (0..4).collect();
            let n = tags.len() as u64;
            let c = LiftingContext::new(e.clone(), e.parallelize(tags, 2), n, cfg);
            let init = InnerScalar::from_repr(
                e.parallelize(vec![(0u64, 6i64), (1, 5), (2, 4), (3, 1)], 2),
                c,
            );
            let out = lifted_while(
                &init,
                |s: &InnerScalar<u64, i64>| {
                    let next = s.map(|x| x - 1);
                    let cond = next.map(|x| *x > 0);
                    Ok((next, cond))
                },
                None,
            )
            .unwrap();
            (sorted(out.collect().unwrap()), e.stats(), e.decisions())
        };
        let (plain, plain_stats, _) = run(0);
        let (ckpt, ckpt_stats, decisions) = run(2);
        assert_eq!(plain, ckpt, "checkpointing must not change loop results");
        assert_eq!(plain_stats.checkpoint_bytes, 0);
        assert!(ckpt_stats.checkpoint_bytes > 0, "interval=2 must write checkpoints");
        assert!(
            decisions.iter().any(|d| d.site == "checkpoint"),
            "checkpoints must be visible in the decision log"
        );
    }
}
