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

use matryoshka_engine::{Bag, Data, Key, Result, Rule};

use crate::context::LiftingContext;
use crate::inner_bag::InnerBag;
use crate::scalar::InnerScalar;

/// Data that can flow around a lifted loop: InnerScalars, InnerBags, and
/// tuples or `Vec`s of them (the "loop variables" of Sec. 6.1, turned into
/// lifted state).
pub trait LiftedData<T: Key>: Clone {
    /// The lifting context of this state.
    fn ctx(&self) -> &LiftingContext<T>;
    /// The same shape under `ctx`, each tagged representation replaced by
    /// `op` applied to it and to the matching ones of `others` (states of
    /// the same shape). The one structural step the lifted loop needs.
    fn rebuild(&self, others: &[&Self], ctx: &LiftingContext<T>, op: &impl ReprOp<T>) -> Self;
}

/// A step of the lifted loop (see [`LiftedData::rebuild`]).
pub trait ReprOp<T: Key> {
    /// The new representation of `first` (which lives under `ctx`) and the
    /// matching representations `rest` of other states.
    fn apply<X: Data>(
        &self,
        ctx: &LiftingContext<T>,
        first: &Bag<(T, X)>,
        rest: &[&Bag<(T, X)>],
    ) -> Bag<(T, X)>;
}

impl<T: Key, S: Data> LiftedData<T> for InnerScalar<T, S> {
    fn ctx(&self) -> &LiftingContext<T> {
        InnerScalar::ctx(self)
    }

    fn rebuild(&self, others: &[&Self], ctx: &LiftingContext<T>, op: &impl ReprOp<T>) -> Self {
        let rest: Vec<_> = others.iter().map(|o| o.repr()).collect();
        InnerScalar::from_repr(op.apply(self.ctx(), self.repr(), &rest), ctx.clone())
    }
}

impl<T: Key, E: Data> LiftedData<T> for InnerBag<T, E> {
    fn ctx(&self) -> &LiftingContext<T> {
        InnerBag::ctx(self)
    }

    fn rebuild(&self, others: &[&Self], ctx: &LiftingContext<T>, op: &impl ReprOp<T>) -> Self {
        let rest: Vec<_> = others.iter().map(|o| o.repr()).collect();
        InnerBag::from_repr(op.apply(self.ctx(), self.repr(), &rest), ctx.clone())
    }
}

impl<T: Key, A: LiftedData<T>, B: LiftedData<T>> LiftedData<T> for (A, B) {
    fn ctx(&self) -> &LiftingContext<T> {
        self.0.ctx()
    }

    fn rebuild(&self, others: &[&Self], ctx: &LiftingContext<T>, op: &impl ReprOp<T>) -> Self {
        let (a, b): (Vec<_>, Vec<_>) = others.iter().map(|o| (&o.0, &o.1)).unzip();
        (self.0.rebuild(&a, ctx, op), self.1.rebuild(&b, ctx, op))
    }
}

/// Any number of loop variables of one type (a dynamically typed front end
/// has one lifted value type and learns the variable count at run time).
impl<T: Key, A: LiftedData<T>> LiftedData<T> for Vec<A> {
    fn ctx(&self) -> &LiftingContext<T> {
        self.first().expect("a loop has at least one variable").ctx()
    }

    fn rebuild(&self, others: &[&Self], ctx: &LiftingContext<T>, op: &impl ReprOp<T>) -> Self {
        let column = |i: usize| others.iter().map(|o| &o[i]).collect::<Vec<_>>();
        self.iter().enumerate().map(|(i, a)| a.rebuild(&column(i), ctx, op)).collect()
    }
}

/// The structural steps of Listing 4, each stated once here and applied to
/// every tagged representation of a loop state by [`LiftedData::rebuild`].
enum Step<'a, T: Key> {
    /// P1: keep the tags whose condition equals the flag (the tag join +
    /// filter of Listing 4 lines 5-7).
    KeepWhere(&'a InnerScalar<T, bool>, bool),
    /// P2: the tag-disjoint union of the finished states (Listing 4 line 8),
    /// a left-deep chain of binary unions.
    Union,
    /// Checkpoint to simulated replicated storage ([`Bag::checkpoint`]):
    /// lineage is truncated, records and partitioning are unchanged.
    Checkpoint,
}

impl<T: Key> ReprOp<T> for Step<'_, T> {
    fn apply<X: Data>(
        &self,
        ctx: &LiftingContext<T>,
        first: &Bag<(T, X)>,
        rest: &[&Bag<(T, X)>],
    ) -> Bag<(T, X)> {
        match *self {
            Step::KeepWhere(cond, keep) => {
                let joined = ctx.tag_join(first, cond.repr());
                joined.filter(move |_, _, c| *c == keep).with_record_bytes(first.record_bytes())
            }
            Step::Union => rest.iter().fold(first.clone(), |acc, b| acc.union(b)),
            Step::Checkpoint => first.checkpoint(),
        }
    }
}

/// A lifted do-while loop (paper Listing 4).
///
/// `body` maps the loop state to `(next_state, continue_condition)`; the
/// per-tag boolean condition is `true` while that tag's original loop keeps
/// running. Each lifted iteration:
///
/// 1. runs the (already lifted) body once for all live tags,
/// 2. splits the output on the condition (P1): keep-by-condition, once with
///    `false` for the finished tags and once with `true` for the rest,
/// 3. saves the finished tags' state (P2); the saved states are unioned once,
///    under the full context, when the loop exits,
/// 4. exits when no tag wants to continue (P3) — checked with one engine
///    job per iteration, the `bodyIn.repr.notEmpty` of Listing 4 line 9.
///
/// Keep-by-condition, union and checkpoint are each one arm of a private
/// [`ReprOp`], applied to every tagged representation of the state by
/// [`LiftedData::rebuild`].
///
/// `max_iterations`, when given, force-finishes all remaining tags after
/// that many iterations (a safety net the paper's programs express as part
/// of their exit conditions).
///
/// When [`MatryoshkaConfig::checkpoint_interval`](crate::MatryoshkaConfig)
/// is non-zero, the surviving loop state is checkpointed every that many
/// iterations ([`Bag::checkpoint`]), bounding how much lineage a simulated
/// machine loss has to replay at the price of a modeled checkpoint write
/// (see `docs/FAULTS.md`).
///
/// Loop-invariant subplans hoisted above a lowered loop by the IR's
/// plan-rewrite pass (`matryoshka_ir::analyze::plan`, see
/// `docs/ANALYSIS.md`) persist naturally across iterations here: the
/// hoisted binding is an engine [`Bag`] whose partitions memoize on first
/// evaluation (behind a `cache` node, a fusion barrier), so every iteration
/// of the body closure reuses the same materialized `Arc` partitions
/// instead of replaying the subplan's lineage.
pub fn lifted_while<T: Key, S: LiftedData<T>>(
    init: &S,
    body: impl Fn(&S) -> Result<(S, InnerScalar<T, bool>)>,
    max_iterations: Option<usize>,
) -> Result<S> {
    let full_ctx = init.ctx().clone();
    let mut body_in = init.clone();
    let mut finished = Vec::new();
    let mut iterations = 0usize;
    loop {
        let (body_out, cond) = body(&body_in)?;
        iterations += 1;
        let cont_tags = cond.repr().filter(|(_, c)| *c).map(|(t, _)| t.clone());
        // P3 exit check, one job per lifted iteration (not per inner loop!).
        let n_cont = cont_tags.count()?;
        let (iteration, live) = (iterations as u64, body_in.ctx().size());
        // Tags still continuing at `max_iterations` are force-finished.
        let capped = max_iterations.filter(|&max| n_cont > 0 && iterations >= max);
        let choice = if n_cont == 0 { "exit" } else { "continue" };
        body_in.ctx().engine().record_decision(match capped {
            Some(max) => Rule::LiftedWhileCapped { iteration, tags: n_cont, live, max: max as u64 },
            None => Rule::LiftedWhile { iteration, tags: n_cont, live, choice },
        });
        let done_tags = cond.repr().filter(|(_, c)| !*c).map(|(t, _)| t.clone());
        let done_ctx = body_in.ctx().narrowed(done_tags, live.saturating_sub(n_cont));
        // P1 + P2: retire finished tags.
        finished.push(body_out.rebuild(&[], &done_ctx, &Step::KeepWhere(&cond, false)));
        if n_cont == 0 {
            break;
        }
        let cont_ctx = body_in.ctx().narrowed(cont_tags, n_cont);
        body_in = body_out.rebuild(&[], &cont_ctx, &Step::KeepWhere(&cond, true));
        if capped.is_some() {
            finished.push(body_in);
            break;
        }
        let interval = full_ctx.config().checkpoint_interval;
        if interval > 0 && iterations.is_multiple_of(interval) {
            full_ctx.engine().record_decision(Rule::Checkpoint { iteration, tags: n_cont });
            body_in = body_in.rebuild(&[], body_in.ctx(), &Step::Checkpoint);
        }
    }
    let (first, rest) = finished.split_first().expect("do-while body runs at least once");
    Ok(first.rebuild(&rest.iter().collect::<Vec<_>>(), &full_ctx, &Step::Union))
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
        let log = e.decisions().into_iter().filter(|d| d.site == "lifted_while");
        let log: Vec<Rule> = log.map(|d| d.rule).collect();
        assert_eq!(log.len(), 5, "one entry per iteration, the last one replaced");
        let last = Rule::LiftedWhileCapped { iteration: 5, tags: 2, live: 2, max: 5 };
        assert_eq!(log[4], last, "the capped iteration exits");
        let mut rendered = Vec::new();
        let capped = e.decisions().into_iter().rfind(|d| d.site == "lifted_while").unwrap();
        capped.fields(|_, value| rendered.push(format!("{value:?}")));
        let detail = r#"Str("iteration 5: 2 of 2 tags hit max_iterations 5")"#;
        assert_eq!(rendered, [r#"Str("exit")"#, "U64(2)", "U64(0)", detail]);
        let fourth = Rule::LiftedWhile { iteration: 4, tags: 2, live: 2, choice: "continue" };
        assert_eq!(log[3], fourth);
    }

    #[test]
    fn loop_over_tuple_state() {
        type Int = InnerScalar<u64, i64>;
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let counter =
            InnerScalar::from_repr(e.parallelize(vec![(0u64, 2i64), (1, 1)], 1), c.clone());
        let acc = InnerScalar::from_repr(e.parallelize(vec![(0u64, 0i64), (1, 0)], 1), c);
        let step = |cnt: &Int, acc: &Int| -> Result<((Int, Int), InnerScalar<u64, bool>)> {
            let next_cnt = cnt.map(|x| x - 1);
            let cond = next_cnt.map(|x| *x > 0);
            Ok(((next_cnt, acc.map(|x| x + 10)), cond))
        };
        let check = |cnt: &Int, acc: &Int, want_cnt: [(u64, i64); 2], want_acc: [(u64, i64); 2]| {
            assert_eq!((cnt.ctx().size(), acc.ctx().size()), (2, 2), "full context on exit");
            assert_eq!(sorted(cnt.collect().unwrap()), want_cnt);
            assert_eq!(sorted(acc.collect().unwrap()), want_acc);
        };
        // Tag 0 iterates twice (acc 20), tag 1 once (acc 10).
        let (done_cnt, done_acc) = ([(0, 0), (1, 0)], [(0, 20), (1, 10)]);
        let init = (counter.clone(), acc.clone());
        let out = lifted_while(&init, |(c, a): &(Int, Int)| step(c, a), None).unwrap();
        check(&out.0, &out.1, done_cnt, done_acc);
        // The same countdown over a `Vec` state.
        let out = lifted_while(
            &vec![counter, acc],
            |s: &Vec<Int>| step(&s[0], &s[1]).map(|((c, a), cond)| (vec![c, a], cond)),
            None,
        )
        .unwrap();
        check(&out[0], &out[1], done_cnt, done_acc);
        // Capped after one iteration: tag 0 is force-finished mid-count.
        let out = lifted_while(&init, |(c, a): &(Int, Int)| step(c, a), Some(1)).unwrap();
        check(&out.0, &out.1, [(0, 1), (1, 0)], [(0, 10), (1, 10)]);
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
