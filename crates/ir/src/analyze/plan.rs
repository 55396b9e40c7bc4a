//! Global plan rewrites: loop-invariant subplan hoisting, common-subplan
//! elimination with auto-caching, and dead-operator elimination.
//!
//! The pass runs after type/effect checking, as the first step of lowering
//! ([`crate::Lowering::run`] calls [`rewrite_plan`] on every program), on the
//! post-parsing-phase AST (so `map` UDFs that launch bag operations have
//! already been rewritten into [`Expr::MapWithLiftedUdf`]). It has no switch;
//! on a program where no rewrite applies it returns the input unchanged.
//!
//! Every rewrite is gated by a safety proof derived from the same facts the
//! checker establishes:
//!
//! * **Purity.** The IR is a pure expression language; the only "effects"
//!   are bag-operator launches. A subplan is movable when every UDF inside
//!   it is a pure scalar function (no bag operations in any lambda body, no
//!   bag-launching lifted UDF), so evaluating it earlier, later, once, or
//!   not at all cannot change any result. One walk of the subtree,
//!   `impurity_reason`, tests it together with the barrier below.
//! * **Capture discipline.** A subplan is loop-invariant only when its free
//!   variables are disjoint from the loop's carried bindings (and from any
//!   binder introduced between the loop header and the subplan), mirroring
//!   the capture analysis in [`super::captures`].
//! * **Barriers.** An explicit [`Expr::Cache`] node is opaque: nothing is
//!   hoisted or merged into or out of it. This is the plan-level analogue of
//!   the engine's fusion barrier (`Bag::absorbable` refuses to fuse through
//!   `cache`/`checkpoint` parents and multi-consumer bags), expressed once
//!   here as `is_rewrite_barrier`.
//! * **Cost monotonicity.** Hoisted and merged subplans are wrapped in
//!   [`Expr::Cache`], and bag-valued plans are lazy in the engine, so a
//!   speculative hoist that is never consumed never launches a job. Eager
//!   positions (driver-mode scalar reductions) are only hoisted from slots
//!   that are provably evaluated at least once (a `while` condition; any
//!   slot of a lifted do-while), so a rewritten plan never runs more stages
//!   than the baseline. Which slots may be skipped is one rule, `may_skip`;
//!   making `loop` a while-loop at every level flips its `Step` arm.
//!
//! Each applied rewrite is reported as a [`RewriteInfo`] (for the decision
//! log and `matryoshka-check --explain`) and as a `MAT093`–`MAT096` warning
//! diagnostic (for the golden diagnostics corpus), both built at one site,
//! `Pass::report`, from one justification string.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use matryoshka_core::PlanRewriteConfig;

use crate::ast::{Expr, Slot, Span};
use crate::pretty::snippet;

use super::diag::{codes, Diagnostic, Diagnostics};

/// One applied (or refused) rewrite, for the decision log, `--explain`, and
/// tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteInfo {
    /// Stable diagnostic code (`MAT093`–`MAT096`).
    pub code: &'static str,
    /// Short human label, e.g. `hoist __h0`.
    pub title: String,
    /// One-line re-rendered snippet of the rewritten subplan.
    pub site: String,
    /// Why the rewrite is safe (or why it was blocked).
    pub justification: String,
}

impl fmt::Display for RewriteInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: `{}` -- {}", self.code, self.title, self.site, self.justification)
    }
}

/// The result of [`rewrite_plan`].
#[derive(Debug)]
pub struct PlanRewrite {
    /// The (possibly) rewritten program.
    pub expr: Expr,
    /// `MAT093`–`MAT096` warnings describing what happened and why.
    pub diagnostics: Diagnostics,
    /// One entry per *applied* rewrite, in application order.
    pub rewrites: Vec<RewriteInfo>,
}

/// Shared barrier predicate: an explicit `cache` node is opaque to hoisting
/// and CSE, exactly as the engine's `cache`/`checkpoint` parents refuse
/// operator fusion. Both the hoist and the CSE walkers call this single
/// predicate rather than keeping private copies.
fn is_rewrite_barrier(e: &Expr) -> bool {
    matches!(e.unspanned(), Expr::Cache(_))
}

/// Apply the plan rewrites to `program`. Idempotent: a rewritten program
/// rewrites to itself. The second parameter is kept for the benchmark's
/// pinned call and ignored.
///
/// Pass order: hoisting first (it exposes merged `let`s for CSE to count),
/// then CSE + auto-caching, then dead-operator elimination (which cleans up
/// anything the earlier passes orphaned).
pub fn rewrite_plan(program: &Expr, _cfg: &PlanRewriteConfig) -> PlanRewrite {
    let mut pass =
        Pass { diags: Diagnostics::new(), rewrites: Vec::new(), next_hoist: 0, next_cse: 0 };
    // Assigned, not shadowed: each pass's input tree is freed as soon as its
    // output exists, which the allocator rewards (shadowing costs ~15 %).
    let mut e = pass.hoist(program, false);
    e = pass.cse(&e);
    e = pass.auto_cache(&e);
    e = pass.dce(&e);
    PlanRewrite { expr: e, diagnostics: pass.diags, rewrites: pass.rewrites }
}

struct Pass {
    diags: Diagnostics,
    rewrites: Vec<RewriteInfo>,
    next_hoist: usize,
    next_cse: usize,
}

impl Pass {
    /// Report one rewrite of `subplan`: a `code` warning, and for an applied
    /// rewrite (`applied` is its title and justification) the warning's note
    /// and a [`RewriteInfo`] with the same text.
    fn report(
        &mut self,
        code: &'static str,
        span: Option<Span>,
        message: String,
        subplan: &Expr,
        applied: Option<(String, String)>,
    ) {
        let site = snippet(subplan);
        let mut diag = Diagnostic::warning(code, span, message);
        if let Some((title, justification)) = applied {
            diag = diag.with_note(justification.clone());
            self.rewrites.push(RewriteInfo { code, title, site: site.clone(), justification });
        }
        self.diags.push(diag.with_snippet(site));
    }
}

/// Per-loop hoisting state: the loop's carried bindings, the subtrees
/// extracted so far, and a canonical-form map so structurally identical
/// candidates share one hoisted binding.
struct HoistSite {
    loop_vars: Vec<String>,
    hoisted: Vec<(String, Expr)>,
    keymap: BTreeMap<String, String>,
}

/// A candidate root: an operator whose subtree is worth materializing.
/// (`source` alone is excluded — it is already materialized input.)
fn is_plan_root(e: &Expr) -> bool {
    let e = e.unspanned();
    e.is_bag_op() && !matches!(e, Expr::Source(_))
}

/// Scalar-valued candidate roots are evaluated *eagerly* by the driver, so
/// moving one is only free when its target position is provably reached.
fn is_scalar_rooted(e: &Expr) -> bool {
    matches!(e.unspanned(), Expr::Count(..) | Expr::Fold(..))
}

/// Bag-valued roots stay lazy in the engine: a `let`-bound bag only builds
/// lineage until an action forces it.
fn is_bag_valued_root(e: &Expr) -> bool {
    matches!(
        e.unspanned(),
        Expr::Map(..)
            | Expr::Filter(..)
            | Expr::FlatMapTuple(..)
            | Expr::ReduceByKey(..)
            | Expr::Join(..)
            | Expr::Union(..)
            | Expr::Distinct(..)
            | Expr::MapWithLiftedUdf { .. }
    )
}

/// The purity/barrier gate shared by hoisting and CSE, in one walk of the
/// subtree. `Some(reason)` blocks; a lifted UDF is named first, then a leaf
/// UDF whose body launches a bag operation, then an explicit `cache`.
fn impurity_reason(e: &Expr) -> Option<&'static str> {
    let (mut lifted_udf, mut impure_udf, mut barrier) = (false, false, false);
    e.visit(&mut |x| match x {
        Expr::MapWithLiftedUdf { .. } => lifted_udf = true,
        Expr::Map(_, l) | Expr::Filter(_, l) | Expr::FlatMapTuple(_, l) => {
            impure_udf = impure_udf || l.body.contains_bag_ops();
        }
        Expr::ReduceByKey(_, l2) | Expr::Fold(_, _, l2) => {
            impure_udf = impure_udf || l2.body.contains_bag_ops();
        }
        _ => barrier = barrier || is_rewrite_barrier(x),
    });
    if lifted_udf {
        Some("contains a bag-launching (lifted) UDF, which the purity analysis does not certify")
    } else if impure_udf {
        Some("a UDF in the subplan is not a pure scalar function")
    } else if barrier {
        Some("contains an explicit `cache` barrier")
    } else {
        None
    }
}

/// The one skip rule: may the parent finish without evaluating a child in
/// `slot`? An `if` arm may go untaken and a UDF may see no record; a driver
/// `while` step runs zero times when the loop exits at once, while a lifted
/// loop is a do-while whose step always runs.
fn may_skip(slot: Slot, lifted: bool) -> bool {
    match slot {
        Slot::Operand => false,
        Slot::Step => !lifted,
        Slot::Branch | Slot::Udf => true,
    }
}

/// Node count, used to prefer merging the largest shared subplan first.
fn size(e: &Expr) -> usize {
    let mut n = 0;
    e.visit(&mut |_| n += 1);
    n
}

/// Canonical structural key: span-free, with bound variables replaced by
/// De Bruijn indices so alpha-equivalent subplans compare equal.
fn canon(e: &Expr) -> String {
    let mut out = String::new();
    canon_go(e, &mut Vec::new(), &mut out);
    out
}

/// `tag(child,child,..)`, the head carrying whatever the variant holds
/// besides children.
fn canon_go<'a>(e: &'a Expr, binds: &mut Vec<&'a str>, out: &mut String) {
    match e {
        Expr::Spanned(_, inner) => return canon_go(inner, binds, out),
        Expr::Var(n) => {
            if let Some(i) = binds.iter().rev().position(|b| b == n) {
                let _ = write!(out, "b{i}");
                return;
            }
        }
        _ => {}
    }
    out.push_str(e.tag());
    let _ = match e {
        Expr::Const(v) => write!(out, "({v:?}"),
        Expr::Var(n) | Expr::Source(n) => write!(out, "({n}"),
        Expr::Proj(_, i) => write!(out, "{i}("),
        Expr::Bin(op, ..) => write!(out, "({op:?},"),
        Expr::Un(op, _) => write!(out, "({op:?},"),
        Expr::Loop { init, .. } => write!(out, "{}(", init.len()),
        Expr::MapWithLiftedUdf { closures, .. } => write!(out, "[{}](", closures.join(",")),
        _ => write!(out, "("),
    };
    let mut first = true;
    e.for_each_child(|c, bound, _| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        bound.scoped(binds, |binds| canon_go(c, binds, out));
    });
    out.push(')');
}

/// Occurrence count of `name` as a free variable in `e` (shadowing-aware).
/// A lifted UDF's `closures` list counts as a use: the lowering resolves
/// those names from the environment at launch time.
fn count_uses(name: &str, e: &Expr) -> usize {
    let mut total = match e {
        Expr::Var(n) => usize::from(n == name),
        Expr::MapWithLiftedUdf { closures, .. } => closures.iter().filter(|c| *c == name).count(),
        _ => 0,
    };
    e.for_each_child(|c, binds, _| {
        if !binds.iter().any(|b| b == name) {
            total += count_uses(name, c);
        }
    });
    total
}

// ---------------------------------------------------------------------------
// Loop-invariant hoisting
// ---------------------------------------------------------------------------

impl Pass {
    /// Walk the whole program, processing every loop outermost-first.
    /// `lifted` is true inside a lifted UDF body, where loops are do-while
    /// (step and condition both run at least once) and all operator results
    /// stay lazy.
    fn hoist(&mut self, e: &Expr, lifted: bool) -> Expr {
        match e {
            Expr::Loop { init, cond, step, result } => {
                self.hoist_loop(init, cond, step, result, lifted)
            }
            Expr::MapWithLiftedUdf { .. } => {
                e.map_children(|c, _, slot| self.hoist(c, lifted || slot == Slot::Udf))
            }
            _ => e.map_children(|c, _, _| self.hoist(c, lifted)),
        }
    }

    fn hoist_loop(
        &mut self,
        init: &[(String, Expr)],
        cond: &Expr,
        step: &[Expr],
        result: &Expr,
        lifted: bool,
    ) -> Expr {
        let loop_vars: Vec<String> = init.iter().map(|(n, _)| n.clone()).collect();
        let mut site = HoistSite {
            loop_vars: loop_vars.clone(),
            hoisted: Vec::new(),
            keymap: BTreeMap::new(),
        };
        let mut bound = loop_vars.clone();
        // A `while` condition runs at least once in both driver and lifted
        // modes; whether the step may be skipped is the skip rule's call.
        let cond2 =
            self.hoist_slot(cond, "loop condition", &mut bound, &mut site, lifted, false, false);
        let step_guarded = may_skip(Slot::Step, lifted);
        let step2: Vec<Expr> = step
            .iter()
            .map(|s| {
                self.hoist_slot(s, "loop step", &mut bound, &mut site, lifted, step_guarded, false)
            })
            .collect();
        // Init and result run exactly once: nothing to save there, but
        // loops nested inside them still get their own pass below.
        let new_loop = Expr::Loop {
            init: init.iter().map(|(n, x)| (n.clone(), self.hoist(x, lifted))).collect(),
            cond: Box::new(self.hoist(&cond2, lifted)),
            step: step2.iter().map(|s| self.hoist(s, lifted)).collect(),
            result: Box::new(self.hoist(result, lifted)),
        };
        let mut out = new_loop;
        for (name, sub) in site.hoisted.into_iter().rev() {
            let sub = self.hoist(&sub, lifted);
            out = Expr::Let(name, Box::new(Expr::Cache(Box::new(sub))), Box::new(out));
        }
        out
    }

    /// Extract maximal invariant subtrees from one loop slot.
    ///
    /// `guarded` marks positions that may be evaluated zero times (a driver
    /// step, an `if` branch); scalar-rooted candidates are skipped there in
    /// driver mode because the driver evaluates `let`-bound reductions
    /// eagerly. `suppress` silences nested MAT094s under an already-reported
    /// blocked candidate.
    #[allow(clippy::too_many_arguments)]
    fn hoist_slot(
        &mut self,
        e: &Expr,
        slot: &'static str,
        bound: &mut Vec<String>,
        site: &mut HoistSite,
        lifted: bool,
        guarded: bool,
        suppress: bool,
    ) -> Expr {
        if let Expr::Spanned(sp, inner) = e {
            return Expr::Spanned(
                *sp,
                Box::new(self.hoist_slot(inner, slot, bound, site, lifted, guarded, suppress)),
            );
        }
        if is_rewrite_barrier(e) {
            // Explicit cache: opaque, exactly like a checkpoint in the
            // engine's fusion pass.
            return e.clone();
        }
        if is_plan_root(e) {
            if is_scalar_rooted(e) && guarded && !lifted {
                // An eager scalar hoist from a maybe-skipped position could
                // add a job; descend for lazy bag-valued pieces instead.
                return self.hoist_slot_children(e, slot, bound, site, lifted, guarded, suppress);
            }
            let fv = e.free_vars();
            let carried: Vec<String> = fv
                .iter()
                .filter(|v| site.loop_vars.contains(v))
                .map(|v| format!("`{v}`"))
                .collect();
            let blocked = if !carried.is_empty() {
                Some(format!("depends on loop-carried binding(s) {}", carried.join(", ")))
            } else if fv.iter().any(|v| bound.contains(v)) {
                // Blocked only by a binder local to this slot — not a
                // loop-carried dependency, so stay quiet and look deeper.
                return self.hoist_slot_children(e, slot, bound, site, lifted, guarded, suppress);
            } else {
                impurity_reason(e).map(String::from)
            };
            if let Some(reason) = blocked {
                if !suppress {
                    let message = format!("loop-invariant hoist blocked: subplan {reason}");
                    self.report(codes::PLAN_HOIST_BLOCKED, e.span(), message, e, None);
                }
                return self.hoist_slot_children(e, slot, bound, site, lifted, guarded, true);
            }
            // Safe: invariant, pure, barrier-free. Hoist (or reuse an
            // already-hoisted structurally identical subtree).
            let key = canon(e);
            if let Some(name) = site.keymap.get(&key) {
                return Expr::var(name);
            }
            let name = format!("__h{}", self.next_hoist);
            self.next_hoist += 1;
            site.keymap.insert(key, name.clone());
            let justification = format!(
                "loop-invariant in the {slot}: free variables are all bound outside the loop \
                 and every UDF is a pure scalar function; materialized once above the loop"
            );
            let message = format!("loop-invariant subplan hoisted out of the {slot} as `{name}`");
            let applied = Some((format!("hoist {name}"), justification));
            self.report(codes::PLAN_HOIST, e.span(), message, e, applied);
            site.hoisted.push((name.clone(), e.strip_spans()));
            Expr::var(&name)
        } else {
            self.hoist_slot_children(e, slot, bound, site, lifted, guarded, suppress)
        }
    }

    /// Structural descent for [`Pass::hoist_slot`]: tracks binders, treats
    /// UDF bodies as opaque (hoisting across a mode boundary would change
    /// which environment the subplan is evaluated in), and marks `if`
    /// branches and nested driver steps as guarded.
    #[allow(clippy::too_many_arguments)]
    fn hoist_slot_children(
        &mut self,
        e: &Expr,
        slot: &'static str,
        bound: &mut Vec<String>,
        site: &mut HoistSite,
        lifted: bool,
        guarded: bool,
        suppress: bool,
    ) -> Expr {
        e.map_children(|c, binds, kind| {
            if kind == Slot::Udf {
                return None;
            }
            let guarded = guarded || may_skip(kind, lifted);
            Some(binds.scoped(bound, |bound| {
                self.hoist_slot(c, slot, bound, site, lifted, guarded, suppress)
            }))
        })
    }
}

// ---------------------------------------------------------------------------
// Common-subplan elimination and auto-caching
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct CseOcc {
    /// Occurrences on unconditionally-evaluated paths.
    trigger: usize,
    /// All eligible occurrences.
    total: usize,
    size: usize,
    bag_rooted: bool,
    example: Expr,
}

impl Pass {
    /// CSE over each region: lifted UDF bodies first (each is its own
    /// region — subplans never move across the driver/lifted boundary
    /// because the closure lists and evaluation environments differ), then
    /// the driver region.
    fn cse(&mut self, e: &Expr) -> Expr {
        let e = self.cse_udf_regions(e);
        self.cse_region(e, Vec::new(), false)
    }

    fn cse_udf_regions(&mut self, e: &Expr) -> Expr {
        let lifted_udf = matches!(e, Expr::MapWithLiftedUdf { .. });
        e.map_children(|c, binds, slot| {
            let c = self.cse_udf_regions(c);
            if lifted_udf && slot == Slot::Udf {
                self.cse_region(c, binds.iter().map(String::from).collect(), true)
            } else {
                c
            }
        })
    }

    /// Repeatedly merge the largest shared subplan until none is shared.
    /// Scalar-rooted merges require two occurrences on unconditional paths
    /// (the driver evaluates the merged `let` eagerly); bag-rooted merges
    /// stay lazy, so any two occurrences qualify.
    fn cse_region(&mut self, e: Expr, init_bound: Vec<String>, lifted: bool) -> Expr {
        let mut e = e;
        for _ in 0..32 {
            let mut occ: BTreeMap<String, CseOcc> = BTreeMap::new();
            cse_collect(&e, &mut init_bound.clone(), true, lifted, &mut occ);
            let pick = occ
                .iter()
                .filter(|(_, o)| if lifted || o.bag_rooted { o.total >= 2 } else { o.trigger >= 2 })
                .max_by_key(|(_, o)| o.size)
                .map(|(k, o)| (k.clone(), o.clone()));
            let Some((key, info)) = pick else { break };
            let name = format!("__cse{}", self.next_cse);
            self.next_cse += 1;
            let replaced = cse_replace(&e, &mut init_bound.clone(), &key, &name);
            let n = info.total;
            let justification = format!(
                "{n} structurally identical occurrences (after span-stripping and α-renaming) \
                 with pure UDFs merged; the shared subplan is materialized once behind an \
                 explicit cache node so every consumer reuses the same partitions"
            );
            let message =
                format!("{n} occurrences of a common subplan merged into `{name}` and cached");
            let applied = Some((format!("cse {name}"), justification));
            self.report(codes::PLAN_CSE, None, message, &info.example, applied);
            e = Expr::Let(name, Box::new(Expr::Cache(Box::new(info.example))), Box::new(replaced));
        }
        e
    }

    /// Wrap the value of any multi-consumer `let`-bound bag subplan in an
    /// explicit cache node, so the engine shares one set of `Arc`
    /// partitions across consumers instead of ever recomputing.
    fn auto_cache(&mut self, e: &Expr) -> Expr {
        let e2 = e.map_children(|c, _, _| self.auto_cache(c));
        if let Expr::Let(n, v, b) = &e2 {
            let uses = count_uses(n, b);
            if uses >= 2 && is_bag_valued_root(v) && !is_rewrite_barrier(v) {
                let justification = format!(
                    "subplan has {uses} consumers; caching is the identity on results and lets \
                     every consumer share one materialization"
                );
                let message = format!("multi-consumer subplan `{n}` ({uses} uses) cached");
                let applied = Some((format!("auto-cache {n}"), justification));
                self.report(codes::PLAN_CSE, v.span(), message, v, applied);
                return Expr::Let(
                    n.clone(),
                    Box::new(Expr::Cache(Box::new((**v).clone()))),
                    Box::new((**b).clone()),
                );
            }
        }
        e2
    }

    // -----------------------------------------------------------------------
    // Dead-operator elimination
    // -----------------------------------------------------------------------

    /// Drop `let`-bound operator subplans whose outputs are never consumed.
    /// Purity makes this trivially safe: an unconsumed pure subplan has no
    /// observable effect. Unused *scalar* bindings are left to the checker's
    /// MAT090 warning.
    fn dce(&mut self, e: &Expr) -> Expr {
        let e2 = e.map_children(|c, _, _| self.dce(c));
        if let Expr::Let(n, v, b) = &e2 {
            if v.contains_bag_ops() && count_uses(n, b) == 0 {
                let justification = format!(
                    "the output of `{n}` is never consumed and the subplan is pure, so \
                     dropping it cannot change any result"
                );
                let message = format!("dead operator subplan `{n}` eliminated");
                let applied = Some((format!("drop {n}"), justification));
                self.report(codes::PLAN_DEAD_OP, v.span(), message, v, applied);
                return (**b).clone();
            }
        }
        e2
    }
}

/// May the subplan at `e` be merged with a structurally identical one? It
/// must be an operator subtree that passes the purity/barrier gate and
/// reads no binder introduced inside the region.
fn cse_candidate(e: &Expr, bound: &[String]) -> bool {
    is_plan_root(e)
        && impurity_reason(e).is_none()
        && !e.free_vars().iter().any(|v| bound.contains(v))
}

/// Collect CSE candidate occurrences. `trigger` is true on paths evaluated
/// at least once per program run.
fn cse_collect(
    e: &Expr,
    bound: &mut Vec<String>,
    trigger: bool,
    lifted: bool,
    occ: &mut BTreeMap<String, CseOcc>,
) {
    match e {
        // `is_plan_root` peels spans: count the node, not its wrapper too.
        Expr::Spanned(_, inner) => return cse_collect(inner, bound, trigger, lifted, occ),
        Expr::Cache(_) => return, // barrier: opaque
        _ => {}
    }
    if cse_candidate(e, bound) {
        let entry = occ.entry(canon(e)).or_insert_with(|| CseOcc {
            trigger: 0,
            total: 0,
            size: size(e),
            bag_rooted: is_bag_valued_root(e),
            example: e.strip_spans(),
        });
        entry.total += 1;
        entry.trigger += usize::from(trigger);
    }
    e.for_each_child(|c, binds, slot| {
        // UDF bodies are opaque: leaf lambdas are scalar, and lifted UDF
        // bodies are separate regions.
        if slot == Slot::Udf {
            return;
        }
        let trigger = trigger && !may_skip(slot, lifted);
        binds.scoped(bound, |bound| cse_collect(c, bound, trigger, lifted, occ));
    });
}

/// Replace every eligible occurrence of the subplan keyed `key` with a
/// reference to `name`. Mirrors the traversal of [`cse_collect`].
fn cse_replace(e: &Expr, bound: &mut Vec<String>, key: &str, name: &str) -> Expr {
    match e {
        Expr::Cache(_) => return e.clone(),
        Expr::Spanned(..) => {}
        _ if cse_candidate(e, bound) && canon(e) == key => return Expr::var(name),
        _ => {}
    }
    e.map_children(|c, binds, slot| match slot {
        Slot::Udf => None,
        _ => Some(binds.scoped(bound, |bound| cse_replace(c, bound, key, name))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Lambda};

    fn cnt_distinct(src: &str) -> Expr {
        Expr::Count(Box::new(Expr::Distinct(Box::new(Expr::Source(src.into())))))
    }

    // loop (i = 0) while count(distinct(xs)) > i step i + 1 yield i
    fn invariant_cond_loop() -> Expr {
        Expr::Loop {
            init: vec![("i".into(), Expr::long(0))],
            cond: Box::new(Expr::bin(BinOp::Gt, cnt_distinct("xs"), Expr::var("i"))),
            step: vec![Expr::bin(BinOp::Add, Expr::var("i"), Expr::long(1))],
            result: Box::new(Expr::var("i")),
        }
    }

    #[test]
    fn hoists_invariant_subplan_out_of_loop_condition() {
        let out = rewrite_plan(&invariant_cond_loop(), &PlanRewriteConfig);
        assert_eq!(out.rewrites.len(), 1, "rewrites: {:?}", out.rewrites);
        assert_eq!(out.rewrites[0].code, codes::PLAN_HOIST);
        let Expr::Let(name, value, body) = &out.expr else {
            panic!("expected a hoisted let on top, got {:?}", out.expr);
        };
        assert_eq!(name, "__h0");
        assert!(matches!(value.unspanned(), Expr::Cache(_)));
        let Expr::Loop { cond, .. } = body.unspanned() else { panic!("expected the loop below") };
        // The condition now references the hoisted binding, not the subplan.
        assert!(!cond.contains_bag_ops());
        assert_eq!(count_uses("__h0", cond), 1);
    }

    #[test]
    fn reports_blocked_hoists_on_loop_carried_dependencies() {
        // The filter predicate captures the loop variable `i`.
        let e = Expr::Loop {
            init: vec![("i".into(), Expr::long(0))],
            cond: Box::new(Expr::bin(
                BinOp::Gt,
                Expr::Count(Box::new(Expr::Filter(
                    Box::new(Expr::Source("xs".into())),
                    Lambda::new("x", Expr::bin(BinOp::Gt, Expr::var("x"), Expr::var("i"))),
                ))),
                Expr::var("i"),
            )),
            step: vec![Expr::bin(BinOp::Add, Expr::var("i"), Expr::long(1))],
            result: Box::new(Expr::var("i")),
        };
        let out = rewrite_plan(&e, &PlanRewriteConfig);
        assert!(out.rewrites.is_empty());
        let blocked: Vec<_> =
            out.diagnostics.iter().filter(|d| d.code == codes::PLAN_HOIST_BLOCKED).collect();
        assert_eq!(blocked.len(), 1, "diags: {:?}", out.diagnostics);
        assert!(blocked[0].message.contains("loop-carried"));
        // The loop is untouched.
        assert_eq!(out.expr, e);
    }

    #[test]
    fn explicit_cache_is_a_rewrite_barrier() {
        let e = Expr::Loop {
            init: vec![("i".into(), Expr::long(0))],
            cond: Box::new(Expr::bin(
                BinOp::Gt,
                Expr::Count(Box::new(Expr::Cache(Box::new(Expr::Distinct(Box::new(
                    Expr::Source("xs".into()),
                )))))),
                Expr::var("i"),
            )),
            step: vec![Expr::bin(BinOp::Add, Expr::var("i"), Expr::long(1))],
            result: Box::new(Expr::var("i")),
        };
        let out = rewrite_plan(&e, &PlanRewriteConfig);
        assert!(out.rewrites.is_empty());
        assert!(out
            .diagnostics
            .iter()
            .any(|d| { d.code == codes::PLAN_HOIST_BLOCKED && d.message.contains("cache") }));
        assert_eq!(out.expr, e);
    }

    #[test]
    fn cse_merges_duplicate_scalar_subplans() {
        let e = Expr::bin(BinOp::Add, cnt_distinct("xs"), cnt_distinct("xs"));
        let out = rewrite_plan(&e, &PlanRewriteConfig);
        assert_eq!(out.rewrites.len(), 1);
        assert_eq!(out.rewrites[0].code, codes::PLAN_CSE);
        let Expr::Let(name, value, body) = &out.expr else {
            panic!("expected a cse let on top, got {:?}", out.expr);
        };
        assert_eq!(name, "__cse0");
        assert!(matches!(value.unspanned(), Expr::Cache(_)));
        assert_eq!(count_uses("__cse0", body), 2);
        assert!(!body.contains_bag_ops());
    }

    #[test]
    fn cse_prefers_the_largest_shared_subplan() {
        // distinct(xs) is shared, but only inside the larger shared
        // count(distinct(xs)) — one merge of the outer subplan suffices.
        let e = Expr::bin(BinOp::Add, cnt_distinct("xs"), cnt_distinct("xs"));
        let out = rewrite_plan(&e, &PlanRewriteConfig);
        let Expr::Let(_, value, _) = &out.expr else { panic!() };
        let Expr::Cache(inner) = value.unspanned() else { panic!() };
        assert!(matches!(inner.unspanned(), Expr::Count(_)));
    }

    #[test]
    fn conditional_scalar_duplicates_are_not_merged_in_driver_mode() {
        // Both `count` occurrences sit in `if` branches: merging the
        // reduction would evaluate it eagerly even when the program never
        // does. The *bag* underneath is fair game — a `let`-bound bag only
        // builds lineage until an action forces it.
        let e = Expr::If(
            Box::new(Expr::bin(BinOp::Gt, Expr::long(1), Expr::long(0))),
            Box::new(cnt_distinct("xs")),
            Box::new(cnt_distinct("xs")),
        );
        let out = rewrite_plan(&e, &PlanRewriteConfig);
        // No eager (count-rooted) subplan was merged...
        let Expr::Let(_, value, body) = &out.expr else {
            panic!("expected the lazy distinct merge, got {:?}", out.expr);
        };
        let Expr::Cache(cached) = value.unspanned() else { panic!("expected cache") };
        assert!(matches!(cached.unspanned(), Expr::Distinct(_)));
        // ...so both branches still hold their own `count`.
        let Expr::If(_, t, el) = body.unspanned() else { panic!("expected if") };
        assert!(matches!(t.unspanned(), Expr::Count(_)));
        assert!(matches!(el.unspanned(), Expr::Count(_)));
    }

    #[test]
    fn auto_caches_multi_consumer_lets() {
        let map = Expr::Map(
            Box::new(Expr::Source("xs".into())),
            Lambda::new("x", Expr::bin(BinOp::Add, Expr::var("x"), Expr::long(1))),
        );
        let e =
            Expr::let_("a", map, Expr::Union(Box::new(Expr::var("a")), Box::new(Expr::var("a"))));
        let out = rewrite_plan(&e, &PlanRewriteConfig);
        assert!(out.rewrites.iter().any(|r| r.title == "auto-cache a"));
        let Expr::Let(_, value, _) = &out.expr else { panic!("expected let, got {:?}", out.expr) };
        assert!(matches!(value.unspanned(), Expr::Cache(_)));
    }

    #[test]
    fn dce_drops_unused_operator_bindings() {
        let e = Expr::let_(
            "dead",
            Expr::Distinct(Box::new(Expr::Source("xs".into()))),
            Expr::Count(Box::new(Expr::Source("ys".into()))),
        );
        let out = rewrite_plan(&e, &PlanRewriteConfig);
        assert_eq!(out.rewrites.len(), 1);
        assert_eq!(out.rewrites[0].code, codes::PLAN_DEAD_OP);
        assert!(matches!(out.expr, Expr::Count(_)));
        // Unused scalar bindings are the checker's business, not DCE's.
        let scalar = Expr::let_("s", Expr::long(1), Expr::long(2));
        assert_eq!(rewrite_plan(&scalar, &PlanRewriteConfig).expr, scalar);
    }

    #[test]
    fn rewritten_plan_computes_the_same_result() {
        use crate::lower::{Lowering, RtVal};
        use crate::value::Value;
        use matryoshka_core::MatryoshkaConfig;
        use matryoshka_engine::Engine;
        use std::collections::HashMap;

        // Hoist + CSE + DCE all fire in one program.
        let e = Expr::let_(
            "dead",
            Expr::Distinct(Box::new(Expr::Source("xs".into()))),
            Expr::bin(BinOp::Add, invariant_cond_loop(), cnt_distinct("xs")),
        );
        let out = rewrite_plan(&e, &PlanRewriteConfig);
        assert!(out.rewrites.len() >= 2, "rewrites: {:?}", out.rewrites);

        let data: Vec<Value> = (0..20).map(|i| Value::Long(i % 5)).collect();
        let run = |rewrite: bool| {
            let engine = Engine::local();
            let xs = HashMap::from([("xs".to_string(), engine.parallelize(data.clone(), 3))]);
            let lowering = Lowering::new(engine, MatryoshkaConfig::optimized());
            let got = if rewrite { lowering.run(&e, &xs) } else { lowering.run_verbatim(&e, &xs) };
            let RtVal::Scalar(Value::Long(n)) = got.unwrap() else { panic!("expected a long") };
            n
        };
        assert_eq!(run(false), run(true));
    }
}
