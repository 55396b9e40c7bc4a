//! Global plan rewrites: loop-invariant subplan hoisting, common-subplan
//! elimination with auto-caching, and dead-operator elimination.
//!
//! The pass runs after type/effect checking and *before* lowering, on the
//! post-parsing-phase AST (so `map` UDFs that launch bag operations have
//! already been rewritten into [`Expr::MapWithLiftedUdf`]). It is **off by
//! default**: [`rewrite_plan`] with a default
//! [`matryoshka_core::PlanRewriteConfig`] returns the input unchanged, which
//! keeps default plans — and the golden simulation timings — bit-identical.
//!
//! Every rewrite is gated by a safety proof derived from the same facts the
//! checker establishes:
//!
//! * **Purity.** The IR is a pure expression language; the only "effects"
//!   are bag-operator launches. A subplan is movable when every UDF inside
//!   it is a pure scalar function (no bag operations in any lambda body, no
//!   bag-launching lifted UDF), so evaluating it earlier, later, once, or
//!   not at all cannot change any result.
//! * **Capture discipline.** A subplan is loop-invariant only when its free
//!   variables are disjoint from the loop's carried bindings (and from any
//!   binder introduced between the loop header and the subplan), mirroring
//!   the capture analysis in [`super::captures`].
//! * **Barriers.** An explicit [`Expr::Cache`] node is opaque: nothing is
//!   hoisted or merged into or out of it. This is the plan-level analogue of
//!   the engine's fusion barrier (`Bag::absorbable` refuses to fuse through
//!   `cache`/`checkpoint` parents and multi-consumer bags), expressed once
//!   here as [`is_rewrite_barrier`].
//! * **Cost monotonicity.** Hoisted and merged subplans are wrapped in
//!   [`Expr::Cache`], and bag-valued plans are lazy in the engine, so a
//!   speculative hoist that is never consumed never launches a job. Eager
//!   positions (driver-mode scalar reductions) are only hoisted from slots
//!   that are provably evaluated at least once (a `while` condition; any
//!   slot of a lifted do-while), so a rewritten plan never runs more stages
//!   than the baseline.
//!
//! Each applied rewrite is reported as a [`RewriteInfo`] (for the decision
//! log and `matryoshka-check --explain`) and as a `MAT093`–`MAT096` warning
//! diagnostic (for the golden diagnostics corpus).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use matryoshka_core::PlanRewriteConfig;

use crate::ast::{Expr, Lambda, Lambda2};
use crate::pretty;

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
pub fn is_rewrite_barrier(e: &Expr) -> bool {
    matches!(e.unspanned(), Expr::Cache(_))
}

/// Apply the configured plan rewrites to `program`. With the default
/// (all-off) config this is the identity.
///
/// Pass order: hoisting first (it exposes merged `let`s for CSE to count),
/// then CSE + auto-caching, then dead-operator elimination (which cleans up
/// anything the earlier passes orphaned).
pub fn rewrite_plan(program: &Expr, cfg: &PlanRewriteConfig) -> PlanRewrite {
    let mut pass =
        Pass { diags: Diagnostics::new(), rewrites: Vec::new(), next_hoist: 0, next_cse: 0 };
    let mut e = program.clone();
    if cfg.enabled {
        if cfg.hoist {
            e = pass.hoist(&e, false);
        }
        if cfg.cse {
            e = pass.cse(&e);
            e = pass.auto_cache(&e);
        }
        if cfg.dce {
            e = pass.dce(&e);
        }
    }
    PlanRewrite { expr: e, diagnostics: pass.diags, rewrites: pass.rewrites }
}

struct Pass {
    diags: Diagnostics,
    rewrites: Vec<RewriteInfo>,
    next_hoist: usize,
    next_cse: usize,
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
    matches!(
        e.unspanned(),
        Expr::Map(..)
            | Expr::Filter(..)
            | Expr::FlatMapTuple(..)
            | Expr::GroupByKey(..)
            | Expr::ReduceByKey(..)
            | Expr::Join(..)
            | Expr::Distinct(..)
            | Expr::Union(..)
            | Expr::Count(..)
            | Expr::Fold(..)
            | Expr::GroupByKeyIntoNestedBag(..)
            | Expr::MapWithLiftedUdf { .. }
    )
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

fn contains_barrier(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |x| {
        if is_rewrite_barrier(x) {
            found = true;
        }
    });
    found
}

fn contains_lifted_udf(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |x| {
        if matches!(x, Expr::MapWithLiftedUdf { .. }) {
            found = true;
        }
    });
    found
}

/// Every UDF in the subtree is a pure scalar function. (The effect checker
/// classifies a UDF as pure exactly when its body launches no bag
/// operation; see [`super::UdfSummary`].)
fn lambdas_pure(e: &Expr) -> bool {
    let mut ok = true;
    e.visit(&mut |x| match x {
        Expr::Map(_, l) | Expr::Filter(_, l) | Expr::FlatMapTuple(_, l)
            if l.body.contains_bag_ops() =>
        {
            ok = false;
        }
        Expr::ReduceByKey(_, l2) | Expr::Fold(_, _, l2) if l2.body.contains_bag_ops() => {
            ok = false;
        }
        _ => {}
    });
    ok
}

/// Purity/barrier gate shared by hoisting and CSE. `Some(reason)` blocks.
fn impurity_reason(e: &Expr) -> Option<String> {
    if contains_lifted_udf(e) {
        return Some(
            "contains a bag-launching (lifted) UDF, which the purity analysis does not certify"
                .to_string(),
        );
    }
    if !lambdas_pure(e) {
        return Some("a UDF in the subplan is not a pure scalar function".to_string());
    }
    if contains_barrier(e) {
        return Some("contains an explicit `cache` barrier".to_string());
    }
    None
}

/// One-line, whitespace-collapsed source snippet for diagnostics.
fn snippet(e: &Expr) -> String {
    let s = pretty::to_source(e);
    let s = s.split_whitespace().collect::<Vec<_>>().join(" ");
    if s.chars().count() > 72 {
        let mut t: String = s.chars().take(72).collect();
        t.push('…');
        t
    } else {
        s
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

fn canon_go(e: &Expr, binds: &mut Vec<String>, out: &mut String) {
    match e {
        Expr::Spanned(_, inner) => canon_go(inner, binds, out),
        Expr::Const(v) => {
            let _ = write!(out, "c({v:?})");
        }
        Expr::Var(n) => match binds.iter().rev().position(|b| b == n) {
            Some(i) => {
                let _ = write!(out, "b{i}");
            }
            None => {
                let _ = write!(out, "v({n})");
            }
        },
        Expr::Source(n) => {
            let _ = write!(out, "s({n})");
        }
        Expr::Tuple(items) => {
            out.push_str("t(");
            for x in items {
                canon_go(x, binds, out);
                out.push(',');
            }
            out.push(')');
        }
        Expr::Proj(x, i) => {
            let _ = write!(out, "p{i}(");
            canon_go(x, binds, out);
            out.push(')');
        }
        Expr::Bin(op, a, b) => {
            let _ = write!(out, "bin({op:?},");
            canon_go(a, binds, out);
            out.push(',');
            canon_go(b, binds, out);
            out.push(')');
        }
        Expr::Un(op, a) => {
            let _ = write!(out, "un({op:?},");
            canon_go(a, binds, out);
            out.push(')');
        }
        Expr::Let(n, v, b) => {
            out.push_str("let(");
            canon_go(v, binds, out);
            out.push(',');
            binds.push(n.clone());
            canon_go(b, binds, out);
            binds.pop();
            out.push(')');
        }
        Expr::If(c, t, el) => {
            out.push_str("if(");
            canon_go(c, binds, out);
            out.push(',');
            canon_go(t, binds, out);
            out.push(',');
            canon_go(el, binds, out);
            out.push(')');
        }
        Expr::Loop { init, cond, step, result } => {
            out.push_str("loop(");
            let n0 = binds.len();
            for (n, x) in init {
                canon_go(x, binds, out);
                out.push(',');
                binds.push(n.clone());
            }
            out.push(';');
            canon_go(cond, binds, out);
            out.push(';');
            for s in step {
                canon_go(s, binds, out);
                out.push(',');
            }
            out.push(';');
            canon_go(result, binds, out);
            binds.truncate(n0);
            out.push(')');
        }
        Expr::Map(x, l) | Expr::Filter(x, l) | Expr::FlatMapTuple(x, l) => {
            out.push_str(match e {
                Expr::Map(..) => "map(",
                Expr::Filter(..) => "fil(",
                _ => "fmt(",
            });
            canon_go(x, binds, out);
            out.push(',');
            binds.push(l.param.clone());
            canon_go(&l.body, binds, out);
            binds.pop();
            out.push(')');
        }
        Expr::GroupByKey(x) => {
            out.push_str("gbk(");
            canon_go(x, binds, out);
            out.push(')');
        }
        Expr::ReduceByKey(x, l2) => {
            out.push_str("rbk(");
            canon_go(x, binds, out);
            out.push(',');
            binds.push(l2.a.clone());
            binds.push(l2.b.clone());
            canon_go(&l2.body, binds, out);
            binds.pop();
            binds.pop();
            out.push(')');
        }
        Expr::Join(a, b) => {
            out.push_str("join(");
            canon_go(a, binds, out);
            out.push(',');
            canon_go(b, binds, out);
            out.push(')');
        }
        Expr::Distinct(x) => {
            out.push_str("dis(");
            canon_go(x, binds, out);
            out.push(')');
        }
        Expr::Union(a, b) => {
            out.push_str("uni(");
            canon_go(a, binds, out);
            out.push(',');
            canon_go(b, binds, out);
            out.push(')');
        }
        Expr::Count(x) => {
            out.push_str("cnt(");
            canon_go(x, binds, out);
            out.push(')');
        }
        Expr::Cache(x) => {
            out.push_str("cache(");
            canon_go(x, binds, out);
            out.push(')');
        }
        Expr::Fold(x, z, l2) => {
            out.push_str("fold(");
            canon_go(x, binds, out);
            out.push(',');
            canon_go(z, binds, out);
            out.push(',');
            binds.push(l2.a.clone());
            binds.push(l2.b.clone());
            canon_go(&l2.body, binds, out);
            binds.pop();
            binds.pop();
            out.push(')');
        }
        Expr::GroupByKeyIntoNestedBag(x) => {
            out.push_str("gbkn(");
            canon_go(x, binds, out);
            out.push(')');
        }
        Expr::MapWithLiftedUdf { input, udf, closures } => {
            let _ = write!(out, "mwlu[{}](", closures.join(","));
            canon_go(input, binds, out);
            out.push(',');
            binds.push(udf.param.clone());
            canon_go(&udf.body, binds, out);
            binds.pop();
            out.push(')');
        }
    }
}

/// Rebuild `e` with `f` applied to every direct child expression.
fn rebuild_with(e: &Expr, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
    let lam = |l: &Lambda, f: &mut dyn FnMut(&Expr) -> Expr| Lambda {
        param: l.param.clone(),
        body: Arc::new(f(&l.body)),
    };
    let lam2 = |l: &Lambda2, f: &mut dyn FnMut(&Expr) -> Expr| Lambda2 {
        a: l.a.clone(),
        b: l.b.clone(),
        body: Arc::new(f(&l.body)),
    };
    match e {
        Expr::Spanned(sp, inner) => Expr::Spanned(*sp, Box::new(f(inner))),
        Expr::Const(_) | Expr::Var(_) | Expr::Source(_) => e.clone(),
        Expr::Tuple(items) => Expr::Tuple(items.iter().map(&mut *f).collect()),
        Expr::Proj(x, i) => Expr::Proj(Box::new(f(x)), *i),
        Expr::Bin(op, a, b) => Expr::Bin(*op, Box::new(f(a)), Box::new(f(b))),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(f(a))),
        Expr::Let(n, v, b) => Expr::Let(n.clone(), Box::new(f(v)), Box::new(f(b))),
        Expr::If(c, t, el) => Expr::If(Box::new(f(c)), Box::new(f(t)), Box::new(f(el))),
        Expr::Loop { init, cond, step, result } => Expr::Loop {
            init: init.iter().map(|(n, x)| (n.clone(), f(x))).collect(),
            cond: Box::new(f(cond)),
            step: step.iter().map(&mut *f).collect(),
            result: Box::new(f(result)),
        },
        Expr::Map(x, l) => Expr::Map(Box::new(f(x)), lam(l, f)),
        Expr::Filter(x, l) => Expr::Filter(Box::new(f(x)), lam(l, f)),
        Expr::FlatMapTuple(x, l) => Expr::FlatMapTuple(Box::new(f(x)), lam(l, f)),
        Expr::GroupByKey(x) => Expr::GroupByKey(Box::new(f(x))),
        Expr::ReduceByKey(x, l) => Expr::ReduceByKey(Box::new(f(x)), lam2(l, f)),
        Expr::Join(a, b) => Expr::Join(Box::new(f(a)), Box::new(f(b))),
        Expr::Distinct(x) => Expr::Distinct(Box::new(f(x))),
        Expr::Union(a, b) => Expr::Union(Box::new(f(a)), Box::new(f(b))),
        Expr::Count(x) => Expr::Count(Box::new(f(x))),
        Expr::Cache(x) => Expr::Cache(Box::new(f(x))),
        Expr::Fold(x, z, l) => Expr::Fold(Box::new(f(x)), Box::new(f(z)), lam2(l, f)),
        Expr::GroupByKeyIntoNestedBag(x) => Expr::GroupByKeyIntoNestedBag(Box::new(f(x))),
        Expr::MapWithLiftedUdf { input, udf, closures } => Expr::MapWithLiftedUdf {
            input: Box::new(f(input)),
            udf: lam(udf, f),
            closures: closures.clone(),
        },
    }
}

/// Occurrence count of `name` as a free variable in `e` (shadowing-aware).
/// A lifted UDF's `closures` list counts as a use: the lowering resolves
/// those names from the environment at launch time.
fn count_uses(name: &str, e: &Expr) -> usize {
    match e {
        Expr::Spanned(_, inner) => count_uses(name, inner),
        Expr::Var(n) => usize::from(n == name),
        Expr::Const(_) | Expr::Source(_) => 0,
        Expr::Tuple(items) => items.iter().map(|x| count_uses(name, x)).sum(),
        Expr::Proj(x, _) | Expr::Un(_, x) => count_uses(name, x),
        Expr::Bin(_, a, b) | Expr::Join(a, b) | Expr::Union(a, b) => {
            count_uses(name, a) + count_uses(name, b)
        }
        Expr::Let(n, v, b) => count_uses(name, v) + if n == name { 0 } else { count_uses(name, b) },
        Expr::If(c, t, el) => count_uses(name, c) + count_uses(name, t) + count_uses(name, el),
        Expr::Loop { init, cond, step, result } => {
            let mut total = 0;
            let mut shadowed = false;
            for (n, x) in init {
                if !shadowed {
                    total += count_uses(name, x);
                }
                if n == name {
                    shadowed = true;
                }
            }
            if !shadowed {
                total += count_uses(name, cond);
                total += step.iter().map(|s| count_uses(name, s)).sum::<usize>();
                total += count_uses(name, result);
            }
            total
        }
        Expr::Map(x, l) | Expr::Filter(x, l) | Expr::FlatMapTuple(x, l) => {
            count_uses(name, x) + if l.param == name { 0 } else { count_uses(name, &l.body) }
        }
        Expr::GroupByKey(x)
        | Expr::Distinct(x)
        | Expr::Count(x)
        | Expr::Cache(x)
        | Expr::GroupByKeyIntoNestedBag(x) => count_uses(name, x),
        Expr::ReduceByKey(x, l2) => {
            count_uses(name, x)
                + if l2.a == name || l2.b == name { 0 } else { count_uses(name, &l2.body) }
        }
        Expr::Fold(x, z, l2) => {
            count_uses(name, x)
                + count_uses(name, z)
                + if l2.a == name || l2.b == name { 0 } else { count_uses(name, &l2.body) }
        }
        Expr::MapWithLiftedUdf { input, udf, closures } => {
            count_uses(name, input)
                + closures.iter().filter(|c| c.as_str() == name).count()
                + if udf.param == name { 0 } else { count_uses(name, &udf.body) }
        }
    }
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
            Expr::Spanned(sp, inner) => Expr::Spanned(*sp, Box::new(self.hoist(inner, lifted))),
            Expr::MapWithLiftedUdf { input, udf, closures } => Expr::MapWithLiftedUdf {
                input: Box::new(self.hoist(input, lifted)),
                udf: Lambda {
                    param: udf.param.clone(),
                    body: Arc::new(self.hoist(&udf.body, true)),
                },
                closures: closures.clone(),
            },
            Expr::Loop { init, cond, step, result } => {
                self.hoist_loop(init, cond, step, result, lifted)
            }
            _ => rebuild_with(e, &mut |c| self.hoist(c, lifted)),
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
        // modes; a driver `while` step may run zero times, so scalar-rooted
        // (eager) hoists from the step are only allowed in lifted do-while
        // loops.
        let cond2 =
            self.hoist_slot(cond, "loop condition", &mut bound, &mut site, lifted, false, false);
        let step2: Vec<Expr> = step
            .iter()
            .map(|s| self.hoist_slot(s, "loop step", &mut bound, &mut site, lifted, !lifted, false))
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
            let carried: Vec<&String> = fv.iter().filter(|v| site.loop_vars.contains(v)).collect();
            if !carried.is_empty() {
                if !suppress {
                    let names =
                        carried.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(", ");
                    let reason = format!("depends on loop-carried binding(s) {names}");
                    self.diags.push(
                        Diagnostic::warning(
                            codes::PLAN_HOIST_BLOCKED,
                            e.span(),
                            format!("loop-invariant hoist blocked: subplan {reason}"),
                        )
                        .with_snippet(snippet(e)),
                    );
                }
                return self.hoist_slot_children(e, slot, bound, site, lifted, guarded, true);
            }
            if fv.iter().any(|v| bound.contains(v)) {
                // Blocked only by a binder local to this slot — not a
                // loop-carried dependency, so stay quiet and look deeper.
                return self.hoist_slot_children(e, slot, bound, site, lifted, guarded, suppress);
            }
            if let Some(reason) = impurity_reason(e) {
                if !suppress {
                    self.diags.push(
                        Diagnostic::warning(
                            codes::PLAN_HOIST_BLOCKED,
                            e.span(),
                            format!("loop-invariant hoist blocked: subplan {reason}"),
                        )
                        .with_snippet(snippet(e)),
                    );
                }
                return self.hoist_slot_children(e, slot, bound, site, lifted, guarded, true);
            }
            // Safe: invariant, pure, barrier-free. Hoist (or reuse an
            // already-hoisted structurally identical subtree).
            let stripped = e.strip_spans();
            let key = canon(&stripped);
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
            self.diags.push(
                Diagnostic::warning(
                    codes::PLAN_HOIST,
                    e.span(),
                    format!("loop-invariant subplan hoisted out of the {slot} as `{name}`"),
                )
                .with_note(justification.clone())
                .with_snippet(snippet(e)),
            );
            self.rewrites.push(RewriteInfo {
                code: codes::PLAN_HOIST,
                title: format!("hoist {name}"),
                site: snippet(e),
                justification,
            });
            site.hoisted.push((name.clone(), stripped));
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
        match e {
            Expr::Let(n, v, b) => {
                let v2 = self.hoist_slot(v, slot, bound, site, lifted, guarded, suppress);
                bound.push(n.clone());
                let b2 = self.hoist_slot(b, slot, bound, site, lifted, guarded, suppress);
                bound.pop();
                Expr::Let(n.clone(), Box::new(v2), Box::new(b2))
            }
            Expr::If(c, t, el) => {
                let c2 = self.hoist_slot(c, slot, bound, site, lifted, guarded, suppress);
                let t2 = self.hoist_slot(t, slot, bound, site, lifted, true, suppress);
                let el2 = self.hoist_slot(el, slot, bound, site, lifted, true, suppress);
                Expr::If(Box::new(c2), Box::new(t2), Box::new(el2))
            }
            Expr::Loop { init, cond, step, result } => {
                // A nested loop's variables block hoisting past it; the
                // outer hoist pass revisits the loop itself afterwards.
                let n0 = bound.len();
                let mut init2 = Vec::new();
                for (n, x) in init {
                    init2.push((
                        n.clone(),
                        self.hoist_slot(x, slot, bound, site, lifted, guarded, suppress),
                    ));
                    bound.push(n.clone());
                }
                let cond2 = self.hoist_slot(cond, slot, bound, site, lifted, guarded, suppress);
                let step2: Vec<Expr> = step
                    .iter()
                    .map(|s| {
                        self.hoist_slot(s, slot, bound, site, lifted, guarded || !lifted, suppress)
                    })
                    .collect();
                let result2 = self.hoist_slot(result, slot, bound, site, lifted, guarded, suppress);
                bound.truncate(n0);
                Expr::Loop {
                    init: init2,
                    cond: Box::new(cond2),
                    step: step2,
                    result: Box::new(result2),
                }
            }
            Expr::Map(x, l) => Expr::Map(
                Box::new(self.hoist_slot(x, slot, bound, site, lifted, guarded, suppress)),
                l.clone(),
            ),
            Expr::Filter(x, l) => Expr::Filter(
                Box::new(self.hoist_slot(x, slot, bound, site, lifted, guarded, suppress)),
                l.clone(),
            ),
            Expr::FlatMapTuple(x, l) => Expr::FlatMapTuple(
                Box::new(self.hoist_slot(x, slot, bound, site, lifted, guarded, suppress)),
                l.clone(),
            ),
            Expr::ReduceByKey(x, l2) => Expr::ReduceByKey(
                Box::new(self.hoist_slot(x, slot, bound, site, lifted, guarded, suppress)),
                l2.clone(),
            ),
            Expr::Fold(x, z, l2) => Expr::Fold(
                Box::new(self.hoist_slot(x, slot, bound, site, lifted, guarded, suppress)),
                Box::new(self.hoist_slot(z, slot, bound, site, lifted, guarded, suppress)),
                l2.clone(),
            ),
            Expr::MapWithLiftedUdf { input, udf, closures } => Expr::MapWithLiftedUdf {
                input: Box::new(
                    self.hoist_slot(input, slot, bound, site, lifted, guarded, suppress),
                ),
                udf: udf.clone(),
                closures: closures.clone(),
            },
            _ => rebuild_with(e, &mut |c| {
                self.hoist_slot(c, slot, bound, site, lifted, guarded, suppress)
            }),
        }
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
        match e {
            Expr::MapWithLiftedUdf { input, udf, closures } => {
                let input = Box::new(self.cse_udf_regions(input));
                let body = self.cse_udf_regions(&udf.body);
                let body = self.cse_region(body, vec![udf.param.clone()], true);
                Expr::MapWithLiftedUdf {
                    input,
                    udf: Lambda { param: udf.param.clone(), body: Arc::new(body) },
                    closures: closures.clone(),
                }
            }
            _ => rebuild_with(e, &mut |c| self.cse_udf_regions(c)),
        }
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
            let justification = format!(
                "{} structurally identical occurrences (after span-stripping and α-renaming) \
                 with pure UDFs merged; the shared subplan is materialized once behind an \
                 explicit cache node so every consumer reuses the same partitions",
                info.total
            );
            self.diags.push(
                Diagnostic::warning(
                    codes::PLAN_CSE,
                    None,
                    format!(
                        "{} occurrences of a common subplan merged into `{name}` and cached",
                        info.total
                    ),
                )
                .with_note(justification.clone())
                .with_snippet(snippet(&info.example)),
            );
            self.rewrites.push(RewriteInfo {
                code: codes::PLAN_CSE,
                title: format!("cse {name}"),
                site: snippet(&info.example),
                justification,
            });
            e = Expr::Let(name, Box::new(Expr::Cache(Box::new(info.example))), Box::new(replaced));
        }
        e
    }

    /// Wrap the value of any multi-consumer `let`-bound bag subplan in an
    /// explicit cache node, so the engine shares one set of `Arc`
    /// partitions across consumers instead of ever recomputing.
    fn auto_cache(&mut self, e: &Expr) -> Expr {
        let e2 = rebuild_with(e, &mut |c| self.auto_cache(c));
        if let Expr::Let(n, v, b) = &e2 {
            let uses = count_uses(n, b);
            if uses >= 2 && is_bag_valued_root(v) && !is_rewrite_barrier(v) {
                let justification = format!(
                    "subplan has {uses} consumers; caching is the identity on results and lets \
                     every consumer share one materialization"
                );
                self.diags.push(
                    Diagnostic::warning(
                        codes::PLAN_CSE,
                        v.span(),
                        format!("multi-consumer subplan `{n}` ({uses} uses) cached"),
                    )
                    .with_note(justification.clone())
                    .with_snippet(snippet(v)),
                );
                self.rewrites.push(RewriteInfo {
                    code: codes::PLAN_CSE,
                    title: format!("auto-cache {n}"),
                    site: snippet(v),
                    justification,
                });
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
        let e2 = rebuild_with(e, &mut |c| self.dce(c));
        if let Expr::Let(n, v, b) = &e2 {
            if v.contains_bag_ops() && count_uses(n, b) == 0 {
                let justification = format!(
                    "the output of `{n}` is never consumed and the subplan is pure, so \
                     dropping it cannot change any result"
                );
                self.diags.push(
                    Diagnostic::warning(
                        codes::PLAN_DEAD_OP,
                        v.span(),
                        format!("dead operator subplan `{n}` eliminated"),
                    )
                    .with_note(justification.clone())
                    .with_snippet(snippet(v)),
                );
                self.rewrites.push(RewriteInfo {
                    code: codes::PLAN_DEAD_OP,
                    title: format!("drop {n}"),
                    site: snippet(v),
                    justification,
                });
                return (**b).clone();
            }
        }
        e2
    }
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
        Expr::Spanned(_, inner) => return cse_collect(inner, bound, trigger, lifted, occ),
        Expr::Cache(_) => return, // barrier: opaque
        _ => {}
    }
    if is_plan_root(e)
        && impurity_reason(e).is_none()
        && !e.free_vars().iter().any(|v| bound.contains(v))
    {
        let stripped = e.strip_spans();
        let entry = occ.entry(canon(&stripped)).or_insert_with(|| CseOcc {
            trigger: 0,
            total: 0,
            size: size(e),
            bag_rooted: is_bag_valued_root(e),
            example: stripped,
        });
        entry.total += 1;
        entry.trigger += usize::from(trigger);
    }
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Source(_) | Expr::Spanned(..) | Expr::Cache(_) => {}
        Expr::Tuple(items) => {
            items.iter().for_each(|x| cse_collect(x, bound, trigger, lifted, occ))
        }
        Expr::Proj(x, _) | Expr::Un(_, x) => cse_collect(x, bound, trigger, lifted, occ),
        Expr::Bin(_, a, b) | Expr::Join(a, b) | Expr::Union(a, b) => {
            cse_collect(a, bound, trigger, lifted, occ);
            cse_collect(b, bound, trigger, lifted, occ);
        }
        Expr::Let(n, v, b) => {
            cse_collect(v, bound, trigger, lifted, occ);
            bound.push(n.clone());
            cse_collect(b, bound, trigger, lifted, occ);
            bound.pop();
        }
        Expr::If(c, t, el) => {
            cse_collect(c, bound, trigger, lifted, occ);
            cse_collect(t, bound, false, lifted, occ);
            cse_collect(el, bound, false, lifted, occ);
        }
        Expr::Loop { init, cond, step, result } => {
            let n0 = bound.len();
            for (n, x) in init {
                cse_collect(x, bound, trigger, lifted, occ);
                bound.push(n.clone());
            }
            cse_collect(cond, bound, trigger, lifted, occ);
            // A driver `while` step may run zero times; a lifted do-while
            // step always runs.
            let step_trigger = trigger && lifted;
            step.iter().for_each(|s| cse_collect(s, bound, step_trigger, lifted, occ));
            cse_collect(result, bound, trigger, lifted, occ);
            bound.truncate(n0);
        }
        // UDF bodies are opaque: leaf lambdas are scalar, and lifted UDF
        // bodies are separate regions.
        Expr::Map(x, _) | Expr::Filter(x, _) | Expr::FlatMapTuple(x, _) => {
            cse_collect(x, bound, trigger, lifted, occ)
        }
        Expr::ReduceByKey(x, _) => cse_collect(x, bound, trigger, lifted, occ),
        Expr::Fold(x, z, _) => {
            cse_collect(x, bound, trigger, lifted, occ);
            cse_collect(z, bound, trigger, lifted, occ);
        }
        Expr::MapWithLiftedUdf { input, .. } => cse_collect(input, bound, trigger, lifted, occ),
        Expr::GroupByKey(x)
        | Expr::Distinct(x)
        | Expr::Count(x)
        | Expr::GroupByKeyIntoNestedBag(x) => cse_collect(x, bound, trigger, lifted, occ),
    }
}

/// Replace every eligible occurrence of the subplan keyed `key` with a
/// reference to `name`. Mirrors the traversal of [`cse_collect`].
fn cse_replace(e: &Expr, bound: &mut Vec<String>, key: &str, name: &str) -> Expr {
    match e {
        Expr::Spanned(sp, inner) => {
            return Expr::Spanned(*sp, Box::new(cse_replace(inner, bound, key, name)))
        }
        Expr::Cache(_) => return e.clone(),
        _ => {}
    }
    if is_plan_root(e)
        && impurity_reason(e).is_none()
        && !e.free_vars().iter().any(|v| bound.contains(v))
        && canon(&e.strip_spans()) == key
    {
        return Expr::var(name);
    }
    match e {
        Expr::Let(n, v, b) => {
            let v2 = cse_replace(v, bound, key, name);
            bound.push(n.clone());
            let b2 = cse_replace(b, bound, key, name);
            bound.pop();
            Expr::Let(n.clone(), Box::new(v2), Box::new(b2))
        }
        Expr::Loop { init, cond, step, result } => {
            let n0 = bound.len();
            let mut init2 = Vec::new();
            for (n, x) in init {
                init2.push((n.clone(), cse_replace(x, bound, key, name)));
                bound.push(n.clone());
            }
            let cond2 = cse_replace(cond, bound, key, name);
            let step2: Vec<Expr> = step.iter().map(|s| cse_replace(s, bound, key, name)).collect();
            let result2 = cse_replace(result, bound, key, name);
            bound.truncate(n0);
            Expr::Loop {
                init: init2,
                cond: Box::new(cond2),
                step: step2,
                result: Box::new(result2),
            }
        }
        Expr::Map(x, l) => Expr::Map(Box::new(cse_replace(x, bound, key, name)), l.clone()),
        Expr::Filter(x, l) => Expr::Filter(Box::new(cse_replace(x, bound, key, name)), l.clone()),
        Expr::FlatMapTuple(x, l) => {
            Expr::FlatMapTuple(Box::new(cse_replace(x, bound, key, name)), l.clone())
        }
        Expr::ReduceByKey(x, l2) => {
            Expr::ReduceByKey(Box::new(cse_replace(x, bound, key, name)), l2.clone())
        }
        Expr::Fold(x, z, l2) => Expr::Fold(
            Box::new(cse_replace(x, bound, key, name)),
            Box::new(cse_replace(z, bound, key, name)),
            l2.clone(),
        ),
        Expr::MapWithLiftedUdf { input, udf, closures } => Expr::MapWithLiftedUdf {
            input: Box::new(cse_replace(input, bound, key, name)),
            udf: udf.clone(),
            closures: closures.clone(),
        },
        _ => rebuild_with(e, &mut |c| cse_replace(c, bound, key, name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;

    fn cfg_on() -> PlanRewriteConfig {
        PlanRewriteConfig::enabled()
    }

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
    fn off_by_default_is_identity() {
        let e = invariant_cond_loop();
        let out = rewrite_plan(&e, &PlanRewriteConfig::default());
        assert_eq!(out.expr, e);
        assert!(out.rewrites.is_empty());
        assert!(out.diagnostics.is_empty());
    }

    #[test]
    fn hoists_invariant_subplan_out_of_loop_condition() {
        let out = rewrite_plan(&invariant_cond_loop(), &cfg_on());
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
        let out = rewrite_plan(&e, &cfg_on());
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
        let out = rewrite_plan(&e, &cfg_on());
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
        let out = rewrite_plan(&e, &cfg_on());
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
        let out = rewrite_plan(&e, &cfg_on());
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
        let out = rewrite_plan(&e, &cfg_on());
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
        let out = rewrite_plan(&e, &cfg_on());
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
        let out = rewrite_plan(&e, &cfg_on());
        assert_eq!(out.rewrites.len(), 1);
        assert_eq!(out.rewrites[0].code, codes::PLAN_DEAD_OP);
        assert!(matches!(out.expr, Expr::Count(_)));
        // Unused scalar bindings are the checker's business, not DCE's.
        let scalar = Expr::let_("s", Expr::long(1), Expr::long(2));
        assert_eq!(rewrite_plan(&scalar, &cfg_on()).expr, scalar);
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
        let out = rewrite_plan(&e, &cfg_on());
        assert!(out.rewrites.len() >= 2, "rewrites: {:?}", out.rewrites);

        let data: Vec<Value> = (0..20).map(|i| Value::Long(i % 5)).collect();
        let run = |prog: &Expr| {
            let engine = Engine::local();
            let xs = engine.parallelize(data.clone(), 3);
            let lowering = Lowering::new(engine, MatryoshkaConfig::optimized());
            let got = lowering.run(prog, &HashMap::from([("xs".to_string(), xs)])).unwrap();
            let RtVal::Scalar(Value::Long(n)) = got else { panic!("expected a long, got {got:?}") };
            n
        };
        assert_eq!(run(&e), run(&out.expr));
    }
}
