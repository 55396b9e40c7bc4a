//! The nesting-aware type/shape checker: assigns every expression a [`Ty`]
//! (scalar, bag, nested bag, or group pair), enforces the flattening
//! preconditions of the paper's Theorem 1 *before* lowering, and checks
//! what every leaf UDF captures.
//!
//! The checker is *total*: it never stops at the first problem. Ill-typed
//! subtrees get [`Ty::Unknown`] and the walk continues, so a single run
//! reports every independent defect with a stable `MAT0xx` code and (for
//! text programs) a byte span.
//!
//! This is the lowering's only shape check: [`crate::Lowering`] runs a
//! program only once the parsing phase, and with it this checker, has
//! admitted it; the lowering has no shape errors of its own. The depth
//! discipline mirrors the evaluator exactly: it supports two levels of
//! parallelism (driver + one lifted level), so `groupByKey`,
//! `mapWithLiftedUDF` and lift-requiring `map`s inside an already-lifted
//! UDF are `MAT008`. Inside a lifted UDF a flat bag and an inner bag are
//! both [`Ty::Bag`]: every bag operator of the evaluator has a cell for
//! either (`crates/ir/tests/end_to_end.rs` runs the table), so an admitted
//! program does not fail on an operand's kind at run time.

use std::fmt;

use crate::ast::{BinOp, Expr, Lambda, Lambda2, Span};
use crate::parse::Dialect;
use crate::pretty::snippet;

use super::diag::{codes, Diagnostic, Diagnostics};

/// The kind of a scalar that an expression's shape makes evident, for the
/// fold check (`Checker::check_fold_closed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Tuple,
    Number,
    Bool,
}

impl Kind {
    /// What `e` evidently returns: a tuple literal, arithmetic or a
    /// comparison.
    fn of_result(e: &Expr) -> Option<Kind> {
        match e {
            Expr::Spanned(_, x) => Kind::of_result(x),
            Expr::Tuple(_) => Some(Kind::Tuple),
            Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, _, _) => {
                Some(Kind::Number)
            }
            Expr::Bin(BinOp::Eq | BinOp::Lt | BinOp::Gt, _, _) => Some(Kind::Bool),
            _ => None,
        }
    }

    /// What `body` evidently takes `param` for: a tuple where it is
    /// projected, a number where it is an operand of arithmetic, nothing
    /// where it is both or neither. A binder of the same name hides it.
    fn of_param(body: &Expr, param: &str) -> Option<Kind> {
        fn is(e: &Expr, param: &str) -> bool {
            match e {
                Expr::Spanned(_, x) => is(x, param),
                Expr::Var(v) => v == param,
                _ => false,
            }
        }
        fn walk(e: &Expr, param: &str, uses: &mut (bool, bool)) {
            match e {
                Expr::Proj(x, _) if is(x, param) => uses.0 = true,
                Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, a, b)
                    if is(a, param) || is(b, param) =>
                {
                    uses.1 = true
                }
                _ => {}
            }
            e.for_each_child(|child, binds, _| {
                if binds.iter().all(|bound| bound != param) {
                    walk(child, param, uses);
                }
            });
        }
        let mut uses = (false, false);
        walk(body, param, &mut uses);
        match uses {
            (true, false) => Some(Kind::Tuple),
            (false, true) => Some(Kind::Number),
            _ => None,
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Tuple => "a tuple",
            Kind::Number => "a number",
            Kind::Bool => "a boolean",
        })
    }
}

/// The type a program expression evaluates to, as far as the flattening
/// machinery is concerned. Element types of bags are dynamic (records are
/// [`crate::value::Value`]s), so only the *nesting structure* is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// A scalar value, including tuples of scalars.
    Scalar,
    /// A flat `Bag[T]`.
    Bag,
    /// A nested `Bag[(K, Bag[V])]`; the IR has no deeper bags.
    Nested,
    /// The element of a nested bag: a `(key, inner bag)` pair. This is the
    /// type of a lifted UDF's parameter when mapping over a nested bag.
    Group,
    /// Recovery type for ill-typed subtrees; suppresses cascading errors.
    Unknown,
}

impl Ty {
    /// Is this a bag or group (i.e. does it contain bag structure)?
    fn is_baggy(&self) -> bool {
        matches!(self, Ty::Bag | Ty::Nested | Ty::Group)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Scalar => write!(f, "a scalar"),
            Ty::Bag => write!(f, "a bag"),
            Ty::Nested => write!(f, "a nested bag"),
            Ty::Group => write!(f, "a (key, inner bag) group pair"),
            Ty::Unknown => write!(f, "an unknown type"),
        }
    }
}

/// The parameter of a map's UDF over `input`: a record of a flat bag, a
/// group of a nested one.
fn param_ty(input: Ty) -> Ty {
    match input {
        Ty::Bag => Ty::Scalar,
        Ty::Nested => Ty::Group,
        _ => Ty::Unknown,
    }
}

/// One name in scope during checking.
struct Binding {
    name: String,
    ty: Ty,
    /// 0 = bound at driver level, >= 1 = bound inside a lifted UDF (its
    /// runtime representation is an `InnerScalar`/`InnerBag`, not a plain
    /// value — some leaf operations cannot consume those).
    level: u32,
    used: bool,
    span: Option<Span>,
    /// Emit `MAT090` if the binding is dropped unused (`let`s only).
    warn_unused: bool,
}

pub(super) struct Checker<'a> {
    sources: &'a [&'a str],
    dialect: Dialect,
    env: Vec<Binding>,
    pub(super) diags: Diagnostics,
    pub(super) lifts: Vec<bool>,
}

const TOO_DEEP_MSG: &str = "more than two levels of parallel operations in the IR dialect \
                            (the typed API in matryoshka-core supports deeper nesting)";
const DIQL_MSG: &str = "DIQL-like flattening does not support control flow at inner nesting levels";

impl<'a> Checker<'a> {
    pub(super) fn new(sources: &'a [&'a str], dialect: Dialect) -> Checker<'a> {
        Checker { sources, dialect, env: Vec::new(), diags: Diagnostics::new(), lifts: Vec::new() }
    }

    // --- environment ---------------------------------------------------

    fn lookup(&mut self, name: &str) -> Option<(Ty, u32)> {
        self.env.iter_mut().rev().find(|b| b.name == name).map(|b| {
            b.used = true;
            (b.ty, b.level)
        })
    }

    /// Look up without marking used (for capture checks after the body
    /// walk already marked everything).
    fn peek(&self, name: &str) -> Option<(Ty, u32)> {
        self.env.iter().rev().find(|b| b.name == name).map(|b| (b.ty, b.level))
    }

    fn push_let(&mut self, name: &str, ty: Ty, level: u32, span: Option<Span>) {
        if self.env.iter().any(|b| b.name == name) && !name.starts_with('_') {
            self.diags.push(Diagnostic::warning(
                codes::SHADOWED_BINDING,
                span,
                format!("`{name}` shadows an enclosing binding of the same name"),
            ));
        }
        self.env.push(Binding {
            name: name.to_string(),
            ty,
            level,
            used: false,
            span,
            warn_unused: true,
        });
    }

    fn push_param(&mut self, name: &str, ty: Ty, level: u32) {
        self.env.push(Binding {
            name: name.to_string(),
            ty,
            level,
            used: true,
            span: None,
            warn_unused: false,
        });
    }

    fn pop(&mut self) {
        let b = self.env.pop().expect("balanced env scopes");
        if b.warn_unused && !b.used && !b.name.starts_with('_') {
            self.diags.push(Diagnostic::warning(
                codes::UNUSED_BINDING,
                b.span,
                format!("the binding `{}` is never used", b.name),
            ));
        }
    }

    // --- diagnostics ---------------------------------------------------

    fn error(&mut self, code: &'static str, sp: Option<Span>, msg: String, node: &Expr) {
        let mut d = Diagnostic::error(code, sp, msg);
        if sp.is_none() {
            d = d.with_snippet(snippet(node));
        }
        self.diags.push(d);
    }

    // --- the checker ---------------------------------------------------

    /// Infer the type of `e` at nesting `level` (0 = driver, 1 = inside a
    /// lifted UDF). `sp` is the nearest enclosing source span.
    pub(super) fn infer(&mut self, e: &Expr, level: u32, sp: Option<Span>) -> Ty {
        match e {
            Expr::Spanned(s, inner) => self.infer(inner, level, Some(*s)),
            Expr::Const(_) => Ty::Scalar,
            Expr::Var(n) => match self.lookup(n) {
                Some((ty, _)) => ty,
                None => {
                    self.error(codes::UNBOUND_VAR, sp, format!("unbound variable `{n}`"), e);
                    Ty::Unknown
                }
            },
            Expr::Source(n) => {
                if !self.sources.iter().any(|s| s == n) {
                    let known = if self.sources.is_empty() {
                        "no sources are declared".to_string()
                    } else {
                        format!("declared sources: {}", self.sources.join(", "))
                    };
                    self.error(
                        codes::UNBOUND_SOURCE,
                        sp,
                        format!("unknown source `{n}`; {known}"),
                        e,
                    );
                }
                Ty::Bag
            }
            Expr::Tuple(items) => {
                for it in items {
                    let t = self.infer(it, level, it.span().or(sp));
                    if t.is_baggy() {
                        self.error(
                            codes::BAG_IN_TUPLE,
                            it.span().or(sp),
                            format!(
                                "{t} may not appear inside a tuple: bags do not nest inside \
                                 other data structures (Sec. 7 precondition)"
                            ),
                            it,
                        );
                    }
                }
                Ty::Scalar
            }
            Expr::Proj(x, i) => {
                let t = self.infer(x, level, x.span().or(sp));
                match t {
                    Ty::Scalar => {
                        if let Expr::Tuple(items) = x.unspanned() {
                            if *i >= items.len() {
                                self.error(
                                    codes::PROJ_OUT_OF_BOUNDS,
                                    sp,
                                    format!(
                                        "projection index {i} is out of bounds for a tuple \
                                         with {} components",
                                        items.len()
                                    ),
                                    e,
                                );
                                return Ty::Unknown;
                            }
                        }
                        Ty::Scalar
                    }
                    Ty::Group => match i {
                        0 => Ty::Scalar,
                        1 => Ty::Bag,
                        _ => {
                            self.error(
                                codes::PROJ_OUT_OF_BOUNDS,
                                sp,
                                format!(
                                    "a group pair has exactly two components (.0 = key, \
                                     .1 = inner bag); index {i} is out of bounds"
                                ),
                                e,
                            );
                            Ty::Unknown
                        }
                    },
                    Ty::Bag | Ty::Nested => {
                        self.error(
                            codes::PROJ_ON_BAG,
                            sp,
                            format!("projection on {t}; tuple projection needs a scalar tuple"),
                            e,
                        );
                        Ty::Unknown
                    }
                    Ty::Unknown => Ty::Unknown,
                }
            }
            Expr::Bin(op, a, b) => {
                for side in [a, b] {
                    let t = self.infer(side, level, side.span().or(sp));
                    if t.is_baggy() {
                        self.error(
                            codes::KIND_MISMATCH,
                            side.span().or(sp),
                            format!("the scalar operator `{}` is applied to {t}", op.symbol()),
                            side,
                        );
                    }
                }
                Ty::Scalar
            }
            Expr::Un(op, a) => {
                let t = self.infer(a, level, a.span().or(sp));
                if t.is_baggy() {
                    self.error(
                        codes::KIND_MISMATCH,
                        a.span().or(sp),
                        format!("the scalar operator `{op:?}` is applied to {t}"),
                        a,
                    );
                }
                Ty::Scalar
            }
            Expr::Let(n, v, b) => {
                let tv = self.infer(v, level, v.span().or(sp));
                self.push_let(n, tv, level, e.span().or(sp));
                let tb = self.infer(b, level, b.span().or(sp));
                self.pop();
                tb
            }
            Expr::If(c, t, el) => {
                let tc = self.infer(c, level, c.span().or(sp));
                if tc.is_baggy() {
                    self.error(
                        codes::NON_SCALAR_COND,
                        c.span().or(sp),
                        format!("the condition of an `if` must be a scalar boolean, found {tc}"),
                        c,
                    );
                }
                let tt = self.infer(t, level, t.span().or(sp));
                let te = self.infer(el, level, el.span().or(sp));
                if tt != Ty::Unknown && te != Ty::Unknown && tt != te {
                    self.error(
                        codes::BRANCH_MISMATCH,
                        sp,
                        format!("the branches of an `if` have different types: {tt} vs {te}"),
                        e,
                    );
                }
                let ty = if tt != Ty::Unknown { tt } else { te };
                // The lifted `if` selects per tag between two lifted
                // scalars; a bag-valued one has no runtime cell.
                if level >= 1 && ty.is_baggy() {
                    self.error(
                        codes::KIND_MISMATCH,
                        sp,
                        format!(
                            "the branches of an `if` inside a lifted UDF must be scalars, \
                             found {ty}"
                        ),
                        e,
                    );
                }
                ty
            }
            Expr::Loop { init, cond, step, result } => {
                self.infer_loop(init, cond, step, result, level, sp, e)
            }
            Expr::GroupByKey(x) | Expr::GroupByKeyIntoNestedBag(x) => {
                let t = self.infer(x, level, x.span().or(sp));
                if level >= 1 {
                    // The runtime's lifted interpreter has no third level:
                    // grouping inside an already-lifted UDF cannot execute.
                    self.error(codes::TOO_DEEP, sp, TOO_DEEP_MSG.to_string(), e);
                }
                match t {
                    Ty::Scalar | Ty::Group => {
                        self.error(
                            codes::KIND_MISMATCH,
                            sp,
                            format!("groupByKey applied to {t}; it requires a flat (k, v) bag"),
                            e,
                        );
                        Ty::Unknown
                    }
                    Ty::Nested if level == 0 => {
                        self.error(codes::TOO_DEEP, sp, TOO_DEEP_MSG.to_string(), e);
                        Ty::Nested
                    }
                    _ => Ty::Nested,
                }
            }
            Expr::Map(input, l) => self.infer_map(input, l, level, sp, e),
            Expr::MapWithLiftedUdf { input, udf, closures } => {
                self.infer_map_with_lifted_udf(input, udf, closures, level, sp, e)
            }
            Expr::Filter(input, l) => {
                let t = self.infer_flat_bag_input("filter", input, level, sp);
                if l.body.contains_bag_ops() {
                    self.error(
                        codes::BAG_OP_IN_SCALAR_UDF,
                        sp,
                        "bag operations inside a filter UDF are eliminated by splitting in the \
                         paper (Sec. 4.6); this IR requires them to be expressed as a map"
                            .to_string(),
                        e,
                    );
                }
                let tb = self.check_leaf_lambda("filter", l, level, sp);
                if tb.is_baggy() {
                    self.error(
                        codes::NON_SCALAR_COND,
                        sp,
                        format!("the filter predicate must be a scalar boolean, found {tb}"),
                        e,
                    );
                }
                match t {
                    Ty::Nested => Ty::Nested,
                    _ => Ty::Bag,
                }
            }
            Expr::FlatMapTuple(input, l) => {
                self.infer_flat_bag_input("flatMap", input, level, sp);
                if l.body.contains_bag_ops() {
                    self.error(
                        codes::BAG_OP_IN_SCALAR_UDF,
                        sp,
                        "bag operations inside a flatMap UDF are eliminated by splitting in the \
                         paper (Sec. 4.6); this IR requires them to be expressed as a map"
                            .to_string(),
                        e,
                    );
                }
                let tb = self.check_leaf_lambda("flatMap", l, level, sp);
                if tb.is_baggy() {
                    self.error(
                        codes::INNER_BAG_ESCAPE,
                        sp,
                        format!(
                            "the flatMap UDF closure returns {tb}; inner bags cannot escape \
                             a leaf UDF"
                        ),
                        e,
                    );
                }
                Ty::Bag
            }
            Expr::ReduceByKey(input, l2) => {
                self.infer_flat_bag_input("reduceByKey", input, level, sp);
                if l2.body.contains_bag_ops() {
                    self.error(
                        codes::BAG_OP_IN_AGG,
                        sp,
                        "bag operations inside aggregation UDFs (Sec. 7 precondition)".to_string(),
                        e,
                    );
                }
                self.check_lambda2("reduceByKey", l2, level, sp, e);
                Ty::Bag
            }
            Expr::Fold(input, zero, l2) => {
                self.infer_flat_bag_input("fold", input, level, sp);
                if l2.body.contains_bag_ops() || zero.contains_bag_ops() {
                    self.error(
                        codes::BAG_OP_IN_AGG,
                        sp,
                        "bag operations inside aggregation UDFs (Sec. 7 precondition)".to_string(),
                        e,
                    );
                }
                let tz = self.infer(zero, level, zero.span().or(sp));
                if tz.is_baggy() {
                    self.error(
                        codes::KIND_MISMATCH,
                        zero.span().or(sp),
                        format!("the fold zero must be a scalar, found {tz}"),
                        zero,
                    );
                }
                // The runtime evaluates the zero once, at driver level:
                // lifted state (the group parameter included) cannot flow
                // into it.
                if level >= 1 {
                    for name in super::captures::capture_names(zero, &[]) {
                        if self.peek(&name).is_some_and(|(_, bl)| bl >= 1) {
                            self.error(
                                codes::INNER_BAG_ESCAPE,
                                sp,
                                format!(
                                    "the fold zero closure captures the lifted value \
                                     `{name}`; fold zeros must not be lifted"
                                ),
                                zero,
                            );
                        }
                    }
                }
                self.check_lambda2("fold", l2, level, sp, e);
                self.check_fold_closed(l2, sp, e);
                Ty::Scalar
            }
            Expr::Join(a, b) => {
                for side in [a, b] {
                    let t = self.infer(side, level, side.span().or(sp));
                    if t != Ty::Bag && t != Ty::Unknown {
                        self.error(
                            codes::KIND_MISMATCH,
                            side.span().or(sp),
                            format!("join requires flat (key, value) bags, found {t}"),
                            side,
                        );
                    }
                }
                Ty::Bag
            }
            Expr::Union(a, b) => {
                let ta = self.infer(a, level, a.span().or(sp));
                let tb = self.infer(b, level, b.span().or(sp));
                for (side, t) in [(a, ta), (b, tb)] {
                    if matches!(t, Ty::Scalar | Ty::Nested | Ty::Group) {
                        self.error(
                            codes::KIND_MISMATCH,
                            side.span().or(sp),
                            format!("union requires flat bags, found {t}"),
                            side,
                        );
                    }
                }
                if matches!((ta, tb), (Ty::Bag, Ty::Nested) | (Ty::Nested, Ty::Bag)) {
                    self.error(
                        codes::BRANCH_MISMATCH,
                        sp,
                        format!("the sides of a union have different types: {ta} vs {tb}"),
                        e,
                    );
                }
                Ty::Bag
            }
            Expr::Distinct(x) => {
                let t = self.infer(x, level, x.span().or(sp));
                if matches!(t, Ty::Scalar | Ty::Nested | Ty::Group) {
                    self.error(
                        codes::KIND_MISMATCH,
                        sp,
                        format!("distinct applied to {t}; it requires a flat bag"),
                        e,
                    );
                    return Ty::Unknown;
                }
                Ty::Bag
            }
            Expr::Count(x) => {
                let t = self.infer(x, level, x.span().or(sp));
                if matches!(t, Ty::Scalar | Ty::Group) {
                    self.error(
                        codes::KIND_MISMATCH,
                        sp,
                        format!("count of {t}; count requires a bag"),
                        e,
                    );
                }
                Ty::Scalar
            }
            // A materialization hint is the identity on types.
            Expr::Cache(x) => self.infer(x, level, x.span().or(sp)),
        }
    }

    fn infer_flat_bag_input(&mut self, op: &str, input: &Expr, level: u32, sp: Option<Span>) -> Ty {
        let t = self.infer(input, level, input.span().or(sp));
        if matches!(t, Ty::Scalar | Ty::Nested | Ty::Group) {
            self.error(
                codes::KIND_MISMATCH,
                input.span().or(sp),
                format!("{op} applied to {t}; it requires a flat bag"),
                input,
            );
        }
        t
    }

    fn infer_map(
        &mut self,
        input: &Expr,
        l: &Lambda,
        level: u32,
        sp: Option<Span>,
        node: &Expr,
    ) -> Ty {
        let tin = self.infer(input, level, input.span().or(sp));
        if matches!(tin, Ty::Scalar | Ty::Group) {
            self.error(
                codes::KIND_MISMATCH,
                input.span().or(sp),
                format!("map applied to {tin}; map requires a bag"),
                input,
            );
        }
        let needs_lift = l.body.contains_bag_ops() || tin == Ty::Nested;
        self.lifts.push(needs_lift);
        if needs_lift && level >= 1 {
            self.error(codes::TOO_DEEP, sp, TOO_DEEP_MSG.to_string(), node);
        }
        let body_level = if needs_lift { level + 1 } else { level };
        self.push_param(&l.param, param_ty(tin), body_level);
        let tb = self.infer(&l.body, body_level, l.body.span().or(sp));
        if !needs_lift {
            self.check_captures("map", sp, l);
        }
        self.pop();
        if tb.is_baggy() {
            if !needs_lift {
                // A leaf UDF producing a bag can only happen through a
                // bag-typed variable, which leaf UDFs may not capture.
                self.error(
                    codes::INNER_BAG_ESCAPE,
                    sp,
                    format!(
                        "the map UDF closure returns {tb} without being lifted; \
                         bags cannot escape a leaf UDF"
                    ),
                    node,
                );
                return Ty::Bag;
            }
            if tb == Ty::Group {
                self.error(
                    codes::INNER_BAG_ESCAPE,
                    sp,
                    format!(
                        "the lifted map UDF returns {tb}; the inner bag of a group pair \
                         cannot escape its group"
                    ),
                    node,
                );
                return Ty::Bag;
            }
        }
        if needs_lift {
            self.check_lifted_result(tb, sp, node);
        }
        match (tin, tb) {
            (Ty::Unknown, _) => Ty::Unknown,
            (_, Ty::Bag | Ty::Nested) if needs_lift => Ty::Nested,
            _ => Ty::Bag,
        }
    }

    fn infer_map_with_lifted_udf(
        &mut self,
        input: &Expr,
        udf: &Lambda,
        closures: &[String],
        level: u32,
        sp: Option<Span>,
        node: &Expr,
    ) -> Ty {
        if level >= 1 {
            self.error(codes::TOO_DEEP, sp, TOO_DEEP_MSG.to_string(), node);
        }
        let tin = self.infer(input, level, input.span().or(sp));
        if matches!(tin, Ty::Scalar | Ty::Group) {
            self.error(
                codes::KIND_MISMATCH,
                input.span().or(sp),
                format!("mapWithLiftedUDF over {tin}; it requires a bag"),
                input,
            );
        }
        for c in closures {
            if self.lookup(c).is_none() {
                self.error(
                    codes::UNBOUND_VAR,
                    sp,
                    format!("unbound variable `{c}` (declared closure of a lifted UDF)"),
                    node,
                );
            }
        }
        self.push_param(&udf.param, param_ty(tin), level + 1);
        let tb = self.infer(&udf.body, level + 1, udf.body.span().or(sp));
        self.pop();
        if tb == Ty::Group {
            self.error(
                codes::INNER_BAG_ESCAPE,
                sp,
                format!(
                    "the lifted map UDF returns {tb}; the inner bag of a group pair cannot \
                     escape its group"
                ),
                node,
            );
            return Ty::Bag;
        }
        self.check_lifted_result(tb, sp, node);
        match tb {
            Ty::Bag | Ty::Nested => Ty::Nested,
            _ => Ty::Bag,
        }
    }

    /// A lifted UDF that returns a nested bag (it can only have captured
    /// one) would produce three levels.
    fn check_lifted_result(&mut self, tb: Ty, sp: Option<Span>, node: &Expr) {
        if tb == Ty::Nested {
            self.error(codes::TOO_DEEP, sp, TOO_DEEP_MSG.to_string(), node);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn infer_loop(
        &mut self,
        init: &[(String, Expr)],
        cond: &Expr,
        step: &[Expr],
        result: &Expr,
        level: u32,
        sp: Option<Span>,
        node: &Expr,
    ) -> Ty {
        if level >= 1 && self.dialect == Dialect::DiqlLike {
            self.error(codes::DIQL_INNER_CONTROL_FLOW, sp, DIQL_MSG.to_string(), node);
        }
        let mut init_tys = Vec::with_capacity(init.len());
        for (n, x) in init {
            let t = self.infer(x, level, x.span().or(sp));
            if level >= 1 && matches!(t, Ty::Nested | Ty::Group) {
                self.error(
                    codes::KIND_MISMATCH,
                    x.span().or(sp),
                    format!("lifted loop variables must be scalars or bags, found {t}"),
                    x,
                );
            }
            self.push_param(n, t, level);
            init_tys.push(t);
        }
        let tc = self.infer(cond, level, cond.span().or(sp));
        if tc.is_baggy() {
            self.error(
                codes::NON_SCALAR_COND,
                cond.span().or(sp),
                format!("the loop condition must be a scalar boolean, found {tc}"),
                cond,
            );
        }
        if step.len() != init.len() {
            self.error(
                codes::LOOP_SHAPE_CHANGE,
                sp,
                format!(
                    "the loop has {} variables but {} step expressions",
                    init.len(),
                    step.len()
                ),
                node,
            );
        }
        for (((n, _), t0), sx) in init.iter().zip(&init_tys).zip(step) {
            let ts = self.infer(sx, level, sx.span().or(sp));
            if *t0 != Ty::Unknown && ts != Ty::Unknown && *t0 != ts {
                self.error(
                    codes::LOOP_SHAPE_CHANGE,
                    sx.span().or(sp),
                    format!(
                        "loop variable `{n}` changes type between its initializer ({t0}) and \
                         its step expression ({ts})"
                    ),
                    sx,
                );
            }
        }
        let tr = self.infer(result, level, result.span().or(sp));
        for _ in init {
            self.pop();
        }
        tr
    }

    /// Check a leaf (never-lifted) lambda of `op`: bind the parameter as a
    /// scalar, infer the body at the same level, check its captures.
    fn check_leaf_lambda(&mut self, op: &str, l: &Lambda, level: u32, sp: Option<Span>) -> Ty {
        self.push_param(&l.param, Ty::Scalar, level);
        let tb = self.infer(&l.body, level, l.body.span().or(sp));
        self.check_captures(op, sp, l);
        self.pop();
        tb
    }

    /// Check a two-parameter aggregation lambda. The runtime evaluates these
    /// in an *empty* environment (`pure2`), so any enclosing-binding capture
    /// is a guaranteed runtime failure — rejected here.
    fn check_lambda2(&mut self, op: &str, l2: &Lambda2, level: u32, sp: Option<Span>, node: &Expr) {
        self.push_param(&l2.a, Ty::Scalar, level);
        self.push_param(&l2.b, Ty::Scalar, level);
        self.infer(&l2.body, level, l2.body.span().or(sp));
        self.pop();
        self.pop();
        for name in super::captures::capture_names(&l2.body, &[&l2.a, &l2.b]) {
            if self.peek(&name).is_some() {
                self.error(
                    codes::INNER_BAG_ESCAPE,
                    sp,
                    format!(
                        "the {op} combiner UDF closure captures `{name}`; aggregation UDFs \
                         cannot capture enclosing bindings in this IR"
                    ),
                    node,
                );
            }
            // Entirely-unbound names were already reported as MAT001 while
            // inferring the body.
        }
    }

    /// A fold's combiner must be closed over one value type: it merges
    /// partials with partials as well as with elements, at either level.
    /// Where the body's shape shows its result kind (a tuple literal,
    /// arithmetic, a comparison) and a parameter's use shows that one's (a
    /// projected parameter is a tuple, an arithmetic operand a number), the
    /// two must agree; anything less evident is left to run.
    fn check_fold_closed(&mut self, l2: &Lambda2, sp: Option<Span>, node: &Expr) {
        let Some(result) = Kind::of_result(&l2.body) else { return };
        for param in [&l2.a, &l2.b] {
            match Kind::of_param(&l2.body, param) {
                Some(kind) if kind != result => self.error(
                    codes::KIND_MISMATCH,
                    sp,
                    format!(
                        "the fold combiner returns {result} but uses its parameter `{param}` \
                         as {kind}; a fold merges its results as inputs, so both must be \
                         one value type"
                    ),
                    node,
                ),
                _ => {}
            }
        }
    }

    /// Leaf UDFs run as pure closures: they may only capture scalars
    /// (lifted-scalar captures lower to a tag join, mapWithClosure). Must
    /// run while the lambda's parameter is still the innermost binding.
    fn check_captures(&mut self, op: &str, sp: Option<Span>, l: &Lambda) {
        for name in super::captures::capture_names(&l.body, &[&l.param]) {
            // Unbound names were reported as MAT001 while inferring the body.
            let Some((ty, _)) = self.peek(&name) else { continue };
            if ty.is_baggy() {
                self.error(
                    codes::INNER_BAG_ESCAPE,
                    sp,
                    format!(
                        "the {op} UDF closure captures {ty} (`{name}`); only scalars can be \
                         captured by leaf UDFs"
                    ),
                    &l.body,
                );
            }
        }
    }
}
