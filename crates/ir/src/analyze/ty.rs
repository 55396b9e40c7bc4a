//! The nesting-aware type/shape checker: assigns every expression a [`Ty`]
//! (scalar, bag-with-depth, or group pair), enforces the flattening
//! preconditions of the paper's Theorem 1 *before* lowering, and records a
//! [`UdfSummary`] (captures, effects, field reads) for every UDF.
//!
//! The checker is *total*: it never stops at the first problem. Ill-typed
//! subtrees get [`Ty::Unknown`] and the walk continues, so a single run
//! reports every independent defect with a stable `MAT0xx` code and (for
//! text programs) a byte span.
//!
//! The depth discipline mirrors the runtime exactly: the lowering's
//! evaluator supports two levels of parallelism (driver + one lifted
//! level); `groupByKey`, `mapWithLiftedUDF` and lift-requiring `map`s inside
//! an already-lifted UDF are the runtime's "more than two levels" errors,
//! surfaced here statically as `MAT008`. Inside a lifted UDF a flat bag and
//! an inner bag are both `Bag(1)`: every bag operator of the evaluator has a
//! cell for either (`crates/ir/tests/end_to_end.rs` runs the table), so an
//! admitted program does not fail on an operand's kind at run time.

use std::fmt;

use crate::ast::{Expr, Lambda, Lambda2, Span};
use crate::parse::Dialect;
use crate::pretty::snippet;

use super::diag::{codes, Diagnostic, Diagnostics};
use super::UdfSummary;

/// The type a program expression evaluates to, as far as the flattening
/// machinery is concerned. Element types of bags are dynamic (records are
/// [`crate::value::Value`]s), so only the *nesting structure* is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// A scalar value, including tuples of scalars.
    Scalar,
    /// A bag with the given nesting depth: `Bag(1)` is a flat `Bag[T]`,
    /// `Bag(2)` is a nested `Bag[(K, Bag[V])]`.
    Bag(u32),
    /// The element of a nested bag: a `(key, inner bag)` pair, where the
    /// inner bag has the given depth. This is the type of a lifted UDF's
    /// parameter when mapping over a `Bag(d + 1)`.
    Group(u32),
    /// Recovery type for ill-typed subtrees; suppresses cascading errors.
    Unknown,
}

impl Ty {
    /// Is this a bag or group (i.e. does it contain bag structure)?
    pub fn is_baggy(&self) -> bool {
        matches!(self, Ty::Bag(_) | Ty::Group(_))
    }
}

/// A refinement of [`Ty::Scalar`] used by the UDF compiler
/// ([`crate::compile`]) to pick specialized slot operations: where the shape
/// checker only needs to know "this is a scalar", the compiler wants to know
/// *which* scalar a subexpression is statically guaranteed to produce, so
/// `Long + Long` can skip the dynamic `Value` dispatch.
///
/// `Any` is the sound fallback ("could be any scalar at runtime" — UDF
/// parameters, loop variables, projections out of dynamically shaped
/// tuples). Every refinement is a *guarantee*: a subexpression whose kind is
/// [`ScalarKind::Long`] evaluates to [`crate::Value::Long`] whenever it
/// evaluates successfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    /// Statically a boolean.
    Bool,
    /// Statically a 64-bit integer.
    Long,
    /// Statically a 64-bit float.
    Double,
    /// Statically a string.
    Str,
    /// Statically a tuple.
    Tuple,
    /// Statically the unit value.
    Unit,
    /// No static refinement.
    Any,
}

impl ScalarKind {
    /// The kind of a concrete runtime value (used to seed the compiler's
    /// inference from closure-capture constants).
    pub fn of_value(v: &crate::value::Value) -> ScalarKind {
        use crate::value::Value;
        match v {
            Value::Unit => ScalarKind::Unit,
            Value::Bool(_) => ScalarKind::Bool,
            Value::Long(_) => ScalarKind::Long,
            Value::Double(_) => ScalarKind::Double,
            Value::Str(_) => ScalarKind::Str,
            Value::Tuple(_) => ScalarKind::Tuple,
        }
    }

    /// Least upper bound: the kind both branches of an `if` can promise.
    pub fn join(self, other: ScalarKind) -> ScalarKind {
        if self == other {
            self
        } else {
            ScalarKind::Any
        }
    }

    /// Is this kind statically numeric (`Long` or `Double`)?
    pub fn is_numeric(self) -> bool {
        matches!(self, ScalarKind::Long | ScalarKind::Double)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Scalar => write!(f, "a scalar"),
            Ty::Bag(1) => write!(f, "a bag"),
            Ty::Bag(2) => write!(f, "a nested bag"),
            Ty::Bag(d) => write!(f, "a depth-{d} nested bag"),
            Ty::Group(d) => {
                if *d == 1 {
                    write!(f, "a (key, inner bag) group pair")
                } else {
                    write!(f, "a (key, depth-{d} bag) group pair")
                }
            }
            Ty::Unknown => write!(f, "an unknown type"),
        }
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
    pub(super) udfs: Vec<UdfSummary>,
    pub(super) lifts: Vec<bool>,
}

const TOO_DEEP_MSG: &str = "more than two levels of parallel operations in the IR dialect \
                            (the typed API in matryoshka-core supports deeper nesting)";
const DIQL_MSG: &str = "DIQL-like flattening does not support control flow at inner nesting levels";

impl<'a> Checker<'a> {
    pub(super) fn new(sources: &'a [&'a str], dialect: Dialect) -> Checker<'a> {
        // Source names double as bag-typed variables (the rewriter's
        // environment does the same), pre-marked used.
        let env = sources
            .iter()
            .map(|s| Binding {
                name: s.to_string(),
                ty: Ty::Bag(1),
                level: 0,
                used: true,
                span: None,
                warn_unused: false,
            })
            .collect();
        Checker {
            sources,
            dialect,
            env,
            diags: Diagnostics::new(),
            udfs: Vec::new(),
            lifts: Vec::new(),
        }
    }

    // --- environment ---------------------------------------------------

    fn lookup(&mut self, name: &str) -> Option<(Ty, u32)> {
        self.env.iter_mut().rev().find(|b| b.name == name).map(|b| {
            b.used = true;
            (b.ty, b.level)
        })
    }

    /// Look up without marking used (for capture summaries after the body
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
                Ty::Bag(1)
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
                    Ty::Group(d) => match i {
                        0 => Ty::Scalar,
                        1 => Ty::Bag(d),
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
                    Ty::Bag(_) => {
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
                    Ty::Scalar | Ty::Group(_) => {
                        self.error(
                            codes::KIND_MISMATCH,
                            sp,
                            format!("groupByKey applied to {t}; it requires a flat (k, v) bag"),
                            e,
                        );
                        Ty::Unknown
                    }
                    Ty::Bag(d) => {
                        if d >= 2 && level == 0 {
                            self.error(codes::TOO_DEEP, sp, TOO_DEEP_MSG.to_string(), e);
                        }
                        Ty::Bag(2)
                    }
                    Ty::Unknown => Ty::Bag(2),
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
                    Ty::Bag(d) => Ty::Bag(d),
                    _ => Ty::Bag(1),
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
                Ty::Bag(1)
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
                Ty::Bag(1)
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
                Ty::Scalar
            }
            Expr::Join(a, b) => {
                for side in [a, b] {
                    let t = self.infer(side, level, side.span().or(sp));
                    if t != Ty::Bag(1) && t != Ty::Unknown {
                        self.error(
                            codes::KIND_MISMATCH,
                            side.span().or(sp),
                            format!("join requires flat (key, value) bags, found {t}"),
                            side,
                        );
                    }
                }
                Ty::Bag(1)
            }
            Expr::Union(a, b) => {
                let ta = self.infer(a, level, a.span().or(sp));
                let tb = self.infer(b, level, b.span().or(sp));
                for (side, t) in [(a, ta), (b, tb)] {
                    if matches!(t, Ty::Scalar | Ty::Group(_)) || matches!(t, Ty::Bag(d) if d >= 2) {
                        self.error(
                            codes::KIND_MISMATCH,
                            side.span().or(sp),
                            format!("union requires flat bags, found {t}"),
                            side,
                        );
                    }
                }
                if let (Ty::Bag(da), Ty::Bag(db)) = (ta, tb) {
                    if da != db {
                        self.error(
                            codes::BRANCH_MISMATCH,
                            sp,
                            format!("the sides of a union have different types: {ta} vs {tb}"),
                            e,
                        );
                    }
                }
                Ty::Bag(1)
            }
            Expr::Distinct(x) => {
                let t = self.infer(x, level, x.span().or(sp));
                if matches!(t, Ty::Scalar | Ty::Group(_)) || matches!(t, Ty::Bag(d) if d >= 2) {
                    self.error(
                        codes::KIND_MISMATCH,
                        sp,
                        format!("distinct applied to {t}; it requires a flat bag"),
                        e,
                    );
                    return Ty::Unknown;
                }
                Ty::Bag(1)
            }
            Expr::Count(x) => {
                let t = self.infer(x, level, x.span().or(sp));
                if matches!(t, Ty::Scalar | Ty::Group(_)) {
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
        match t {
            Ty::Scalar | Ty::Group(_) => {
                self.error(
                    codes::KIND_MISMATCH,
                    input.span().or(sp),
                    format!("{op} applied to {t}; it requires a flat bag"),
                    input,
                );
            }
            Ty::Bag(d) if d >= 2 => {
                self.error(
                    codes::KIND_MISMATCH,
                    input.span().or(sp),
                    format!("{op} applied to {t}; it requires a flat bag"),
                    input,
                );
            }
            _ => {}
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
        if matches!(tin, Ty::Scalar | Ty::Group(_)) {
            self.error(
                codes::KIND_MISMATCH,
                input.span().or(sp),
                format!("map applied to {tin}; map requires a bag"),
                input,
            );
        }
        let needs_lift = l.body.contains_bag_ops() || matches!(tin, Ty::Bag(d) if d >= 2);
        self.lifts.push(needs_lift);
        if needs_lift && level >= 1 {
            self.error(codes::TOO_DEEP, sp, TOO_DEEP_MSG.to_string(), node);
        }
        let param_ty = match tin {
            Ty::Bag(1) => Ty::Scalar,
            Ty::Bag(d) if d >= 2 => Ty::Group(d - 1),
            _ => Ty::Unknown,
        };
        let body_level = if needs_lift { level + 1 } else { level };
        self.push_param(&l.param, param_ty, body_level);
        let tb = self.infer(&l.body, body_level, l.body.span().or(sp));
        self.summarize_udf(if needs_lift { "lifted map" } else { "map" }, sp, l, needs_lift);
        self.pop();
        if tb.is_baggy() {
            if !needs_lift {
                // A leaf UDF producing a bag can only happen through a
                // bag-typed variable; the runtime rejects the capture.
                self.error(
                    codes::INNER_BAG_ESCAPE,
                    sp,
                    format!(
                        "the map UDF closure returns {tb} without being lifted; \
                         bags cannot escape a leaf UDF"
                    ),
                    node,
                );
                return Ty::Bag(1);
            }
            if let Ty::Group(_) = tb {
                self.error(
                    codes::INNER_BAG_ESCAPE,
                    sp,
                    format!(
                        "the lifted map UDF returns {tb}; the inner bag of a group pair \
                         cannot escape its group"
                    ),
                    node,
                );
                return Ty::Bag(1);
            }
        }
        if needs_lift {
            self.check_lifted_result(tb, sp, node);
        }
        match (tin, tb) {
            (Ty::Unknown, _) => Ty::Unknown,
            (_, Ty::Bag(_)) if needs_lift => Ty::Bag(2),
            _ => Ty::Bag(1),
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
        if matches!(tin, Ty::Scalar | Ty::Group(_)) {
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
        let param_ty = match tin {
            Ty::Bag(d) if d >= 2 => Ty::Group(d - 1),
            Ty::Bag(_) => Ty::Scalar,
            _ => Ty::Unknown,
        };
        self.push_param(&udf.param, param_ty, level + 1);
        let tb = self.infer(&udf.body, level + 1, udf.body.span().or(sp));
        self.summarize_udf("lifted map", sp, udf, true);
        self.pop();
        if let Ty::Group(_) = tb {
            self.error(
                codes::INNER_BAG_ESCAPE,
                sp,
                format!(
                    "the lifted map UDF returns {tb}; the inner bag of a group pair cannot \
                     escape its group"
                ),
                node,
            );
            return Ty::Bag(1);
        }
        self.check_lifted_result(tb, sp, node);
        match tb {
            Ty::Bag(_) => Ty::Bag(2),
            _ => Ty::Bag(1),
        }
    }

    /// A lifted UDF that returns a nested bag (it can only have captured
    /// one) would produce three levels.
    fn check_lifted_result(&mut self, tb: Ty, sp: Option<Span>, node: &Expr) {
        if matches!(tb, Ty::Bag(2..)) {
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
            if level >= 1 && matches!(t, Ty::Group(_) | Ty::Bag(2..)) {
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
    /// scalar, infer the body at the same level, record the summary.
    fn check_leaf_lambda(
        &mut self,
        op: &'static str,
        l: &Lambda,
        level: u32,
        sp: Option<Span>,
    ) -> Ty {
        self.push_param(&l.param, Ty::Scalar, level);
        let tb = self.infer(&l.body, level, l.body.span().or(sp));
        self.summarize_udf(op, sp, l, false);
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

    /// Record a [`UdfSummary`] for `l` and validate its captures. Must run
    /// while the lambda's parameter is still the innermost binding.
    fn summarize_udf(
        &mut self,
        op: &'static str,
        sp: Option<Span>,
        l: &Lambda,
        bag_launching: bool,
    ) {
        let names = super::captures::capture_names(&l.body, &[&l.param]);
        let mut captures = Vec::with_capacity(names.len());
        for name in names {
            let Some((ty, _)) = self.peek(&name) else {
                // Unbound: MAT001 was reported while inferring the body.
                captures.push((name, Ty::Unknown));
                continue;
            };
            // Leaf UDFs run as pure closures: they may only capture scalars.
            // (Lifted-scalar captures lower to a tag join, mapWithClosure.)
            if !bag_launching && ty.is_baggy() {
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
            captures.push((name, ty));
        }
        self.udfs.push(UdfSummary {
            op,
            span: sp,
            params: vec![l.param.clone()],
            captures,
            pure_scalar: !l.body.contains_bag_ops(),
            bag_launching,
        });
    }
}
