//! The abstract syntax tree of the embedded nested-parallel language.
//!
//! This is the Rust equivalent of the paper's Emma programs: a collection
//! (`Bag`) language with nested bags, nested parallel operations and
//! imperative-style control flow. The paper's parsing phase operates on
//! Scala ASTs via macros; here the AST is an explicit data structure that
//! the parsing phase (`crate::parse`) rewrites, inserting the nesting
//! primitives `GroupByKeyIntoNestedBag` and `MapWithLiftedUdf` — exactly the
//! Listing 1 → Listing 2 transformation.
//!
//! Control flow note: `Loop` is already the *higher-order functional form*
//! the paper's Sec. 6.1 converts `while` statements into — the body maps the
//! previous loop-variable values to the next values plus the exit condition.

use std::sync::Arc;

use crate::value::Value;

/// A half-open byte range `[start, end)` into the source text a node was
/// parsed from. Hand-built ASTs carry no spans; the text front-end
/// (`crate::syntax`) attaches them so that analysis diagnostics
/// (`crate::analyze`) can point at source locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte of the node.
    pub start: usize,
    /// Byte offset one past the last byte of the node.
    pub end: usize,
}

impl Span {
    /// Construct a span from byte offsets.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }
}

/// Binary scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition (numeric).
    Add,
    /// Subtraction (numeric).
    Sub,
    /// Multiplication (numeric).
    Mul,
    /// Division (always produces a Double).
    Div,
    /// Equality (any values).
    Eq,
    /// Less-than (numeric).
    Lt,
    /// Greater-than (numeric).
    Gt,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// The operator's surface-syntax symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "==",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary scalar operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical negation.
    Not,
    /// Numeric negation.
    Neg,
    /// Long -> Double widening.
    ToDouble,
}

/// A one-parameter anonymous function (UDF).
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Parameter name, bound inside `body`.
    pub param: String,
    /// Function body.
    pub body: Arc<Expr>,
}

impl Lambda {
    /// Construct a lambda.
    pub fn new(param: &str, body: Expr) -> Lambda {
        Lambda { param: param.to_string(), body: Arc::new(body) }
    }
}

/// A two-parameter anonymous function (for reductions and joins-by-UDF).
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda2 {
    /// First parameter name.
    pub a: String,
    /// Second parameter name.
    pub b: String,
    /// Function body.
    pub body: Arc<Expr>,
}

impl Lambda2 {
    /// Construct a two-parameter lambda.
    pub fn new(a: &str, b: &str, body: Expr) -> Lambda2 {
        Lambda2 { a: a.to_string(), b: b.to_string(), body: Arc::new(body) }
    }
}

/// Expressions of the nested-parallel language. Scalar- and bag-typed
/// expressions share one syntax; the analyzer ([`crate::analyze()`]) tells
/// them apart.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A source-location annotation wrapping another expression. Inserted by
    /// the text front-end ([`crate::syntax`]); transparent to evaluation,
    /// rewriting and printing, and consumed by the static analyzer
    /// ([`crate::analyze()`]) to attach byte spans to diagnostics.
    Spanned(Span, Box<Expr>),
    /// A literal value.
    Const(Value),
    /// A variable reference.
    Var(String),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// Tuple projection.
    Proj(Box<Expr>, usize),
    /// Binary scalar operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary scalar operation.
    Un(UnOp, Box<Expr>),
    /// `let name = value in body`.
    Let(String, Box<Expr>, Box<Expr>),
    /// Conditional (both scalar- and bag-typed branches are allowed).
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A while loop in higher-order functional form (Sec. 6.1): the
    /// variables start from `init`, each iteration rebinds them to `step`'s
    /// values, and iteration continues while `cond` (evaluated on the
    /// current variables) holds. Evaluates to `result`.
    Loop {
        /// Loop variables with their initializers.
        init: Vec<(String, Expr)>,
        /// Continue-condition over the loop variables.
        cond: Box<Expr>,
        /// Next values of the loop variables, in order.
        step: Vec<Expr>,
        /// Result expression over the final loop variables.
        result: Box<Expr>,
    },

    // --- bag operations -----------------------------------------------
    /// A named input bag, bound when the program runs.
    Source(String),
    /// Element-wise transformation.
    Map(Box<Expr>, Lambda),
    /// Element-wise filtering.
    Filter(Box<Expr>, Lambda),
    /// Element-to-many transformation; the lambda returns a tuple whose
    /// components are emitted individually.
    FlatMapTuple(Box<Expr>, Lambda),
    /// Group a bag of `(key, value)` tuples by key. The paper's nested-bag
    /// producer: its conceptual output type is `Bag[(K, Bag[V])]`.
    GroupByKey(Box<Expr>),
    /// Merge values per key of a `(key, value)` bag.
    ReduceByKey(Box<Expr>, Lambda2),
    /// Equi-join two `(key, value)` bags on their keys.
    Join(Box<Expr>, Box<Expr>),
    /// Duplicate elimination.
    Distinct(Box<Expr>),
    /// Bag union.
    Union(Box<Expr>, Box<Expr>),
    /// Number of elements (scalar result).
    Count(Box<Expr>),
    /// Fold to a scalar with zero and combine (the UDF must be scalar-only:
    /// bags inside aggregation UDFs are outside the flattening's
    /// completeness preconditions, Sec. 7).
    Fold(Box<Expr>, Box<Expr>, Lambda2),
    /// Explicit materialization hint: evaluate the child once and reuse the
    /// shared partitions for every consumer. Semantically the identity;
    /// inserted by the plan-rewrite pass ([`crate::analyze::plan`]) above
    /// hoisted loop-invariant subplans and merged common subexpressions,
    /// and writable in source as `cache(e)`. Opaque to further rewriting
    /// (a cache node is a hoist/CSE barrier, like the engine's
    /// `checkpoint`).
    Cache(Box<Expr>),

    // --- nesting primitives (inserted by the parsing phase) ------------
    /// `groupByKeyIntoNestedBag` (paper Listing 2 line 3).
    GroupByKeyIntoNestedBag(Box<Expr>),
    /// `mapWithLiftedUDF` (paper Listing 2 line 4): the UDF runs *once*
    /// over the lifted primitives. `closures` lists outer variables the UDF
    /// reads (made explicit by the parsing phase, Sec. 5).
    MapWithLiftedUdf {
        /// The (nested) input.
        input: Box<Expr>,
        /// The lifted UDF; its parameter binds to the `(outer, inner)`
        /// pair of the NestedBag.
        udf: Lambda,
        /// Names of enclosing bindings the UDF captures.
        closures: Vec<String>,
    },
}

/// How a parent evaluates one of its children (see
/// [`Expr::for_each_child`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Evaluated once whenever the parent is.
    Operand,
    /// An `if` arm: evaluated at most once.
    Branch,
    /// A loop step: evaluated once per iteration, so zero times when a
    /// driver-level `while` exits at once (a lifted loop is a do-while).
    Step,
    /// A UDF body: evaluated per record, in the UDF's own environment.
    Udf,
}

/// The names a parent binds around one child, outermost first: lambda
/// parameters, a `let` name, or the loop variables in scope.
#[derive(Debug, Clone, Copy)]
pub struct Binds<'a> {
    params: [Option<&'a str>; 2],
    loop_vars: &'a [(String, Expr)],
}

impl<'a> Binds<'a> {
    const NONE: Binds<'static> = Binds { params: [None, None], loop_vars: &[] };

    fn params(a: &'a str, b: Option<&'a str>) -> Binds<'a> {
        Binds { params: [Some(a), b], loop_vars: &[] }
    }

    fn loop_vars(vars: &'a [(String, Expr)]) -> Binds<'a> {
        Binds { params: [None, None], loop_vars: vars }
    }

    /// Run `f` with the bound names pushed on the scope stack `scope`.
    pub fn scoped<T: From<&'a str>, R>(
        self,
        scope: &mut Vec<T>,
        f: impl FnOnce(&mut Vec<T>) -> R,
    ) -> R {
        let outer = scope.len();
        scope.extend(self.iter().map(T::from));
        let out = f(scope);
        scope.truncate(outer);
        out
    }

    /// The bound names, outermost first.
    pub fn iter(self) -> impl Iterator<Item = &'a str> {
        self.params.into_iter().flatten().chain(self.loop_vars.iter().map(|(n, _)| n.as_str()))
    }
}

/// What the callback of [`Expr::map_children`] may return for a child.
pub trait MappedChild {
    /// The new child, given the old one.
    fn child(self, old: &Expr) -> Expr;
    /// The new UDF body, given the old one.
    fn body(self, old: &Arc<Expr>) -> Arc<Expr>;
}

impl MappedChild for Expr {
    fn child(self, _: &Expr) -> Expr {
        self
    }
    fn body(self, _: &Arc<Expr>) -> Arc<Expr> {
        Arc::new(self)
    }
}

/// `None` keeps the old child.
impl MappedChild for Option<Expr> {
    fn child(self, old: &Expr) -> Expr {
        self.unwrap_or_else(|| old.clone())
    }
    fn body(self, old: &Arc<Expr>) -> Arc<Expr> {
        self.map_or_else(|| Arc::clone(old), Arc::new)
    }
}

impl Expr {
    /// `let`-builder.
    pub fn let_(name: &str, value: Expr, body: Expr) -> Expr {
        Expr::Let(name.to_string(), Box::new(value), Box::new(body))
    }
    /// Variable reference builder.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }
    /// Long literal builder.
    pub fn long(x: i64) -> Expr {
        Expr::Const(Value::Long(x))
    }
    /// Binary-op builder.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
    /// Projection builder.
    pub fn proj(e: Expr, i: usize) -> Expr {
        Expr::Proj(Box::new(e), i)
    }

    /// Peel any [`Expr::Spanned`] annotations off the outermost node.
    pub fn unspanned(&self) -> &Expr {
        let mut e = self;
        while let Expr::Spanned(_, inner) = e {
            e = inner;
        }
        e
    }

    /// The outermost source span, if the node carries one.
    pub fn span(&self) -> Option<Span> {
        match self {
            Expr::Spanned(sp, _) => Some(*sp),
            _ => None,
        }
    }

    /// Call `f` on each direct child, in evaluation order, with the names
    /// this node binds around that child and the [`Slot`] it fills. Together
    /// with [`Expr::map_children`] this is the only statement of which
    /// children and binders a variant has; every structural pass (free
    /// variables, canonical keys, span stripping, the plan rewrites, the
    /// parsing-phase rewrite) is written against the two.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr, Binds<'a>, Slot)) {
        use Slot::{Branch, Operand, Step, Udf};
        const NONE: Binds<'static> = Binds::NONE;
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Source(_) => {}
            Expr::Spanned(_, x)
            | Expr::Proj(x, _)
            | Expr::Un(_, x)
            | Expr::GroupByKey(x)
            | Expr::Distinct(x)
            | Expr::Count(x)
            | Expr::Cache(x)
            | Expr::GroupByKeyIntoNestedBag(x) => f(x, NONE, Operand),
            Expr::Tuple(items) => items.iter().for_each(|x| f(x, NONE, Operand)),
            Expr::Bin(_, a, b) | Expr::Join(a, b) | Expr::Union(a, b) => {
                f(a, NONE, Operand);
                f(b, NONE, Operand);
            }
            Expr::Let(n, v, b) => {
                f(v, NONE, Operand);
                f(b, Binds::params(n, None), Operand);
            }
            Expr::If(c, t, e) => {
                f(c, NONE, Operand);
                f(t, NONE, Branch);
                f(e, NONE, Branch);
            }
            Expr::Loop { init, cond, step, result } => {
                for (i, (_, x)) in init.iter().enumerate() {
                    f(x, Binds::loop_vars(&init[..i]), Operand);
                }
                let all = Binds::loop_vars(init);
                f(cond, all, Operand);
                step.iter().for_each(|x| f(x, all, Step));
                f(result, all, Operand);
            }
            Expr::Map(x, l)
            | Expr::Filter(x, l)
            | Expr::FlatMapTuple(x, l)
            | Expr::MapWithLiftedUdf { input: x, udf: l, .. } => {
                f(x, NONE, Operand);
                f(&l.body, Binds::params(&l.param, None), Udf);
            }
            Expr::ReduceByKey(x, l2) => {
                f(x, NONE, Operand);
                f(&l2.body, Binds::params(&l2.a, Some(&l2.b)), Udf);
            }
            Expr::Fold(x, z, l2) => {
                f(x, NONE, Operand);
                f(z, NONE, Operand);
                f(&l2.body, Binds::params(&l2.a, Some(&l2.b)), Udf);
            }
        }
    }

    /// Rebuild this node with `f` applied to each direct child: the same
    /// enumeration as [`Expr::for_each_child`] (same order, binders and
    /// slots), everything that is not a child copied over. `f` returns the
    /// new child as an `Expr`, or as an `Option<Expr>` whose `None` keeps
    /// the child — a kept UDF body keeps its `Arc` instead of being copied.
    pub fn map_children<'a, R: MappedChild>(
        &'a self,
        mut f: impl FnMut(&'a Expr, Binds<'a>, Slot) -> R,
    ) -> Expr {
        use Slot::{Branch, Operand, Step, Udf};
        const NONE: Binds<'static> = Binds::NONE;
        type F<'a, 'f, R> = &'f mut dyn FnMut(&'a Expr, Binds<'a>, Slot) -> R;
        fn op<'a, R: MappedChild>(f: F<'a, '_, R>, x: &'a Expr) -> Box<Expr> {
            Box::new(f(x, NONE, Operand).child(x))
        }
        fn lam<'a, R: MappedChild>(f: F<'a, '_, R>, l: &'a Lambda) -> Lambda {
            let body = f(&l.body, Binds::params(&l.param, None), Udf).body(&l.body);
            Lambda { param: l.param.clone(), body }
        }
        fn lam2<'a, R: MappedChild>(f: F<'a, '_, R>, l: &'a Lambda2) -> Lambda2 {
            let body = f(&l.body, Binds::params(&l.a, Some(&l.b)), Udf).body(&l.body);
            Lambda2 { a: l.a.clone(), b: l.b.clone(), body }
        }
        let f: F<'a, '_, R> = &mut f;
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Source(_) => self.clone(),
            Expr::Spanned(sp, x) => Expr::Spanned(*sp, op(f, x)),
            Expr::Tuple(items) => {
                Expr::Tuple(items.iter().map(|x| f(x, NONE, Operand).child(x)).collect())
            }
            Expr::Proj(x, i) => Expr::Proj(op(f, x), *i),
            Expr::Bin(o, a, b) => Expr::Bin(*o, op(f, a), op(f, b)),
            Expr::Un(o, x) => Expr::Un(*o, op(f, x)),
            Expr::Let(n, v, b) => {
                let v = op(f, v);
                Expr::Let(n.clone(), v, Box::new(f(b, Binds::params(n, None), Operand).child(b)))
            }
            Expr::If(c, t, e) => Expr::If(
                op(f, c),
                Box::new(f(t, NONE, Branch).child(t)),
                Box::new(f(e, NONE, Branch).child(e)),
            ),
            Expr::Loop { init, cond, step, result } => {
                let all = Binds::loop_vars(init);
                Expr::Loop {
                    init: init
                        .iter()
                        .enumerate()
                        .map(|(i, (n, x))| {
                            (n.clone(), f(x, Binds::loop_vars(&init[..i]), Operand).child(x))
                        })
                        .collect(),
                    cond: Box::new(f(cond, all, Operand).child(cond)),
                    step: step.iter().map(|x| f(x, all, Step).child(x)).collect(),
                    result: Box::new(f(result, all, Operand).child(result)),
                }
            }
            Expr::Map(x, l) => Expr::Map(op(f, x), lam(f, l)),
            Expr::Filter(x, l) => Expr::Filter(op(f, x), lam(f, l)),
            Expr::FlatMapTuple(x, l) => Expr::FlatMapTuple(op(f, x), lam(f, l)),
            Expr::GroupByKey(x) => Expr::GroupByKey(op(f, x)),
            Expr::ReduceByKey(x, l) => Expr::ReduceByKey(op(f, x), lam2(f, l)),
            Expr::Join(a, b) => Expr::Join(op(f, a), op(f, b)),
            Expr::Distinct(x) => Expr::Distinct(op(f, x)),
            Expr::Union(a, b) => Expr::Union(op(f, a), op(f, b)),
            Expr::Count(x) => Expr::Count(op(f, x)),
            Expr::Fold(x, z, l) => Expr::Fold(op(f, x), op(f, z), lam2(f, l)),
            Expr::Cache(x) => Expr::Cache(op(f, x)),
            Expr::GroupByKeyIntoNestedBag(x) => Expr::GroupByKeyIntoNestedBag(op(f, x)),
            Expr::MapWithLiftedUdf { input, udf, closures } => Expr::MapWithLiftedUdf {
                input: op(f, input),
                udf: lam(f, udf),
                closures: closures.clone(),
            },
        }
    }

    /// A short, stable name for the variant: the head of the plan rewriter's
    /// canonical keys ([`crate::analyze::plan`]).
    pub fn tag(&self) -> &'static str {
        match self {
            Expr::Spanned(..) => "span",
            Expr::Const(_) => "c",
            Expr::Var(_) => "v",
            Expr::Tuple(_) => "t",
            Expr::Proj(..) => "p",
            Expr::Bin(..) => "bin",
            Expr::Un(..) => "un",
            Expr::Let(..) => "let",
            Expr::If(..) => "if",
            Expr::Loop { .. } => "loop",
            Expr::Source(_) => "s",
            Expr::Map(..) => "map",
            Expr::Filter(..) => "fil",
            Expr::FlatMapTuple(..) => "fmt",
            Expr::GroupByKey(_) => "gbk",
            Expr::ReduceByKey(..) => "rbk",
            Expr::Join(..) => "join",
            Expr::Distinct(_) => "dis",
            Expr::Union(..) => "uni",
            Expr::Count(_) => "cnt",
            Expr::Fold(..) => "fold",
            Expr::Cache(_) => "cache",
            Expr::GroupByKeyIntoNestedBag(_) => "gbkn",
            Expr::MapWithLiftedUdf { .. } => "mwlu",
        }
    }

    /// A copy of the expression with every [`Expr::Spanned`] annotation
    /// removed (spans carry no semantics; this normalizes parsed programs
    /// for structural comparison with hand-built ASTs).
    pub fn strip_spans(&self) -> Expr {
        match self {
            Expr::Spanned(_, inner) => inner.strip_spans(),
            _ => self.map_children(|c, _, _| c.strip_spans()),
        }
    }

    /// Is this node itself a bag operation (a source or an operator over
    /// bags)? `cache` is not: it is the identity on whatever it wraps.
    pub fn is_bag_op(&self) -> bool {
        matches!(
            self,
            Expr::Source(_)
                | Expr::Map(..)
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

    /// Does this expression *contain* any bag operation? (Decides which map
    /// UDFs must be lifted: "the operation's UDF contains bag operations",
    /// Sec. 7.)
    pub fn contains_bag_ops(&self) -> bool {
        let mut found = self.is_bag_op();
        self.for_each_child(|c, _, _| found = found || c.contains_bag_ops());
        found
    }

    /// Visit every sub-expression (pre-order). [`Expr::Spanned`] wrappers
    /// are visited like any other node (peel with [`Expr::unspanned`] when
    /// matching on shapes).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(|c, _, _| c.visit(f));
    }

    /// Free variables of the expression (everything not bound by a `let`,
    /// lambda parameter, or loop variable), excluding source names, in
    /// first-use order.
    pub fn free_vars(&self) -> Vec<String> {
        fn go<'a>(e: &'a Expr, bound: &mut Vec<&'a str>, out: &mut Vec<String>) {
            if let Expr::Var(n) = e {
                if !bound.contains(&n.as_str()) && !out.contains(n) {
                    out.push(n.clone());
                }
            }
            e.for_each_child(|c, binds, _| binds.scoped(bound, |bound| go(c, bound, out)));
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_bag_ops_detects_nesting() {
        let scalar_only = Expr::bin(BinOp::Add, Expr::long(1), Expr::var("x"));
        assert!(!scalar_only.contains_bag_ops());
        let with_bag = Expr::Count(Box::new(Expr::Source("xs".into())));
        assert!(with_bag.contains_bag_ops());
        let nested = Expr::let_("n", with_bag, Expr::var("n"));
        assert!(nested.contains_bag_ops());
    }

    #[test]
    fn free_vars_respect_binders() {
        // let a = x in a + b   -> free: x, b
        let e =
            Expr::let_("a", Expr::var("x"), Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")));
        assert_eq!(e.free_vars(), vec!["x".to_string(), "b".to_string()]);
    }

    #[test]
    fn lambda_params_are_bound() {
        // xs.map(p => p + q): free = q (xs is a source, not a var)
        let e = Expr::Map(
            Box::new(Expr::Source("xs".into())),
            Lambda::new("p", Expr::bin(BinOp::Add, Expr::var("p"), Expr::var("q"))),
        );
        assert_eq!(e.free_vars(), vec!["q".to_string()]);
    }

    #[test]
    fn loop_vars_are_bound_in_body() {
        // The second initializer reads the first variable (bound) and its
        // own name (not yet bound there).
        let e = Expr::Loop {
            init: vec![
                ("i".into(), Expr::long(0)),
                ("j".into(), Expr::bin(BinOp::Add, Expr::var("i"), Expr::var("j"))),
            ],
            cond: Box::new(Expr::bin(BinOp::Lt, Expr::var("i"), Expr::var("limit"))),
            step: vec![Expr::bin(BinOp::Add, Expr::var("i"), Expr::long(1)), Expr::var("j")],
            result: Box::new(Expr::var("i")),
        };
        assert_eq!(e.free_vars(), vec!["j".to_string(), "limit".to_string()]);
    }

    #[test]
    fn visit_reaches_all_nodes() {
        let e = Expr::If(
            Box::new(Expr::var("c")),
            Box::new(Expr::long(1)),
            Box::new(Expr::Tuple(vec![Expr::long(2), Expr::long(3)])),
        );
        let mut n = 0;
        e.visit(&mut |_| n += 1);
        assert_eq!(n, 6); // if, c, 1, tuple, 2, 3
    }

    #[test]
    fn kept_udf_bodies_share_their_arc() {
        let e = Expr::Map(
            Box::new(Expr::Source("xs".into())),
            Lambda::new("p", Expr::bin(BinOp::Add, Expr::var("p"), Expr::long(1))),
        );
        let kept = e.map_children(|c, _, slot| match slot {
            Slot::Udf => None,
            _ => Some(Expr::Distinct(Box::new(c.clone()))),
        });
        let (Expr::Map(_, before), Expr::Map(input, after)) = (&e, &kept) else { panic!() };
        assert!(Arc::ptr_eq(&before.body, &after.body));
        assert!(matches!(**input, Expr::Distinct(_)));
        // A callback that returns the child itself always rebuilds the body.
        let Expr::Map(_, rebuilt) = e.map_children(|c, _, _| c.clone()) else { panic!() };
        assert!(!Arc::ptr_eq(&before.body, &rebuilt.body) && before.body == rebuilt.body);
    }
}
