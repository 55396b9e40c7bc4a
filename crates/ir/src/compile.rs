//! **UDF compilation**: one-time translation of pure scalar `Expr` closures
//! into slot-resolved [`CompiledUdf`] programs, so the lowering phase's
//! per-record UDFs stop paying the tree-walking interpreter's per-`Var`
//! string hashing and per-`Let` environment cloning.
//!
//! The interpreter ([`crate::lower::eval_pure`]) evaluates a UDF body
//! against a `HashMap<String, Value>` for *every record*: each variable
//! reference hashes a string, and each `let`/loop binding mutates a map.
//! Flare (Essertel et al., OSDI '18) showed that once operator plumbing is
//! zero-copy, compiling UDFs out of that interpretive layer is the next big
//! lever — and Labyrinth-style lifted loops re-execute their UDFs every
//! iteration, multiplying the win. This module is that lever for the IR
//! layer:
//!
//! 1. **Slot resolution** — every variable is resolved to a frame-slot
//!    index at compile time. Parameters occupy slots `0..n`; each `let` and
//!    loop binder gets a fresh slot. Shadowing is resolved lexically, so no
//!    runtime lookup ever happens.
//! 2. **Flat register frame** — evaluation runs against a `Vec<Value>`
//!    scratch frame borrowed from a thread-local pool and reused across
//!    records: no per-record environment allocation, no clone-on-`Let`.
//!    Slots are def-before-use by construction (a binder's slot is written
//!    before its body runs), so frames never need clearing between records.
//! 3. **Constant folding** — capture-only subexpressions (closure constants
//!    are inlined as literals at compile time) fold to single constants,
//!    guarded so that folding can never turn a lazily-avoided runtime error
//!    or a debug-mode overflow panic into a compile-time one.
//! 4. **Shape fast paths** — projection chains off a slot (`v.0.1`) walk by
//!    reference and clone once ([`crate::Value::proj_ref`]); statically
//!    `Long`/`Double` arithmetic (typed via [`ScalarKind`], the
//!    type-checker's scalar refinement) skips the dynamic dispatch; and
//!    `if a < b then .. else ..` compares straight into the branch without
//!    materializing a boolean `Value`.
//!
//! Compilation is **total** and **semantics-preserving**: unsupported nodes
//! (bag operations in a scalar context, unbound names) compile to ops that
//! reproduce the interpreter's exact runtime error *if and when they are
//! reached* — an `if` whose untaken branch contains a bag op behaves
//! identically in both engines. The lowering has no interpreted path:
//! `eval_pure` stays only as the differential-testing oracle
//! (`crates/ir/tests/compiled_udf.rs` pins compiled == interpreted over
//! hundreds of seeded random expression trees, through all three entry
//! points). See `docs/ANALYSIS.md`, "UDF compilation".

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::analyze::ScalarKind;
use crate::ast::{BinOp, Expr, UnOp};
use crate::error::{IrError, IrResult};
use crate::lower::{apply_bin, apply_un, compare};
use crate::value::Value;

type PureEnv = HashMap<String, Value>;

/// A pure scalar UDF, compiled once and evaluated per record.
///
/// Construct with [`CompiledUdf::new`]; evaluate with [`CompiledUdf::eval1`]
/// (one-parameter UDFs), [`CompiledUdf::eval2`] (combiners), or
/// [`CompiledUdf::eval_with_combined`] (lifted `mapWithClosure` shapes where
/// the closure values arrive as one combined tuple per tag).
pub struct CompiledUdf {
    /// Number of parameters; they live in frame slots `0..arity`.
    arity: usize,
    code: Op,
    /// The frame size `code` needs.
    frame_len: usize,
}

/// A compiled scalar operation over a register frame.
enum Op {
    /// A literal (also: inlined closure captures and folded constants).
    Const(Value),
    /// Read a frame slot.
    Slot(usize),
    /// Projection chain rooted at a slot: walk by reference, clone once.
    ProjPath(usize, Box<[usize]>),
    /// Generic projection.
    Proj(Box<Op>, usize),
    /// Tuple construction.
    Tuple(Vec<Op>),
    /// Generic binary operator (delegates to [`apply_bin`]).
    Bin(BinOp, Box<Op>, Box<Op>),
    /// `Eq`/`Lt`/`Gt` through [`compare`], which [`apply_bin`] uses too —
    /// skips the generic dispatch on the hottest loop-condition shape.
    Cmp(BinOp, Box<Op>, Box<Op>),
    /// `Add`/`Sub`/`Mul` with both operands statically `Long`.
    LongArith(BinOp, Box<Op>, Box<Op>),
    /// `Add`/`Sub`/`Mul`/`Div` guaranteed to take the `f64` path (at least
    /// one operand statically `Double`, or the operator is `Div`).
    DoubleArith(BinOp, Box<Op>, Box<Op>),
    /// Generic unary operator (delegates to [`apply_un`]).
    Un(UnOp, Box<Op>),
    /// Write a slot, then run the body (no restore needed: slots are unique
    /// per binder, so shadowing is resolved at compile time).
    Let(usize, Box<Op>, Box<Op>),
    /// Conditional.
    If(Box<Op>, Box<Op>, Box<Op>),
    /// Comparison-into-branch fast path: `if a <op> b then t else e`
    /// without materializing the intermediate boolean.
    IfCmp { op: BinOp, a: Box<Op>, b: Box<Op>, then: Box<Op>, els: Box<Op> },
    /// A scalar `while` loop: bind `init` slots in order, then while `cond`
    /// holds re-assign all slots simultaneously from `step`.
    While { init: Vec<(usize, Op)>, cond: Box<Op>, step: Vec<Op>, result: Box<Op> },
    /// A node that errors when (and only when) evaluation reaches it —
    /// preserves the interpreter's lazy error behaviour for unbound names
    /// and bag operations in scalar contexts.
    Fail(IrError),
}

thread_local! {
    /// Per-thread scratch frame, reused across records and across UDFs
    /// (frames only grow; def-before-use slotting makes stale values
    /// unreachable). Taken/replaced rather than borrowed so a re-entrant
    /// evaluation degrades to a fresh allocation instead of a panic.
    static FRAME: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

fn with_frame<R>(frame_len: usize, f: impl FnOnce(&mut [Value]) -> R) -> R {
    FRAME.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < frame_len {
            buf.resize(frame_len, Value::Unit);
        }
        let r = f(&mut buf);
        cell.replace(buf);
        r
    })
}

impl CompiledUdf {
    /// Compile `body` with the given parameter names (slot order) and
    /// closure captures (inlined as constants). Never fails: shapes the
    /// compiler cannot translate become ops that reproduce the interpreter's
    /// behaviour. The fourth parameter is kept for the benchmark's pinned
    /// call and ignored: there is no interpreted mode.
    pub fn new(body: &Arc<Expr>, params: &[&str], captures: PureEnv, _interpret: bool) -> Self {
        let mut c = Compiler {
            captures: &captures,
            scope: params
                .iter()
                .enumerate()
                .map(|(i, p)| (p.to_string(), i, ScalarKind::Any))
                .collect(),
            next_slot: params.len(),
        };
        let (code, _) = c.compile(body);
        CompiledUdf { arity: params.len(), code, frame_len: c.next_slot }
    }

    /// Number of parameters (frame slots `0..arity` are arguments).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Evaluate a one-parameter UDF on one record.
    pub fn eval1(&self, v: &Value) -> IrResult<Value> {
        debug_assert_eq!(self.arity, 1);
        with_frame(self.frame_len, |frame| {
            frame[0] = v.clone();
            self.code.run(frame)
        })
    }

    /// Evaluate a two-parameter UDF (a `reduceByKey`/`fold` combiner).
    pub fn eval2(&self, a: &Value, b: &Value) -> IrResult<Value> {
        debug_assert_eq!(self.arity, 2);
        with_frame(self.frame_len, |frame| {
            frame[0] = a.clone();
            frame[1] = b.clone();
            self.code.run(frame)
        })
    }

    /// Evaluate a lifted-closure UDF: parameter 0 is the record, parameters
    /// `1..` receive the components of the per-tag `combined` closure tuple
    /// (the single tag-joined `mapWithClosure` argument of paper Sec. 5.1).
    pub fn eval_with_combined(&self, v: &Value, combined: &Value) -> IrResult<Value> {
        debug_assert!(self.arity >= 2);
        with_frame(self.frame_len, |frame| {
            frame[0] = v.clone();
            for (i, slot) in frame.iter_mut().enumerate().take(self.arity).skip(1) {
                *slot = combined.proj(i - 1).expect("combined closure arity");
            }
            self.code.run(frame)
        })
    }
}

/// Build a tuple; a pair from an array, not from a collected `Vec`. Out of
/// line: `Op::run` is recursive and pays for its frame at every level.
#[inline(never)]
fn tuple(items: &[Op], frame: &mut [Value]) -> IrResult<Value> {
    Ok(match items {
        [a, b] => Value::pair(a.run(frame)?, b.run(frame)?),
        _ => Value::tuple(items.iter().map(|x| x.run(frame)).collect::<IrResult<_>>()?),
    })
}

impl Op {
    fn run(&self, frame: &mut [Value]) -> IrResult<Value> {
        Ok(match self {
            Op::Const(v) => v.clone(),
            Op::Slot(s) => frame[*s].clone(),
            Op::ProjPath(s, path) => {
                let mut cur = &frame[*s];
                for &i in path.iter() {
                    cur = cur.proj_ref(i)?;
                }
                cur.clone()
            }
            Op::Proj(x, i) => x.run(frame)?.proj(*i)?,
            Op::Tuple(items) => tuple(items, frame)?,
            Op::Bin(op, a, b) => apply_bin(*op, &a.run(frame)?, &b.run(frame)?)?,
            Op::Cmp(op, a, b) => Value::Bool(compare(*op, &a.run(frame)?, &b.run(frame)?)?),
            Op::LongArith(op, a, b) => match (a.run(frame)?, b.run(frame)?) {
                (Value::Long(x), Value::Long(y)) => Value::Long(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    _ => x * y,
                }),
                // The static `Long` guarantee is belt-and-braces: fall back
                // to the generic operator so a refinement bug can only cost
                // speed, never change a result.
                (x, y) => apply_bin(*op, &x, &y)?,
            },
            Op::DoubleArith(op, a, b) => {
                let (av, bv) = (a.run(frame)?, b.run(frame)?);
                if let (Value::Long(_), Value::Long(_)) = (&av, &bv) {
                    // Statically unreachable for Add/Sub/Mul (one side is
                    // proven Double); Div lands here and takes the same
                    // two-float path either way.
                    apply_bin(*op, &av, &bv)?
                } else {
                    let (x, y) = (av.as_f64()?, bv.as_f64()?);
                    Value::Double(match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        _ => x / y,
                    })
                }
            }
            Op::Un(op, a) => apply_un(*op, &a.run(frame)?)?,
            Op::Let(slot, v, b) => {
                frame[*slot] = v.run(frame)?;
                b.run(frame)?
            }
            Op::If(c, t, e) => {
                if c.run(frame)?.as_bool()? {
                    t.run(frame)?
                } else {
                    e.run(frame)?
                }
            }
            Op::IfCmp { op, a, b, then, els } => {
                if compare(*op, &a.run(frame)?, &b.run(frame)?)? {
                    then.run(frame)?
                } else {
                    els.run(frame)?
                }
            }
            Op::While { init, cond, step, result } => {
                for (slot, op) in init {
                    frame[*slot] = op.run(frame)?;
                }
                // One scratch buffer for the whole loop: the simultaneous
                // step assignment needs staging, but not a fresh Vec per
                // iteration.
                let mut next = Vec::with_capacity(step.len());
                while cond.run(frame)?.as_bool()? {
                    for op in step {
                        next.push(op.run(frame)?);
                    }
                    for ((slot, _), v) in init.iter().zip(next.drain(..)) {
                        frame[*slot] = v;
                    }
                }
                result.run(frame)?
            }
            Op::Fail(e) => return Err(e.clone()),
        })
    }

    fn as_const(&self) -> Option<&Value> {
        match self {
            Op::Const(v) => Some(v),
            _ => None,
        }
    }
}

/// Compile-time state: the capture environment (inlined as constants) and
/// the lexical scope mapping names to slots with their static kinds.
struct Compiler<'a> {
    captures: &'a PureEnv,
    /// Innermost binding last; resolved back-to-front.
    scope: Vec<(String, usize, ScalarKind)>,
    next_slot: usize,
}

/// Folding a `Long` arithmetic constant is only safe when it provably
/// cannot overflow (a debug-build overflow must keep panicking at *run*
/// time, per record, exactly like the interpreter — not at compile time,
/// where even a never-evaluated UDF over an empty bag would trip it).
fn fold_safe_long(v: &Value) -> bool {
    match v {
        Value::Long(x) => x.unsigned_abs() < (1 << 31),
        _ => true,
    }
}

/// Fold an op whose operands are all constants into a constant, unless
/// evaluation fails (keep the op: the error must stay lazy) or a `Long`
/// operand is large enough that debug-overflow semantics could differ.
fn try_fold(op: Op) -> Op {
    let foldable = match &op {
        Op::Tuple(items) => items.iter().all(|x| x.as_const().is_some()),
        Op::Proj(x, _) => x.as_const().is_some(),
        Op::Bin(b, x, y) | Op::Cmp(b, x, y) | Op::LongArith(b, x, y) | Op::DoubleArith(b, x, y) => {
            let arith = matches!(b, BinOp::Add | BinOp::Sub | BinOp::Mul);
            match (x.as_const(), y.as_const()) {
                (Some(xv), Some(yv)) => !arith || (fold_safe_long(xv) && fold_safe_long(yv)),
                _ => false,
            }
        }
        Op::Un(u, x) => match x.as_const() {
            Some(xv) => !matches!(u, UnOp::Neg) || fold_safe_long(xv),
            None => false,
        },
        _ => false,
    };
    if foldable {
        let mut empty: [Value; 0] = [];
        if let Ok(v) = op.run(&mut empty) {
            return Op::Const(v);
        }
    }
    op
}

impl Compiler<'_> {
    fn fresh_slot(&mut self) -> usize {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    /// The static result kind of an already-compiled op (post-fold).
    fn kind_of_const(op: &Op) -> Option<ScalarKind> {
        op.as_const().map(ScalarKind::of_value)
    }

    fn compile(&mut self, e: &Expr) -> (Op, ScalarKind) {
        match e {
            Expr::Spanned(_, inner) => self.compile(inner),
            Expr::Const(v) => (Op::Const(v.clone()), ScalarKind::of_value(v)),
            Expr::Var(n) => {
                if let Some((_, slot, kind)) =
                    self.scope.iter().rev().find(|(name, _, _)| name == n)
                {
                    return (Op::Slot(*slot), *kind);
                }
                match self.captures.get(n) {
                    Some(v) => (Op::Const(v.clone()), ScalarKind::of_value(v)),
                    None => (Op::Fail(IrError::Unbound(n.clone())), ScalarKind::Any),
                }
            }
            Expr::Tuple(items) => {
                let ops = items.iter().map(|x| self.compile(x).0).collect();
                let op = try_fold(Op::Tuple(ops));
                (op, ScalarKind::Tuple)
            }
            Expr::Proj(x, i) => {
                let (xo, _) = self.compile(x);
                let op = match xo {
                    Op::Slot(s) => Op::ProjPath(s, Box::new([*i])),
                    Op::ProjPath(s, path) => {
                        let mut p = path.into_vec();
                        p.push(*i);
                        Op::ProjPath(s, p.into_boxed_slice())
                    }
                    other => try_fold(Op::Proj(Box::new(other), *i)),
                };
                let kind = Self::kind_of_const(&op).unwrap_or(ScalarKind::Any);
                (op, kind)
            }
            Expr::Bin(op, a, b) => {
                let (ao, ak) = self.compile(a);
                let (bo, bk) = self.compile(b);
                let (a, b) = (Box::new(ao), Box::new(bo));
                let (compiled, kind) = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {
                        if ak == ScalarKind::Long && bk == ScalarKind::Long {
                            (Op::LongArith(*op, a, b), ScalarKind::Long)
                        } else if ak == ScalarKind::Double || bk == ScalarKind::Double {
                            (Op::DoubleArith(*op, a, b), ScalarKind::Double)
                        } else {
                            let k = if ak.is_numeric() && bk.is_numeric() {
                                ScalarKind::Double
                            } else {
                                ScalarKind::Any
                            };
                            (Op::Bin(*op, a, b), k)
                        }
                    }
                    BinOp::Div => (Op::DoubleArith(*op, a, b), ScalarKind::Double),
                    BinOp::Eq | BinOp::Lt | BinOp::Gt => (Op::Cmp(*op, a, b), ScalarKind::Bool),
                    BinOp::And | BinOp::Or => (Op::Bin(*op, a, b), ScalarKind::Bool),
                };
                let folded = try_fold(compiled);
                let kind = Self::kind_of_const(&folded).unwrap_or(kind);
                (folded, kind)
            }
            Expr::Un(op, a) => {
                let (ao, ak) = self.compile(a);
                let kind = match op {
                    UnOp::Not => ScalarKind::Bool,
                    UnOp::ToDouble => ScalarKind::Double,
                    UnOp::Neg => match ak {
                        ScalarKind::Long => ScalarKind::Long,
                        ScalarKind::Double => ScalarKind::Double,
                        _ => ScalarKind::Any,
                    },
                };
                let folded = try_fold(Op::Un(*op, Box::new(ao)));
                let kind = Self::kind_of_const(&folded).unwrap_or(kind);
                (folded, kind)
            }
            Expr::Let(n, v, b) => {
                let (vo, vk) = self.compile(v);
                let slot = self.fresh_slot();
                self.scope.push((n.clone(), slot, vk));
                let (bo, bk) = self.compile(b);
                self.scope.pop();
                // A fully-folded body with a constant (side-effect-free)
                // binding needs neither the binding nor the slot write.
                if bo.as_const().is_some() && vo.as_const().is_some() {
                    return (bo, bk);
                }
                (Op::Let(slot, Box::new(vo), Box::new(bo)), bk)
            }
            Expr::If(c, t, el) => {
                let (co, _) = self.compile(c);
                // A constant boolean condition selects its branch at compile
                // time (the condition is pure, so eliding it is invisible).
                if let Some(Value::Bool(cv)) = co.as_const() {
                    let cv = *cv;
                    return if cv { self.compile(t) } else { self.compile(el) };
                }
                let (to, tk) = self.compile(t);
                let (eo, ek) = self.compile(el);
                let kind = tk.join(ek);
                let op = match co {
                    Op::Cmp(bop, a, b) => {
                        Op::IfCmp { op: bop, a, b, then: Box::new(to), els: Box::new(eo) }
                    }
                    other => Op::If(Box::new(other), Box::new(to), Box::new(eo)),
                };
                (op, kind)
            }
            Expr::Loop { init, cond, step, result } => {
                // Loop variables are re-assigned from `step` every
                // iteration, so a sound static kind is the *loop invariant*:
                // the join of the initializer's kind with the step's kind
                // under that same assumption. Solve by fixpoint — kinds only
                // widen on the flat `ScalarKind` lattice, so this converges
                // in at most `init.len() + 1` passes. Each pass rewinds the
                // slot counter so the final code sees a stable numbering.
                let scope_base = self.scope.len();
                let slot_base = self.next_slot;
                let mut kinds: Option<Vec<ScalarKind>> = None;
                loop {
                    self.scope.truncate(scope_base);
                    self.next_slot = slot_base;
                    // Initializers see the loop variables bound so far (the
                    // interpreter binds them progressively).
                    let mut init_ops = Vec::with_capacity(init.len());
                    let mut assigned = Vec::with_capacity(init.len());
                    for (idx, (n, x)) in init.iter().enumerate() {
                        let (xo, xk) = self.compile(x);
                        let slot = self.fresh_slot();
                        let k = kinds.as_ref().map_or(xk, |ks| ks[idx].join(xk));
                        self.scope.push((n.clone(), slot, k));
                        init_ops.push((slot, xo));
                        assigned.push(k);
                    }
                    let cond_op = self.compile(cond).0;
                    let steps: Vec<(Op, ScalarKind)> =
                        step.iter().map(|x| self.compile(x)).collect();
                    let widened: Vec<ScalarKind> =
                        assigned.iter().zip(steps.iter()).map(|(k, (_, sk))| k.join(*sk)).collect();
                    if widened != assigned {
                        kinds = Some(widened);
                        continue;
                    }
                    let (result_op, rk) = self.compile(result);
                    self.scope.truncate(scope_base);
                    return (
                        Op::While {
                            init: init_ops,
                            cond: Box::new(cond_op),
                            step: steps.into_iter().map(|(o, _)| o).collect(),
                            result: Box::new(result_op),
                        },
                        rk,
                    );
                }
            }
            // A materialization hint on a scalar is the identity, exactly as
            // in the interpreter.
            Expr::Cache(x) => self.compile(x),
            other => (
                // Bag operations in a scalar-only context: the interpreter
                // errors when evaluation *reaches* the node — reproduce that
                // lazily, with the same message.
                Op::Fail(IrError::Unsupported(format!(
                    "bag operation in a scalar-only context: {other:?}"
                ))),
                ScalarKind::Any,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Lambda;
    use crate::lower::eval_pure;

    fn compile1(body: Expr, captures: PureEnv) -> CompiledUdf {
        CompiledUdf::new(&Arc::new(body), &["v"], captures, false)
    }

    fn oracle(body: &Expr, captures: &PureEnv, v: &Value) -> IrResult<Value> {
        let mut env = captures.clone();
        env.insert("v".to_string(), v.clone());
        eval_pure(body, &env)
    }

    #[test]
    fn slots_resolve_params_lets_and_shadowing() {
        // let a = v + 1 in let a = a * 2 in a + v
        let body = Expr::let_(
            "a",
            Expr::bin(BinOp::Add, Expr::var("v"), Expr::long(1)),
            Expr::let_(
                "a",
                Expr::bin(BinOp::Mul, Expr::var("a"), Expr::long(2)),
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("v")),
            ),
        );
        let c = compile1(body.clone(), PureEnv::new());
        for x in [0i64, 5, -3] {
            let v = Value::Long(x);
            assert_eq!(c.eval1(&v).unwrap(), oracle(&body, &PureEnv::new(), &v).unwrap());
        }
        assert_eq!(c.eval1(&Value::Long(5)).unwrap(), Value::Long(17));
    }

    #[test]
    fn captures_inline_and_fold() {
        // v < n * 2 + 1  with n captured: the right side folds to one const.
        let captures = PureEnv::from([("n".to_string(), Value::Long(10))]);
        let body = Expr::bin(
            BinOp::Lt,
            Expr::var("v"),
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::var("n"), Expr::long(2)),
                Expr::long(1),
            ),
        );
        let c = compile1(body.clone(), captures.clone());
        assert_eq!(c.eval1(&Value::Long(20)).unwrap(), Value::Bool(true));
        assert_eq!(c.eval1(&Value::Long(21)).unwrap(), Value::Bool(false));
        assert_eq!(
            c.eval1(&Value::Long(21)).unwrap(),
            oracle(&body, &captures, &Value::Long(21)).unwrap()
        );
    }

    #[test]
    fn projection_chains_walk_by_reference() {
        // v.1.0 over ((..), (x, y))
        let body = Expr::proj(Expr::proj(Expr::var("v"), 1), 0);
        let c = compile1(body, PureEnv::new());
        let v = Value::tuple(vec![
            Value::Long(1),
            Value::tuple(vec![Value::str("inner"), Value::Long(2)]),
        ]);
        assert_eq!(c.eval1(&v).unwrap(), Value::str("inner"));
        // Error parity with the interpreter on a non-tuple.
        let e = c.eval1(&Value::Long(3)).unwrap_err();
        assert!(e.to_string().contains("projection"), "{e}");
    }

    #[test]
    fn while_loops_run_on_slots() {
        // loop (i = v, acc = 0) while i > 0 do (i - 1, acc + i) yield acc
        let body = Expr::Loop {
            init: vec![("i".into(), Expr::var("v")), ("acc".into(), Expr::long(0))],
            cond: Box::new(Expr::bin(BinOp::Gt, Expr::var("i"), Expr::long(0))),
            step: vec![
                Expr::bin(BinOp::Sub, Expr::var("i"), Expr::long(1)),
                Expr::bin(BinOp::Add, Expr::var("acc"), Expr::var("i")),
            ],
            result: Box::new(Expr::var("acc")),
        };
        let c = compile1(body.clone(), PureEnv::new());
        for x in [0i64, 1, 10] {
            let v = Value::Long(x);
            assert_eq!(c.eval1(&v).unwrap(), oracle(&body, &PureEnv::new(), &v).unwrap());
        }
        assert_eq!(c.eval1(&Value::Long(10)).unwrap(), Value::Long(55));
    }

    #[test]
    fn untaken_branches_stay_lazy() {
        // if v > 0 then v else count(source(xs)) — the interpreter only
        // errors when the else-branch is reached; compiled must match.
        let body = Expr::If(
            Box::new(Expr::bin(BinOp::Gt, Expr::var("v"), Expr::long(0))),
            Box::new(Expr::var("v")),
            Box::new(Expr::Count(Box::new(Expr::Source("xs".into())))),
        );
        let c = compile1(body.clone(), PureEnv::new());
        assert_eq!(c.eval1(&Value::Long(3)).unwrap(), Value::Long(3));
        let compiled_err = c.eval1(&Value::Long(-1)).unwrap_err();
        let interp_err = oracle(&body, &PureEnv::new(), &Value::Long(-1)).unwrap_err();
        assert_eq!(compiled_err.to_string(), interp_err.to_string());
    }

    #[test]
    fn unbound_names_fail_lazily_with_interpreter_error() {
        let body = Expr::If(
            Box::new(Expr::Const(Value::Bool(true))),
            Box::new(Expr::long(1)),
            Box::new(Expr::var("nope")),
        );
        let c = compile1(body, PureEnv::new());
        assert_eq!(c.eval1(&Value::Long(0)).unwrap(), Value::Long(1));
        let body2 = Expr::var("nope");
        let c2 = compile1(body2.clone(), PureEnv::new());
        assert_eq!(
            c2.eval1(&Value::Long(0)).unwrap_err().to_string(),
            oracle(&body2, &PureEnv::new(), &Value::Long(0)).unwrap_err().to_string()
        );
    }

    #[test]
    fn overflow_prone_constants_do_not_fold_at_compile_time() {
        // (big * big) would overflow; compilation must not evaluate it.
        let big = i64::MAX / 2;
        let body = Expr::If(
            Box::new(Expr::bin(BinOp::Gt, Expr::var("v"), Expr::long(0))),
            Box::new(Expr::long(1)),
            Box::new(Expr::bin(BinOp::Mul, Expr::long(big), Expr::long(big))),
        );
        let c = compile1(body, PureEnv::new()); // must not panic here
        assert_eq!(c.eval1(&Value::Long(5)).unwrap(), Value::Long(1));
    }

    #[test]
    fn eval2_and_combined_entry_points() {
        // Combiner: (a, b) => a + b.
        let comb = CompiledUdf::new(
            &Arc::new(Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b"))),
            &["a", "b"],
            PureEnv::new(),
            false,
        );
        assert_eq!(comb.arity(), 2);
        assert_eq!(comb.eval2(&Value::Long(2), &Value::Long(5)).unwrap(), Value::Long(7));
        // mapWithClosure shape: param v plus lifted names (m, k) delivered
        // as one combined tuple.
        let c = CompiledUdf::new(
            &Arc::new(Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::var("v"), Expr::var("m")),
                Expr::var("k"),
            )),
            &["v", "m", "k"],
            PureEnv::new(),
            false,
        );
        let combined = Value::tuple(vec![Value::Long(10), Value::Long(3)]);
        assert_eq!(c.eval_with_combined(&Value::Long(7), &combined).unwrap(), Value::Long(73));
    }

    #[test]
    fn double_and_comparison_fast_paths_preserve_semantics() {
        // if v > 2.5 then v / 2.0 else v * 4  (mixes Long/Double per record)
        let body = Expr::If(
            Box::new(Expr::bin(BinOp::Gt, Expr::var("v"), Expr::Const(Value::Double(2.5)))),
            Box::new(Expr::bin(BinOp::Div, Expr::var("v"), Expr::Const(Value::Double(2.0)))),
            Box::new(Expr::bin(BinOp::Mul, Expr::var("v"), Expr::long(4))),
        );
        let c = compile1(body.clone(), PureEnv::new());
        for v in [Value::Long(10), Value::Long(1), Value::Double(3.5), Value::Double(-1.0)] {
            assert_eq!(c.eval1(&v).unwrap(), oracle(&body, &PureEnv::new(), &v).unwrap());
        }
        // Non-numeric operand: same error either way.
        assert_eq!(
            c.eval1(&Value::str("x")).unwrap_err().to_string(),
            oracle(&body, &PureEnv::new(), &Value::str("x")).unwrap_err().to_string()
        );
    }

    #[test]
    fn long_ordering_is_exact_beyond_two_to_the_53() {
        // v.0 < v.1, v.0 > v.1 and the fused comparison-into-branch: the
        // three sites that order values, each in both evaluators.
        let (l, r) = (Expr::proj(Expr::var("v"), 0), Expr::proj(Expr::var("v"), 1));
        let lt = Expr::bin(BinOp::Lt, l.clone(), r.clone());
        let gt = Expr::bin(BinOp::Gt, r, l);
        let fused = Expr::If(
            Box::new(lt.clone()),
            Box::new(Expr::Const(Value::Bool(true))),
            Box::new(Expr::Const(Value::Bool(false))),
        );
        let big = 1i64 << 53;
        for body in [lt, gt, fused] {
            let c = compile1(body.clone(), PureEnv::new());
            // `big` and `big + 1` are the same f64.
            for (a, b) in [(big, big + 1), (-big - 1, -big), (i64::MAX - 1, i64::MAX)] {
                for (a, b, want) in [(a, b, true), (b, a, false), (a, a, false)] {
                    let v = Value::tuple(vec![Value::Long(a), Value::Long(b)]);
                    assert_eq!(c.eval1(&v).unwrap(), Value::Bool(want), "{body:?} at {v}");
                    assert_eq!(oracle(&body, &PureEnv::new(), &v).unwrap(), Value::Bool(want));
                }
            }
            // A Double on either side still compares after widening.
            let v = Value::tuple(vec![Value::Long(big), Value::Double(big as f64 + 2.0)]);
            assert_eq!(c.eval1(&v).unwrap(), Value::Bool(true));
            let v = Value::tuple(vec![Value::Long(big + 1), Value::Double(big as f64)]);
            assert_eq!(c.eval1(&v).unwrap(), Value::Bool(false));
        }
    }

    #[test]
    fn lambda_bodies_from_the_surface_syntax_compile() {
        // The bounce-rate leaf UDFs, via the text front-end.
        let p = crate::parse_program("map(source(xs), ip => (ip, 1))").unwrap();
        let Expr::Map(_, Lambda { param, body }) = p.strip_spans() else {
            panic!("expected a map")
        };
        let c = CompiledUdf::new(&body, &[&param], PureEnv::new(), false);
        assert_eq!(
            c.eval1(&Value::Long(9)).unwrap(),
            Value::tuple(vec![Value::Long(9), Value::Long(1)])
        );
    }
}
