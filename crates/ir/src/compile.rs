//! **UDF compilation**: each pure scalar UDF becomes flat register code
//! ([`CompiledUdf`]) that behaves as the reference interpreter
//! (`tests/support/eval_pure.rs`, over [`apply_bin`] and [`apply_un`]) does,
//! in its order: **flat registers** with a `Value` slot and an unboxed word
//! slot for every subexpression of proven `ScalarKind`; **typed programs**,
//! compiled on the first record with the kinds of the parameter leaves
//! (`v.0`) that feed arithmetic, comparisons or branches, and run while a
//! per-record guard finds those kinds; **constant folding**, unless it
//! fails; and **the rerun**: a record turned away, or on which the typed
//! program fails, runs the generic program. `Fail` instructions raise the
//! interpreter's errors when reached. See `docs/ANALYSIS.md`, "UDF
//! compilation".

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::ast::{BinOp, Expr, UnOp};
use crate::error::{IrError, IrResult};
use crate::lower::{apply_bin, apply_un};
use crate::value::Value;
use ScalarKind::{Any, Bool, Double, Long};

type PureEnv = HashMap<String, Value>;
type Reg = usize;
/// A parameter leaf: parameter index and projection path (`v.0` is `(0, [0])`).
type Leaf = (usize, Box<[usize]>);
/// The parameters of one evaluation: the first, then the rest in order.
type Args<'v> = (&'v Value, &'v [Value]);
type Frame = (Vec<Value>, Vec<u64>);
/// Body, parameter names, captures and the leaves a typed program may unbox.
type Source = (Arc<Expr>, Vec<String>, PureEnv, Vec<Leaf>);
type Op3 = fn(BinOp, Reg, Reg, Reg) -> Ins;

/// A refinement of [`Ty::Scalar`](crate::Ty::Scalar) used by the compiler to
/// pick specialized slot operations: where the shape checker only needs to
/// know "this is a scalar", the compiler wants to know *which* scalar a
/// subexpression is statically guaranteed to produce, so `Long + Long` can
/// skip the dynamic `Value` dispatch.
///
/// `Any` is the sound fallback ("could be any scalar at runtime" — UDF
/// parameters, loop variables, projections out of dynamically shaped
/// tuples). Every refinement is a *guarantee*: a subexpression whose kind is
/// [`ScalarKind::Long`] evaluates to [`crate::Value::Long`] whenever it
/// evaluates successfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalarKind {
    /// Statically a boolean.
    Bool,
    /// Statically a 64-bit integer.
    Long,
    /// Statically a 64-bit float.
    Double,
    /// No static refinement, or one no instruction is specialised for (a
    /// string, a tuple, unit).
    Any,
}

impl ScalarKind {
    /// The kind of a concrete runtime value (used to seed the compiler's
    /// inference from closure-capture constants).
    fn of_value(v: &Value) -> ScalarKind {
        match v {
            Value::Bool(_) => Bool,
            Value::Long(_) => Long,
            Value::Double(_) => Double,
            Value::Unit | Value::Str(_) | Value::Tuple(_) => Any,
        }
    }

    /// Least upper bound: the kind both branches of an `if` can promise.
    fn join(self, other: ScalarKind) -> ScalarKind {
        if self == other {
            self
        } else {
            ScalarKind::Any
        }
    }
}

/// A pure scalar UDF, compiled once and evaluated per record.
///
/// Construct with [`CompiledUdf::new`]; evaluate with [`CompiledUdf::eval1`]
/// (one-parameter UDFs), [`CompiledUdf::eval2`] (combiners), or
/// [`CompiledUdf::eval_with_combined`] (lifted `mapWithClosure` shapes where
/// the closure values arrive as one combined tuple per tag).
pub struct CompiledUdf {
    arity: usize,
    generic: Program,
    /// `None` when no leaf feeds arithmetic, comparisons or branches.
    source: Option<Source>,
    /// Specialised on the first record (`None` inside when no leaf is a word).
    typed: OnceLock<Option<Program>>,
}

struct Program {
    code: Vec<Ins>,
    consts: Vec<(Reg, u64)>, // word constants, stored before the code runs
    guard: Vec<(Leaf, ScalarKind)>, // typed leaves: leaf i is unboxed into word i
    regs: usize,
    out: Reg, // the result's register
}

/// One instruction: `d` is the destination register, `a`/`b` the operands;
/// `V` is a register's `Value` slot and `W` its word slot. `Int` is
/// checked `+ - *` ([`Value::long_arith`]), `<` and `>` on `i64` words, and
/// `==` (by bits) on two words of one kind; `Float` is
/// `+ - * /`, `<` and `>` (false on NaN) on `f64` words.
enum Ins {
    Const(Reg, Value),             // V[d] = c
    Arg(Reg, usize, Box<[usize]>), // V[d] = parameter i along the path, by reference
    Path(Reg, Reg, Box<[usize]>),  // V[d] = V[a] along the path (a clone when empty)
    Take(Reg, Reg),                // V[d] = V[a], leaving V[a] empty
    Tuple(Reg, Box<[Reg]>),        // V[d] = the registers' Values, taken
    Bin(BinOp, Reg, Reg, Reg),     // V[d] = apply_bin(op, V[a], V[b])
    Neg(Reg, Reg),                 // V[d] = apply_un(Neg, V[a])
    Pack(ScalarKind, Reg, Reg),    // V[d] = W[a] boxed as the kind
    Unpack(ScalarKind, Reg, Reg),  // W[d] = V[a].as_bool() or .as_f64()
    Mov(Reg, Reg),                 // W[d] = W[a]
    Set(Reg, u64),                 // W[d] = w
    Int(BinOp, Reg, Reg, Reg),
    Float(BinOp, Reg, Reg, Reg),
    Widen(Reg, Reg), // W[d] = W[a] as i64 as f64
    Jump(usize),
    JumpIfNot(Reg, usize),
    Fail(IrError), // reached only where the interpreter fails
}

thread_local! {
    /// Per-thread scratch frame, reused across records and UDFs (it only
    /// grows; registers are written before they are read). Taken/replaced
    /// rather than borrowed, so a re-entrant evaluation gets a fresh one.
    static FRAME: RefCell<Frame> = const { RefCell::new((Vec::new(), Vec::new())) };
}

fn walk<'v>(v: &'v Value, path: &[usize]) -> IrResult<&'v Value> {
    path.iter().try_fold(v, |v, &i| v.proj_ref(i))
}

fn arg<'v>((first, rest): Args<'v>, i: usize) -> &'v Value {
    i.checked_sub(1).map_or(first, |i| &rest[i])
}

fn take(vals: &mut [Value], r: Reg) -> Value {
    std::mem::replace(&mut vals[r], Value::Unit)
}

impl CompiledUdf {
    /// Compile `body` with the given parameter names and closure captures
    /// (inlined as constants). Never fails: shapes the compiler cannot
    /// translate become instructions that reproduce the interpreter's
    /// behaviour. The fourth parameter is kept for the benchmark's pinned
    /// call and ignored: there is no interpreted mode.
    pub fn new(body: &Arc<Expr>, params: &[&str], captures: PureEnv, _interpret: bool) -> Self {
        let (generic, leaves) = Compiler::program(body, params, &captures, Vec::new());
        let source = (!leaves.is_empty()).then(|| {
            (Arc::clone(body), params.iter().map(|p| p.to_string()).collect(), captures, leaves)
        });
        CompiledUdf { arity: params.len(), generic, source, typed: OnceLock::new() }
    }

    /// Evaluate a one-parameter UDF on one record.
    pub fn eval1(&self, v: &Value) -> IrResult<Value> {
        debug_assert_eq!(self.arity, 1);
        self.eval((v, &[]))
    }

    /// Evaluate a two-parameter UDF (a `reduceByKey`/`fold` combiner).
    pub fn eval2(&self, a: &Value, b: &Value) -> IrResult<Value> {
        debug_assert_eq!(self.arity, 2);
        self.eval((a, std::slice::from_ref(b)))
    }

    /// Evaluate a lifted-closure UDF: parameter 0 is the record, parameters
    /// `1..` are the components of the per-tag `combined` closure tuple (the
    /// single tag-joined `mapWithClosure` argument of paper Sec. 5.1), read
    /// in place.
    pub fn eval_with_combined(&self, v: &Value, combined: &Value) -> IrResult<Value> {
        let Value::Tuple(items) = combined else { panic!("combined closure arity") };
        self.eval((v, items))
    }

    fn eval(&self, args: Args<'_>) -> IrResult<Value> {
        FRAME.with(|cell| {
            let mut frame = cell.take();
            let typed = self
                .source
                .as_ref()
                .and_then(|source| self.typed.get_or_init(|| specialize(source, args)).as_ref());
            let r = match typed {
                Some(p) => p.run(args, &mut frame).or_else(|_| self.generic.run(args, &mut frame)),
                None => self.generic.run(args, &mut frame),
            };
            cell.replace(frame);
            r
        })
    }
}

/// The typed program for the leaf kinds of `args`, if any leaf is a word.
fn specialize((body, params, captures, leaves): &Source, args: Args<'_>) -> Option<Program> {
    let guard: Vec<(Leaf, ScalarKind)> = leaves
        .iter()
        .filter_map(|(i, path)| {
            let k = walk(arg(args, *i), path).map_or(Any, ScalarKind::of_value);
            is_word(k).then(|| ((*i, path.clone()), k))
        })
        .collect();
    (!guard.is_empty()).then(|| Compiler::program(body, params, captures, guard).0)
}

impl Program {
    fn run(&self, args: Args<'_>, (vals, words): &mut Frame) -> IrResult<Value> {
        vals.resize(vals.len().max(self.regs), Value::Unit);
        words.resize(vals.len(), 0);
        for (r, ((i, path), k)) in self.guard.iter().enumerate() {
            words[r] = match (k, walk(arg(args, *i), path)) {
                (Long, Ok(Value::Long(x))) => *x as u64,
                (Double, Ok(Value::Double(x))) => x.to_bits(),
                (Bool, Ok(Value::Bool(b))) => *b as u64,
                // Turned away: the caller runs the generic program.
                _ => return Err(IrError::Type(String::new())),
            };
        }
        for &(r, w) in &self.consts {
            words[r] = w;
        }
        let f = f64::from_bits;
        let mut pc = 0;
        while let Some(ins) = self.code.get(pc) {
            pc += 1;
            match *ins {
                Ins::Const(d, ref c) => vals[d] = c.clone(),
                Ins::Arg(d, i, ref path) => vals[d] = walk(arg(args, i), path)?.clone(),
                Ins::Path(d, a, ref path) => vals[d] = walk(&vals[a], path)?.clone(),
                Ins::Take(d, a) => vals[d] = take(vals, a),
                Ins::Tuple(d, ref items) => {
                    vals[d] = match **items {
                        [a, b] => Value::pair(take(vals, a), take(vals, b)),
                        _ => Value::tuple(items.iter().map(|&a| take(vals, a)).collect()),
                    }
                }
                Ins::Bin(op, d, a, b) => vals[d] = apply_bin(op, &vals[a], &vals[b])?,
                Ins::Neg(d, a) => vals[d] = apply_un(UnOp::Neg, &vals[a])?,
                Ins::Pack(Long, d, a) => vals[d] = Value::Long(words[a] as i64),
                Ins::Pack(Double, d, a) => vals[d] = Value::Double(f(words[a])),
                Ins::Pack(_, d, a) => vals[d] = Value::Bool(words[a] != 0),
                Ins::Unpack(Bool, d, a) => words[d] = vals[a].as_bool()? as u64,
                Ins::Unpack(_, d, a) => words[d] = vals[a].as_f64()?.to_bits(),
                Ins::Mov(d, a) => words[d] = words[a],
                Ins::Set(d, w) => words[d] = w,
                Ins::Int(op, d, a, b) => {
                    let (x, y) = (words[a] as i64, words[b] as i64);
                    words[d] = match op {
                        BinOp::Lt => (x < y) as u64,
                        BinOp::Gt => (x > y) as u64,
                        BinOp::Eq => (x == y) as u64,
                        _ => Value::long_arith(op, x, y)? as u64,
                    }
                }
                Ins::Float(op, d, a, b) => {
                    let (x, y) = (f(words[a]), f(words[b]));
                    words[d] = match op {
                        BinOp::Lt => (x < y) as u64,
                        BinOp::Gt => (x > y) as u64,
                        BinOp::Add => (x + y).to_bits(),
                        BinOp::Sub => (x - y).to_bits(),
                        BinOp::Mul => (x * y).to_bits(),
                        _ => (x / y).to_bits(),
                    }
                }
                Ins::Widen(d, a) => words[d] = (words[a] as i64 as f64).to_bits(),
                Ins::Jump(t) => pc = t,
                Ins::JumpIfNot(c, t) if words[c] == 0 => pc = t,
                Ins::JumpIfNot(..) => {}
                Ins::Fail(ref e) => return Err(e.clone()),
            }
        }
        Ok(take(vals, self.out))
    }
}

/// Where a compiled subexpression's value is.
#[derive(Clone)]
enum Opd {
    /// A folded constant, materialized where it is consumed.
    Const(Value),
    /// A `Value` slot: a variable's if `true` (cloned), else a temporary.
    Val(Reg, bool),
    /// A word slot holding a `Long`, `Double` or `Bool`.
    Word(Reg, ScalarKind),
    /// Parameter `i` (scope entries only: reads go through `leaf`).
    Arg(usize),
}

fn kind(o: &Opd) -> ScalarKind {
    match o {
        Opd::Const(v) => ScalarKind::of_value(v),
        Opd::Word(_, k) => *k,
        _ => Any,
    }
}

fn constant(o: &Opd) -> Option<&Value> {
    match o {
        Opd::Const(v) => Some(v),
        _ => None,
    }
}

/// Register `d`'s word slot for a word kind `k`, else its `Value` slot.
fn slot(d: Reg, k: ScalarKind, shared: bool) -> Opd {
    if is_word(k) {
        Opd::Word(d, k)
    } else {
        Opd::Val(d, shared)
    }
}

fn is_word(k: ScalarKind) -> bool {
    matches!(k, Long | Double | Bool)
}

fn bits(v: &Value) -> u64 {
    match v {
        Value::Long(x) => *x as u64,
        Value::Double(x) => x.to_bits(),
        Value::Bool(b) => *b as u64,
        other => unreachable!("{other} is not a word"),
    }
}

/// The instruction that moves `src` into the slot `dst` names.
fn move_ins(dst: &Opd, src: Opd) -> Ins {
    match (dst, src) {
        (&Opd::Word(d, _), Opd::Word(s, _)) => Ins::Mov(d, s),
        (&Opd::Word(d, _), Opd::Const(v)) => Ins::Set(d, bits(&v)),
        (&Opd::Val(d, _), Opd::Word(s, k)) => Ins::Pack(k, d, s),
        (&Opd::Val(d, _), Opd::Const(v)) => Ins::Const(d, v),
        (&Opd::Val(d, _), Opd::Val(s, false)) => Ins::Take(d, s),
        (&Opd::Val(d, _), Opd::Val(s, true)) => Ins::Path(d, s, Box::new([])),
        _ => unreachable!("a word slot receives a word; parameters are read by `leaf`"),
    }
}

/// Captures, the lexical scope (innermost last), and the program emitted.
struct Compiler<'a> {
    captures: &'a PureEnv,
    scope: Vec<(&'a str, Opd)>,
    code: Vec<Ins>,
    consts: Vec<(Reg, u64)>,
    guard: Vec<(Leaf, ScalarKind)>,
    regs: Reg,
    /// The leaves read by arithmetic, comparisons or branches.
    leaves: Vec<Leaf>,
}

impl<'a> Compiler<'a> {
    /// The program for `body`, and the leaves a typed program could unbox.
    fn program(
        body: &'a Expr,
        params: &'a [impl AsRef<str>],
        captures: &'a PureEnv,
        guard: Vec<(Leaf, ScalarKind)>,
    ) -> (Program, Vec<Leaf>) {
        let mut c = Compiler {
            captures,
            scope: params.iter().enumerate().map(|(i, p)| (p.as_ref(), Opd::Arg(i))).collect(),
            code: Vec::with_capacity(16),
            consts: Vec::new(),
            regs: guard.len(),
            guard,
            leaves: Vec::new(),
        };
        let result = c.compile(body);
        let out = c.val(result, true);
        let Compiler { code, consts, guard, regs, leaves, .. } = c;
        (Program { code, consts, guard, regs, out }, leaves)
    }

    fn fresh(&mut self) -> Reg {
        self.regs += 1;
        self.regs - 1
    }

    /// Emit `ins` with a fresh destination register.
    fn emit(&mut self, ins: impl FnOnce(Reg) -> Ins) -> Reg {
        let d = self.fresh();
        self.code.push(ins(d));
        d
    }

    fn emit_to(&mut self, k: ScalarKind, ins: impl FnOnce(Reg) -> Ins) -> Opd {
        slot(self.emit(ins), k, false)
    }

    /// The register holding a word constant.
    fn konst(&mut self, w: u64) -> Reg {
        if let Some(&(r, _)) = self.consts.iter().find(|(_, x)| *x == w) {
            return r;
        }
        let r = self.fresh();
        self.consts.push((r, w));
        r
    }

    /// `o` in a `Value` slot: any, for an instruction that reads it by
    /// reference (arithmetic: a leaf there is wanted); a temporary, for one
    /// that takes it.
    fn val(&mut self, o: Opd, take: bool) -> Reg {
        match o {
            Opd::Val(r, shared) if !(take && shared) => {
                if !take {
                    self.want(r);
                }
                r
            }
            o => {
                let d = self.fresh();
                self.code.push(move_ins(&Opd::Val(d, false), o));
                d
            }
        }
    }

    /// `o` as a word of kind `k`: a `Long` widens to a `Double`; anything
    /// else unknown is unboxed at runtime, with `as_bool`/`as_f64`'s error.
    fn unbox(&mut self, o: Opd, k: ScalarKind) -> Reg {
        match o {
            Opd::Word(r, ok) if ok == k => r,
            Opd::Word(r, Long) if k == Double => self.emit(|d| Ins::Widen(d, r)),
            Opd::Const(ref v) if ScalarKind::of_value(v) == k => self.konst(bits(v)),
            Opd::Const(Value::Long(x)) if k == Double => self.konst((x as f64).to_bits()),
            o => {
                let a = self.val(o, false);
                self.emit(|d| Ins::Unpack(k, d, a))
            }
        }
    }

    /// Arithmetic reads register `r`: a leaf loaded there is one a typed
    /// program may unbox.
    fn want(&mut self, r: Reg) {
        let leaf = self.code.iter().find_map(|ins| match ins {
            Ins::Arg(d, i, path) if *d == r => Some((*i, path.clone())),
            _ => None,
        });
        if let Some(leaf) = leaf.filter(|l| !self.leaves.contains(l)) {
            self.leaves.push(leaf);
        }
    }

    /// Parameter `i` along `path`: the word the guard unboxed in a typed
    /// program, else a `Value` read emitted in place.
    fn leaf(&mut self, i: usize, path: Vec<usize>) -> Opd {
        if let Some(r) = self.guard.iter().position(|((j, p), _)| *j == i && p[..] == path[..]) {
            return Opd::Word(r, self.guard[r].1);
        }
        self.emit_to(Any, |d| Ins::Arg(d, i, path.into()))
    }

    fn var(&mut self, n: &str) -> Opd {
        if let Some((_, o)) = self.scope.iter().rev().find(|(name, _)| *name == n) {
            return o.clone();
        }
        match self.captures.get(n) {
            Some(v) => Opd::Const(v.clone()),
            None => self.emit_to(Any, |_| Ins::Fail(IrError::Unbound(n.to_string()))),
        }
    }

    /// Project `base` along `path`: by reference off a slot, cloning once.
    fn project(&mut self, base: Opd, path: Vec<usize>) -> Opd {
        let a = match base {
            Opd::Arg(i) => return self.leaf(i, path),
            base if path.is_empty() => return base,
            Opd::Const(v) => match walk(&v, &path) {
                Ok(x) => return Opd::Const(x.clone()),
                Err(_) => self.val(Opd::Const(v), true),
            },
            Opd::Val(r, _) => r,
            o => self.val(o, true),
        };
        self.emit_to(Any, |d| Ins::Path(d, a, path.into()))
    }

    fn compile(&mut self, e: &'a Expr) -> Opd {
        match e {
            Expr::Spanned(_, inner) | Expr::Cache(inner) => self.compile(inner),
            Expr::Const(v) => Opd::Const(v.clone()),
            Expr::Var(n) => {
                let base = self.var(n);
                self.project(base, Vec::new())
            }
            Expr::Proj(..) => {
                let (mut root, mut path) = (e, Vec::new());
                while let Expr::Proj(x, i) = root.unspanned() {
                    path.insert(0, *i);
                    root = x;
                }
                let base = match root.unspanned() {
                    Expr::Var(n) => self.var(n),
                    other => self.compile(other),
                };
                self.project(base, path)
            }
            Expr::Tuple(items) => {
                let ops: Vec<Opd> = items.iter().map(|x| self.compile(x)).collect();
                if let Some(vs) = ops.iter().map(|o| constant(o).cloned()).collect() {
                    return Opd::Const(Value::tuple(vs));
                }
                let regs = ops.into_iter().map(|o| self.val(o, true)).collect();
                self.emit_to(Any, |d| Ins::Tuple(d, regs))
            }
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.compile(a), self.compile(b));
                if let (Some(x), Some(y)) = (constant(&a), constant(&b)) {
                    if let Ok(v) = apply_bin(*op, x, y) {
                        return Opd::Const(v);
                    }
                }
                let (ka, kb) = (kind(&a), kind(&b));
                let cmp = matches!(op, BinOp::Lt | BinOp::Gt);
                // (instruction, result kind, operand kind)
                let (ins, k, ok): (Op3, _, _) = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Lt | BinOp::Gt
                        if ka == Long && kb == Long =>
                    {
                        (Ins::Int, if cmp { Bool } else { Long }, Long)
                    }
                    BinOp::Eq if ka == kb && is_word(ka) => (Ins::Int, Bool, ka),
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Lt | BinOp::Gt
                        if ka == Double || kb == Double =>
                    {
                        (Ins::Float, if cmp { Bool } else { Double }, Double)
                    }
                    BinOp::Div => (Ins::Float, Double, Double),
                    _ => {
                        let (a, b) = (self.val(a, false), self.val(b, false));
                        return self.emit_to(Any, |d| Ins::Bin(*op, d, a, b));
                    }
                };
                let (a, b) = (self.unbox(a, ok), self.unbox(b, ok));
                self.emit_to(k, |d| ins(*op, d, a, b))
            }
            Expr::Un(op, a) => {
                let a = self.compile(a);
                if let Some(x) = constant(&a) {
                    if let Ok(v) = apply_un(*op, x) {
                        return Opd::Const(v);
                    }
                }
                match (op, kind(&a)) {
                    (UnOp::ToDouble, _) => Opd::Word(self.unbox(a, Double), Double),
                    (UnOp::Not, _) => {
                        let (a, zero) = (self.unbox(a, Bool), self.konst(0));
                        self.emit_to(Bool, |d| Ins::Int(BinOp::Eq, d, a, zero))
                    }
                    (UnOp::Neg, Long) => {
                        let (zero, a) = (self.konst(0), self.unbox(a, Long));
                        self.emit_to(Long, |d| Ins::Int(BinOp::Sub, d, zero, a))
                    }
                    (UnOp::Neg, _) => {
                        let a = self.val(a, false);
                        self.emit_to(Any, |d| Ins::Neg(d, a))
                    }
                }
            }
            Expr::Let(n, v, b) => {
                let v = match self.compile(v) {
                    Opd::Val(r, _) => Opd::Val(r, true),
                    o => o,
                };
                self.scope.push((n.as_str(), v));
                let b = self.compile(b);
                self.scope.pop();
                b
            }
            Expr::If(c, t, el) => {
                let c = self.compile(c);
                // A constant condition selects its branch at compile time.
                if let Opd::Const(Value::Bool(cv)) = c {
                    return self.compile(if cv { t } else { el });
                }
                let c = self.unbox(c, Bool);
                let branch = self.code.len();
                self.code.push(Ins::JumpIfNot(c, 0));
                let t = self.compile(t);
                // Patched below: the then-value's move into the result, and
                // the jump over the else branch.
                let then_end = self.code.len();
                self.code.extend([Ins::Jump(0), Ins::Jump(0)]);
                self.code[branch] = Ins::JumpIfNot(c, self.code.len());
                let e = self.compile(el);
                let k = kind(&t).join(kind(&e));
                let d = self.fresh();
                let dst = slot(d, k, false);
                self.code[then_end] = move_ins(&dst, t);
                self.code.push(move_ins(&dst, e));
                self.code[then_end + 1] = Ins::Jump(self.code.len());
                dst
            }
            // A scalar `while` loop. A variable's kind must be loop-invariant:
            // the join of its initializer's kind with its step's under that
            // same assumption. Solved by fixpoint — kinds only widen on the
            // flat `ScalarKind` lattice — each pass rewinding what the last
            // emitted.
            Expr::Loop { init, cond, step, result } => {
                let mark = (self.code.len(), self.regs, self.scope.len(), self.consts.len());
                let mut assumed: Vec<ScalarKind> = Vec::new();
                loop {
                    self.code.truncate(mark.0);
                    self.regs = mark.1;
                    self.scope.truncate(mark.2);
                    self.consts.truncate(mark.3);
                    // Initializers see the variables bound so far, as in the
                    // interpreter.
                    let mut vars = Vec::with_capacity(init.len());
                    for (idx, (n, x)) in init.iter().enumerate() {
                        let o = self.compile(x);
                        let k = assumed.get(idx).map_or(kind(&o), |k| k.join(kind(&o)));
                        let d = self.fresh();
                        let var = slot(d, k, true);
                        self.code.push(move_ins(&var, o));
                        self.scope.push((n.as_str(), var.clone()));
                        vars.push(var);
                    }
                    let (top, vars_end) = (self.code.len(), self.regs);
                    let c = self.compile(cond);
                    let c = self.unbox(c, Bool);
                    let exit = self.code.len();
                    self.code.push(Ins::JumpIfNot(c, 0));
                    let mut steps: Vec<Opd> = step.iter().map(|x| self.compile(x)).collect();
                    let widened: Vec<ScalarKind> =
                        vars.iter().zip(&steps).map(|(v, s)| kind(v).join(kind(s))).collect();
                    if widened.iter().zip(&vars).any(|(w, v)| *w != kind(v)) {
                        assumed = widened;
                        continue;
                    }
                    // The assignment is simultaneous: a step that reads one of the
                    // variables is copied to a temporary before any is assigned.
                    for s in steps.iter_mut() {
                        if matches!(*s, Opd::Word(r, _) | Opd::Val(r, true) if (mark.1..vars_end).contains(&r))
                        {
                            let d = self.fresh();
                            let tmp = slot(d, kind(s), false);
                            self.code.push(move_ins(&tmp, std::mem::replace(s, tmp.clone())));
                        }
                    }
                    for (var, s) in vars.iter().zip(steps) {
                        self.code.push(move_ins(var, s));
                    }
                    self.code.push(Ins::Jump(top));
                    self.code[exit] = Ins::JumpIfNot(c, self.code.len());
                    let r = self.compile(result);
                    self.scope.truncate(mark.2);
                    return r;
                }
            }
            // Bag operations in a scalar-only context: the interpreter errors
            // when evaluation *reaches* the node, with this message.
            other => self.emit_to(Any, |_| {
                Ins::Fail(IrError::Unsupported(format!(
                    "bag operation in a scalar-only context: {other:?}"
                )))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Lambda;

    include!("../tests/support/eval_pure.rs");

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

    /// The benchmark's claimed path stays typed: `udf_heavy.mat`'s map body
    /// on `(Long, Long)` records and its fold combiner on `Double`s each run
    /// a typed program whose only `Value` work is the guard and one boxed
    /// result — no generic arithmetic, comparison or unboxing. A kind
    /// refinement that falls back to the generic program fails here.
    #[test]
    fn udf_heavy_runs_typed_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/programs/udf_heavy.mat");
        let text = std::fs::read_to_string(path).expect("udf_heavy.mat");
        let Expr::Fold(mapped, _, comb) = crate::parse_program(&text).unwrap().strip_spans() else {
            panic!("udf_heavy is a fold")
        };
        let Expr::Map(_, Lambda { param, body }) = *mapped else { panic!("udf_heavy folds a map") };
        let map = CompiledUdf::new(&body, &[&param], PureEnv::new(), false);
        let fold = CompiledUdf::new(&comb.body, &[&comb.a, &comb.b], PureEnv::new(), false);
        let record = Value::tuple(vec![Value::Long(999), Value::Long(36)]);
        let (s, x) = (Value::Double(1.5), Value::Double(-2.25));
        let cases: [(&CompiledUdf, Args<'_>, [ScalarKind; 2]); 2] = [
            (&map, (&record, &[]), [ScalarKind::Long; 2]),
            (&fold, (&s, std::slice::from_ref(&x)), [ScalarKind::Double; 2]),
        ];
        for (udf, args, kinds) in cases {
            let want = udf.generic.run(args, &mut Frame::default()).unwrap();
            assert_eq!(udf.eval(args).unwrap(), want);
            let Some(Some(typed)) = udf.typed.get() else { panic!("no typed program") };
            assert_eq!(typed.guard.iter().map(|(_, k)| *k).collect::<Vec<_>>(), kinds);
            assert_eq!(typed.run(args, &mut Frame::default()).unwrap(), want);
            let value_work = typed.code.iter().filter(|i| {
                !matches!(
                    i,
                    Ins::Mov(..)
                        | Ins::Set(..)
                        | Ins::Int(..)
                        | Ins::Float(..)
                        | Ins::Widen(..)
                        | Ins::Jump(..)
                        | Ins::JumpIfNot(..)
                )
            });
            assert!(matches!(
                value_work.collect::<Vec<_>>()[..],
                [Ins::Pack(ScalarKind::Double, ..)]
            ));
        }
    }

    /// Two threads race to a UDF's first record (a barrier lines them up):
    /// one specialises, both run the one cached typed program, and a record
    /// of another kind is turned away to the generic program on either.
    #[test]
    fn threads_share_one_typed_program() {
        let body = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::var("v"), Expr::long(2)),
            Expr::long(1),
        );
        let c = compile1(body, PureEnv::new());
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2i64 {
                let (c, barrier) = (&c, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for x in (0..50).map(|x| x * 2 + t) {
                        assert_eq!(c.eval1(&Value::Long(x)).unwrap(), Value::Long(2 * x + 1));
                    }
                    assert_eq!(c.eval1(&Value::Double(0.5)).unwrap(), Value::Double(2.0));
                });
            }
        });
        let Some(Some(typed)) = c.typed.get() else { panic!("no typed program") };
        assert_eq!(typed.guard.len(), 1);
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
