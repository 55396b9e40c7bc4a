//! The **lowering phase** (paper Sec. 4.1.2): executing the explicitly
//! nested program produced by the parsing phase, resolving the nesting
//! primitives to flat operations of the engine via `matryoshka-core` — with
//! the runtime optimizer's physical choices (Sec. 8) applied by that crate.
//!
//! There is one evaluator, [`Lowering::eval`]: one walk over [`Expr`] in
//! which every operator has one arm, and the arm dispatches on the *kind of
//! its operand* — a driver scalar, a flat bag, a nested bag, or, inside a
//! `MapWithLiftedUdf` (whose body runs **once**, Sec. 4.2), an
//! `InnerScalar`, an `InnerBag` or the `(key, inner bag)` group pair. The
//! lifted cell of an arm is the isomorphic image of its flat cell (Sec. 7):
//! scalar operators become tag joins (Sec. 4.3), bag operators work on
//! tagged flat bags and re-key by `(tag, key)` (Sec. 4.4), loops become the
//! lifted do-while (Sec. 6.2), UDFs that read lifted scalars become
//! `mapWithClosure` tag joins (Sec. 5.1).
//!
//! A value from outside the lifted UDF stays what it is — a `source(..)` or
//! a driver `let`-bound bag is an ordinary flat bag, evaluated once, not per
//! tag — until it meets lifted state. There, one of two promotions applies
//! (Sec. 5.2): a scalar is replicated per tag ([`inner_scalar`]; done
//! eagerly for every scalar leaf of a lifted body), a flat bag is replicated
//! per tag through the half-lifted cross product of Sec. 8.3
//! ([`inner_bag`]). Cells that can avoid the replication do: a flat bag
//! mapped or filtered under lifted closures is that cross product directly,
//! and a join with one flat side is the half-lifted join.
//! `docs/ANALYSIS.md` has the operator × operand-kind table.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use matryoshka_core::{
    group_by_key_into_nested_bag, lifted_while, InnerBag, InnerScalar, LiftedData, LiftingContext,
    MatryoshkaConfig, NestedBag, PlanRewriteConfig,
};
use matryoshka_engine::{Bag, Engine, EngineError};

use crate::ast::{BinOp, Expr, Lambda, Lambda2, UnOp};
use crate::compile::CompiledUdf;
use crate::error::{IrError, IrResult};
use crate::value::Value;

/// The result of running a program.
#[derive(Clone)]
pub enum RtVal {
    /// A driver-side scalar.
    Scalar(Value),
    /// A flat distributed bag.
    Bag(Bag<Value>),
    /// A flattened nested bag.
    Nested(NestedBag<Value, Value, Value>),
}

impl std::fmt::Debug for RtVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtVal::Scalar(v) => write!(f, "Scalar({v})"),
            RtVal::Bag(_) => write!(f, "Bag(..)"),
            RtVal::Nested(_) => write!(f, "Nested(..)"),
        }
    }
}

type Ctx = LiftingContext<Value>;
type IScalar = InnerScalar<Value, Value>;
type IBag = InnerBag<Value, Value>;

/// A value during evaluation: what [`RtVal`] can hold, plus the three kinds
/// that exist only inside a lifted UDF.
#[derive(Clone)]
enum Val {
    Scalar(Value),
    Bag(Bag<Value>),
    Nested(NestedBag<Value, Value, Value>),
    InnerScalar(IScalar),
    InnerBag(IBag),
    /// The `(key, inner bag)` parameter of a lifted UDF over a nested bag.
    Group(IScalar, IBag),
}

impl Val {
    fn kind(&self) -> &'static str {
        match self {
            Val::Scalar(_) => "a scalar",
            Val::Bag(_) => "a bag",
            Val::Nested(_) => "a nested bag",
            Val::InnerScalar(_) => "a lifted scalar",
            Val::InnerBag(_) => "an inner bag",
            Val::Group(..) => "a group pair",
        }
    }

    fn as_scalar(&self) -> Option<Value> {
        match self {
            Val::Scalar(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// `op` was applied to an operand kind it has no cell for.
fn no_cell(op: &str, operand: &Val) -> IrError {
    IrError::Type(format!("{op} of {}", operand.kind()))
}

/// Executes parsed programs on an engine.
pub struct Lowering {
    engine: Engine,
    config: MatryoshkaConfig,
    /// Per-body closure-capture memo (see [`Lowering::memo_capture_names`]).
    captures_memo: Mutex<HashMap<usize, CachedCaptures>>,
}

/// One memoized capture set, keyed by the body's `Arc` pointer.
struct CachedCaptures {
    /// Pins the body alive so the pointer key can never be reused by a
    /// different (dropped-and-reallocated) expression.
    _body: Arc<Expr>,
    /// The parameter the set was computed under (re-verified on each hit).
    param: String,
    names: Arc<Vec<String>>,
}

type Env = HashMap<String, Val>;
type Inputs = HashMap<String, Bag<Value>>;
type PureEnv = HashMap<String, Value>;

/// Evaluate a scalar-only expression over plain values (used inside engine
/// UDF closures, where the parsing phase guarantees no bag operations
/// remain). Loops and conditionals over scalars are allowed.
///
/// This is the *reference* interpreter, kept as the differential-testing
/// oracle with no runtime caller: every per-record UDF runs a slot-compiled
/// program ([`crate::compile::CompiledUdf`]).
pub fn eval_pure(e: &Expr, env: &PureEnv) -> IrResult<Value> {
    let mut scratch = env.clone();
    eval_pure_mut(e, &mut scratch)
}

/// [`eval_pure`] over a mutable environment: each binder inserts in place
/// and restores the shadowed value on scope exit, instead of cloning the
/// whole map per binding (which made deep `let`-chains quadratic).
fn eval_pure_mut(e: &Expr, env: &mut PureEnv) -> IrResult<Value> {
    Ok(match e {
        Expr::Spanned(_, inner) => eval_pure_mut(inner, env)?,
        Expr::Const(v) => v.clone(),
        Expr::Var(n) => env.get(n).cloned().ok_or_else(|| IrError::Unbound(n.clone()))?,
        Expr::Tuple(items) => {
            Value::tuple(items.iter().map(|x| eval_pure_mut(x, env)).collect::<IrResult<_>>()?)
        }
        Expr::Proj(x, i) => eval_pure_mut(x, env)?.proj(*i)?,
        Expr::Bin(op, a, b) => {
            let av = eval_pure_mut(a, env)?;
            let bv = eval_pure_mut(b, env)?;
            apply_bin(*op, &av, &bv)?
        }
        Expr::Un(op, a) => apply_un(*op, &eval_pure_mut(a, env)?)?,
        Expr::Let(n, v, b) => {
            let bound = eval_pure_mut(v, env)?;
            let saved = env.insert(n.clone(), bound);
            let r = eval_pure_mut(b, env);
            restore(env, n, saved);
            r?
        }
        Expr::If(c, t, el) => {
            if eval_pure_mut(c, env)?.as_bool()? {
                eval_pure_mut(t, env)?
            } else {
                eval_pure_mut(el, env)?
            }
        }
        Expr::Loop { init, cond, step, result } => {
            let mut saved = Vec::with_capacity(init.len());
            let r = eval_pure_loop(init, cond, step, result, env, &mut saved);
            // Unwind in reverse so duplicated loop-variable names restore
            // to the outermost shadowed value, even when `r` is an error.
            for (n, old) in saved.into_iter().rev() {
                restore(env, n, old);
            }
            r?
        }
        // A materialization hint on a scalar is the identity (nothing to
        // cache: scalar evaluation is already by-value).
        Expr::Cache(x) => eval_pure_mut(x, env)?,
        other => {
            return Err(IrError::Unsupported(format!(
                "bag operation in a scalar-only context: {other:?}"
            )))
        }
    })
}

/// Undo one scoped binding: put back the shadowed value, or remove.
fn restore(env: &mut PureEnv, name: &str, saved: Option<Value>) {
    match saved {
        Some(old) => {
            env.insert(name.to_string(), old);
        }
        None => {
            env.remove(name);
        }
    }
}

/// The body of a scalar loop; every binding it performs is recorded in
/// `saved` so the caller can unwind the scope on success *and* on error.
fn eval_pure_loop<'a>(
    init: &'a [(String, Expr)],
    cond: &Expr,
    step: &[Expr],
    result: &Expr,
    env: &mut PureEnv,
    saved: &mut Vec<(&'a str, Option<Value>)>,
) -> IrResult<Value> {
    for (n, x) in init {
        let v = eval_pure_mut(x, env)?;
        saved.push((n, env.insert(n.clone(), v)));
    }
    while eval_pure_mut(cond, env)?.as_bool()? {
        let next: Vec<Value> =
            step.iter().map(|x| eval_pure_mut(x, env)).collect::<IrResult<_>>()?;
        for ((n, _), v) in init.iter().zip(next) {
            env.insert(n.clone(), v);
        }
    }
    eval_pure_mut(result, env)
}

/// Apply a binary scalar operator.
pub fn apply_bin(op: BinOp, a: &Value, b: &Value) -> IrResult<Value> {
    Ok(match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (a, b) {
            (Value::Long(x), Value::Long(y)) => Value::long_arith(op, *x, *y)?,
            _ => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                Value::Double(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    _ => x * y,
                })
            }
        },
        BinOp::Div => Value::Double(a.as_f64()? / b.as_f64()?),
        BinOp::Eq | BinOp::Lt | BinOp::Gt => Value::Bool(compare(op, a, b)?),
        BinOp::And => Value::Bool(a.as_bool()? && b.as_bool()?),
        BinOp::Or => Value::Bool(a.as_bool()? || b.as_bool()?),
    })
}

/// Whether `a op b` holds, for the comparison operators `==`, `<`, `>`:
/// equality is structural, ordering is [`Value::num_cmp`].
pub(crate) fn compare(op: BinOp, a: &Value, b: &Value) -> IrResult<bool> {
    Ok(match op {
        BinOp::Lt => a.num_cmp(b)? == Some(Ordering::Less),
        BinOp::Gt => a.num_cmp(b)? == Some(Ordering::Greater),
        _ => a == b,
    })
}

/// Apply a unary scalar operator.
pub fn apply_un(op: UnOp, a: &Value) -> IrResult<Value> {
    Ok(match op {
        UnOp::Not => Value::Bool(!a.as_bool()?),
        UnOp::Neg => match a {
            Value::Long(x) => Value::long_arith(BinOp::Sub, 0, *x)?,
            _ => Value::Double(-a.as_f64()?),
        },
        UnOp::ToDouble => Value::Double(a.as_f64()?),
    })
}

/// Split a 2-tuple record into an engine `(key, value)` pair.
fn kv(v: &Value) -> (Value, Value) {
    let k = v.proj(0).expect("pair-shaped record expected (parsing phase admits (k, v) bags)");
    (k, v.proj(1).expect("pair-shaped record"))
}

fn unkv((k, v): &(Value, Value)) -> Value {
    Value::pair(k.clone(), v.clone())
}

/// One output record of a join: `(key, (left value, right value))`.
fn joined(k: &Value, v: &Value, w: &Value) -> Value {
    Value::pair(k.clone(), Value::pair(v.clone(), w.clone()))
}

const UDF_OK: &str = "scalar UDF evaluation (validated at parse)";

fn truth(v: IrResult<Value>) -> bool {
    v.and_then(|v| v.as_bool()).expect("boolean filter UDF (validated at parse)")
}

/// A scalar result: plain at driver level; inside a lifted UDF replicated
/// per tag, eagerly, which is the lifted-UDF closure case of Sec. 5.2.
fn lift(v: Value, ctx: Option<&Ctx>) -> Val {
    match ctx {
        Some(ctx) => Val::InnerScalar(ctx.constant(v)),
        None => Val::Scalar(v),
    }
}

fn lifting(ctx: Option<&Ctx>) -> IrResult<&Ctx> {
    ctx.ok_or_else(|| IrError::Type("a lifted value outside a lifted UDF".into()))
}

/// Promotion of a scalar operand that meets lifted state.
fn inner_scalar(v: Val, ctx: Option<&Ctx>) -> IrResult<IScalar> {
    match v {
        Val::InnerScalar(s) => Ok(s),
        Val::Scalar(x) => Ok(lifting(ctx)?.constant(x)),
        other => Err(IrError::Type(format!("{} where a scalar is needed", other.kind()))),
    }
}

/// Promotion of a bag operand that meets lifted state: every tag sees the
/// whole flat bag, so it is the cross product of the tags with the bag.
fn inner_bag(v: Val, ctx: Option<&Ctx>) -> IrResult<IBag> {
    match v {
        Val::InnerBag(b) => Ok(b),
        Val::Bag(b) => {
            Ok(lifting(ctx)?.tags_scalar().cross_with_bag(&b, |_, _, p| Some(p.clone()))?)
        }
        other => Err(IrError::Type(format!("{} where a bag is needed", other.kind()))),
    }
}

/// Zip lifted scalars into one whose values are tuples (so a single tag
/// join delivers all closure values, like the paper's single
/// `mapWithClosure` argument). `None` for no scalars.
fn combine_scalars<'a>(scalars: impl IntoIterator<Item = &'a IScalar>) -> Option<IScalar> {
    let mut iter = scalars.into_iter();
    let first = iter.next()?.map(|v| Value::tuple(vec![v.clone()]));
    Some(iter.fold(first, |acc, s| {
        acc.zip_with(s, |t, v| {
            let mut items = match t {
                Value::Tuple(xs) => xs.to_vec(),
                _ => unreachable!("the combined scalar is a tuple"),
            };
            items.push(v.clone());
            Value::tuple(items)
        })
    }))
}

/// Compile a two-parameter combiner (reduceByKey/fold; captures are empty —
/// aggregation UDFs close over nothing, validated at parse).
fn compile_udf2(l2: &Lambda2) -> Arc<CompiledUdf> {
    Arc::new(CompiledUdf::new(&l2.body, &[&l2.a, &l2.b], PureEnv::new(), false))
}

fn to_engine_err(e: IrError) -> EngineError {
    match e {
        IrError::Engine(e) => e,
        other => EngineError::InvalidPlan(other.to_string()),
    }
}

/// One variable of a lifted loop (Sec. 6.2); the loop state is a `Vec` of
/// these.
#[derive(Clone)]
enum Lifted {
    Scalar(IScalar),
    Bag(IBag),
}

impl From<Lifted> for Val {
    fn from(v: Lifted) -> Val {
        match v {
            Lifted::Scalar(s) => Val::InnerScalar(s),
            Lifted::Bag(b) => Val::InnerBag(b),
        }
    }
}

impl Lifted {
    fn each(&self, s: impl FnOnce(&IScalar) -> IScalar, b: impl FnOnce(&IBag) -> IBag) -> Lifted {
        match self {
            Lifted::Scalar(x) => Lifted::Scalar(s(x)),
            Lifted::Bag(x) => Lifted::Bag(b(x)),
        }
    }
}

impl LiftedData<Value> for Lifted {
    fn ctx(&self) -> &Ctx {
        match self {
            Lifted::Scalar(s) => s.ctx(),
            Lifted::Bag(b) => b.ctx(),
        }
    }
    fn filter_by_cond(&self, cond: &InnerScalar<Value, bool>, keep: bool, new_ctx: &Ctx) -> Self {
        self.each(
            |s| s.filter_by_cond(cond, keep, new_ctx),
            |b| b.filter_by_cond(cond, keep, new_ctx),
        )
    }
    fn union_with(&self, other: &Self) -> Self {
        match (self, other) {
            (Lifted::Scalar(x), Lifted::Scalar(y)) => Lifted::Scalar(x.union_with(y)),
            (Lifted::Bag(x), Lifted::Bag(y)) => Lifted::Bag(x.union_with(y)),
            _ => unreachable!("loop variable shapes are stable"),
        }
    }
    fn with_ctx(&self, ctx: &Ctx) -> Self {
        self.each(|s| LiftedData::with_ctx(s, ctx), |b| LiftedData::with_ctx(b, ctx))
    }
    fn checkpoint(&self) -> Self {
        self.each(LiftedData::checkpoint, LiftedData::checkpoint)
    }
}

impl Lowering {
    /// Create a lowering over `engine` with the given optimizer config.
    pub fn new(engine: Engine, config: MatryoshkaConfig) -> Lowering {
        Lowering { engine, config, captures_memo: Mutex::new(HashMap::new()) }
    }

    /// Closure capture names of a leaf UDF, memoized per `Arc`'d body node:
    /// lifted loops re-lower the same bodies every iteration, so the
    /// free-variable walk runs once per distinct body and is reused. The
    /// cached entry pins the `Arc` so a pointer key can never be reused by a
    /// different expression, and records the parameter it was computed under.
    fn memo_capture_names(&self, udf: &Lambda) -> Arc<Vec<String>> {
        let key = Arc::as_ptr(&udf.body) as usize;
        let mut memo = self.captures_memo.lock().expect("captures memo poisoned");
        if let Some(c) = memo.get(&key) {
            if c.param == udf.param {
                return Arc::clone(&c.names);
            }
        }
        let names = Arc::new(crate::analyze::captures::capture_names(&udf.body, &[&udf.param]));
        memo.insert(
            key,
            CachedCaptures {
                _body: Arc::clone(&udf.body),
                param: udf.param.clone(),
                names: Arc::clone(&names),
            },
        );
        names
    }

    /// Resolve the UDF of a `map`/`filter`/`flatMap` against the environment
    /// and compile it. Plain scalar captures are inlined; lifted ones become
    /// parameters 1.., delivered per record as the components of the one
    /// combined scalar returned alongside
    /// ([`CompiledUdf::eval_with_combined`]).
    fn leaf_udf(&self, udf: &Lambda, env: &Env) -> IrResult<(Arc<CompiledUdf>, Option<IScalar>)> {
        let names = self.memo_capture_names(udf);
        let mut plain = PureEnv::new();
        let mut params = vec![udf.param.as_str()];
        let mut lifted = Vec::new();
        for name in names.iter() {
            match env.get(name) {
                Some(Val::Scalar(v)) => {
                    plain.insert(name.clone(), v.clone());
                }
                Some(Val::InnerScalar(s)) => {
                    params.push(name);
                    lifted.push(s);
                }
                Some(other) => {
                    return Err(IrError::Unsupported(format!(
                        "UDF captures {} ({name}); only scalars can be captured by leaf UDFs",
                        other.kind()
                    )))
                }
                None => return Err(IrError::Unbound(name.clone())),
            }
        }
        let closure = combine_scalars(lifted);
        Ok((Arc::new(CompiledUdf::new(&udf.body, &params, plain, false)), closure))
    }

    /// Execute a parsed program. `inputs` binds the program's `Source`
    /// names to engine bags.
    ///
    /// The program first goes through the plan rewrites
    /// ([`crate::analyze::plan::rewrite_plan`]: hoist, CSE + auto-caching,
    /// DCE); each applied rewrite is recorded in the engine's decision log
    /// under the `plan_rewrite` site. The pass runs here rather than in
    /// [`crate::prepare_program`] so that a hand-assembled
    /// [`crate::PreparedProgram`] lowers the same plan as a prepared one.
    pub fn run(&self, program: &Expr, inputs: &HashMap<String, Bag<Value>>) -> IrResult<RtVal> {
        let rewritten = crate::analyze::plan::rewrite_plan(program, &PlanRewriteConfig);
        for r in &rewritten.rewrites {
            self.engine.record_decision("plan_rewrite", r.code, 0, 0, r.to_string());
        }
        self.run_verbatim(&rewritten.expr, inputs)
    }

    /// Execute a parsed program exactly as written, skipping the plan
    /// rewrites of [`Lowering::run`]: the reference arm the rewrite
    /// equivalence suites compare against.
    pub fn run_verbatim(
        &self,
        program: &Expr,
        inputs: &HashMap<String, Bag<Value>>,
    ) -> IrResult<RtVal> {
        match self.eval(program, &Env::new(), None, inputs)? {
            Val::Scalar(v) => Ok(RtVal::Scalar(v)),
            Val::Bag(b) => Ok(RtVal::Bag(b)),
            Val::Nested(nb) => Ok(RtVal::Nested(nb)),
            other => Err(IrError::Type(format!("the program evaluates to {}", other.kind()))),
        }
    }

    /// Evaluate `e`. `ctx` is the lifting context of the enclosing lifted
    /// UDF, `None` at driver level. Under `Some`, no arm returns
    /// `Val::Scalar`: scalar leaves and reductions of flat bags go through
    /// [`lift`], so a scalar operator sees plain operands only at driver
    /// level.
    fn eval(&self, e: &Expr, env: &Env, ctx: Option<&Ctx>, inputs: &Inputs) -> IrResult<Val> {
        let ev = |x: &Expr| self.eval(x, env, ctx, inputs);
        Ok(match e {
            Expr::Spanned(_, inner) => ev(inner)?,
            Expr::Const(v) => lift(v.clone(), ctx),
            Expr::Var(n) => match env.get(n).cloned().ok_or_else(|| IrError::Unbound(n.clone()))? {
                Val::Scalar(v) => lift(v, ctx),
                other => other,
            },
            // Also inside a lifted UDF (the hyperparameter-optimization
            // shape of Sec. 2.3): a flat bag, the same for every tag.
            Expr::Source(n) => Val::Bag(
                inputs.get(n).cloned().ok_or_else(|| IrError::Unbound(format!("source {n}")))?,
            ),
            Expr::Tuple(items) => {
                let vals: Vec<Val> = items.iter().map(ev).collect::<IrResult<_>>()?;
                match vals.iter().map(Val::as_scalar).collect::<Option<Vec<_>>>() {
                    Some(plain) => lift(Value::tuple(plain), ctx),
                    None => {
                        let parts: Vec<IScalar> = vals
                            .into_iter()
                            .map(|v| inner_scalar(v, ctx))
                            .collect::<IrResult<_>>()?;
                        Val::InnerScalar(combine_scalars(&parts).expect("a component is lifted"))
                    }
                }
            }
            Expr::Proj(x, i) => match (ev(x)?, *i) {
                (Val::Scalar(v), i) => Val::Scalar(v.proj(i)?),
                (Val::InnerScalar(s), i) => {
                    Val::InnerScalar(s.map(move |v| v.proj(i).expect("lifted projection")))
                }
                (Val::Group(key, _), 0) => Val::InnerScalar(key),
                (Val::Group(_, inner), 1) => Val::InnerBag(inner),
                (other, i) => return Err(no_cell(&format!("projection .{i}"), &other)),
            },
            Expr::Bin(op, a, b) => {
                let op = *op;
                match (ev(a)?, ev(b)?) {
                    (Val::Scalar(a), Val::Scalar(b)) => Val::Scalar(apply_bin(op, &a, &b)?),
                    // binaryScalarOp (Sec. 4.3): a tag join.
                    (a, b) => Val::InnerScalar(
                        inner_scalar(a, ctx)?.zip_with(&inner_scalar(b, ctx)?, move |x, y| {
                            apply_bin(op, x, y).expect("lifted scalar op")
                        }),
                    ),
                }
            }
            Expr::Un(op, a) => {
                let op = *op;
                match ev(a)? {
                    Val::Scalar(a) => Val::Scalar(apply_un(op, &a)?),
                    // unaryScalarOp (Sec. 4.3): a tagged map.
                    a => Val::InnerScalar(
                        inner_scalar(a, ctx)?
                            .map(move |x| apply_un(op, x).expect("lifted scalar op")),
                    ),
                }
            }
            Expr::Let(n, v, b) => {
                let mut env2 = env.clone();
                env2.insert(n.clone(), ev(v)?);
                self.eval(b, &env2, ctx, inputs)?
            }
            Expr::If(c, t, el) => {
                match ev(c)? {
                    Val::Scalar(c) => ev(if c.as_bool()? { t } else { el })?,
                    // Lifted if over pure expressions: evaluate both branches
                    // for all tags and select per tag (Sec. 6.2; selection is
                    // equivalent to the join+filter routing because the language
                    // is side-effect free).
                    c => {
                        let c = inner_scalar(c, ctx)?;
                        let t = inner_scalar(ev(t)?, ctx)?;
                        let el = inner_scalar(ev(el)?, ctx)?;
                        let ct = c.zip_with(&t, |c, t| Value::pair(c.clone(), t.clone()));
                        Val::InnerScalar(ct.zip_with(&el, |ct, e| {
                            let c = ct.proj(0).expect("cond");
                            if c.as_bool().expect("boolean condition") {
                                ct.proj(1).expect("then")
                            } else {
                                e.clone()
                            }
                        }))
                    }
                }
            }
            Expr::Loop { init, cond, step, result } => match ctx {
                Some(ctx) => self.lifted_loop(init, cond, step, result, env, ctx, inputs)?,
                None => {
                    let mut env2 = env.clone();
                    for (n, x) in init {
                        let v = self.eval(x, &env2, None, inputs)?;
                        env2.insert(n.clone(), v);
                    }
                    while self
                        .eval(cond, &env2, None, inputs)?
                        .as_scalar()
                        .ok_or_else(|| IrError::Type("a loop condition must be a scalar".into()))?
                        .as_bool()?
                    {
                        let next: Vec<Val> = step
                            .iter()
                            .map(|x| self.eval(x, &env2, None, inputs))
                            .collect::<IrResult<_>>()?;
                        for ((n, _), v) in init.iter().zip(next) {
                            env2.insert(n.clone(), v);
                        }
                    }
                    self.eval(result, &env2, None, inputs)?
                }
            },
            Expr::Map(input, udf) => {
                let input = ev(input)?;
                match (input, self.leaf_udf(udf, env)?) {
                    (Val::Bag(b), (f, None)) => Val::Bag(b.map(move |v| f.eval1(v).expect(UDF_OK))),
                    (Val::InnerBag(b), (f, None)) => {
                        Val::InnerBag(b.map(move |v| f.eval1(v).expect(UDF_OK)))
                    }
                    // mapWithClosure (Sec. 5.1): the UDF reads lifted
                    // scalars -> tag join.
                    (Val::InnerBag(b), (f, Some(c))) => {
                        Val::InnerBag(b.map_with_scalar(&c, move |v, c| {
                            f.eval_with_combined(v, c).expect(UDF_OK)
                        }))
                    }
                    // Half-lifted mapWithClosure (Sec. 5.2/8.3): a flat bag
                    // under lifted closures is a cross product.
                    (Val::Bag(b), (f, Some(c))) => {
                        Val::InnerBag(c.cross_with_bag(&b, move |_, c, p| {
                            Some(f.eval_with_combined(p, c).expect(UDF_OK))
                        })?)
                    }
                    (other, _) => return Err(no_cell("map", &other)),
                }
            }
            Expr::Filter(input, udf) => {
                let input = ev(input)?;
                match (input, self.leaf_udf(udf, env)?) {
                    (Val::Bag(b), (f, None)) => Val::Bag(b.filter(move |v| truth(f.eval1(v)))),
                    (Val::InnerBag(b), (f, None)) => {
                        Val::InnerBag(b.filter(move |v| truth(f.eval1(v))))
                    }
                    (Val::InnerBag(b), (f, Some(c))) => Val::InnerBag(
                        b.filter_with_scalar(&c, move |v, c| truth(f.eval_with_combined(v, c))),
                    ),
                    // Half-lifted: the cross product keeps, per tag, the
                    // records its closure values select.
                    (Val::Bag(b), (f, Some(c))) => {
                        Val::InnerBag(c.cross_with_bag(&b, move |_, c, p| {
                            truth(f.eval_with_combined(p, c)).then(|| p.clone())
                        })?)
                    }
                    (other, _) => return Err(no_cell("filter", &other)),
                }
            }
            Expr::FlatMapTuple(input, udf) => {
                let input = ev(input)?;
                match (input, self.leaf_udf(udf, env)?) {
                    (Val::Bag(b), (f, None)) => {
                        Val::Bag(b.flat_map(move |v| f.eval1(v).expect(UDF_OK).splat_tuple()))
                    }
                    (Val::InnerBag(b), (f, None)) => {
                        Val::InnerBag(b.flat_map(move |v| f.eval1(v).expect(UDF_OK).splat_tuple()))
                    }
                    // flatMapWithClosure: a tag join, as for `map`.
                    (Val::InnerBag(b), (f, Some(c))) => {
                        Val::InnerBag(b.flat_map_with_scalar(&c, move |v, c| {
                            f.eval_with_combined(v, c).expect(UDF_OK).splat_tuple()
                        }))
                    }
                    // Half-lifted: the cross product emits, per tag, what
                    // its closure values make of each record.
                    (Val::Bag(b), (f, Some(c))) => {
                        Val::InnerBag(c.cross_with_bag(&b, move |_, c, p| {
                            f.eval_with_combined(p, c).expect(UDF_OK).splat_tuple()
                        })?)
                    }
                    (other, _) => return Err(no_cell("flatMap", &other)),
                }
            }
            Expr::GroupByKey(_) => {
                return Err(IrError::Unsupported(
                    "raw groupByKey cannot execute; run the parsing phase first \
                     (it becomes groupByKeyIntoNestedBag)"
                        .into(),
                ))
            }
            Expr::GroupByKeyIntoNestedBag(_) | Expr::MapWithLiftedUdf { .. } if ctx.is_some() => {
                return Err(IrError::Unsupported(
                    "more than two levels of parallel operations in the IR dialect \
                     (the typed API in matryoshka-core supports deeper nesting)"
                        .into(),
                ))
            }
            Expr::GroupByKeyIntoNestedBag(x) => match ev(x)? {
                Val::Bag(b) => Val::Nested(group_by_key_into_nested_bag(
                    &self.engine,
                    &b.map(kv),
                    self.config,
                )?),
                other => return Err(no_cell("groupByKey", &other)),
            },
            // `mapWithLiftedUDF`: invoke the UDF once, over lifted values
            // (Sec. 4.2). Its closures are simply in `env`.
            Expr::MapWithLiftedUdf { input, udf, .. } => {
                let (ctx, param) = match ev(input)? {
                    Val::Nested(nb) => {
                        (nb.ctx().clone(), Val::Group(nb.outer().clone(), nb.inner().clone()))
                    }
                    Val::Bag(b) => {
                        // Non-nested input: tags via zipWithUniqueId (Sec. 4.3).
                        let tagged = b
                            .zip_with_unique_id()
                            .map(|(v, id)| (Value::Long(*id as i64), v.clone()));
                        let tags = tagged.map(|(t, _)| t.clone());
                        let ctx = LiftingContext::counted(self.engine.clone(), tags, self.config)?;
                        (ctx.clone(), Val::InnerScalar(InnerScalar::from_repr(tagged, ctx)))
                    }
                    other => return Err(no_cell("mapWithLiftedUDF", &other)),
                };
                let mut env2 = env.clone();
                env2.insert(udf.param.clone(), param);
                match self.eval(&udf.body, &env2, Some(&ctx), inputs)? {
                    // A scalar-valued UDF: the map's result is the bag of
                    // per-tag results.
                    Val::InnerScalar(s) => Val::Bag(s.repr().map(|(_, v)| v.clone())),
                    // A bag-valued UDF: the result is nested again.
                    other => Val::Nested(NestedBag::from_parts(
                        ctx.tags_scalar(),
                        inner_bag(other, Some(&ctx))?,
                    )),
                }
            }
            Expr::ReduceByKey(x, l2) => {
                let input = ev(x)?;
                let f = compile_udf2(l2);
                let f = move |a: &Value, b: &Value| f.eval2(a, b).expect(UDF_OK);
                match input {
                    Val::Bag(b) => Val::Bag(b.map(kv).reduce_by_key(f).map(unkv)),
                    // Composite (tag, key) re-keying (Sec. 4.4) via the
                    // typed layer.
                    Val::InnerBag(b) => Val::InnerBag(b.map(kv).reduce_by_key(f).map(unkv)),
                    other => return Err(no_cell("reduceByKey", &other)),
                }
            }
            Expr::Join(a, b) => match (ev(a)?, ev(b)?) {
                (Val::Bag(l), Val::Bag(r)) => {
                    Val::Bag(l.map(kv).join(&r.map(kv)).map(|(k, (v, w))| joined(k, v, w)))
                }
                // Half-lifted join (Sec. 5.2): one side is a flat bag, which
                // is joined by key as it is instead of being replicated.
                (Val::InnerBag(l), Val::Bag(r)) => Val::InnerBag(
                    l.map(kv).half_lifted_join(&r.map(kv)).map(|(k, (v, w))| joined(k, v, w)),
                ),
                (Val::Bag(l), Val::InnerBag(r)) => Val::InnerBag(
                    r.map(kv).half_lifted_join(&l.map(kv)).map(|(k, (w, v))| joined(k, v, w)),
                ),
                // (tag, key) re-keying (Sec. 4.4).
                (l, r) => Val::InnerBag(
                    inner_bag(l, ctx)?
                        .map(kv)
                        .join(&inner_bag(r, ctx)?.map(kv))
                        .map(|(k, (v, w))| joined(k, v, w)),
                ),
            },
            Expr::Union(a, b) => match (ev(a)?, ev(b)?) {
                (Val::Bag(a), Val::Bag(b)) => Val::Bag(a.union(&b)),
                (a, b) => Val::InnerBag(inner_bag(a, ctx)?.union(&inner_bag(b, ctx)?)),
            },
            Expr::Distinct(x) => match ev(x)? {
                Val::Bag(b) => Val::Bag(b.distinct()),
                Val::InnerBag(b) => Val::InnerBag(b.distinct()),
                other => return Err(no_cell("distinct", &other)),
            },
            Expr::Count(x) => match ev(x)? {
                Val::Bag(b) => lift(Value::Long(b.count()? as i64), ctx),
                Val::Nested(nb) => lift(Value::Long(nb.ctx().size() as i64), ctx),
                Val::InnerBag(b) => Val::InnerScalar(b.count().map(|n| Value::Long(*n as i64))),
                other => return Err(no_cell("count", &other)),
            },
            Expr::Fold(x, zero, l2) => {
                let input = ev(x)?;
                // One plain zero seeds every tag, so it is evaluated at
                // driver level whatever level the fold is at.
                let Val::Scalar(z) = self.eval(zero, env, None, inputs)? else {
                    return Err(IrError::Unsupported("fold zero must not be lifted".into()));
                };
                let f = compile_udf2(l2);
                match input {
                    Val::Bag(b) => lift(b.fold(z, move |a, v| f.eval2(&a, v).expect(UDF_OK))?, ctx),
                    Val::InnerBag(b) => {
                        let g = Arc::clone(&f);
                        Val::InnerScalar(b.fold(
                            z,
                            move |a, v| f.eval2(a, v).expect(UDF_OK),
                            move |a, b| g.eval2(a, b).expect(UDF_OK),
                        ))
                    }
                    other => return Err(no_cell("fold", &other)),
                }
            }
            // Explicit materialization hint (inserted by the plan-rewrite
            // pass or written as `cache(e)`): a dedicated engine node whose
            // memoized partitions every consumer — and every loop iteration
            // whose environment carries the value — shares, and a fusion
            // barrier so narrow chains cannot recompute the parent. A lifted
            // value caches its tagged representation.
            Expr::Cache(x) => match ev(x)? {
                Val::Bag(b) => Val::Bag(b.cache()),
                Val::InnerScalar(s) => {
                    Val::InnerScalar(InnerScalar::from_repr(s.repr().cache(), s.ctx().clone()))
                }
                Val::InnerBag(b) => {
                    Val::InnerBag(InnerBag::from_repr(b.repr().cache(), b.ctx().clone()))
                }
                other => other,
            },
        })
    }

    /// A loop inside a lifted UDF (Sec. 6.2): the loop variables become
    /// lifted state — a flat one promoted like any other operand, so every
    /// tag iterates on its own copy — and all original loops run as one
    /// lifted do-while.
    #[allow(clippy::too_many_arguments)]
    fn lifted_loop(
        &self,
        init: &[(String, Expr)],
        cond: &Expr,
        step: &[Expr],
        result: &Expr,
        env: &Env,
        ctx: &Ctx,
        inputs: &Inputs,
    ) -> IrResult<Val> {
        let ctx = Some(ctx);
        let variable = |x: &Expr, env: &Env| match self.eval(x, env, ctx, inputs)? {
            v @ (Val::Scalar(_) | Val::InnerScalar(_)) => inner_scalar(v, ctx).map(Lifted::Scalar),
            v => inner_bag(v, ctx).map(Lifted::Bag),
        };
        // `env` with the first `state.len()` loop variables bound.
        let bound = |state: &[Lifted]| {
            let mut env = env.clone();
            env.extend(init.iter().zip(state).map(|((n, _), v)| (n.clone(), v.clone().into())));
            env
        };
        let mut state = Vec::with_capacity(init.len());
        for (_, x) in init {
            let v = variable(x, &bound(&state))?;
            state.push(v);
        }
        let last = lifted_while(
            &state,
            |state: &Vec<Lifted>| {
                let env = bound(state);
                let next: Vec<Lifted> = step
                    .iter()
                    .map(|x| variable(x, &env))
                    .collect::<IrResult<_>>()
                    .map_err(to_engine_err)?;
                // The condition is evaluated on the *new* variable values
                // (do-while semantics, Listing 4).
                let c = self
                    .eval(cond, &bound(&next), ctx, inputs)
                    .and_then(|c| inner_scalar(c, ctx))
                    .map_err(to_engine_err)?;
                Ok((next, c.map(|v| v.as_bool().expect("loop condition"))))
            },
            Some(10_000),
        )?;
        self.eval(result, &bound(&last), ctx, inputs)
    }
}
