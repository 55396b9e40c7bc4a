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
//! lifted do-while (Sec. 6.2) over one `InnerBag` per loop variable, UDFs
//! that read lifted scalars become `mapWithClosure` tag joins (Sec. 5.1),
//! their captures read from one `capture_names` walk of the body.
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
//!
//! The analyzer is the only shape check. [`Lowering::run`] and
//! [`Lowering::run_verbatim`] start with the parsing phase over the bound
//! inputs, which returns [`IrError::Analysis`] for a program it rejects, so
//! the evaluator only sees programs whose every operand has a cell. An arm
//! handed any other kind is `unreachable!`. What can still fail is a value:
//! a record a UDF cannot evaluate, an engine error.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use matryoshka_core::{
    group_by_key_into_nested_bag, lifted_while, InnerBag, InnerScalar, LiftingContext,
    MatryoshkaConfig, NestedBag, PlanRewriteConfig,
};
use matryoshka_engine::{Bag, Engine, EngineError, JoinAlgorithm, Rule};

use crate::ast::{BinOp, Expr, Lambda, Lambda2, UnOp};
use crate::compile::CompiledUdf;
use crate::error::{IrError, IrResult};
use crate::parse::{parsing_phase, Dialect};
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
    fn as_scalar(&self) -> Option<Value> {
        match self {
            Val::Scalar(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// `op` met an operand kind it has no cell for. The analyzer rejects every
/// such program before [`Lowering::run`] or [`Lowering::run_verbatim`]
/// evaluates it, so reaching this is a bug in the analyzer.
#[cold]
fn unadmitted(op: &str) -> ! {
    unreachable!("{op}: an operand the parsing phase does not admit")
}

/// Executes parsed programs on an engine.
pub struct Lowering {
    engine: Engine,
    config: MatryoshkaConfig,
}

type Env = HashMap<String, Val>;
type Inputs = HashMap<String, Bag<Value>>;
type PureEnv = HashMap<String, Value>;

/// Apply a binary scalar operator (equality is structural; `<`/`>` order by
/// [`Value::num_cmp`]).
pub fn apply_bin(op: BinOp, a: &Value, b: &Value) -> IrResult<Value> {
    Ok(match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (a, b) {
            (Value::Long(x), Value::Long(y)) => Value::Long(Value::long_arith(op, *x, *y)?),
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
        BinOp::Lt => Value::Bool(a.num_cmp(b)? == Some(Ordering::Less)),
        BinOp::Gt => Value::Bool(a.num_cmp(b)? == Some(Ordering::Greater)),
        BinOp::Eq => Value::Bool(a == b),
        BinOp::And => Value::Bool(a.as_bool()? && b.as_bool()?),
        BinOp::Or => Value::Bool(a.as_bool()? || b.as_bool()?),
    })
}

/// Apply a unary scalar operator.
pub fn apply_un(op: UnOp, a: &Value) -> IrResult<Value> {
    Ok(match op {
        UnOp::Not => Value::Bool(!a.as_bool()?),
        UnOp::Neg => match a {
            Value::Long(x) => Value::Long(Value::long_arith(BinOp::Sub, 0, *x)?),
            _ => Value::Double(-a.as_f64()?),
        },
        UnOp::ToDouble => Value::Double(a.as_f64()?),
    })
}

/// Split a 2-tuple record into an engine `(key, value)` pair.
fn kv(v: &Value) -> (Value, Value) {
    let k = v.proj(0).expect("a keyed operator needs (key, value) records");
    (k, v.proj(1).expect("a keyed operator needs (key, value) records"))
}

fn unkv((k, v): &(Value, Value)) -> Value {
    Value::pair(k.clone(), v.clone())
}

/// One output record of a join: `(key, (left value, right value))`.
fn joined(k: &Value, v: &Value, w: &Value) -> Value {
    Value::pair(k.clone(), Value::pair(v.clone(), w.clone()))
}

// A UDF can fail on one record (a projection past the end of its tuple, a
// `Long` overflow) after the analyzer admitted its program; the panic names
// the operator.
const MAP: &str = "map UDF failed";
const FLAT_MAP: &str = "flatMap UDF failed";
const FOLD: &str = "fold UDF failed";

fn truth(v: IrResult<Value>) -> bool {
    v.and_then(|v| v.as_bool()).expect("filter UDF failed")
}

/// A scalar result: plain at driver level; inside a lifted UDF replicated
/// per tag, eagerly, which is the lifted-UDF closure case of Sec. 5.2.
fn lift(v: Value, ctx: Option<&Ctx>) -> Val {
    match ctx {
        Some(ctx) => Val::InnerScalar(ctx.constant(v)),
        None => Val::Scalar(v),
    }
}

/// Promotion of a scalar operand that meets lifted state.
fn inner_scalar(v: Val, ctx: Option<&Ctx>) -> IScalar {
    match (v, ctx) {
        (Val::InnerScalar(s), _) => s,
        (Val::Scalar(x), Some(ctx)) => ctx.constant(x),
        _ => unadmitted("a lifted scalar operand"),
    }
}

/// Promotion of a bag operand that meets lifted state: every tag sees the
/// whole flat bag, so it is the cross product of the tags with the bag.
fn inner_bag(v: Val, ctx: Option<&Ctx>) -> IrResult<IBag> {
    match (v, ctx) {
        (Val::InnerBag(b), _) => Ok(b),
        (Val::Bag(b), Some(ctx)) => {
            Ok(ctx.tags_scalar().cross_with_bag(&b, |_, _, p| Some(p.clone()))?)
        }
        _ => unadmitted("a lifted bag operand"),
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

/// The lowering's one shape check: the parsing phase, with the bound inputs
/// as the program's sources (sorted, since `MAT002` lists them).
fn gate(program: &Expr, inputs: &Inputs) -> IrResult<Expr> {
    let mut sources: Vec<&str> = inputs.keys().map(String::as_str).collect();
    sources.sort_unstable();
    parsing_phase(program, &sources, Dialect::Matryoshka)
}

fn to_engine_err(e: IrError) -> EngineError {
    match e {
        IrError::Engine(e) => e,
        other => EngineError::InvalidPlan(other.to_string()),
    }
}

impl Lowering {
    /// Create a lowering over `engine` with the given optimizer config.
    pub fn new(engine: Engine, config: MatryoshkaConfig) -> Lowering {
        Lowering { engine, config }
    }

    /// Resolve the UDF of a `map`/`filter`/`flatMap` against the environment
    /// and compile it. Plain scalar captures are inlined; lifted ones become
    /// parameters 1.., delivered per record as the components of the one
    /// combined scalar returned alongside
    /// ([`CompiledUdf::eval_with_combined`]).
    fn leaf_udf(&self, udf: &Lambda, env: &Env) -> (Arc<CompiledUdf>, Option<IScalar>) {
        let names = crate::analyze::captures::capture_names(&udf.body, &[&udf.param]);
        let mut plain = PureEnv::new();
        let mut params = vec![udf.param.as_str()];
        let mut lifted = Vec::new();
        for name in &names {
            match &env[name] {
                Val::Scalar(v) => {
                    plain.insert(name.clone(), v.clone());
                }
                Val::InnerScalar(s) => {
                    params.push(name);
                    lifted.push(s);
                }
                _ => unadmitted("a leaf UDF's capture"),
            }
        }
        let closure = combine_scalars(lifted);
        (Arc::new(CompiledUdf::new(&udf.body, &params, plain, false)), closure)
    }

    /// Execute a program. `inputs` binds the program's `Source` names to
    /// engine bags.
    ///
    /// The program first passes the gate: [`parsing_phase`] under
    /// [`Dialect::Matryoshka`], with the names of `inputs` as its sources.
    /// A program the analyzer rejects returns [`IrError::Analysis`] before
    /// any engine job launches; a surface program (a raw `groupByKey`, a
    /// `map` whose UDF launches bag operations) is flattened; parsing-phase
    /// output comes back unchanged.
    ///
    /// Then it goes through the plan rewrites
    /// ([`crate::analyze::plan::rewrite_plan`]: hoist, CSE + auto-caching,
    /// DCE); each applied rewrite is recorded in the engine's decision log
    /// under the `plan_rewrite` site. The pass runs here rather than in
    /// [`crate::prepare_program`] so that a hand-assembled
    /// [`crate::PreparedProgram`] lowers the same plan as a prepared one.
    pub fn run(&self, program: &Expr, inputs: &HashMap<String, Bag<Value>>) -> IrResult<RtVal> {
        let admitted = gate(program, inputs)?;
        let rewritten = crate::analyze::plan::rewrite_plan(&admitted, &PlanRewriteConfig);
        for r in &rewritten.rewrites {
            self.engine.record_decision(Rule::PlanRewrite { code: r.code, text: r.to_string() });
        }
        self.lower(&rewritten.expr, inputs)
    }

    /// Execute a program exactly as written, skipping the plan rewrites of
    /// [`Lowering::run`]: the reference arm the rewrite equivalence suites
    /// compare against. It passes the same gate first, with the same
    /// [`IrError::Analysis`] for a rejected program.
    pub fn run_verbatim(
        &self,
        program: &Expr,
        inputs: &HashMap<String, Bag<Value>>,
    ) -> IrResult<RtVal> {
        self.lower(&gate(program, inputs)?, inputs)
    }

    /// Evaluate an admitted program at driver level.
    fn lower(&self, program: &Expr, inputs: &Inputs) -> IrResult<RtVal> {
        Ok(match self.eval(program, &Env::new(), None, inputs)? {
            Val::Scalar(v) => RtVal::Scalar(v),
            Val::Bag(b) => RtVal::Bag(b),
            Val::Nested(nb) => RtVal::Nested(nb),
            _ => unadmitted("the program's result"),
        })
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
            Expr::Var(n) => match env[n].clone() {
                Val::Scalar(v) => lift(v, ctx),
                other => other,
            },
            // Also inside a lifted UDF (the hyperparameter-optimization
            // shape of Sec. 2.3): a flat bag, the same for every tag.
            Expr::Source(n) => Val::Bag(inputs[n].clone()),
            Expr::Tuple(items) => {
                let vals: Vec<Val> = items.iter().map(ev).collect::<IrResult<_>>()?;
                match vals.iter().map(Val::as_scalar).collect::<Option<Vec<_>>>() {
                    Some(plain) => lift(Value::tuple(plain), ctx),
                    None => {
                        let parts: Vec<IScalar> =
                            vals.into_iter().map(|v| inner_scalar(v, ctx)).collect();
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
                _ => unadmitted("projection"),
            },
            Expr::Bin(op, a, b) => {
                let op = *op;
                match (ev(a)?, ev(b)?) {
                    (Val::Scalar(a), Val::Scalar(b)) => Val::Scalar(apply_bin(op, &a, &b)?),
                    // binaryScalarOp (Sec. 4.3): a tag join.
                    (a, b) => Val::InnerScalar(
                        inner_scalar(a, ctx).zip_with(&inner_scalar(b, ctx), move |x, y| {
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
                        inner_scalar(a, ctx)
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
                        let c = inner_scalar(c, ctx);
                        let t = inner_scalar(ev(t)?, ctx);
                        let el = inner_scalar(ev(el)?, ctx);
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
                        .unwrap_or_else(|| unadmitted("loop condition"))
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
                match (input, self.leaf_udf(udf, env)) {
                    (Val::Bag(b), (f, None)) => Val::Bag(b.map(move |v| f.eval1(v).expect(MAP))),
                    (Val::InnerBag(b), (f, None)) => {
                        Val::InnerBag(b.map(move |v| f.eval1(v).expect(MAP)))
                    }
                    // mapWithClosure (Sec. 5.1): the UDF reads lifted
                    // scalars -> tag join.
                    (Val::InnerBag(b), (f, Some(c))) => {
                        Val::InnerBag(b.map_with_scalar(&c, move |v, c| {
                            f.eval_with_combined(v, c).expect(MAP)
                        }))
                    }
                    // Half-lifted mapWithClosure (Sec. 5.2/8.3): a flat bag
                    // under lifted closures is a cross product.
                    (Val::Bag(b), (f, Some(c))) => {
                        Val::InnerBag(c.cross_with_bag(&b, move |_, c, p| {
                            Some(f.eval_with_combined(p, c).expect(MAP))
                        })?)
                    }
                    _ => unadmitted("map"),
                }
            }
            Expr::Filter(input, udf) => {
                let input = ev(input)?;
                match (input, self.leaf_udf(udf, env)) {
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
                    _ => unadmitted("filter"),
                }
            }
            Expr::FlatMapTuple(input, udf) => {
                let input = ev(input)?;
                match (input, self.leaf_udf(udf, env)) {
                    (Val::Bag(b), (f, None)) => {
                        Val::Bag(b.flat_map(move |v| f.eval1(v).expect(FLAT_MAP).splat_tuple()))
                    }
                    (Val::InnerBag(b), (f, None)) => Val::InnerBag(
                        b.flat_map(move |v| f.eval1(v).expect(FLAT_MAP).splat_tuple()),
                    ),
                    // flatMapWithClosure: a tag join, as for `map`.
                    (Val::InnerBag(b), (f, Some(c))) => {
                        Val::InnerBag(b.flat_map_with_scalar(&c, move |v, c| {
                            f.eval_with_combined(v, c).expect(FLAT_MAP).splat_tuple()
                        }))
                    }
                    // Half-lifted: the cross product emits, per tag, what
                    // its closure values make of each record.
                    (Val::Bag(b), (f, Some(c))) => {
                        Val::InnerBag(c.cross_with_bag(&b, move |_, c, p| {
                            f.eval_with_combined(p, c).expect(FLAT_MAP).splat_tuple()
                        })?)
                    }
                    _ => unadmitted("flatMap"),
                }
            }
            Expr::GroupByKey(_) => unadmitted("raw groupByKey"),
            Expr::GroupByKeyIntoNestedBag(x) => match ev(x)? {
                Val::Bag(b) => Val::Nested(group_by_key_into_nested_bag(
                    &self.engine,
                    &b.map(kv),
                    self.config,
                )?),
                _ => unadmitted("groupByKeyIntoNestedBag"),
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
                    _ => unadmitted("mapWithLiftedUDF"),
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
                let udf =
                    move |a: &Value, b: &Value| f.eval2(a, b).expect("reduceByKey UDF failed");
                match input {
                    Val::Bag(b) => Val::Bag(b.map(kv).reduce_by_key(udf).map(unkv)),
                    // Composite (tag, key) re-keying (Sec. 4.4) via the
                    // typed layer, whose combiner updates in place.
                    Val::InnerBag(b) => {
                        Val::InnerBag(b.map(kv).reduce_by_key(move |a, b| *a = udf(a, b)).map(unkv))
                    }
                    _ => unadmitted("reduceByKey"),
                }
            }
            Expr::Join(a, b) => match (ev(a)?, ev(b)?) {
                // The join pushes each match into `joined`, and the program's
                // own operators after it run in the same pass.
                (Val::Bag(l), Val::Bag(r)) => Val::Bag(
                    l.map(kv).joined_with(&r.map(kv), JoinAlgorithm::Repartition).map(joined),
                ),
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
                _ => unadmitted("distinct"),
            },
            Expr::Count(x) => match ev(x)? {
                Val::Bag(b) => lift(Value::Long(b.count()? as i64), ctx),
                Val::Nested(nb) => lift(Value::Long(nb.ctx().size() as i64), ctx),
                Val::InnerBag(b) => Val::InnerScalar(b.count().map(|n| Value::Long(*n as i64))),
                _ => unadmitted("count"),
            },
            Expr::Fold(x, zero, l2) => {
                let input = ev(x)?;
                // One plain zero seeds every tag, so it is evaluated at
                // driver level whatever level the fold is at.
                let Val::Scalar(z) = self.eval(zero, env, None, inputs)? else {
                    unadmitted("fold zero")
                };
                let f = compile_udf2(l2);
                match input {
                    Val::Bag(b) => lift(b.fold(z, move |a, v| f.eval2(&a, v).expect(FOLD))?, ctx),
                    // Each element is its own partial and `f` only combines,
                    // so every tag meets the zero once, as the flat fold does.
                    Val::InnerBag(b) => Val::InnerScalar(b.fold(
                        z,
                        |_, v| v.clone(),
                        move |a, b| *a = f.eval2(a, b).expect(FOLD),
                    )),
                    _ => unadmitted("fold"),
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
    /// lifted do-while. The state is one inner bag per variable: a lifted
    /// scalar's representation is an inner bag's, one record per tag, and
    /// whether a variable is a scalar is fixed by its initial value.
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
            v @ (Val::Scalar(_) | Val::InnerScalar(_)) => {
                Ok((true, inner_scalar(v, ctx).to_inner_bag()))
            }
            v => Ok((false, inner_bag(v, ctx)?)),
        };
        // `env` with the first `state.len()` loop variables bound.
        let bound = |state: &[IBag], scalar: &[bool]| {
            let mut env = env.clone();
            for (((n, _), b), &is_scalar) in init.iter().zip(state).zip(scalar) {
                let v = if is_scalar {
                    Val::InnerScalar(InnerScalar::from_repr(b.repr().clone(), b.ctx().clone()))
                } else {
                    Val::InnerBag(b.clone())
                };
                env.insert(n.clone(), v);
            }
            env
        };
        let (mut state, mut scalar) = (Vec::new(), Vec::new());
        for (_, x) in init {
            let (is_scalar, v) = variable(x, &bound(&state, &scalar))?;
            state.push(v);
            scalar.push(is_scalar);
        }
        let last = lifted_while(
            &state,
            |state: &Vec<IBag>| {
                let env = bound(state, &scalar);
                let next: Vec<IBag> = step
                    .iter()
                    .map(|x| variable(x, &env).map(|(_, v)| v))
                    .collect::<IrResult<_>>()
                    .map_err(to_engine_err)?;
                // The condition is evaluated on the *new* variable values
                // (do-while semantics, Listing 4).
                let c = self
                    .eval(cond, &bound(&next, &scalar), ctx, inputs)
                    .map(|c| inner_scalar(c, ctx))
                    .map_err(to_engine_err)?;
                Ok((next, c.map(|v| v.as_bool().expect("loop condition"))))
            },
            Some(10_000),
        )?;
        self.eval(result, &bound(&last, &scalar), ctx, inputs)
    }
}
