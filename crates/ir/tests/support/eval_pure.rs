// The reference interpreter for scalar UDFs: a tree walk over plain values,
// with no runtime caller. Every per-record UDF runs a slot-compiled program
// (`CompiledUdf`); this is the oracle the differential tests compare it
// with. It is pulled in with `include!` by `compile.rs`'s unit tests and by
// `tests/compiled_udf.rs`, so the includer brings `HashMap`, `Expr`,
// `Value`, `IrError`, `IrResult`, `apply_bin` and `apply_un` into scope.

/// Evaluate a scalar-only expression over plain values. Loops and
/// conditionals over scalars are allowed; a bag operation is an error.
fn eval_pure(e: &Expr, env: &HashMap<String, Value>) -> IrResult<Value> {
    let mut scratch = env.clone();
    eval_pure_mut(e, &mut scratch)
}

/// [`eval_pure`] over a mutable environment: each binder inserts in place
/// and restores the shadowed value on scope exit, instead of cloning the
/// whole map per binding (which made deep `let`-chains quadratic).
fn eval_pure_mut(e: &Expr, env: &mut HashMap<String, Value>) -> IrResult<Value> {
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
fn restore(env: &mut HashMap<String, Value>, name: &str, saved: Option<Value>) {
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
    env: &mut HashMap<String, Value>,
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
