//! Workloads 5 and 6: `.mat` program text through the path the service
//! runs — `prepare_program`, bind sources, `PreparedProgram::run`, collect —
//! on `Bag<Value>` records and the 8-partition `local_test` cluster, checked
//! against hand-written sequential references (never the lowering itself).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use matryoshka_core::{MatryoshkaConfig, PlanRewriteConfig};
use matryoshka_datagen::SmallRng;
use matryoshka_engine::{Bag, ClusterConfig, Engine};
use matryoshka_ir::analyze::{plan::rewrite_plan, source_names};
use matryoshka_ir::ast::Expr;
use matryoshka_ir::{
    analyze, parse_program, parsing_phase, prepare_program, CompiledUdf, Dialect, PreparedProgram,
    RtVal, Value,
};

use crate::batch::{traced_jobs, Batch, JobRun};
use crate::harness::{median, sample_ms, time_ms, Args, Report};
use crate::probes;
use crate::spans::Tracer;

pub type Rows = Vec<(i64, i64)>;
/// The sources of one program, by name.
pub type Sources = Vec<(&'static str, Rows)>;

pub fn pair(k: i64, v: i64) -> Value {
    Value::tuple(vec![Value::Long(k), Value::Long(v)])
}

fn long_rows(rows: impl IntoIterator<Item = (i64, i64)>) -> Vec<Value> {
    let mut out: Vec<Value> = rows.into_iter().map(|(k, v)| pair(k, v)).collect();
    out.sort();
    out
}

fn groups(rows: &Rows) -> BTreeMap<i64, Vec<i64>> {
    let mut by_key: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(k, v) in rows {
        by_key.entry(k).or_default().push(v);
    }
    by_key
}

fn distinct(vs: &[i64]) -> i64 {
    vs.iter().collect::<BTreeSet<_>>().len() as i64
}

// --- hand-written references, one per program -------------------------------

fn ref_bounce_rate(s: &Sources) -> Vec<Value> {
    let mut out: Vec<Value> = groups(&s[0].1)
        .into_iter()
        .map(|(k, vs)| {
            let mut visits: BTreeMap<i64, u64> = BTreeMap::new();
            for v in vs {
                *visits.entry(v).or_default() += 1;
            }
            let bounces = visits.values().filter(|&&c| c == 1).count();
            Value::tuple(vec![Value::Long(k), Value::Double(bounces as f64 / visits.len() as f64)])
        })
        .collect();
    out.sort();
    out
}

fn ref_half_lifted_closure(s: &Sources) -> Vec<Value> {
    long_rows(groups(&s[0].1).into_iter().map(|(k, vs)| {
        let n = vs.len() as i64;
        (k, vs.iter().filter(|&&v| v < n).count() as i64)
    }))
}

fn ref_per_group_loop(s: &Sources) -> Vec<Value> {
    long_rows(groups(&s[0].1).into_iter().map(|(k, vs)| (k, (vs.len() as i64).min(10))))
}

fn ref_join_enrichment(s: &Sources) -> Vec<Value> {
    let customers = groups(&s[1].1);
    long_rows(s[0].1.iter().flat_map(|&(k, order)| {
        customers.get(&k).into_iter().flatten().map(move |&customer| (order, customer))
    }))
}

fn ref_union_distinct(s: &Sources) -> Vec<Value> {
    let all: BTreeSet<(i64, i64)> = s[0].1.iter().chain(&s[1].1).copied().collect();
    vec![Value::Long(all.len() as i64)]
}

fn ref_visit_counts(s: &Sources) -> Vec<Value> {
    long_rows(groups(&s[0].1).into_iter().map(|(k, vs)| (k, vs.len() as i64)))
}

fn ref_lifted_if(s: &Sources) -> Vec<Value> {
    long_rows(groups(&s[0].1).into_iter().map(|(k, vs)| (k, (vs.len() > 100) as i64)))
}

fn ref_invariant_loop(s: &Sources) -> Vec<Value> {
    long_rows(groups(&s[0].1).into_iter().map(|(k, vs)| (k, distinct(&vs))))
}

/// `udf_heavy.mat` by hand: the map body in plain integer/float arithmetic,
/// then the sum.
fn ref_udf_heavy(s: &Sources) -> Vec<Value> {
    let sum: f64 = s[0]
        .1
        .iter()
        .map(|&(v0, v1)| {
            let a = v0 * 3 + v1;
            let b = a * a + v0;
            let r = (1..=8).rev().fold(b, |acc, i| acc + a * i);
            if r as f64 > 100000.0 {
                r as f64 / 2.0
            } else {
                (a + b) as f64
            }
        })
        .sum();
    vec![Value::Double(sum)]
}

// --- inputs ------------------------------------------------------------------

/// How the keys of a source are drawn.
#[derive(Clone, Copy)]
enum Keys {
    /// Uniform below the bound.
    Uniform(u64),
    /// The 97-key domain of the service's datasets, with keys 90..96 drawn
    /// 32 times less often: group sizes differ and `lifted_if` takes both
    /// branches.
    Thinned,
    /// Record `i` gets key `i % 97`: every group has the same size, which
    /// fixes the trip count of a loop over group sizes.
    RoundRobin,
}

/// How a program's sources are drawn.
#[derive(Clone, Copy)]
enum Shape {
    /// `(key, value)` pairs, values below 10,000.
    Pairs { sources: &'static [&'static str], records: usize, keys: Keys },
    /// `orders` over `records / 10` keys and one `customers` record per
    /// key: a dimension join, one output record per order.
    Dimension { records: usize },
    /// `udf_heavy`'s `(v0, v1)` tuples, `v0 < 1000`, `v1 < 37`.
    Udf { records: usize },
}

fn pairs(rng: &mut SmallRng, n: usize, keys: Keys, values: u64) -> Rows {
    (0..n)
        .map(|i| {
            let k = match keys {
                Keys::Uniform(bound) => rng.gen_range(0..bound),
                Keys::RoundRobin => i as u64 % 97,
                Keys::Thinned => match rng.gen_range(0..97) {
                    k if k >= 90 && rng.gen_range(0..32) != 0 => k % 90,
                    k => k,
                },
            };
            (k as i64, rng.gen_range(0..values) as i64)
        })
        .collect()
}

fn draw(shape: Shape, rng: &mut SmallRng) -> Sources {
    match shape {
        Shape::Pairs { sources, records, keys } => {
            sources.iter().map(|name| (*name, pairs(rng, records, keys, 10_000))).collect()
        }
        Shape::Dimension { records } => {
            let keys = (records / 10).max(1) as u64;
            let orders = pairs(rng, records, Keys::Uniform(keys), 10_000);
            let customers =
                (0..keys).map(|k| (k as i64, rng.gen_range(0..10_000) as i64)).collect();
            vec![("orders", orders), ("customers", customers)]
        }
        Shape::Udf { records } => vec![("xs", pairs(rng, records, Keys::Uniform(1000), 37))],
    }
}

/// A hand-written sequential reference: sorted result rows from the sources.
type Reference = fn(&Sources) -> Vec<Value>;

/// One program of a workload.
pub struct Program {
    pub name: &'static str,
    job_span: &'static str,
    pub text: String,
    shape: Shape,
    pub reference: Reference,
}

/// The rows of every program (for the references) and the same rows as
/// `Value` tuples (for the jobs). Cloning shares both.
#[derive(Clone)]
pub struct Input {
    rows: Arc<Vec<Sources>>,
    values: Vec<Vec<(&'static str, Vec<Value>)>>,
}

impl Program {
    fn load(
        name: &'static str,
        path: &str,
        shape: Shape,
        reference: Reference,
    ) -> Result<Program, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // Span names live as long as the process; a handful of leaked strings
        // saves the tracer an owned name per span.
        let job_span = Box::leak(format!("job.{name}").into_boxed_str());
        Ok(Program { name, job_span, text, shape, reference })
    }

    /// Source names, in the order the reference indexes them.
    pub fn source_names(&self) -> &'static [&'static str] {
        match self.shape {
            Shape::Pairs { sources, .. } => sources,
            Shape::Dimension { .. } => &["orders", "customers"],
            Shape::Udf { .. } => &["xs"],
        }
    }
}

pub struct Mat {
    pub programs: Vec<Program>,
}

impl Mat {
    /// Workload 5: every shipped example program.
    pub fn bagops(args: &Args) -> Result<Mat, String> {
        let n = args.size(200_000, 2_000);
        // The two lifted loops run one lifted iteration per trip of their
        // slowest group and host memory grows with the trip count, so their
        // groups stay small and equal: 20 or 21 records per key. More than
        // 10, because a lifted loop runs its body once before it tests the
        // condition: `per_group_loop` on a group of 10 or fewer yields one
        // less than the scalar evaluator does (README, "Baseline findings").
        let loops = args.size(2_000, 1_200);
        let pairs = |sources, records| Shape::Pairs { sources, records, keys: Keys::Thinned };
        let even = |sources, records| Shape::Pairs { sources, records, keys: Keys::RoundRobin };
        let table: [(&'static str, Shape, Reference); 8] = [
            ("bounce_rate", pairs(&["visits"], n), ref_bounce_rate),
            ("half_lifted_closure", pairs(&["points"], n), ref_half_lifted_closure),
            ("per_group_loop", even(&["edges"], loops), ref_per_group_loop),
            ("join_enrichment", Shape::Dimension { records: n }, ref_join_enrichment),
            ("union_distinct", pairs(&["xs", "ys"], n), ref_union_distinct),
            ("visit_counts", pairs(&["visits"], n), ref_visit_counts),
            ("lifted_if", pairs(&["visits"], n), ref_lifted_if),
            ("invariant_loop", even(&["edges"], loops), ref_invariant_loop),
        ];
        let programs = table
            .into_iter()
            .map(|(name, shape, reference)| {
                Program::load(name, &format!("examples/programs/{name}.mat"), shape, reference)
            })
            .collect::<Result<_, String>>()?;
        Ok(Mat { programs })
    }

    /// Workload 6: the UDF-heavy program of the micro harness.
    pub fn udf(args: &Args) -> Result<Mat, String> {
        let shape = Shape::Udf { records: args.size(200_000, 2_000) };
        let program =
            Program::load("udf_heavy", "benchmark/programs/udf_heavy.mat", shape, ref_udf_heavy)?;
        Ok(Mat { programs: vec![program] })
    }
}

pub fn cluster(engine_trace: bool) -> ClusterConfig {
    ClusterConfig { trace_events: engine_trace, ..ClusterConfig::local_test() }
}

/// The admission gate. Untraced, it is the one call the service makes;
/// traced, the same steps one by one, each under its own span.
fn prepare(text: &str, t: &mut Tracer) -> Result<PreparedProgram, String> {
    if !t.enabled() {
        return prepare_program(text, Dialect::Matryoshka).map_err(|e| e.to_string());
    }
    let dialect = Dialect::Matryoshka;
    let ast = t.span("ir.syntax", || parse_program(text)).map_err(|e| e.to_string())?;
    let sources = source_names(&ast);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let analysis = t.span("ir.analyze", || analyze(&ast, &refs, dialect));
    if analysis.diagnostics.has_errors() {
        return Err(format!("analysis rejected the program: {}", analysis.diagnostics));
    }
    let expr =
        t.span("ir.parse", || parsing_phase(&ast, &refs, dialect)).map_err(|e| e.to_string())?;
    Ok(PreparedProgram { expr, sources, dialect, analysis })
}

/// Run a prepared program on `engine` and bring its result to the driver.
pub fn run_and_collect(
    prepared: &PreparedProgram,
    engine: &Engine,
    inputs: &HashMap<String, Bag<Value>>,
    t: &mut Tracer,
) -> Result<Vec<Value>, String> {
    let out = t
        .span("ir.lower", || prepared.run(engine.clone(), MatryoshkaConfig::optimized(), inputs))
        .map_err(|e| e.to_string())?;
    t.span("engine.collect", || match out {
        RtVal::Scalar(v) => Ok(vec![v]),
        RtVal::Bag(b) => b.collect().map_err(|e| e.to_string()),
        RtVal::Nested(_) => Err("program returned a nested bag".to_string()),
    })
}

pub fn bind(
    engine: &Engine,
    sources: Vec<(&'static str, Vec<Value>)>,
) -> HashMap<String, Bag<Value>> {
    sources
        .into_iter()
        .map(|(name, values)| (name.to_string(), engine.parallelize(values, 8)))
        .collect()
}

/// Equality up to float rounding: a `fold` over doubles may sum in another
/// order than the reference.
fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        (Value::Tuple(x), Value::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| close(p, q))
        }
        _ => a == b,
    }
}

impl Batch for Mat {
    type Input = Input;
    /// Sorted result rows, per program.
    type Output = Vec<Vec<Value>>;

    fn generate(&self, seed: u64) -> Input {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Sources> = self.programs.iter().map(|p| draw(p.shape, &mut rng)).collect();
        let values = rows
            .iter()
            .map(|sources| {
                sources
                    .iter()
                    .map(|(name, rows)| (*name, rows.iter().map(|&(k, v)| pair(k, v)).collect()))
                    .collect()
            })
            .collect();
        Input { rows: Arc::new(rows), values }
    }

    fn reference(&self, input: &Input) -> Self::Output {
        self.programs.iter().zip(input.rows.iter()).map(|(p, s)| (p.reference)(s)).collect()
    }

    /// One pass: every program once, each on a fresh engine. The timed
    /// regions (program text to result rows on the driver) add up to the
    /// job's wall time; engines are built and results sorted outside them.
    fn job(
        &self,
        input: Input,
        engine_trace: bool,
        t: &mut Tracer,
    ) -> Result<JobRun<Self::Output>, String> {
        let mut wall_ms = 0.0;
        let mut engines = Vec::new();
        let mut outputs = Vec::new();
        for (p, sources) in self.programs.iter().zip(input.values) {
            let engine = Engine::new(cluster(engine_trace));
            let job = t.begin(p.job_span);
            let t0 = Instant::now();
            let rows = prepare(&p.text, t).and_then(|prepared| {
                let inputs = t.span("engine.parallelize", || bind(&engine, sources));
                run_and_collect(&prepared, &engine, &inputs, t)
            });
            wall_ms += t0.elapsed().as_secs_f64() * 1e3;
            t.end(job);
            let mut rows = rows.map_err(|e| format!("{}: {e}", p.name))?;
            rows.sort();
            outputs.push(rows);
            engines.push(engine);
        }
        Ok(JobRun::new(wall_ms, &engines, outputs))
    }

    fn disagreement(&self, got: &Self::Output, want: &Self::Output) -> Option<String> {
        self.programs.iter().zip(got.iter().zip(want)).find_map(|(p, (g, w))| {
            if g.len() != w.len() {
                return Some(format!("{}: {} rows, want {}", p.name, g.len(), w.len()));
            }
            let (a, b) = g.iter().zip(w).find(|(a, b)| !close(a, b))?;
            Some(format!("{}: got {a}, want {b}", p.name))
        })
    }
}

// --- the traced runs ---------------------------------------------------------

/// Spans, job pairs and the layer probes that belong to `mat_bagops`.
pub fn run_traced_bagops(m: &Mat, args: &Args, rep: &mut Report, t: &mut Tracer) {
    let input = t.span("bench.gen", || m.generate(args.seed));
    let want = t.span("bench.reference", || m.reference(&input));
    traced_jobs(m, &input, &want, args, rep, t);

    // `PreparedProgram::run` + collect per program, front-end excluded.
    let runs = args.size(3, 1);
    let mut lower_bounce = f64::NAN;
    for ((p, sources), want) in m.programs.iter().zip(&input.values).zip(&want) {
        let prepared = match prepare_program(&p.text, Dialect::Matryoshka) {
            Ok(prepared) => prepared,
            Err(e) => {
                rep.check(false, || format!("{}: {e}", p.name));
                continue;
            }
        };
        let mut ms = Vec::new();
        for _ in 0..runs {
            let engine = Engine::new(cluster(false));
            let inputs = bind(&engine, sources.clone());
            let (took, rows) =
                time_ms(|| run_and_collect(&prepared, &engine, &inputs, &mut Tracer::new(false)));
            ms.push(took);
            rep.check(rows.is_ok_and(|r| r.len() == want.len()), || {
                format!("{}: lowering", p.name)
            });
        }
        rep.put_samples(&format!("ir.lower_ms.{}", p.name), &ms);
        if p.name == "bounce_rate" {
            lower_bounce = median(&ms);
        }
    }

    // The same visits as typed records through the typed strategy.
    let visits: Vec<(u32, u64)> =
        input.rows[0][0].1.iter().map(|&(k, v)| (k as u32, v as u64)).collect();
    let typed = sample_ms(runs, false, || {
        let engine = Engine::new(cluster(false));
        let bag = engine.parallelize(visits.clone(), 8);
        matryoshka_tasks::bounce_rate::matryoshka(&engine, &bag, MatryoshkaConfig::optimized())
            .expect("typed bounce rate runs")
    });
    rep.put("ir.value_overhead_ratio", lower_bounce / median(&typed));

    probes::value_operators(args, rep);
    front_end(m, args, rep);
}

/// Front-end passes per shipped program (median of many calls, summed over
/// the corpus), the rewrite count, and `prepare_program` on a long program.
fn front_end(m: &Mat, args: &Args, rep: &mut Report) {
    let runs = args.size(1000, 20);
    let dialect = Dialect::Matryoshka;
    let (mut syntax, mut analysis, mut parse, mut plan, mut rewrites) = (0.0, 0.0, 0.0, 0.0, 0);
    for p in &m.programs {
        let ast = parse_program(&p.text).expect("shipped program parses");
        let sources = source_names(&ast);
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let parsed = parsing_phase(&ast, &refs, dialect).expect("shipped program rewrites");
        let cfg = PlanRewriteConfig::enabled();
        syntax += median(&sample_ms(runs, true, || parse_program(&p.text)));
        analysis += median(&sample_ms(runs, true, || analyze(&ast, &refs, dialect)));
        parse += median(&sample_ms(runs, true, || parsing_phase(&ast, &refs, dialect)));
        plan += median(&sample_ms(runs, true, || rewrite_plan(&parsed, &cfg)));
        rewrites += rewrite_plan(&parsed, &cfg).rewrites.len();
    }
    rep.put("ir.syntax_us", syntax * 1e3);
    rep.put("ir.analyze_us", analysis * 1e3);
    rep.put("ir.parse_us", parse * 1e3);
    rep.put("ir.plan_us", plan * 1e3);
    rep.put("ir.rewrites_applied", rewrites as f64);

    // ~64 KB of program: shipped bodies, drawn by the seed, bound one after
    // another under driver-level `let`s. A super-linear pass shows here.
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let target = args.size(64 << 10, 4 << 10);
    let mut text = String::new();
    let mut bound = 0;
    while text.len() < target {
        let p = &m.programs[rng.gen_range(0..m.programs.len() as u64) as usize];
        text.push_str(&format!("let p{bound} = {} in\n", p.text.trim()));
        bound += 1;
    }
    text.push_str("p0");
    let prepared = prepare_program(&text, dialect);
    rep.check(prepared.is_ok(), || format!("long program: {}", prepared.err().unwrap()));
    let ms = sample_ms(args.size(5, 2), true, || prepare_program(&text, dialect));
    rep.put("ir.prepare_us_per_kb", median(&ms) * 1e3 / (text.len() as f64 / 1024.0));
}

/// Spans, job pairs and the UDF compiler's two halves for `mat_udf`:
/// compile once, evaluate per record on one thread.
pub fn run_traced_udf(m: &Mat, args: &Args, rep: &mut Report, t: &mut Tracer) {
    let input = t.span("bench.gen", || m.generate(args.seed));
    let want = t.span("bench.reference", || m.reference(&input));
    traced_jobs(m, &input, &want, args, rep, t);

    let ast = parse_program(&m.programs[0].text).expect("udf_heavy parses");
    let Expr::Fold(mapped, _, _) = ast.unspanned() else { panic!("udf_heavy is a fold") };
    let Expr::Map(_, lambda) = mapped.unspanned() else { panic!("udf_heavy folds a map") };
    let compile = || CompiledUdf::new(&lambda.body, &[&lambda.param], HashMap::new(), false);
    rep.put_samples(
        "ir.compile_us",
        &sample_ms(args.size(1000, 20), true, compile)
            .iter()
            .map(|ms| ms * 1e3)
            .collect::<Vec<_>>(),
    );
    let udf = compile();
    let records = &input.values[0][0].1;
    let ms = sample_ms(args.size(5, 2), true, || {
        records.iter().map(|v| udf.eval1(v).expect("udf evaluates")).fold(0.0, |s, x| match x {
            Value::Double(d) => s + d,
            _ => f64::NAN,
        })
    });
    rep.put("ir.udf_ns_per_eval", median(&ms) * 1e6 / records.len() as f64);
}
