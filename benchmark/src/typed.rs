//! Workloads 1-4: the paper's four tasks through the typed API, Matryoshka
//! strategy, on the paper's 25-machine cluster model (1,200 partitions),
//! sized like the `Full` profile of the figure harness.

use std::time::Instant;

use matryoshka_core::{group_by_key_into_nested_bag, MatryoshkaConfig};
use matryoshka_datagen::{
    component_graph, grouped_edges, initial_centroid_configs, point_cloud, visit_log,
    ComponentGraphSpec, GroupedGraphSpec, KeyDist, KmeansSpec, Point, VisitSpec,
};
use matryoshka_engine::{Bag, ClusterConfig, Engine, Result, GB};
use matryoshka_tasks::seq::{KmeansParams, PageRankParams};
use matryoshka_tasks::{avg_distances, bounce_rate, kmeans, pagerank};

use crate::batch::{traced_jobs, Batch, JobRun};
use crate::flat;
use crate::harness::{median, time_ms, Args, Report};
use crate::spans::Tracer;

fn cluster(engine_trace: bool) -> ClusterConfig {
    ClusterConfig { trace_events: engine_trace, ..ClusterConfig::paper_small_cluster() }
}

/// Time one job on a fresh engine. The timed region is everything `run`
/// does: `parallelize_with_bytes`, the strategy call, the result on the
/// driver.
fn typed_job<O>(
    span: &'static str,
    engine_trace: bool,
    t: &mut Tracer,
    run: impl FnOnce(&Engine, &mut Tracer) -> Result<O>,
) -> std::result::Result<JobRun<O>, String> {
    let engine = Engine::new(cluster(engine_trace));
    let job = t.begin(span);
    let t0 = Instant::now();
    let out = run(&engine, t);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    t.end(job);
    Ok(JobRun::new(wall_ms, &[engine], out.map_err(|e| e.to_string())?))
}

/// First position where two sorted result lists part, by `same`.
fn first_difference<T: std::fmt::Debug>(
    got: &[T],
    want: &[T],
    same: impl Fn(&T, &T) -> bool,
) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} rows, want {}", got.len(), want.len()));
    }
    let (g, w) = got.iter().zip(want).find(|(g, w)| !same(g, w))?;
    Some(format!("got {g:?}, want {w:?}"))
}

/// The input as the figure harness loads it: default parallelism, and record
/// weights that add up to the paper's modeled volume.
fn load<T: matryoshka_engine::Data>(engine: &Engine, records: Vec<T>, modeled_gb: u64) -> Bag<T> {
    let bytes = (modeled_gb * GB) as f64 / records.len() as f64;
    engine.parallelize_with_bytes(records, engine.config().default_parallelism, bytes)
}

/// The nesting primitive on a loaded input: how many groups it finds.
fn nest_size<K: matryoshka_engine::Key, V: matryoshka_engine::Data>(
    engine: &Engine,
    bag: &Bag<(K, V)>,
) -> Option<Result<u64>> {
    let nested = group_by_key_into_nested_bag(engine, bag, MatryoshkaConfig::optimized());
    Some(nested.map(|n| n.ctx().size()))
}

/// What the traced run measures on a typed workload besides its jobs.
pub trait Typed: Batch {
    /// `parallelize_with_bytes` + `count()` on the input.
    fn load(&self, engine: &Engine, input: Self::Input) -> Result<u64>;
    /// `group_by_key_into_nested_bag` + `ctx().size()` on the input.
    fn nest(&self, _engine: &Engine, _input: Self::Input) -> Option<Result<u64>> {
        None
    }
    /// The hand-flattened rung, if the workload has one.
    fn flat(&self, _engine: &Engine, _input: Self::Input) -> Option<Result<Self::Output>> {
        None
    }
}

// --- bounce_rate -----------------------------------------------------------

pub struct BounceRate {
    visits: u64,
    groups: u32,
}

impl BounceRate {
    pub fn new(args: &Args) -> BounceRate {
        BounceRate { visits: args.size(1 << 19, 1 << 12), groups: args.size(256, 16) }
    }
}

impl Batch for BounceRate {
    type Input = Vec<(u32, u64)>;
    type Output = bounce_rate::BounceRates;

    fn generate(&self, seed: u64) -> Self::Input {
        visit_log(&VisitSpec {
            visits: self.visits,
            groups: self.groups,
            visitors_per_group: (self.visits / self.groups as u64 / 3).max(8),
            bounce_fraction: 0.3,
            key_dist: KeyDist::Uniform,
            seed,
        })
    }

    fn reference(&self, input: &Self::Input) -> Self::Output {
        bounce_rate::reference(input)
    }

    fn job(
        &self,
        input: Self::Input,
        engine_trace: bool,
        t: &mut Tracer,
    ) -> std::result::Result<JobRun<Self::Output>, String> {
        typed_job("job.bounce_rate", engine_trace, t, |engine, t| {
            let bag = t.span("engine.parallelize", || load(engine, input, 48));
            t.span("tasks.bounce_rate", || {
                bounce_rate::matryoshka(engine, &bag, MatryoshkaConfig::optimized())
            })
        })
    }

    /// Same tolerance as `tests/strategies_agree.rs`.
    fn disagreement(&self, got: &Self::Output, want: &Self::Output) -> Option<String> {
        first_difference(got, want, |a, b| a.0 == b.0 && (a.1 - b.1).abs() < 1e-12)
    }
}

impl Typed for BounceRate {
    fn load(&self, engine: &Engine, input: Self::Input) -> Result<u64> {
        load(engine, input, 48).count()
    }

    fn nest(&self, engine: &Engine, input: Self::Input) -> Option<Result<u64>> {
        nest_size(engine, &load(engine, input, 48))
    }

    fn flat(&self, engine: &Engine, input: Self::Input) -> Option<Result<Self::Output>> {
        Some(flat::flat_bounce_rate(&load(engine, input, 48)))
    }
}

// --- pagerank --------------------------------------------------------------

pub struct PageRank {
    edges: u64,
    groups: u32,
}

const PAGERANK_PARAMS: PageRankParams =
    PageRankParams { damping: 0.85, epsilon: 1e-3, max_iterations: 12 };

impl PageRank {
    pub fn new(args: &Args) -> PageRank {
        PageRank { edges: args.size(1 << 18, 1 << 11), groups: args.size(1024, 16) }
    }
}

impl Batch for PageRank {
    type Input = Vec<(u32, (u64, u64))>;
    type Output = pagerank::GroupRanks;

    fn generate(&self, seed: u64) -> Self::Input {
        grouped_edges(&GroupedGraphSpec {
            total_edges: self.edges,
            groups: self.groups,
            // ~10 edges per vertex, as in the figure harness.
            vertices_per_group: ((self.edges / self.groups as u64) / 10).max(2) as u32,
            key_dist: KeyDist::Uniform,
            seed,
        })
    }

    fn reference(&self, input: &Self::Input) -> Self::Output {
        pagerank::reference(input, &PAGERANK_PARAMS)
    }

    fn job(
        &self,
        input: Self::Input,
        engine_trace: bool,
        t: &mut Tracer,
    ) -> std::result::Result<JobRun<Self::Output>, String> {
        typed_job("job.pagerank", engine_trace, t, |engine, t| {
            let bag = t.span("engine.parallelize", || load(engine, input, 20));
            t.span("tasks.pagerank", || {
                let cfg = MatryoshkaConfig::optimized();
                pagerank::matryoshka(engine, &bag, &PAGERANK_PARAMS, cfg, 0.0)
            })
        })
    }

    /// Same tolerance as `tests/strategies_agree.rs`.
    fn disagreement(&self, got: &Self::Output, want: &Self::Output) -> Option<String> {
        first_difference(got, want, |(g1, (v1, r1)), (g2, (v2, r2))| {
            (g1, v1) == (g2, v2) && (r1 - r2).abs() < 1e-4
        })
    }
}

impl Typed for PageRank {
    fn load(&self, engine: &Engine, input: Self::Input) -> Result<u64> {
        load(engine, input, 20).count()
    }

    fn nest(&self, engine: &Engine, input: Self::Input) -> Option<Result<u64>> {
        nest_size(engine, &load(engine, input, 20))
    }

    fn flat(&self, engine: &Engine, input: Self::Input) -> Option<Result<Self::Output>> {
        Some(flat::flat_pagerank(engine, &load(engine, input, 20), &PAGERANK_PARAMS))
    }
}

// --- kmeans ----------------------------------------------------------------

pub struct Kmeans {
    points: u64,
    configs: u32,
}

const KMEANS_PARAMS: KmeansParams = KmeansParams { epsilon: 5e-3, max_iterations: 10 };

impl Kmeans {
    pub fn new(args: &Args) -> Kmeans {
        Kmeans { points: args.size(1 << 17, 1 << 11), configs: args.size(256, 8) }
    }
}

impl Batch for Kmeans {
    /// Per-configuration samples as flat `(config, point)` records, and the
    /// initial centroid configurations.
    type Input = (Vec<(u32, Point)>, Vec<(u32, Vec<Point>)>);
    type Output = kmeans::KmeansResult;

    fn generate(&self, seed: u64) -> Self::Input {
        let spec =
            KmeansSpec { points: self.points, dim: 4, true_clusters: 8, k: 8, spread: 0.04, seed };
        let samples = point_cloud(&spec)
            .into_iter()
            .enumerate()
            .map(|(i, p)| ((i as u64 % self.configs as u64) as u32, p))
            .collect();
        (samples, initial_centroid_configs(&spec, self.configs))
    }

    fn reference(&self, (samples, configs): &Self::Input) -> Self::Output {
        kmeans::reference_grouped(configs, &kmeans::split_samples(samples), &KMEANS_PARAMS)
    }

    fn job(
        &self,
        (samples, configs): Self::Input,
        engine_trace: bool,
        t: &mut Tracer,
    ) -> std::result::Result<JobRun<Self::Output>, String> {
        typed_job("job.kmeans", engine_trace, t, |engine, t| {
            let (config_bag, sample_bag) = t.span("engine.parallelize", || {
                (engine.parallelize(configs, 1), load(engine, samples, 6))
            });
            t.span("tasks.kmeans", || {
                let cfg = MatryoshkaConfig::optimized();
                kmeans::matryoshka_grouped(engine, &config_bag, &sample_bag, &KMEANS_PARAMS, cfg)
            })
        })
    }

    /// Same tolerance as `tests/strategies_agree.rs`: relative cost.
    fn disagreement(&self, got: &Self::Output, want: &Self::Output) -> Option<String> {
        first_difference(got, want, |(i1, (_, c1)), (i2, (_, c2))| {
            i1 == i2 && (c1 - c2).abs() / c1.max(1e-9) < 1e-6
        })
    }
}

impl Typed for Kmeans {
    fn load(&self, engine: &Engine, (samples, _): Self::Input) -> Result<u64> {
        load(engine, samples, 6).count()
    }

    fn nest(&self, engine: &Engine, (samples, _): Self::Input) -> Option<Result<u64>> {
        nest_size(engine, &load(engine, samples, 6))
    }
}

// --- avg_distances ---------------------------------------------------------

pub struct AvgDistances {
    components: u32,
}

impl AvgDistances {
    pub fn new(args: &Args) -> AvgDistances {
        AvgDistances { components: args.size(64, 2) }
    }
}

impl Batch for AvgDistances {
    type Input = Vec<(u64, u64)>;
    type Output = avg_distances::AvgDistances;

    fn generate(&self, seed: u64) -> Self::Input {
        component_graph(&ComponentGraphSpec {
            components: self.components,
            vertices_per_component: 16,
            extra_edges_per_component: 8,
            seed,
        })
    }

    fn reference(&self, input: &Self::Input) -> Self::Output {
        avg_distances::reference(input)
    }

    fn job(
        &self,
        input: Self::Input,
        engine_trace: bool,
        t: &mut Tracer,
    ) -> std::result::Result<JobRun<Self::Output>, String> {
        typed_job("job.avg_distances", engine_trace, t, |engine, t| {
            let bag = t.span("engine.parallelize", || load(engine, input, 2));
            t.span("tasks.avg_distances", || {
                avg_distances::matryoshka(engine, &bag, MatryoshkaConfig::optimized(), 64)
            })
        })
    }

    /// Same tolerance as `tests/strategies_agree.rs`.
    fn disagreement(&self, got: &Self::Output, want: &Self::Output) -> Option<String> {
        first_difference(got, want, |a, b| a.0 == b.0 && (a.1 - b.1).abs() < 1e-9)
    }
}

impl Typed for AvgDistances {
    fn load(&self, engine: &Engine, input: Self::Input) -> Result<u64> {
        load(engine, input, 2).count()
    }
}

// --- the traced run --------------------------------------------------------

/// Time `call` three times, each on a fresh engine and its own copy of the
/// input (both made before the timer starts), under a span.
fn probe<I: Clone, R>(
    t: &mut Tracer,
    span: &'static str,
    input: &I,
    rep: &mut Report,
    call: impl Fn(&Engine, I) -> Option<Result<R>>,
) -> Option<(Vec<f64>, R)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let engine = Engine::new(cluster(false));
        let copy = input.clone();
        let (ms, out) = t.span(span, || time_ms(|| call(&engine, copy)));
        match out? {
            Ok(r) => {
                times.push(ms);
                last = Some(r);
            }
            Err(e) => rep.check(false, || format!("{span}: {e}")),
        }
    }
    last.map(|r| (times, r))
}

/// The per-layer run of a typed workload: generator and oracle timed as
/// layers of their own, the job pairs, then the input load, the nesting
/// primitive and the hand-flattened rung on the same input and cluster.
pub fn run_traced<W: Typed>(w: &W, args: &Args, rep: &mut Report, t: &mut Tracer) {
    let (gen_ms, input) = t.span("datagen.gen", || time_ms(|| w.generate(args.seed)));
    rep.put("datagen.gen_ms", gen_ms);
    let (ref_ms, want) = t.span("tasks.seq_ref", || time_ms(|| w.reference(&input)));
    rep.put("tasks.seq_ref_ms", ref_ms);
    let wall = traced_jobs(w, &input, &want, args, rep, t);

    if let Some((ms, _)) = probe(t, "engine.load", &input, rep, |e, i| Some(w.load(e, i))) {
        rep.put_samples("engine.load_ms", &ms);
    }
    if let Some((ms, _)) = probe(t, "core.nest", &input, rep, |e, i| w.nest(e, i)) {
        rep.put_samples("core.nest_ms", &ms);
    }
    if let Some((ms, out)) = probe(t, "engine.flat", &input, rep, |e, i| w.flat(e, i)) {
        let wrong = w.disagreement(&out, &want);
        rep.check(wrong.is_none(), || format!("hand-flattened result differs: {wrong:?}"));
        rep.put_samples("engine.flat_ms_p50", &ms);
        rep.put("core.lift_overhead_ratio", wall / median(&ms));
    }
}
