//! What the six batch workloads share: the shape of a job, the untraced
//! measurement loop, and the traced run's job pairs.

use std::time::Instant;

use matryoshka_engine::{Engine, StatsSnapshot};

use crate::harness::{median, process_cpu_s, time_ms, Args, Report, SETUPS};
use crate::spans::Tracer;

/// The simulated side of one job: it must repeat exactly from job to job.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Tally {
    pub sim_nanos: u64,
    /// One snapshot per engine the job used (a `.mat` pass uses one per
    /// program).
    pub stats: Vec<StatsSnapshot>,
    pub decisions: u64,
    /// Decisions taken at the `lifted_while` site: one per lifted iteration.
    pub loop_iterations: u64,
}

impl Tally {
    fn add(&mut self, engine: &Engine) {
        self.sim_nanos += engine.sim_time().as_nanos();
        self.stats.push(engine.stats());
        let decisions = engine.decisions();
        self.decisions += decisions.len() as u64;
        self.loop_iterations +=
            decisions.iter().filter(|d| d.site == "lifted_while").count() as u64;
    }

    fn sum(&self, field: impl Fn(&StatsSnapshot) -> u64) -> f64 {
        self.stats.iter().map(field).sum::<u64>() as f64
    }
}

/// One finished job.
pub struct JobRun<O> {
    /// Host time of the timed region.
    pub wall_ms: f64,
    pub tally: Tally,
    /// Engine events collected and the time to export them; 0 unless the
    /// job ran with engine tracing on.
    pub events: u64,
    pub export_ms: f64,
    pub output: O,
}

impl<O> JobRun<O> {
    /// Read the simulated side off the job's engines, outside the timed
    /// region.
    pub fn new(wall_ms: f64, engines: &[Engine], output: O) -> JobRun<O> {
        let mut tally = Tally::default();
        let mut events = 0;
        let mut export_ms = 0.0;
        for e in engines {
            tally.add(e);
            if e.tracing_enabled() {
                events += e.events().len() as u64;
                export_ms += time_ms(|| (e.trace_json(), e.chrome_trace())).0;
            }
        }
        JobRun { wall_ms, tally, events, export_ms, output }
    }
}

/// A workload made of independent jobs over one generated input.
pub trait Batch {
    type Input: Clone;
    type Output;
    /// Make the inputs from the seed.
    fn generate(&self, seed: u64) -> Self::Input;
    /// The independent oracle's answer.
    fn reference(&self, input: &Self::Input) -> Self::Output;
    /// Run one job on its own copy of the input. Engines are built and the
    /// copy was made before the job's timer starts.
    fn job(
        &self,
        input: Self::Input,
        engine_trace: bool,
        t: &mut Tracer,
    ) -> Result<JobRun<Self::Output>, String>;
    /// `None` when `got` is the oracle's answer (within the workload's float
    /// tolerance), else where they part.
    fn disagreement(&self, got: &Self::Output, want: &Self::Output) -> Option<String>;
}

/// Run one job and check it: no error, the oracle's answer, and the same
/// simulated tally as the first job.
fn checked_job<B: Batch>(
    b: &B,
    input: &B::Input,
    want: &B::Output,
    engine_trace: bool,
    first: &mut Option<Tally>,
    rep: &mut Report,
    t: &mut Tracer,
) -> Option<JobRun<B::Output>> {
    t.next_job();
    match b.job(input.clone(), engine_trace, t) {
        Err(e) => {
            rep.check(false, || format!("job error: {e}"));
            None
        }
        Ok(run) => {
            let wrong = b.disagreement(&run.output, want);
            rep.check(wrong.is_none(), || format!("result differs from the reference: {wrong:?}"));
            let first = first.get_or_insert_with(|| run.tally.clone());
            rep.check(*first == run.tally, || {
                format!("simulated tally drifted between jobs: {first:?} vs {:?}", run.tally)
            });
            Some(run)
        }
    }
}

/// The end-to-end run: set up [`SETUPS`] times (generate the input, run one
/// warm-up job), compute the reference once, then run checked jobs for
/// `--seconds`.
pub fn run_untraced<B: Batch>(b: &B, args: &Args, rep: &mut Report) {
    let t = &mut Tracer::new(false);
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..SETUPS {
        // Drop the previous input first: two at once would inflate peak RSS.
        drop(input.take());
        let t0 = Instant::now();
        let generated = b.generate(args.seed);
        let warm = b.job(generated.clone(), false, t);
        setups.push(t0.elapsed().as_secs_f64());
        rep.check(warm.is_ok(), || {
            format!("warm-up job error: {}", warm.err().unwrap_or_default())
        });
        input = Some(generated);
    }
    let input = input.expect("SETUPS > 0");
    let want = b.reference(&input);

    let mut walls = Vec::new();
    let mut first = None;
    let min_jobs = args.size(3, 2);
    let window = Instant::now();
    let cpu_start = process_cpu_s();
    let mut jobs = 0;
    while jobs < min_jobs || window.elapsed().as_secs_f64() < args.seconds {
        jobs += 1;
        if let Some(run) = checked_job(b, &input, &want, false, &mut first, rep, t) {
            walls.push(run.wall_ms);
        }
    }
    let (elapsed, cpu) = (window.elapsed().as_secs_f64(), process_cpu_s() - cpu_start);
    rep.put_window(&walls, elapsed, cpu, first.map(|t| t.sim_nanos), median(&setups));
}

/// The traced run's jobs: pairs of one plain job and one with engine
/// tracing on, alternating, for half of `--seconds` (2 to 5 pairs). Reports
/// the per-job counts and the cost of engine tracing; returns the plain
/// jobs' median wall time (ms).
pub fn traced_jobs<B: Batch>(
    b: &B,
    input: &B::Input,
    want: &B::Output,
    args: &Args,
    rep: &mut Report,
    t: &mut Tracer,
) -> f64 {
    let warm = b.job(input.clone(), false, &mut Tracer::new(false));
    rep.check(warm.is_ok(), || format!("warm-up job error: {}", warm.err().unwrap_or_default()));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first = None;
    let (mut events, mut export_ms) = (0, Vec::new());
    let window = Instant::now();
    while plain.len() < 2
        || (plain.len() < 5 && window.elapsed().as_secs_f64() < args.seconds / 2.0)
    {
        if let Some(run) = checked_job(b, input, want, false, &mut first, rep, t) {
            plain.push(run.wall_ms);
        }
        if let Some(run) = checked_job(b, input, want, true, &mut first, rep, t) {
            traced.push(run.wall_ms);
            events = run.events;
            export_ms.push(run.export_ms);
        }
        if plain.is_empty() {
            break; // every job fails: already counted, do not spin
        }
    }
    let tally = first.unwrap_or_default();
    let wall = median(&plain);
    rep.put("engine.jobs", tally.sum(|s| s.jobs));
    rep.put("engine.stages", tally.sum(|s| s.stages));
    rep.put("engine.tasks", tally.sum(|s| s.tasks));
    rep.put("engine.records", tally.sum(|s| s.records));
    rep.put("engine.shuffle_bytes", tally.sum(|s| s.shuffle_bytes));
    rep.put("engine.stages_fused", tally.sum(|s| s.stages_fused));
    rep.put("engine.sim_s", tally.sim_nanos as f64 / 1e9);
    rep.put("engine.host_us_per_task", wall * 1e3 / tally.sum(|s| s.tasks));
    rep.put("engine.host_ns_per_record", wall * 1e6 / tally.sum(|s| s.records));
    rep.put("engine.trace.overhead_ratio", median(&traced) / wall);
    rep.put("engine.trace.events", events as f64);
    rep.put("engine.trace.export_ms", median(&export_ms));
    rep.put("core.decisions", tally.decisions as f64);
    rep.put("core.loop_iterations", tally.loop_iterations as f64);
    println!("note: {} plain and {} engine-traced jobs", plain.len(), traced.len());
    wall
}
