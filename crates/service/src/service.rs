//! The job service: admission control, the deterministic virtual-time
//! event loop, and per-job isolation.
//!
//! ## Execution model
//!
//! Every admitted job runs on **its own engine** (own simulated clock, own
//! statistics, own trace collector), so a job's `sim_nanos` and
//! [`StatsSnapshot`] are exactly what a directly-driven engine would report
//! — scheduling can never leak into them. Concurrency between jobs is
//! *virtual*: the scheduler multiplexes `total_slots` simulated cores in
//! discrete-event fashion, so two jobs overlap in virtual time while their
//! host execution happens one at a time on the driver thread (host
//! parallelism inside a job still uses the process-wide shared worker
//! pool). Queue waits, start times, and completion times are therefore a
//! pure function of (scheduler config, seed, submission order + arrival
//! times) — bit-identical across runs.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::sim::{SimTime, Stats};
use matryoshka_engine::trace::{export_chrome_trace_multi, export_json, ChromeLane};
use matryoshka_engine::{
    Bag, ClusterConfig, Decision, Engine, EngineError, EngineEvent, StatsSnapshot,
};
use matryoshka_ir::{prepare_program, PreparedProgram, RtVal, Value};

use crate::datasets::source_bag;
use crate::job::{
    JobId, JobOutcome, JobPayload, JobReport, JobSpec, JobStatus, NativeJob, Rejection,
};
use crate::sched::{Candidate, Scheduler};

/// An admitted payload (programs are already prepared — parse and analysis
/// happened at admission).
enum Admitted {
    Program(PreparedProgram),
    Native(NativeJob),
}

/// A job waiting for core slots.
struct QueuedJob {
    id: JobId,
    pool: usize,
    slots: usize,
    arrival: SimTime,
    /// Absolute virtual deadline (`arrival + spec.deadline`).
    deadline_vt: Option<SimTime>,
    payload: Admitted,
}

/// A job holding core slots until its virtual end time.
struct RunningJob {
    id: JobId,
    pool: usize,
    slots: usize,
    end_vt: SimTime,
    /// Engine-local simulated nanoseconds the job consumed.
    duration: SimTime,
    outcome: JobOutcome,
    stats: StatsSnapshot,
    events: Vec<EngineEvent>,
    decisions: Vec<Decision>,
}

/// Everything the service remembers about a job (per-job isolation: events,
/// decisions, and stats come from the job's own engine).
struct JobEntry {
    name: String,
    pool_name: String,
    slots: usize,
    arrival: SimTime,
    start_vt: Option<SimTime>,
    status: JobStatus,
    report: Option<JobReport>,
    events: Vec<EngineEvent>,
    decisions: Vec<Decision>,
}

struct State {
    vt: SimTime,
    next_id: JobId,
    queued: VecDeque<QueuedJob>,
    running: Vec<RunningJob>,
    free_slots: usize,
    sched: Scheduler,
    jobs: HashMap<JobId, JobEntry>,
    /// Service-lane lifecycle events (`JobQueued`/`JobStarted`/...).
    events: Vec<EngineEvent>,
    /// Client cancel requests not yet applied.
    cancels: HashSet<JobId>,
    /// Engines of jobs whose host execution is in flight (for cooperative
    /// cancellation from other threads).
    engines: HashMap<JobId, Engine>,
}

struct Inner {
    cluster: ClusterConfig,
    config: MatryoshkaConfig,
    seed: u64,
    state: Mutex<State>,
    /// Signalled when a job is queued; the driver parks here
    /// ([`JobService::wait_for_work`]).
    work_cv: Condvar,
    /// Signalled when a job reaches `Done`; [`JobService::wait`] parks here.
    done_cv: Condvar,
    /// Serializes event-loop drivers (determinism needs exactly one).
    driver: Mutex<()>,
    /// Service-level counters: the fold of `State::events` (`jobs_completed`,
    /// `jobs_cancelled`, `jobs_rejected`, `queue_wait_nanos`; the engine-side
    /// counters of this instance stay 0).
    stats: Stats,
}

/// Handle to a multi-tenant job service. Cheap to clone; all clones share
/// the same state.
#[derive(Clone)]
pub struct JobService {
    inner: Arc<Inner>,
}

/// What the event loop decided to do next (computed under the state lock,
/// executed outside it).
struct StartCtx {
    id: JobId,
    pool: usize,
    slots: usize,
    start_vt: SimTime,
    payload: Admitted,
    engine: Engine,
}

impl JobService {
    /// Create a service. `cluster` configures each job's engine (enable
    /// `trace_events` there to capture per-job traces), `config.scheduler`
    /// the pools and admission bounds, and `seed` the generated datasets.
    pub fn new(
        cluster: ClusterConfig,
        config: MatryoshkaConfig,
        seed: u64,
    ) -> Result<JobService, String> {
        config.scheduler.validate()?;
        let free_slots = config.scheduler.total_slots;
        let sched = Scheduler::new(&config.scheduler);
        Ok(JobService {
            inner: Arc::new(Inner {
                cluster,
                config,
                seed,
                state: Mutex::new(State {
                    vt: SimTime::ZERO,
                    next_id: 0,
                    queued: VecDeque::new(),
                    running: Vec::new(),
                    free_slots,
                    sched,
                    jobs: HashMap::new(),
                    events: Vec::new(),
                    cancels: HashSet::new(),
                    engines: HashMap::new(),
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                driver: Mutex::new(()),
                stats: Stats::default(),
            }),
        })
    }

    /// A service over [`ClusterConfig::local_test`] with the default
    /// scheduler — the common test setup.
    pub fn local_test(seed: u64) -> JobService {
        JobService::new(ClusterConfig::local_test(), MatryoshkaConfig::default(), seed)
            .expect("default scheduler config is valid")
    }

    /// Submit a job arriving *now* (at the current virtual time).
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, Rejection> {
        let now = self.inner.state.lock().expect("service state poisoned").vt;
        self.submit_at(spec, now)
    }

    /// Submit a job with an explicit virtual arrival time (clamped to the
    /// current virtual clock; the scheduler will not start it earlier).
    /// This is how benches model offered load deterministically.
    pub fn submit_at(&self, spec: JobSpec, arrival: SimTime) -> Result<JobId, Rejection> {
        let scheduler = &self.inner.config.scheduler;
        let mut st = self.inner.state.lock().expect("service state poisoned");
        let id = st.next_id;
        st.next_id += 1;
        let arrival = if arrival.as_nanos() > st.vt.as_nanos() { arrival } else { st.vt };

        let reject = |st: &mut State, reason: String, diagnostics: Vec<String>| {
            self.emit(
                st,
                EngineEvent::JobRejected { job: id, reason: reason.clone(), at: arrival },
            );
            Err(Rejection { id, reason, diagnostics })
        };

        let Some(pool) = scheduler.pool_index(&spec.pool) else {
            return reject(&mut st, format!("unknown pool `{}`", spec.pool), Vec::new());
        };
        if st.queued.len() >= scheduler.queue_capacity {
            return reject(
                &mut st,
                format!("queue full (capacity {})", scheduler.queue_capacity),
                Vec::new(),
            );
        }
        let payload = match spec.payload {
            JobPayload::Native(f) => Admitted::Native(f),
            JobPayload::Program { source, dialect } => match prepare_program(&source, dialect) {
                Ok(p) => Admitted::Program(p),
                Err(e) => {
                    let diags = e
                        .diagnostics()
                        .map(|d| d.iter().map(|x| x.to_string()).collect())
                        .unwrap_or_default();
                    return reject(&mut st, e.to_string(), diags);
                }
            },
        };

        let slots = if spec.slots == 0 { scheduler.default_slots } else { spec.slots }
            .clamp(1, scheduler.total_slots);
        let deadline_vt = spec.deadline.map(|d| arrival + d);
        self.emit(
            &mut st,
            EngineEvent::JobQueued {
                job: id,
                name: spec.name.clone(),
                pool: spec.pool.clone(),
                at: arrival,
            },
        );
        st.jobs.insert(
            id,
            JobEntry {
                name: spec.name,
                pool_name: spec.pool,
                slots,
                arrival,
                start_vt: None,
                status: JobStatus::Queued,
                report: None,
                events: Vec::new(),
                decisions: Vec::new(),
            },
        );
        st.queued.push_back(QueuedJob { id, pool, slots, arrival, deadline_vt, payload });
        self.inner.work_cv.notify_all();
        Ok(id)
    }

    /// Request cancellation. Queued jobs are cancelled immediately; a job
    /// whose host execution is in flight is cancelled cooperatively (its
    /// engine aborts at the next charge point). Returns `false` if the job
    /// is unknown or already done.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().expect("service state poisoned");
        match st.jobs.get(&id).map(|e| e.status.clone()) {
            None | Some(JobStatus::Done(_)) => false,
            Some(JobStatus::Queued) => {
                let vt = st.vt;
                self.cancel_queued(&mut st, id, vt, "cancelled by client");
                true
            }
            Some(JobStatus::Running) => {
                if let Some(engine) = st.engines.get(&id) {
                    engine.request_cancel();
                } else {
                    // Host execution already finished; the job merely waits
                    // for its virtual end time. Too late to cancel.
                    return false;
                }
                st.cancels.insert(id);
                true
            }
        }
    }

    /// Current lifecycle state of a job (`None` for unknown/rejected ids).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.state.lock().expect("service state poisoned");
        st.jobs.get(&id).map(|e| e.status.clone())
    }

    /// Final report of a finished job.
    pub fn report(&self, id: JobId) -> Option<JobReport> {
        let st = self.inner.state.lock().expect("service state poisoned");
        st.jobs.get(&id).and_then(|e| e.report.clone())
    }

    /// Block until `id` finishes (requires a driver: either another thread
    /// inside [`JobService::run_until_idle`], or call it afterwards).
    /// Returns `None` for unknown ids.
    pub fn wait(&self, id: JobId) -> Option<JobOutcome> {
        let mut st = self.inner.state.lock().expect("service state poisoned");
        loop {
            match &st.jobs.get(&id)?.status {
                JobStatus::Done(outcome) => return Some(outcome.clone()),
                _ => st = self.inner.done_cv.wait(st).expect("service state poisoned"),
            }
        }
    }

    /// Is there neither queued nor (virtually) running work?
    pub fn is_idle(&self) -> bool {
        let st = self.inner.state.lock().expect("service state poisoned");
        st.queued.is_empty() && st.running.is_empty()
    }

    /// Block up to `timeout` for new queued work (server driver helper).
    pub fn wait_for_work(&self, timeout: Duration) -> bool {
        let st = self.inner.state.lock().expect("service state poisoned");
        if !st.queued.is_empty() {
            return true;
        }
        let (st, _) = self.inner.work_cv.wait_timeout(st, timeout).expect("service state poisoned");
        !st.queued.is_empty()
    }

    /// Service-level counters: `jobs_completed`, `jobs_cancelled`,
    /// `jobs_rejected`, and virtual `queue_wait_nanos`. Engine-side
    /// counters of this snapshot are always 0 — they live in each job's
    /// own [`JobReport::stats`].
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The service-lane lifecycle events, in record order.
    pub fn events(&self) -> Vec<EngineEvent> {
        let st = self.inner.state.lock().expect("service state poisoned");
        st.events.clone()
    }

    /// Current virtual time (advances only while a driver runs the loop).
    pub fn virtual_time(&self) -> SimTime {
        self.inner.state.lock().expect("service state poisoned").vt
    }

    /// Serialize the service lifecycle events as a JSON document (the
    /// engine's exporter; per-job engine traces are in each job's lane of
    /// [`JobService::export_chrome_trace`]).
    pub fn export_json(&self) -> String {
        let st = self.inner.state.lock().expect("service state poisoned");
        export_json(&st.events, &[])
    }

    /// Chrome-trace export with one Perfetto `pid` lane per job.
    ///
    /// Lane `pid 1` is the service (lifecycle events); each job gets
    /// `pid 2 + id` carrying its own engine's events and decisions shifted
    /// onto the service timeline by its virtual start time, so concurrent
    /// jobs render as overlapping tracks.
    pub fn export_chrome_trace(&self) -> String {
        let st = self.inner.state.lock().expect("service state poisoned");
        let mut owned: Vec<(u32, String, Vec<EngineEvent>, Vec<Decision>)> = Vec::new();
        let mut ids: Vec<&JobId> = st.jobs.keys().collect();
        ids.sort();
        for id in ids {
            let e = &st.jobs[id];
            let Some(start) = e.start_vt else { continue };
            if e.events.is_empty() && e.decisions.is_empty() {
                continue;
            }
            let events = e.events.iter().map(|ev| ev.shifted(start)).collect();
            let decisions =
                e.decisions.iter().map(|d| Decision { at: d.at + start, ..d.clone() }).collect();
            let pid = 2 + *id as u32;
            owned.push((pid, format!("job {id}: {}", e.name), events, decisions));
        }
        let mut lanes = vec![ChromeLane {
            pid: 1,
            name: "job service".to_string(),
            events: &st.events,
            decisions: &[],
        }];
        lanes.extend(owned.iter().map(|(pid, name, events, decisions)| ChromeLane {
            pid: *pid,
            name: name.clone(),
            events,
            decisions,
        }));
        export_chrome_trace_multi(&lanes)
    }

    /// Drive the virtual-time event loop until no job is queued or
    /// running. Jobs submitted concurrently (e.g. by server connections)
    /// are picked up as long as they arrive before the loop drains.
    ///
    /// Only one driver runs at a time; concurrent callers serialize.
    pub fn run_until_idle(&self) {
        let _driver = self.inner.driver.lock().expect("service driver poisoned");
        loop {
            let start = {
                let mut st = self.inner.state.lock().expect("service state poisoned");
                loop {
                    self.finish_due(&mut st);
                    self.apply_pending_cancels(&mut st);
                    self.expire_queued_deadlines(&mut st);
                    if let Some(qi) = self.pick_startable(&st) {
                        let job = st.queued.remove(qi).expect("picked index exists");
                        break Some(self.begin_job(&mut st, job));
                    }
                    match self.next_event_vt(&st) {
                        Some(t) => st.vt = t,
                        None => break None,
                    }
                }
            };
            let Some(ctx) = start else { return };
            let run = self.execute(ctx);
            let mut st = self.inner.state.lock().expect("service state poisoned");
            st.engines.remove(&run.id);
            st.running.push(run);
        }
    }

    /// The one way the service observes a lifecycle step: fold `ev` into the
    /// service counters and append it to the service lane.
    fn emit(&self, st: &mut State, ev: EngineEvent) {
        self.inner.stats.observe(&ev);
        st.events.push(ev);
    }

    /// Start `job` at the current virtual time: allocate slots, record the
    /// lifecycle event, and build its isolated engine. Host execution
    /// happens outside the state lock.
    fn begin_job(&self, st: &mut State, job: QueuedJob) -> StartCtx {
        let queue_wait = st.vt.saturating_sub(job.arrival);
        st.free_slots -= job.slots;
        st.sched.on_start(job.pool);
        let entry = st.jobs.get_mut(&job.id).expect("queued job has an entry");
        entry.status = JobStatus::Running;
        entry.start_vt = Some(st.vt);
        let started = EngineEvent::JobStarted {
            job: job.id,
            pool: entry.pool_name.clone(),
            queue_wait,
            at: st.vt,
        };
        self.emit(st, started);
        let engine = Engine::new(self.inner.cluster.clone());
        if let Some(d) = job.deadline_vt {
            // The engine clock starts at 0, so the engine-local deadline is
            // whatever virtual budget remains after the queue wait.
            engine.set_deadline(d.saturating_sub(st.vt));
        }
        st.engines.insert(job.id, engine.clone());
        StartCtx {
            id: job.id,
            pool: job.pool,
            slots: job.slots,
            start_vt: st.vt,
            payload: job.payload,
            engine,
        }
    }

    /// Run a job's payload on its engine (host-side, no service lock held)
    /// and package the result as a virtually-running job.
    fn execute(&self, ctx: StartCtx) -> RunningJob {
        let engine = ctx.engine;
        let result: Result<String, EngineError> = match ctx.payload {
            Admitted::Native(f) => f(&engine),
            Admitted::Program(p) => {
                let inputs: HashMap<String, Bag<Value>> = p
                    .sources
                    .iter()
                    .map(|s| (s.clone(), source_bag(&engine, self.inner.seed, s)))
                    .collect();
                match p.run(engine.clone(), self.inner.config.clone(), &inputs) {
                    Ok(RtVal::Scalar(v)) => Ok(format!("scalar {v}")),
                    Ok(RtVal::Bag(b)) => match b.count() {
                        Ok(n) => Ok(format!("bag with {n} records")),
                        Err(e) => Err(e),
                    },
                    Ok(RtVal::Nested(_)) => Ok("nested bag".to_string()),
                    Err(matryoshka_ir::IrError::Engine(e)) => Err(e),
                    Err(other) => Err(EngineError::Unsupported(other.to_string())),
                }
            }
        };
        let duration = engine.sim_time();
        let sim_nanos = duration.as_nanos();
        let outcome = match result {
            Ok(result) => JobOutcome::Completed { result, sim_nanos },
            Err(EngineError::Cancelled) => {
                JobOutcome::Cancelled { reason: "cancelled by client".to_string() }
            }
            Err(EngineError::DeadlineExceeded { deadline_nanos, at_nanos }) => {
                JobOutcome::Cancelled {
                    reason: format!(
                        "deadline exceeded while running ({deadline_nanos} ns budget, \
                         aborted at {at_nanos} ns)"
                    ),
                }
            }
            Err(e) => JobOutcome::Failed { error: e.to_string(), sim_nanos },
        };
        RunningJob {
            id: ctx.id,
            pool: ctx.pool,
            slots: ctx.slots,
            end_vt: ctx.start_vt + duration,
            duration,
            outcome,
            stats: engine.stats(),
            events: engine.events(),
            decisions: engine.decisions(),
        }
    }

    /// Retire every running job whose virtual end time has been reached,
    /// in (end time, id) order for deterministic event streams.
    fn finish_due(&self, st: &mut State) {
        loop {
            let due: Option<usize> = st
                .running
                .iter()
                .enumerate()
                .filter(|(_, r)| r.end_vt.as_nanos() <= st.vt.as_nanos())
                .min_by_key(|(_, r)| (r.end_vt.as_nanos(), r.id))
                .map(|(i, _)| i);
            let Some(i) = due else { return };
            let run = st.running.remove(i);
            st.free_slots += run.slots;
            st.sched.on_finish(run.pool, run.slots, run.duration.as_nanos());
            st.cancels.remove(&run.id);
            let (job, at) = (run.id, run.end_vt);
            let ended = match &run.outcome {
                JobOutcome::Completed { sim_nanos, .. } => {
                    EngineEvent::JobFinished { job, ok: true, sim_nanos: *sim_nanos, at }
                }
                JobOutcome::Failed { sim_nanos, .. } => {
                    EngineEvent::JobFinished { job, ok: false, sim_nanos: *sim_nanos, at }
                }
                JobOutcome::Cancelled { reason } => {
                    EngineEvent::JobCancelled { job, reason: reason.clone(), at }
                }
            };
            self.emit(st, ended);
            let entry = st.jobs.get_mut(&run.id).expect("running job has an entry");
            let started = entry.start_vt.expect("running job started");
            entry.status = JobStatus::Done(run.outcome.clone());
            entry.events = run.events;
            entry.decisions = run.decisions;
            entry.report = Some(JobReport {
                id: run.id,
                name: entry.name.clone(),
                pool: entry.pool_name.clone(),
                slots: run.slots,
                arrival: entry.arrival,
                started: Some(started),
                finished: run.end_vt,
                queue_wait: started.saturating_sub(entry.arrival),
                outcome: run.outcome,
                stats: run.stats,
            });
            self.inner.done_cv.notify_all();
        }
    }

    /// Apply client cancellations to still-queued jobs.
    fn apply_pending_cancels(&self, st: &mut State) {
        let ids: Vec<JobId> =
            st.queued.iter().filter(|q| st.cancels.contains(&q.id)).map(|q| q.id).collect();
        for id in ids {
            let vt = st.vt;
            self.cancel_queued(st, id, vt, "cancelled by client");
        }
    }

    /// Cancel queued jobs whose absolute deadline has passed (they would
    /// miss it even if started now with zero compute).
    fn expire_queued_deadlines(&self, st: &mut State) {
        let ids: Vec<(JobId, SimTime)> = st
            .queued
            .iter()
            .filter_map(|q| {
                q.deadline_vt.filter(|d| d.as_nanos() <= st.vt.as_nanos()).map(|d| (q.id, d))
            })
            .collect();
        for (id, deadline) in ids {
            self.cancel_queued(st, id, deadline, "deadline exceeded while queued");
        }
    }

    /// Remove a queued job with a cancellation outcome at virtual time
    /// `at`.
    fn cancel_queued(&self, st: &mut State, id: JobId, at: SimTime, reason: &str) {
        let Some(pos) = st.queued.iter().position(|q| q.id == id) else { return };
        st.queued.remove(pos);
        st.cancels.remove(&id);
        self.emit(st, EngineEvent::JobCancelled { job: id, reason: reason.to_string(), at });
        let entry = st.jobs.get_mut(&id).expect("queued job has an entry");
        let outcome = JobOutcome::Cancelled { reason: reason.to_string() };
        entry.status = JobStatus::Done(outcome.clone());
        entry.report = Some(JobReport {
            id,
            name: entry.name.clone(),
            pool: entry.pool_name.clone(),
            slots: entry.slots,
            arrival: entry.arrival,
            started: None,
            finished: at,
            queue_wait: at.saturating_sub(entry.arrival),
            outcome,
            stats: StatsSnapshot::default(),
        });
        self.inner.done_cv.notify_all();
    }

    /// Index into the queue of the job to start now, if any.
    ///
    /// Each pool offers its FIFO head (lowest id among its queued jobs that
    /// have arrived); a pool with a head that does not fit in the free
    /// slots, or that is at its concurrency cap, offers nothing — jobs
    /// never bypass an earlier job of their own pool. The scheduler then
    /// picks among pool heads by policy.
    fn pick_startable(&self, st: &State) -> Option<usize> {
        let pools = self.inner.config.scheduler.pools.len();
        let mut heads: Vec<Option<&QueuedJob>> = vec![None; pools];
        for q in &st.queued {
            if q.arrival.as_nanos() > st.vt.as_nanos() {
                continue;
            }
            let head = &mut heads[q.pool];
            if head.is_none_or(|h| q.id < h.id) {
                *head = Some(q);
            }
        }
        let candidates: Vec<Candidate> = heads
            .iter()
            .flatten()
            .filter(|q| st.sched.has_capacity(q.pool) && q.slots <= st.free_slots)
            .map(|q| Candidate { pool: q.pool, seq: q.id })
            .collect();
        let pick = st.sched.pick(&candidates)?;
        st.queued.iter().position(|q| q.id == pick.seq)
    }

    /// The next virtual time at which anything can change: a running job's
    /// end, a queued job's future arrival, or a queued deadline expiry.
    /// Always strictly after `st.vt` (due work was already retired).
    fn next_event_vt(&self, st: &State) -> Option<SimTime> {
        let now = st.vt.as_nanos();
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for r in &st.running {
            consider(r.end_vt.as_nanos());
        }
        for q in &st.queued {
            consider(q.arrival.as_nanos());
            if let Some(d) = q.deadline_vt {
                consider(d.as_nanos());
            }
        }
        next.map(SimTime::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_core::scheduler::SchedulerConfig;
    use matryoshka_engine::GB;

    /// One run through every lifecycle outcome: a completed, a failed
    /// (simulated OOM), a queue-cancelled, a running-cancelled and a
    /// deadline-expired job, and three differently-rejected submissions.
    /// Returns the service and the admitted ids.
    fn every_outcome(trace_events: bool) -> (JobService, Vec<JobId>) {
        let cluster = ClusterConfig { trace_events, ..ClusterConfig::local_test() };
        let config = MatryoshkaConfig {
            scheduler: SchedulerConfig { queue_capacity: 5, ..SchedulerConfig::default() },
            ..MatryoshkaConfig::default()
        };
        let svc = JobService::new(cluster, config, 5).expect("valid scheduler config");
        let count = |e: &Engine| e.generate(1_000, 8, |i| (i % 97, i)).count();
        let admitted = vec![
            svc.submit(JobSpec::program("completed", "count(distinct(source(xs)))")).unwrap(),
            svc.submit(JobSpec::native("oom", move |e: &Engine| {
                count(e)?;
                e.broadcast((), 2 * GB)?;
                Ok("unreachable".to_string())
            }))
            .unwrap(),
            svc.submit(JobSpec::native("queue-cancelled", move |e: &Engine| {
                Ok(count(e)?.to_string())
            }))
            .unwrap(),
            svc.submit(JobSpec::native("running-cancelled", move |e: &Engine| {
                count(e)?;
                e.request_cancel();
                Ok(count(e)?.to_string())
            }))
            .unwrap(),
            svc.submit(
                JobSpec::native("deadline", move |e: &Engine| Ok(count(e)?.to_string()))
                    .with_deadline(SimTime::from_nanos(1_000)),
            )
            .unwrap(),
        ];
        let rejected = [
            svc.submit(JobSpec::program("queue-full", "count(source(xs))")),
            svc.submit(JobSpec::program("unknown-pool", "count(source(xs))").in_pool("nope")),
            svc.submit(JobSpec::program("unbound", "map(source(xs), v => y)")),
        ];
        assert!(rejected.iter().all(Result::is_err), "{rejected:?}");
        assert!(svc.cancel(admitted[2]), "still queued");
        svc.run_until_idle();
        (svc, admitted)
    }

    #[test]
    fn counters_are_the_fold_of_the_events_for_every_outcome() {
        let (svc, admitted) = every_outcome(true);
        let stats = svc.stats();
        assert_eq!(
            (stats.jobs_completed, stats.jobs_cancelled, stats.jobs_rejected),
            (2, 3, 3),
            "completed + failed; queue-, running- and deadline-cancelled; three rejections"
        );
        assert_eq!(stats, StatsSnapshot::from_events(&svc.events()));
        // Each job's report carries the fold of that job's own engine events.
        let st = svc.inner.state.lock().expect("service state poisoned");
        for id in &admitted {
            let entry = &st.jobs[id];
            let report = entry.report.as_ref().expect("every admitted job is done");
            assert_eq!(report.stats, StatsSnapshot::from_events(&entry.events), "{}", entry.name);
        }
        let oom = st.jobs[&admitted[1]].report.as_ref().expect("done");
        assert!(
            matches!(&oom.outcome, JobOutcome::Failed { error, .. } if error.contains("OutOfMemory")),
            "{:?}",
            oom.outcome
        );
        assert!(oom.stats.records > 0, "the job ran a stage before it failed");
    }

    #[test]
    fn tracing_is_transparent_to_the_service() {
        let observe = |(svc, admitted): (JobService, Vec<JobId>)| {
            let reports: Vec<_> = admitted.iter().map(|id| svc.report(*id)).collect();
            (format!("{reports:?}"), svc.events(), svc.stats(), svc.virtual_time())
        };
        assert_eq!(observe(every_outcome(true)), observe(every_outcome(false)));
    }
}
