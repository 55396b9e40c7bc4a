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
//!
//! ## State model: one record per job
//!
//! An admitted job is one `Job` in `State::active`, moving through its
//! `Phase`s — `Queued` (holds the payload) → `Executing` (holds the engine
//! while the driver runs it outside the state lock) → `Running` (holds what
//! the run produced, and its slots until its virtual end time) — and then one
//! `Finished` (report and engine trace) in `State::done`. It is in exactly
//! one of the two maps, and its [`JobStatus`] is where it is. `finish` is the
//! only way across and the only constructor of a [`JobReport`], so it is
//! also the one place the service forgets (it keeps the newest
//! [`RETAINED_JOBS`]). Ids follow submission order, so the FIFO queue is the
//! `Queued` records in key order; `active` holds at most `queue_capacity +
//! total_slots` records, so no scheduling step looks at a finished job.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};
use std::time::Duration;

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::sim::{SimTime, Stats};
use matryoshka_engine::trace::{export_chrome_trace, export_json, ChromeLane};
use matryoshka_engine::{
    Bag, ClusterConfig, Decision, Engine, EngineError, EngineEvent, StatsSnapshot,
};
use matryoshka_ir::{prepare_program, PreparedProgram, RtVal, Value};

use crate::datasets::source_bag;
use crate::job::{
    JobId, JobOutcome, JobPayload, JobReport, JobSpec, JobStatus, NativeJob, Rejection,
};
use crate::sched::{Candidate, Scheduler};
use crate::scheduler::SchedulerConfig;

/// How many finished jobs the service remembers. Past that, the one with
/// the lowest id is forgotten: `status`, `report` and `wait` answer as for an
/// id never assigned (`ERR unknown job N` on the wire). A constant because
/// it bounds the memory of a server that stays up; no caller needs another.
pub const RETAINED_JOBS: usize = 256;

/// How many lifecycle events the service lane keeps, newest last
/// ([`JobService::events`] and both exports). [`JobService::stats`] still
/// counts the dropped ones: it folds every event ever emitted.
pub const RETAINED_EVENTS: usize = 4096;

/// An admitted payload (programs are already prepared — parse and analysis
/// happened at admission).
enum Admitted {
    Program(PreparedProgram),
    Native(NativeJob),
}

/// What a job's own engine recorded: its lane of the Chrome export.
#[derive(Default)]
struct JobTrace {
    events: Vec<EngineEvent>,
    decisions: Vec<Decision>,
}

/// What host execution produced. The job holds its core slots until
/// `end_vt` (its start plus the simulated time its engine consumed).
struct Ran {
    end_vt: SimTime,
    outcome: JobOutcome,
    stats: StatsSnapshot,
    trace: JobTrace,
}

/// Where an unfinished job is.
enum Phase {
    /// Waiting for core slots.
    Queued(Admitted),
    /// Holding core slots while the driver runs the payload outside the
    /// state lock; the engine is here so that `cancel` can reach it.
    Executing(Engine),
    /// Holding core slots until its virtual end time.
    Running(Ran),
}

/// An admitted job that has not finished.
struct Job {
    name: String,
    /// Index into the config's pool list.
    pool: usize,
    slots: usize,
    arrival: SimTime,
    /// Absolute virtual deadline (`arrival + spec.deadline`).
    deadline_vt: Option<SimTime>,
    /// `None` until the job leaves the queue.
    start_vt: Option<SimTime>,
    phase: Phase,
}

/// A finished job, until it is forgotten.
struct Finished {
    report: JobReport,
    trace: JobTrace,
}

struct State {
    vt: SimTime,
    next_id: JobId,
    free_slots: usize,
    sched: Scheduler,
    /// Queued, executing and running jobs. Key order is submission order.
    active: BTreeMap<JobId, Job>,
    /// The newest [`RETAINED_JOBS`] finished jobs.
    done: BTreeMap<JobId, Finished>,
    /// The newest [`RETAINED_EVENTS`] service-lane lifecycle events
    /// (`JobQueued`/`JobStarted`/...).
    events: VecDeque<EngineEvent>,
}

impl State {
    /// The FIFO queue: jobs waiting for slots, in submission order.
    fn queued(&self) -> impl Iterator<Item = (JobId, &Job)> {
        self.active
            .iter()
            .filter(|(_, job)| matches!(job.phase, Phase::Queued(_)))
            .map(|(id, job)| (*id, job))
    }
}

struct Inner {
    cluster: ClusterConfig,
    config: MatryoshkaConfig,
    scheduler: SchedulerConfig,
    seed: u64,
    state: Mutex<State>,
    /// Signalled when a job is queued; the driver parks here
    /// ([`JobService::wait_for_work`]).
    work_cv: Condvar,
    /// Signalled when a job reaches `Done`; [`JobService::wait`] parks here.
    done_cv: Condvar,
    /// Serializes event-loop drivers (determinism needs exactly one).
    driver: Mutex<()>,
    /// Service-level counters: the fold of every event ever emitted
    /// (`jobs_completed`, `jobs_cancelled`, `jobs_rejected`,
    /// `queue_wait_nanos`; the engine-side counters of this instance stay 0).
    stats: Stats,
    /// The fold of the events that have left `State::events`, so that
    /// `stats.since(evicted)` is the fold of the events still there.
    evicted: Stats,
}

/// Handle to a multi-tenant job service. Cheap to clone; all clones share
/// the same state.
#[derive(Clone)]
pub struct JobService {
    inner: Arc<Inner>,
}

/// The state lock is never held while a job's payload runs, so only a bug in
/// this file can poison it.
fn unpoisoned<T>(guard: LockResult<T>) -> T {
    guard.expect("service state poisoned")
}

/// What a caught panic said.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    let text = panic.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| panic.downcast_ref::<&str>().copied()).unwrap_or("(no message)")
}

impl JobService {
    /// A service with the default scheduler ([`SchedulerConfig::default`]);
    /// see [`JobService::with_scheduler`].
    pub fn new(
        cluster: ClusterConfig,
        config: MatryoshkaConfig,
        seed: u64,
    ) -> Result<JobService, String> {
        JobService::with_scheduler(cluster, config, SchedulerConfig::default(), seed)
    }

    /// Create a service. `cluster` configures each job's engine (enable
    /// `trace_events` there to capture per-job traces), `config` the lowering
    /// of every program, `scheduler` the pools and admission bounds, and
    /// `seed` the generated datasets.
    pub fn with_scheduler(
        cluster: ClusterConfig,
        config: MatryoshkaConfig,
        scheduler: SchedulerConfig,
        seed: u64,
    ) -> Result<JobService, String> {
        scheduler.validate()?;
        let free_slots = scheduler.total_slots;
        let sched = Scheduler::new(&scheduler);
        Ok(JobService {
            inner: Arc::new(Inner {
                cluster,
                config,
                scheduler,
                seed,
                state: Mutex::new(State {
                    vt: SimTime::ZERO,
                    next_id: 0,
                    free_slots,
                    sched,
                    active: BTreeMap::new(),
                    done: BTreeMap::new(),
                    events: VecDeque::new(),
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                driver: Mutex::new(()),
                stats: Stats::default(),
                evicted: Stats::default(),
            }),
        })
    }

    /// A service over [`ClusterConfig::local_test`] with the default
    /// scheduler — the common test setup.
    pub fn local_test(seed: u64) -> JobService {
        JobService::new(ClusterConfig::local_test(), MatryoshkaConfig::default(), seed)
            .expect("default scheduler config is valid")
    }

    fn state(&self) -> MutexGuard<'_, State> {
        unpoisoned(self.inner.state.lock())
    }

    /// Submit a job arriving *now* (at the current virtual time).
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, Rejection> {
        let now = self.state().vt;
        self.submit_at(spec, now)
    }

    /// Submit a job with an explicit virtual arrival time (clamped to the
    /// current virtual clock; the scheduler will not start it earlier).
    /// This is how benches model offered load deterministically.
    pub fn submit_at(&self, spec: JobSpec, arrival: SimTime) -> Result<JobId, Rejection> {
        let scheduler = &self.inner.scheduler;
        let mut st = self.state();
        let id = st.next_id;
        st.next_id += 1;
        let arrival = arrival.max(st.vt);

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
        if st.queued().count() >= scheduler.queue_capacity {
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
        self.emit(
            &mut st,
            EngineEvent::JobQueued {
                job: id,
                name: spec.name.clone(),
                pool: spec.pool,
                at: arrival,
            },
        );
        st.active.insert(
            id,
            Job {
                name: spec.name,
                pool,
                slots,
                arrival,
                deadline_vt: spec.deadline.map(|d| arrival + d),
                start_vt: None,
                phase: Phase::Queued(payload),
            },
        );
        self.inner.work_cv.notify_all();
        Ok(id)
    }

    /// Request cancellation. Queued jobs are cancelled immediately; a job
    /// whose host execution is in flight is cancelled cooperatively (its
    /// engine aborts at the next charge point). Returns `false` if the job
    /// is unknown, already done, or done executing and merely waiting for
    /// its virtual end time (too late: the work is done).
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.state();
        match st.active.get(&id).map(|job| &job.phase) {
            Some(Phase::Queued(_)) => {
                let vt = st.vt;
                self.finish(&mut st, id, vt, "cancelled by client");
                true
            }
            Some(Phase::Executing(engine)) => {
                engine.request_cancel();
                true
            }
            Some(Phase::Running(_)) | None => false,
        }
    }

    /// Current lifecycle state of a job (`None` for unknown, rejected and
    /// forgotten ids).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.state();
        match st.active.get(&id).map(|job| &job.phase) {
            Some(Phase::Queued(_)) => Some(JobStatus::Queued),
            Some(Phase::Executing(_) | Phase::Running(_)) => Some(JobStatus::Running),
            None => st.done.get(&id).map(|f| JobStatus::Done(f.report.outcome.clone())),
        }
    }

    /// Final report of a finished job, while the service remembers it
    /// ([`RETAINED_JOBS`]).
    pub fn report(&self, id: JobId) -> Option<JobReport> {
        self.state().done.get(&id).map(|f| f.report.clone())
    }

    /// Block until `id` finishes (requires a driver: either another thread
    /// inside [`JobService::run_until_idle`], or call it afterwards).
    /// Returns `None` for unknown ids — which includes a finished job the
    /// service has forgotten. Finished jobs are forgotten lowest id first,
    /// so a waiter misses the outcome only if it sleeps through
    /// [`RETAINED_JOBS`] completions of later submissions.
    pub fn wait(&self, id: JobId) -> Option<JobOutcome> {
        let unfinished = |st: &mut State| st.active.contains_key(&id);
        let st = unpoisoned(self.inner.done_cv.wait_while(self.state(), unfinished));
        st.done.get(&id).map(|f| f.report.outcome.clone())
    }

    /// Is there neither queued nor (virtually) running work?
    pub fn is_idle(&self) -> bool {
        self.state().active.is_empty()
    }

    /// Block up to `timeout` for new queued work (server driver helper).
    pub fn wait_for_work(&self, timeout: Duration) -> bool {
        let idle = |st: &mut State| st.queued().next().is_none();
        let (_st, waited) =
            unpoisoned(self.inner.work_cv.wait_timeout_while(self.state(), timeout, idle));
        !waited.timed_out()
    }

    /// Service-level counters: `jobs_completed`, `jobs_cancelled`,
    /// `jobs_rejected`, and virtual `queue_wait_nanos`. Engine-side
    /// counters of this snapshot are always 0 — they live in each job's
    /// own [`JobReport::stats`].
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The service-lane lifecycle events, in record order (the newest
    /// [`RETAINED_EVENTS`]).
    pub fn events(&self) -> Vec<EngineEvent> {
        self.state().events.iter().cloned().collect()
    }

    /// Current virtual time (advances only while a driver runs the loop).
    pub fn virtual_time(&self) -> SimTime {
        self.state().vt
    }

    /// Serialize the service lifecycle events as a JSON document (the
    /// engine's exporter; per-job engine traces are in each job's lane of
    /// [`JobService::export_chrome_trace`]).
    pub fn export_json(&self) -> String {
        export_json(self.state().events.make_contiguous(), &[])
    }

    /// Chrome-trace export with one Perfetto `pid` lane per job.
    ///
    /// Lane `pid 1` is the service (lifecycle events); each finished job the
    /// service remembers gets `pid 2 + id` carrying its own engine's events
    /// and decisions shifted onto the service timeline by its virtual start
    /// time, so concurrent jobs render as overlapping tracks.
    pub fn export_chrome_trace(&self) -> String {
        let mut st = self.state();
        let st = &mut *st;
        let service = ChromeLane {
            pid: 1,
            name: "job service".to_string(),
            offset: SimTime::ZERO,
            events: st.events.make_contiguous(),
            decisions: &[],
        };
        let jobs = st
            .done
            .iter()
            .filter(|(_, f)| !(f.trace.events.is_empty() && f.trace.decisions.is_empty()))
            .filter_map(|(id, Finished { report, trace })| {
                Some(ChromeLane {
                    pid: 2 + *id as u32,
                    name: format!("job {id}: {}", report.name),
                    offset: report.started?,
                    events: &trace.events,
                    decisions: &trace.decisions,
                })
            });
        export_chrome_trace(&std::iter::once(service).chain(jobs).collect::<Vec<_>>())
    }

    /// Drive the virtual-time event loop until no job is queued or
    /// running. Jobs submitted concurrently (e.g. by server connections)
    /// are picked up as long as they arrive before the loop drains.
    ///
    /// Only one driver runs at a time; concurrent callers serialize.
    pub fn run_until_idle(&self) {
        let _driver = self.inner.driver.lock().expect("service driver poisoned");
        loop {
            let mut st = self.state();
            let id = loop {
                self.finish_due(&mut st);
                self.expire_queued_deadlines(&mut st);
                if let Some(id) = self.pick_startable(&st) {
                    break id;
                }
                let Some(next) = self.next_event_vt(&st) else { return };
                st.vt = next;
            };
            let (payload, engine) = self.begin_job(&mut st, id);
            let start_vt = st.vt;
            drop(st);
            let ran = self.execute(start_vt, payload, engine);
            let mut st = self.state();
            st.active.get_mut(&id).expect("an executing job stays active").phase =
                Phase::Running(ran);
        }
    }

    /// The one way the service observes a lifecycle step: fold `ev` into the
    /// service counters and append it to the service lane, whose oldest
    /// event makes room.
    fn emit(&self, st: &mut State, ev: EngineEvent) {
        self.inner.stats.observe(&ev);
        st.events.push_back(ev);
        if st.events.len() > RETAINED_EVENTS {
            let oldest = st.events.pop_front().expect("the lane is not empty");
            self.inner.evicted.observe(&oldest);
        }
    }

    fn pool_name(&self, pool: usize) -> String {
        self.inner.scheduler.pools[pool].name.clone()
    }

    /// Start queued job `id` at the current virtual time: allocate slots,
    /// record the lifecycle event, and build its isolated engine. Host
    /// execution happens outside the state lock.
    fn begin_job(&self, st: &mut State, id: JobId) -> (Admitted, Engine) {
        let vt = st.vt;
        let job = st.active.get_mut(&id).expect("the picked job is active");
        let engine = Engine::new(self.inner.cluster.clone());
        if let Some(d) = job.deadline_vt {
            // The engine clock starts at 0, so the engine-local deadline is
            // whatever virtual budget remains after the queue wait.
            engine.set_deadline(d.saturating_sub(vt));
        }
        let executing = Phase::Executing(engine.clone());
        let Phase::Queued(payload) = std::mem::replace(&mut job.phase, executing) else {
            unreachable!("the picked job is queued");
        };
        job.start_vt = Some(vt);
        let (pool, slots, queue_wait) = (job.pool, job.slots, vt.saturating_sub(job.arrival));
        st.free_slots -= slots;
        st.sched.on_start(pool);
        self.emit(
            st,
            EngineEvent::JobStarted { job: id, pool: self.pool_name(pool), queue_wait, at: vt },
        );
        (payload, engine)
    }

    /// Run a job's payload on its engine (host-side, no service lock held)
    /// and package the result as a virtually-running job. A payload that
    /// panics fails its own job and nothing else: the driver goes on.
    fn execute(&self, start_vt: SimTime, payload: Admitted, engine: Engine) -> Ran {
        let run = || match payload {
            Admitted::Native(f) => f(&engine),
            Admitted::Program(p) => {
                let inputs: HashMap<String, Bag<Value>> = p
                    .sources
                    .iter()
                    .map(|s| (s.clone(), source_bag(&engine, self.inner.seed, s)))
                    .collect();
                match p.run(engine.clone(), self.inner.config, &inputs) {
                    Ok(RtVal::Scalar(v)) => Ok(format!("scalar {v}")),
                    Ok(RtVal::Bag(b)) => Ok(format!("bag with {} records", b.count()?)),
                    Ok(RtVal::Nested(_)) => Ok("nested bag".to_string()),
                    Err(matryoshka_ir::IrError::Engine(e)) => Err(e),
                    Err(other) => Err(EngineError::Unsupported(other.to_string())),
                }
            }
        };
        let result = catch_unwind(AssertUnwindSafe(run));
        // The engine is as readable after a panic as after a return: its
        // clock and counters are atomics, and it holds its event and
        // decision locks only to push, never across user code.
        let duration = engine.sim_time();
        let sim_nanos = duration.as_nanos();
        let outcome = match result {
            Ok(Ok(result)) => JobOutcome::Completed { result, sim_nanos },
            Ok(Err(EngineError::Cancelled)) => {
                JobOutcome::Cancelled { reason: "cancelled by client".to_string() }
            }
            Ok(Err(EngineError::DeadlineExceeded { deadline_nanos, at_nanos })) => {
                JobOutcome::Cancelled {
                    reason: format!(
                        "deadline exceeded while running ({deadline_nanos} ns budget, \
                         aborted at {at_nanos} ns)"
                    ),
                }
            }
            Ok(Err(e)) => JobOutcome::Failed { error: e.to_string(), sim_nanos },
            Err(panic) => JobOutcome::Failed {
                error: format!("job panicked: {}", panic_message(&*panic)),
                sim_nanos,
            },
        };
        Ran {
            end_vt: start_vt + duration,
            outcome,
            stats: engine.stats(),
            trace: JobTrace { events: engine.events(), decisions: engine.decisions() },
        }
    }

    /// Move job `id` from `active` to `done` at virtual time `at`: the only
    /// place a job leaves `active`, a [`JobReport`] is built and a finished
    /// job is forgotten. A job that ran ends with what its run produced and
    /// gives its slots back; a queued job ends cancelled, for `reason`.
    fn finish(&self, st: &mut State, id: JobId, at: SimTime, reason: &str) {
        let job = st.active.remove(&id).expect("a finishing job is active");
        let (outcome, stats, trace) = match job.phase {
            Phase::Queued(_) => (
                JobOutcome::Cancelled { reason: reason.to_string() },
                StatsSnapshot::default(),
                JobTrace::default(),
            ),
            Phase::Executing(_) => unreachable!("the driver finishes nothing while it executes"),
            Phase::Running(ran) => {
                let started = job.start_vt.expect("a running job started");
                st.free_slots += job.slots;
                st.sched.on_finish(job.pool, job.slots, (at - started).as_nanos());
                (ran.outcome, ran.stats, ran.trace)
            }
        };
        let ok = matches!(outcome, JobOutcome::Completed { .. });
        let ended = match &outcome {
            JobOutcome::Completed { sim_nanos, .. } | JobOutcome::Failed { sim_nanos, .. } => {
                EngineEvent::JobFinished { job: id, ok, sim_nanos: *sim_nanos, at }
            }
            JobOutcome::Cancelled { reason } => {
                EngineEvent::JobCancelled { job: id, reason: reason.clone(), at }
            }
        };
        self.emit(st, ended);
        let report = JobReport {
            id,
            name: job.name,
            pool: self.pool_name(job.pool),
            slots: job.slots,
            arrival: job.arrival,
            started: job.start_vt,
            finished: at,
            queue_wait: job.start_vt.unwrap_or(at).saturating_sub(job.arrival),
            outcome,
            stats,
        };
        st.done.insert(id, Finished { report, trace });
        while st.done.len() > RETAINED_JOBS {
            st.done.pop_first();
        }
        self.inner.done_cv.notify_all();
    }

    /// Retire every running job whose virtual end time has been reached,
    /// in (end time, id) order for deterministic event streams.
    fn finish_due(&self, st: &mut State) {
        loop {
            let due = st.active.iter().filter_map(|(id, job)| match &job.phase {
                Phase::Running(ran) if ran.end_vt <= st.vt => Some((ran.end_vt, *id)),
                _ => None,
            });
            let Some((end_vt, id)) = due.min() else { return };
            self.finish(st, id, end_vt, "");
        }
    }

    /// Cancel queued jobs whose absolute deadline has passed (they would
    /// miss it even if started now with zero compute).
    fn expire_queued_deadlines(&self, st: &mut State) {
        let expired: Vec<(JobId, SimTime)> = st
            .queued()
            .filter_map(|(id, job)| job.deadline_vt.filter(|d| *d <= st.vt).map(|d| (id, d)))
            .collect();
        for (id, deadline) in expired {
            self.finish(st, id, deadline, "deadline exceeded while queued");
        }
    }

    /// The queued job to start now, if any.
    ///
    /// Each pool offers its FIFO head (the first of its queued jobs that has
    /// arrived); a pool with a head that does not fit in the free slots, or
    /// that is at its concurrency cap, offers nothing — jobs never bypass an
    /// earlier job of their own pool. The scheduler then picks among pool
    /// heads by policy.
    fn pick_startable(&self, st: &State) -> Option<JobId> {
        let mut heads: Vec<Option<(JobId, &Job)>> = vec![None; self.inner.scheduler.pools.len()];
        for (id, job) in st.queued().filter(|(_, job)| job.arrival <= st.vt) {
            heads[job.pool].get_or_insert((id, job));
        }
        let candidates: Vec<Candidate> = heads
            .iter()
            .flatten()
            .filter(|(_, job)| st.sched.has_capacity(job.pool) && job.slots <= st.free_slots)
            .map(|(id, job)| Candidate { pool: job.pool, seq: *id })
            .collect();
        st.sched.pick(&candidates).map(|pick| pick.seq)
    }

    /// The next virtual time at which anything can change: a running job's
    /// end, a queued job's future arrival, or a queued deadline expiry.
    /// Always strictly after `st.vt` (due work was already retired).
    fn next_event_vt(&self, st: &State) -> Option<SimTime> {
        let at = st.active.values().flat_map(|job| match &job.phase {
            Phase::Queued(_) => [Some(job.arrival), job.deadline_vt],
            // Only the driver asks, and it is not executing anything now.
            Phase::Executing(_) => [None, None],
            Phase::Running(ran) => [Some(ran.end_vt), None],
        });
        at.flatten().filter(|t| *t > st.vt).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_engine::GB;

    /// One run through every lifecycle outcome: a completed, a failed
    /// (simulated OOM), a queue-cancelled, a running-cancelled and a
    /// deadline-expired job, and three differently-rejected submissions.
    /// Returns the service and the admitted ids.
    fn every_outcome(trace_events: bool) -> (JobService, Vec<JobId>) {
        let cluster = ClusterConfig { trace_events, ..ClusterConfig::local_test() };
        let scheduler = SchedulerConfig { queue_capacity: 5, ..SchedulerConfig::default() };
        let svc = JobService::with_scheduler(cluster, MatryoshkaConfig::default(), scheduler, 5)
            .expect("valid scheduler config");
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
        assert_eq!(svc.inner.evicted.snapshot(), StatsSnapshot::default(), "nothing evicted yet");
        // Push all but the last two of those events out of the lane: the
        // counters forget nothing, and the lane folds to the counters since.
        let flood = RETAINED_EVENTS - 2;
        for _ in 0..flood {
            svc.submit(JobSpec::program("unknown-pool", "count(source(xs))").in_pool("nope"))
                .unwrap_err();
        }
        let (stats, lane, evicted) = (svc.stats(), svc.events(), svc.inner.evicted.snapshot());
        assert_eq!(lane.len(), RETAINED_EVENTS);
        assert_eq!(
            (stats.jobs_completed, stats.jobs_cancelled, stats.jobs_rejected),
            (2, 3, 3 + flood as u64)
        );
        assert!(evicted.jobs_rejected == 3 && evicted.jobs_completed + evicted.jobs_cancelled >= 3);
        assert_eq!(stats.since(&evicted), StatsSnapshot::from_events(&lane));
        // Each job's report carries the fold of that job's own engine events.
        let st = svc.state();
        for id in &admitted {
            let Finished { report, trace } = &st.done[id];
            assert_eq!(report.stats, StatsSnapshot::from_events(&trace.events), "{}", report.name);
        }
        let oom = &st.done[&admitted[1]].report;
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

    #[test]
    fn a_panicking_job_fails_alone() {
        let svc = JobService::local_test(5);
        let healthy = |e: &Engine| Ok(e.generate(100, 4, |i| i).count()?.to_string());
        let before = svc.submit(JobSpec::native("before", healthy).with_slots(3)).unwrap();
        let panics = svc
            .submit(JobSpec::native("panics", |e: &Engine| {
                e.generate(100, 4, |i| i).count()?;
                panic!("boom at record {}", 7)
            }))
            .unwrap();
        let after = svc.submit(JobSpec::native("after", healthy).with_slots(8)).unwrap();
        svc.run_until_idle();
        assert!(matches!(svc.wait(before), Some(JobOutcome::Completed { .. })));
        assert!(
            matches!(svc.wait(after), Some(JobOutcome::Completed { .. })),
            "the driver went on"
        );
        let report = svc.report(panics).expect("the panicking job is done too");
        let JobOutcome::Failed { error, sim_nanos } = &report.outcome else {
            panic!("a panic is a failure: {:?}", report.outcome);
        };
        assert_eq!(error, "job panicked: boom at record 7");
        assert!(*sim_nanos > 0 && report.stats.records == 100, "what ran before it is kept");
        assert_eq!(report.finished, report.started.unwrap() + SimTime::from_nanos(*sim_nanos));
        let st = svc.state();
        assert_eq!(st.free_slots, svc.inner.scheduler.total_slots, "slots came back");
        assert!(st.active.is_empty());
        drop(st);
        // Counted exactly as a job that failed with an engine error.
        assert_eq!((svc.stats().jobs_completed, svc.stats().jobs_cancelled), (3, 0));
        assert_eq!(svc.stats(), StatsSnapshot::from_events(&svc.events()));
    }

    #[test]
    fn finished_jobs_are_forgotten_lowest_id_first() {
        let svc = JobService::local_test(3);
        let tiny = || {
            JobSpec::native("tiny", |e: &Engine| Ok(e.generate(8, 1, |i| i).count()?.to_string()))
        };
        let mut ids = vec![svc.submit(tiny()).unwrap()];
        let mut waiter = {
            let (svc, first) = (svc.clone(), ids[0]);
            Some(std::thread::spawn(move || svc.wait(first)))
        };
        while ids.len() < RETAINED_JOBS + 40 {
            let batch = (RETAINED_JOBS + 40 - ids.len()).min(37);
            ids.extend((0..batch).map(|_| svc.submit(tiny()).unwrap()));
            svc.run_until_idle();
            assert_eq!(svc.state().done.len(), ids.len().min(RETAINED_JOBS));
            // Parked on the first job or not there yet: fewer than
            // RETAINED_JOBS jobs have finished, so it cannot miss the outcome.
            if let Some(waiter) = waiter.take() {
                assert!(matches!(waiter.join().unwrap(), Some(JobOutcome::Completed { .. })));
            }
        }
        let (forgotten, kept) = ids.split_at(40);
        for &id in forgotten {
            assert_eq!((svc.status(id), svc.report(id), svc.wait(id)), (None, None, None), "{id}");
            assert!(!svc.cancel(id));
        }
        for &id in kept {
            let outcome = svc.wait(id).expect("remembered");
            assert_eq!(svc.status(id), Some(JobStatus::Done(outcome.clone())));
            assert_eq!(svc.report(id).unwrap().outcome, outcome);
        }
        // Forgetting a job forgets nothing the counters or the clock know.
        assert_eq!(svc.stats().jobs_completed as usize, ids.len());
        assert_eq!(svc.stats(), StatsSnapshot::from_events(&svc.events()));
    }

    /// SplitMix64.
    fn mix(x: u64) -> u64 {
        let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// What must hold whenever the state lock is free. `admitted` lists ids
    /// `submit` returned.
    fn check_invariants(svc: &JobService, admitted: &[JobId]) {
        let st = svc.state();
        let scheduler = &svc.inner.scheduler;
        let holding = st.active.values().filter(|job| !matches!(job.phase, Phase::Queued(_)));
        let held: usize = holding.map(|job| job.slots).sum();
        assert_eq!(st.free_slots + held, scheduler.total_slots, "every slot is free or held");
        assert!(st.queued().count() <= scheduler.queue_capacity);
        assert!(st.done.len() <= RETAINED_JOBS);
        for (id, job) in &st.active {
            assert_eq!(job.start_vt.is_some(), !matches!(job.phase, Phase::Queued(_)), "{id}");
        }
        let forgotten_below = match st.done.first_key_value() {
            Some((lowest, _)) if st.done.len() == RETAINED_JOBS => *lowest,
            _ => 0,
        };
        for id in admitted {
            let places = st.active.contains_key(id) as u8 + st.done.contains_key(id) as u8;
            assert_eq!(places, (*id >= forgotten_below) as u8, "job {id} is in one place");
        }
    }

    /// One seeded sequence of submissions, cancels and driver runs on a small
    /// two-pool service, checked after every step and from inside the jobs.
    /// Returns the lifecycle events.
    fn checked_sequence(seed: u64) -> Vec<EngineEvent> {
        let mut draws = (0u64..).map(|i| mix(seed ^ mix(i)));
        let mut below = move |n: u64| draws.next().unwrap() % n;
        let scheduler = SchedulerConfig {
            queue_capacity: 4 + below(4) as usize,
            total_slots: 1 + below(4) as usize,
            ..SchedulerConfig::fair_share([("a", 1), ("b", 2)])
        };
        let svc = JobService::with_scheduler(
            ClusterConfig::local_test(),
            MatryoshkaConfig::default(),
            scheduler,
            seed,
        )
        .unwrap();
        let mut admitted = Vec::new();
        for _ in 0..10 + below(8) {
            match below(8) {
                0 => svc.run_until_idle(),
                1 => {
                    let assigned = svc.state().next_id;
                    svc.cancel(below(assigned + 1));
                }
                _ => {
                    let (inside, n) = (svc.clone(), 10 + below(200));
                    let mut spec = JobSpec::native(format!("n{n}"), move |e: &Engine| {
                        check_invariants(&inside, &[]);
                        Ok(e.generate(n, 2, |i| i).count()?.to_string())
                    })
                    .in_pool(["a", "b", "a", "b", "nope"][below(5) as usize])
                    .with_slots(below(4) as usize);
                    if below(4) == 0 {
                        spec = spec.with_deadline(SimTime::from_millis(below(700)));
                    }
                    let arrival = svc.virtual_time() + SimTime::from_millis(below(3) * below(500));
                    admitted.extend(svc.submit_at(spec, arrival));
                }
            }
            check_invariants(&svc, &admitted);
        }
        svc.run_until_idle();
        check_invariants(&svc, &admitted);
        assert!(svc.is_idle() && svc.state().active.is_empty());
        for &id in &admitted {
            let report = svc.report(id).expect("every admitted job finished");
            assert_eq!(svc.status(id), Some(JobStatus::Done(report.outcome.clone())));
            assert_eq!(svc.wait(id), Some(report.outcome.clone()));
            let left_queue = report.started.unwrap_or(report.finished);
            assert_eq!(report.queue_wait, left_queue.saturating_sub(report.arrival), "job {id}");
            assert!(report.finished >= left_queue);
        }
        svc.events()
    }

    #[test]
    fn the_one_record_invariants_hold_on_seeded_sequences() {
        let mut all = Vec::new();
        for seed in 0..200 {
            let events = checked_sequence(seed);
            assert_eq!(events, checked_sequence(seed), "seed {seed}");
            all.extend(events);
        }
        // The sequences are not trivially short of work.
        let totals = StatsSnapshot::from_events(&all);
        assert!(totals.jobs_completed > 500 && totals.jobs_cancelled > 100, "{totals:?}");
        assert!(totals.jobs_rejected > 100 && totals.queue_wait_nanos > 0, "{totals:?}");
    }
}
