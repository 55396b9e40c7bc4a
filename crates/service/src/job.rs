//! Job descriptions, outcomes, and per-job reports.

use std::fmt;

use matryoshka_engine::sim::SimTime;
use matryoshka_engine::{Engine, EngineError, StatsSnapshot};
use matryoshka_ir::Dialect;

/// Service-wide job identifier, assigned in submission order (rejected
/// submissions consume ids too, so ids line up with the event log).
pub type JobId = u64;

/// A host-native job body: runs an arbitrary program against the job's own
/// engine and returns a human-readable result summary. Used by tests and
/// benches; wire submissions always carry programs.
pub type NativeJob = Box<dyn FnOnce(&Engine) -> Result<String, EngineError> + Send>;

/// What a job executes.
pub enum JobPayload {
    /// A `.mat` program (checked by the IR analyzer at admission; its
    /// sources are bound to seeded service datasets at run time).
    Program {
        /// Program text.
        source: String,
        /// Dialect to check and rewrite under.
        dialect: Dialect,
    },
    /// A native closure (see [`NativeJob`]).
    Native(NativeJob),
}

impl fmt::Debug for JobPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobPayload::Program { source, dialect } => f
                .debug_struct("Program")
                .field("source_len", &source.len())
                .field("dialect", dialect)
                .finish(),
            JobPayload::Native(_) => f.write_str("Native(..)"),
        }
    }
}

/// A job submission: what to run, where, and within which limits.
#[derive(Debug)]
pub struct JobSpec {
    /// Client-supplied display name.
    pub name: String,
    /// Scheduler pool to run in (must exist in the service's
    /// [`SchedulerConfig`](crate::SchedulerConfig)).
    pub pool: String,
    /// Simulated core slots the job occupies while running; `0` means the
    /// scheduler's `default_slots`. Clamped to the service's `total_slots`.
    pub slots: usize,
    /// Virtual deadline measured from submission: if the job has not
    /// *finished* by `arrival + deadline` it is cancelled — still queued
    /// jobs at expiry never start, and running jobs abort deterministically
    /// on their simulated clock.
    pub deadline: Option<SimTime>,
    /// What to execute.
    pub payload: JobPayload,
}

impl JobSpec {
    /// A `.mat` program job in the `default` pool (Matryoshka dialect).
    pub fn program(name: impl Into<String>, source: impl Into<String>) -> JobSpec {
        JobSpec {
            name: name.into(),
            pool: "default".to_string(),
            slots: 0,
            deadline: None,
            payload: JobPayload::Program { source: source.into(), dialect: Dialect::Matryoshka },
        }
    }

    /// A native job in the `default` pool.
    pub fn native(
        name: impl Into<String>,
        body: impl FnOnce(&Engine) -> Result<String, EngineError> + Send + 'static,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            pool: "default".to_string(),
            slots: 0,
            deadline: None,
            payload: JobPayload::Native(Box::new(body)),
        }
    }

    /// Submit to the named pool instead of `default`.
    pub fn in_pool(mut self, pool: impl Into<String>) -> JobSpec {
        self.pool = pool.into();
        self
    }

    /// Occupy `slots` simulated cores while running.
    pub fn with_slots(mut self, slots: usize) -> JobSpec {
        self.slots = slots;
        self
    }

    /// Cancel the job if not finished `deadline` of virtual time after
    /// submission.
    pub fn with_deadline(mut self, deadline: SimTime) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The program ran to completion.
    Completed {
        /// Human-readable result summary (e.g. `bag with 42 records`).
        result: String,
        /// The job's own simulated execution time in nanoseconds.
        sim_nanos: u64,
    },
    /// The program raised an engine or lowering error (e.g. simulated OOM).
    Failed {
        /// Rendered error.
        error: String,
        /// Simulated nanoseconds consumed before the failure.
        sim_nanos: u64,
    },
    /// Cancelled by client request or a missed deadline.
    Cancelled {
        /// Why the job was cancelled.
        reason: String,
    },
}

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for core slots.
    Queued,
    /// Holding core slots (host execution may already have finished; the
    /// job stays `Running` until its virtual end time is reached).
    Running,
    /// Finished, with an outcome.
    Done(JobOutcome),
}

/// Final accounting of one job, available once it leaves the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job id.
    pub id: JobId,
    /// Display name from the spec.
    pub name: String,
    /// Pool it was admitted to.
    pub pool: String,
    /// Core slots it occupied.
    pub slots: usize,
    /// Virtual submission time.
    pub arrival: SimTime,
    /// Virtual start time (`None` if cancelled while queued).
    pub started: Option<SimTime>,
    /// Virtual completion time.
    pub finished: SimTime,
    /// Time spent queued (start - arrival; for queue-cancelled jobs, the
    /// whole stay).
    pub queue_wait: SimTime,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// The job's own engine statistics (all zeros if it never started).
    pub stats: StatsSnapshot,
}

/// A refused submission: the reason, and — for analyzer rejections — the
/// individual `MAT0xx` diagnostic lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// The id the submission consumed (ties the refusal to the
    /// `JobRejected` event).
    pub id: JobId,
    /// One-line reason.
    pub reason: String,
    /// Rendered `MAT0xx` diagnostics (empty unless the analyzer rejected).
    pub diagnostics: Vec<String>,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} rejected: {}", self.id, self.reason)
    }
}

impl std::error::Error for Rejection {}
