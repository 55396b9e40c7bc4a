//! Structured observability: engine events, the lowering-decision log, and
//! exporters.
//!
//! Three complementary surfaces, mirroring what a real engine's UI exposes:
//!
//! 1. **[`EngineEvent`]s** — job, stage, operator, shuffle, broadcast, spill,
//!    collect and memory-peak events with simulated start/end times. An event
//!    is the only way the engine observes anything: every cost-charging site
//!    in `crate::exec` makes one statement, `engine.observe(event)`, which
//!    folds the event into the live counters and then *keeps* it only when
//!    [`ClusterConfig::trace_events`](crate::ClusterConfig::trace_events) was
//!    set when the engine was built (off: one branch on a plain flag, no
//!    lock, no push, no allocation).
//! 2. **The decision log** — [`Decision`]s appended by the lowering phase
//!    (crate `matryoshka-core`) whenever runtime cardinalities drive a
//!    physical choice: partition counts (paper Sec. 8.1), tag-join algorithms
//!    (Sec. 8.2), cross-product sides (Sec. 8.3), live tags of lifted loops
//!    (Sec. 6.2). Each is a typed [`Rule`] row of one table, no text until
//!    export. Always on: its volume is bounded by plan size and iterations.
//! 3. **Exporters** — [`export_json`] dumps a run as a self-contained JSON
//!    document; [`export_chrome_trace`] emits the Chrome Trace Event Format
//!    consumed by Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`.
//!    Both read events through one descriptor — [`EngineEvent::kind`],
//!    [`EngineEvent::when`] and [`EngineEvent::fields`], all generated from
//!    the single table that defines the enum — so a variant's field list is
//!    spelled exactly once ([`EngineEvent::SCHEMA`] exposes it statically);
//!    decisions through [`Decision::fields`], generated from the rule table.
//!
//! [`EngineEvent::effects`] is the one statement of what an event means for
//! the counters of [`StatsSnapshot`]: the engine's live statistics and
//! [`StatsSnapshot::from_events`] both fold it, so a traced run reconciles
//! with [`Engine::stats`](crate::Engine::stats) on every field by
//! construction ([`assert_reconciles`]; see `docs/OBSERVABILITY.md` at the
//! repository root).

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::sim::{Counter, SimTime, StatsSnapshot};
use crate::Engine;

/// When an event happened on the simulated clock: a single instant or an
/// interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Instantaneous event (the variant's `at` field).
    At(SimTime),
    /// Interval event (the variant's `start` and `end` fields).
    Span(SimTime, SimTime),
}

impl From<[SimTime; 1]> for When {
    fn from([at]: [SimTime; 1]) -> Self {
        When::At(at)
    }
}

impl From<[SimTime; 2]> for When {
    fn from([start, end]: [SimTime; 2]) -> Self {
        When::Span(start, end)
    }
}

/// One payload value of an event, as yielded by [`EngineEvent::fields`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue<'a> {
    /// Counter, id or size.
    U64(u64),
    /// Flag.
    Bool(bool),
    /// Operator, pool, job name or reason.
    Str(&'a str),
    /// Simulated *duration* (the event's position on the clock is its
    /// [`When`], not a field).
    Time(SimTime),
}

/// `From<&T> for FieldValue`, one row per payload type an event declares.
macro_rules! field_value_from {
    ($($ty:ty => |$v:ident| $value:expr,)+) => {$(
        impl<'a> From<&'a $ty> for FieldValue<'a> {
            fn from($v: &'a $ty) -> Self {
                $value
            }
        }
    )+};
}

field_value_from! {
    u64 => |v| FieldValue::U64(*v),
    u32 => |v| FieldValue::U64(u64::from(*v)),
    bool => |v| FieldValue::Bool(*v),
    &'static str => |v| FieldValue::Str(v),
    String => |v| FieldValue::Str(v),
    SimTime => |v| FieldValue::Time(*v),
}

/// The static shape of one [`EngineEvent`] variant (see
/// [`EngineEvent::SCHEMA`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSchema {
    /// Rust variant name (`JobStart`).
    pub variant: &'static str,
    /// Wire name: the `"type"` of the JSON export (`job_start`).
    pub kind: &'static str,
    /// Payload field names, in export order.
    pub fields: &'static [&'static str],
    /// Time-stamp field names: `["at"]` or `["start", "end"]`.
    pub when: &'static [&'static str],
}

/// Defines [`EngineEvent`] from the one table that describes every variant —
/// wire kind, payload fields in export order, time stamps and, for an event
/// drawn on its own, its Chrome mark (`=> lane, category, "name template"`,
/// the template a format string over the fields) — and derives the
/// descriptor API ([`EngineEvent::SCHEMA`], `kind`, `when`, `fields`) that
/// the exporters are written against.
macro_rules! engine_events {
    (@mark $lane:expr, $cat:expr, $name:literal) => { Some((format!($name), $cat, $lane)) };
    (@mark) => { None };
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty,)+
        } when {
            $($(#[$tmeta:meta])* $tfield:ident,)+
        } $(=> $lane:expr, $cat:expr, $name:literal;)?
    )+) => {
        /// One structured event of a traced run, in recording order.
        ///
        /// Interval events carry simulated `start`/`end` times; instantaneous
        /// events carry a single `at` timestamp. All times come from the
        /// engine's simulated clock, so durations are *modeled* cluster time,
        /// not host wall-clock.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EngineEvent {
            $(
                $(#[$vmeta])*
                $variant {
                    $($(#[$fmeta])* $field: $ty,)+
                    $($(#[$tmeta])* $tfield: SimTime,)+
                },
            )+
        }

        impl EngineEvent {
            /// The shape of every variant, in declaration order.
            pub const SCHEMA: &'static [EventSchema] = &[$(EventSchema {
                variant: stringify!($variant),
                kind: $kind,
                fields: &[$(stringify!($field)),+],
                when: &[$(stringify!($tfield)),+],
            }),+];

            /// Wire name of this event (the `"type"` of the JSON export).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(EngineEvent::$variant { .. } => $kind,)+
                }
            }

            /// The event's instant or interval on the simulated clock.
            pub fn when(&self) -> When {
                match self {
                    $(EngineEvent::$variant { $($tfield,)+ .. } => [$(*$tfield),+].into(),)+
                }
            }

            /// Visit the payload fields (everything but the time stamps) as
            /// `(name, value)` pairs, in export order.
            pub fn fields<'a>(&'a self, mut visit: impl FnMut(&'static str, FieldValue<'a>)) {
                match self {
                    $(EngineEvent::$variant { $($field,)+ .. } => {
                        $(visit(stringify!($field), $field.into());)+
                    })+
                }
            }

            /// Name, category and lane of the mark this event draws on its
            /// own, from its row; `None` for the events `write_chrome_lane`
            /// pairs or plots by hand.
            #[allow(unused_variables)]
            fn mark(&self) -> Option<(String, &'static str, u32)> {
                match self {
                    $(EngineEvent::$variant { $($field,)+ .. } => {
                        engine_events!(@mark $($lane, $cat, $name)?)
                    })+
                }
            }
        }
    };
}

engine_events! {
    /// An action began executing (one simulated job).
    JobStart = "job_start" {
        /// Job sequence number, unique per engine.
        job: u64,
        /// The action that launched the job (`collect`, `count`, ...).
        action: &'static str,
    } when {
        /// Simulated time when the driver started the job (before the
        /// job-launch overhead is charged).
        at,
    }
    /// The matching end of a [`EngineEvent::JobStart`].
    JobEnd = "job_end" {
        /// Job sequence number.
        job: u64,
        /// Whether the action succeeded.
        ok: bool,
    } when {
        /// Simulated completion (or failure) time.
        at,
    }
    /// One stage-like unit of compute charged onto the simulated cores.
    ///
    /// `scheduled == true` marks a real stage boundary (a source or shuffle
    /// read paying driver scheduling and task launch — what
    /// [`StatsSnapshot::stages`](crate::StatsSnapshot::stages) counts);
    /// `scheduled == false` is the pipelined compute of a narrow operator
    /// riding inside an already-scheduled stage.
    Stage = "stage" {
        /// Stage counter value at charge time (stable within a run).
        stage: u64,
        /// Operator the charge is issued for (`map`, `reduce_by_key`, ...;
        /// a fused pass charges each of its operators under its own name).
        operator: &'static str,
        /// Number of simulated tasks.
        tasks: u64,
        /// Records the charge processed
        /// ([`StatsSnapshot::records`](crate::StatsSnapshot::records) sums
        /// these over scheduled and pipelined charges alike).
        records: u64,
        /// True for stage starts (scheduling + task-launch overhead paid).
        scheduled: bool,
        /// Total task time (sum over tasks, before LPT packing).
        busy: SimTime,
    } when {
        /// Simulated start time.
        start,
        /// Simulated end time.
        end,
    } => TID_STAGES, if *scheduled { "stage" } else { "narrow" }, "{operator} [{tasks} tasks]";
    /// A lineage node finished its first (and only: nodes memoize)
    /// evaluation. One event per node, in evaluation order, so parents
    /// precede children; every charge the node caused precedes it.
    Operator = "operator" {
        /// Operator name (`map`, `reduce_by_key`, ...); the tail of a fused
        /// narrow chain reports its composite name (`fused(map|filter)`).
        op: &'static str,
        /// Output partition count.
        partitions: u64,
        /// Records produced (0 when evaluation failed).
        records: u64,
        /// Whether evaluation succeeded.
        ok: bool,
    } when {
        /// Simulated time when the node's partitions were ready.
        at,
    } => TID_STAGES, "operator", "{op} -> {records} records";
    /// Records crossed a shuffle boundary.
    Shuffle = "shuffle" {
        /// Operator that shuffled.
        operator: &'static str,
        /// Records shuffled.
        records: u64,
        /// Total bytes shuffled.
        bytes: u64,
    } when {
        /// Simulated start time.
        start,
        /// Simulated end time.
        end,
    } => TID_SHUFFLE, "shuffle", "shuffle: {operator}";
    /// A broadcast variable was shipped to every worker.
    Broadcast = "broadcast" {
        /// Operator that broadcast (`broadcast`, `broadcast_join`, ...).
        operator: &'static str,
        /// Serialized bytes shipped.
        bytes: u64,
    } when {
        /// Simulated start time.
        start,
        /// Simulated end time.
        end,
    } => TID_IO, "broadcast", "broadcast: {operator}";
    /// A stage's working set exceeded the spill threshold.
    Spill = "spill" {
        /// Operator that spilled.
        operator: &'static str,
        /// Bytes written to (and re-read from) simulated disk.
        bytes: u64,
    } when {
        /// Simulated start time.
        start,
        /// Simulated end time.
        end,
    } => TID_IO, "spill", "spill: {operator}";
    /// Records were moved to the driver.
    Collect = "collect" {
        /// Records transferred.
        records: u64,
        /// Total bytes transferred.
        bytes: u64,
    } when {
        /// Simulated start time.
        start,
        /// Simulated end time.
        end,
    } => TID_IO, "collect", "collect";
    /// Peak concurrent working-set memory of a stage on the heaviest worker.
    MemoryPeak = "memory_peak" {
        /// Operator whose stage was memory-checked.
        operator: &'static str,
        /// Peak bytes concurrently resident on the heaviest machine.
        peak_bytes: u64,
    } when {
        /// Simulated time of the check.
        at,
    }
    /// A simulated machine was lost at a stage boundary, invalidating the
    /// materialized partitions placed on it (`FaultConfig::machine_loss_rate`;
    /// see `docs/FAULTS.md`).
    MachineLost = "machine_lost" {
        /// Index of the lost machine.
        machine: u64,
        /// Stage boundary at which the loss was detected.
        stage: u64,
        /// Materialized partitions invalidated by the loss.
        partitions_lost: u64,
    } when {
        /// Simulated time of the loss.
        at,
    } => TID_STAGES, "fault", "machine {machine} lost at stage {stage}";
    /// Lineage replay recomputed the partitions lost with a machine, on the
    /// surviving cluster. One event per recovery (aggregated over the lost
    /// partitions, not one per partition).
    PartitionRecomputed = "partition_recomputed" {
        /// Machine whose partitions were recomputed.
        machine: u64,
        /// Stage boundary that triggered the recovery.
        stage: u64,
        /// Partitions recomputed.
        partitions: u64,
    } when {
        /// Simulated start of the replay.
        start,
        /// Simulated end of the replay.
        end,
    } => TID_STAGES, "recovery", "lineage replay: machine {machine} [{partitions} partitions]";
    /// A bag was checkpointed to replicated storage, truncating its lineage
    /// for the fault model (`Bag::checkpoint`).
    Checkpoint = "checkpoint" {
        /// Operator that checkpointed.
        operator: &'static str,
        /// Modeled bytes written (records x record_bytes).
        bytes: u64,
    } when {
        /// Simulated start of the write.
        start,
        /// Simulated end of the write.
        end,
    } => TID_IO, "checkpoint", "checkpoint: {operator}";
    /// A maximal run of two or more narrow operators executed as one fused
    /// per-partition pass (see `DESIGN.md`, "Narrow-stage fusion").
    /// Host-side only: each operator's simulated charge is issued
    /// unchanged, so the matching [`EngineEvent::Stage`] events still appear
    /// one per fused operator.
    StageFused = "stage_fused" {
        /// Composite operator name, e.g. `fused(map|filter|flat_map)`.
        ops: &'static str,
        /// Number of narrow operators collapsed into the pass.
        ops_fused: u64,
        /// Intermediate materializations elided (`ops_fused - 1`).
        intermediates_elided: u64,
        /// Partitions processed by the single pass.
        partitions: u64,
    } when {
        /// Simulated time when the fused pass finished charging.
        at,
    } => TID_STAGES, "fusion", "{ops}";
    /// Map-output partition-size distribution of one shuffle (per-wide-stage
    /// histogram digest; see `Engine::record_map_output`).
    PartitionStats = "partition_stats" {
        /// Operator that shuffled.
        operator: &'static str,
        /// Number of reduce-side partitions.
        partitions: u64,
        /// Total records scattered.
        records: u64,
        /// Total modeled bytes scattered.
        bytes: u64,
        /// Median partition size in bytes.
        p50_bytes: u64,
        /// 99th-percentile partition size in bytes.
        p99_bytes: u64,
        /// Largest partition size in bytes.
        max_bytes: u64,
        /// Skew ratio (max/mean partition bytes) in thousandths.
        skew_ratio_milli: u64,
    } when {
        /// Simulated time of the scatter.
        at,
    } => TID_SHUFFLE, "partition_stats", "partitions: {operator}";
    /// A service-level job passed admission control and entered the
    /// multi-tenant scheduler's queue (see `docs/SERVICE.md`). All `Job*`
    /// lifecycle events below are recorded by the job service on its own
    /// event stream, in scheduler virtual time — not by a directly-driven
    /// engine.
    JobQueued = "job_queued" {
        /// Service job id (unique per service, submission order).
        job: u64,
        /// Client-supplied job name.
        name: String,
        /// Scheduler pool the job was admitted to.
        pool: String,
    } when {
        /// Virtual arrival time.
        at,
    } => TID_JOBS, "service", "job {job} queued [{pool}]";
    /// A queued service-level job was granted its core slots and began
    /// executing.
    JobStarted = "job_started" {
        /// Service job id.
        job: u64,
        /// Scheduler pool the job ran in.
        pool: String,
        /// Time spent queued ([`EngineEvent::JobQueued`] to this event).
        queue_wait: SimTime,
    } when {
        /// Virtual start time.
        at,
    }
    /// A running service-level job released its core slots with an outcome.
    JobFinished = "job_finished" {
        /// Service job id.
        job: u64,
        /// Whether the program succeeded (`false` covers simulated OOM and
        /// other engine errors; cancellations get
        /// [`EngineEvent::JobCancelled`] instead).
        ok: bool,
        /// The job's own simulated execution time in nanoseconds
        /// (engine-local, excludes queue wait).
        sim_nanos: u64,
    } when {
        /// Virtual completion time.
        at,
    }
    /// A service-level job was cancelled — client request, or a deadline
    /// missed in queue or (deterministically, on the simulated clock) during
    /// execution.
    JobCancelled = "job_cancelled" {
        /// Service job id.
        job: u64,
        /// Why the job was cancelled.
        reason: String,
    } when {
        /// Virtual cancellation time.
        at,
    }
    /// Admission control turned a submission away before it was queued
    /// (saturated queue, unknown pool, or static-analysis errors).
    JobRejected = "job_rejected" {
        /// Service job id assigned to the rejected submission.
        job: u64,
        /// Why admission refused the job.
        reason: String,
    } when {
        /// Virtual rejection time.
        at,
    } => TID_JOBS, "service", "job {job} rejected";
}

impl EngineEvent {
    /// What this event means for the counters: calls `bump(counter, value)`
    /// once per counter the event feeds. Whether a value is added or
    /// maximised is the counter's [`Fold`](crate::sim::Fold), not the
    /// event's business. This match is the only place a counter is related
    /// to an event; [`Stats::observe`](crate::sim::Stats::observe) and
    /// [`StatsSnapshot::from_events`] both fold it.
    pub fn effects(&self, mut bump: impl FnMut(Counter, u64)) {
        match self {
            EngineEvent::JobStart { .. } => bump(Counter::Jobs, 1),
            EngineEvent::JobEnd { ok, .. } => {
                if !ok {
                    bump(Counter::JobsFailed, 1);
                }
            }
            EngineEvent::Stage { tasks, records, scheduled, .. } => {
                if *scheduled {
                    bump(Counter::Stages, 1);
                    bump(Counter::Tasks, *tasks);
                }
                bump(Counter::Records, *records);
            }
            EngineEvent::Operator { .. } | EngineEvent::JobQueued { .. } => {}
            EngineEvent::Shuffle { bytes, .. } => bump(Counter::ShuffleBytes, *bytes),
            EngineEvent::Broadcast { bytes, .. } => bump(Counter::BroadcastBytes, *bytes),
            EngineEvent::Spill { bytes, .. } => bump(Counter::SpillBytes, *bytes),
            EngineEvent::Collect { records, .. } => bump(Counter::CollectedRecords, *records),
            EngineEvent::MemoryPeak { peak_bytes, .. } => {
                bump(Counter::PeakMemoryBytes, *peak_bytes)
            }
            EngineEvent::MachineLost { partitions_lost, .. } => {
                bump(Counter::PartitionsLost, *partitions_lost)
            }
            EngineEvent::PartitionRecomputed { partitions, start, end, .. } => {
                bump(Counter::PartitionsRecomputed, *partitions);
                bump(Counter::RecomputeNanos, end.saturating_sub(*start).as_nanos());
            }
            EngineEvent::Checkpoint { bytes, .. } => bump(Counter::CheckpointBytes, *bytes),
            EngineEvent::StageFused { intermediates_elided, .. } => {
                bump(Counter::StagesFused, 1);
                bump(Counter::IntermediatesElided, *intermediates_elided);
            }
            EngineEvent::PartitionStats { max_bytes, skew_ratio_milli, .. } => {
                bump(Counter::PeakPartitionBytes, *max_bytes);
                bump(Counter::PeakPartitionSkewMilli, *skew_ratio_milli);
            }
            EngineEvent::JobStarted { queue_wait, .. } => {
                bump(Counter::QueueWaitNanos, queue_wait.as_nanos())
            }
            EngineEvent::JobFinished { .. } => bump(Counter::JobsCompleted, 1),
            EngineEvent::JobCancelled { .. } => bump(Counter::JobsCancelled, 1),
            EngineEvent::JobRejected { .. } => bump(Counter::JobsRejected, 1),
        }
    }
}

/// Panic unless the fold of the events `engine` kept equals its live
/// counters, as whole structs. Holds by construction on a traced engine (a
/// trace starts at the engine's first charge); the first thing to run after
/// touching a charge site.
#[track_caller]
pub fn assert_reconciles(engine: &Engine) {
    assert_eq!(engine.trace_summary(), engine.stats(), "fold of the kept events != live counters");
}

/// The config-gated event store held by each engine: whether it keeps events
/// is fixed when it is built, and keeping an event costs one branch when
/// disabled (no lock, no push, no allocation).
pub(crate) struct TraceCollector {
    enabled: bool,
    events: Mutex<Vec<EngineEvent>>,
}

/// Initial capacity reserved when tracing is enabled, so steady-state
/// recording does not reallocate for typical runs.
const EVENT_CAPACITY: usize = 4096;

impl TraceCollector {
    pub(crate) fn new(enabled: bool) -> TraceCollector {
        let events = if enabled { Vec::with_capacity(EVENT_CAPACITY) } else { Vec::new() };
        TraceCollector { enabled, events: Mutex::new(events) }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Keep `ev` if the collector is enabled, drop it otherwise.
    pub(crate) fn keep(&self, ev: EngineEvent) {
        if self.enabled {
            self.events.lock().expect("trace collector lock poisoned").push(ev);
        }
    }

    pub(crate) fn events(&self) -> Vec<EngineEvent> {
        self.events.lock().expect("trace collector lock poisoned").clone()
    }
}

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Simulated time as fractional microseconds (the unit of the Chrome Trace
/// Event Format; also used in the JSON dump for readability).
fn micros(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e3
}

/// Append `"name":value` — the one place a [`FieldValue`] becomes JSON
/// (durations gain a `_us` suffix and print as fractional microseconds).
fn write_field(out: &mut String, name: &str, value: FieldValue<'_>) {
    let _ = match value {
        FieldValue::U64(v) => write!(out, "\"{name}\":{v}"),
        FieldValue::Bool(v) => write!(out, "\"{name}\":{v}"),
        FieldValue::Str(v) => write!(out, "\"{name}\":\"{}\"", esc(v)),
        FieldValue::Time(v) => write!(out, "\"{name}_us\":{:.3}", micros(v)),
    };
}

/// Serialize events, decisions and the events' fold
/// ([`StatsSnapshot::from_events`], every counter, in table order) as one
/// self-contained JSON document (hand-rolled; the engine has no serializer
/// dependency). Timestamps are simulated microseconds.
pub fn export_json(events: &[EngineEvent], decisions: &[Decision]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + decisions.len() * 128 + 1024);
    out.push_str("{\n  \"summary\": {");
    let mut sep = "";
    for (name, value) in StatsSnapshot::from_events(events).fields() {
        let _ = write!(out, "{sep}\"{name}\":{value}");
        sep = ",";
    }
    out.push_str("},\n  \"events\": [\n");
    for (i, ev) in events.iter().enumerate() {
        let _ = write!(out, "    {{\"type\":\"{}\"", ev.kind());
        ev.fields(|name, value| {
            out.push(',');
            write_field(&mut out, name, value);
        });
        let _ = match ev.when() {
            When::At(at) => write!(out, ",\"at_us\":{:.3}", micros(at)),
            When::Span(start, end) => {
                write!(out, ",\"start_us\":{:.3},\"end_us\":{:.3}", micros(start), micros(end))
            }
        };
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"decisions\": [\n");
    for (i, d) in decisions.iter().enumerate() {
        let _ = write!(out, "    {{\"site\":\"{}\"", esc(d.site));
        d.fields(|name, value| {
            out.push(',');
            write_field(&mut out, name, value);
        });
        let _ = write!(out, ",\"at_us\":{:.3}}}", micros(d.at));
        if i + 1 < decisions.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Virtual thread ids of the Chrome trace: one lane per event family.
const TID_JOBS: u32 = 1;
const TID_STAGES: u32 = 2;
const TID_SHUFFLE: u32 = 3;
const TID_IO: u32 = 4;

/// One process ("pid") lane of a merged Chrome trace export.
///
/// The multi-tenant job service exports one lane per job (its engine's
/// events, placed on the service timeline by `offset`) plus a service lane
/// carrying the `Job*` lifecycle events, so concurrent jobs render as
/// separate Perfetto tracks.
pub struct ChromeLane<'a> {
    /// Perfetto process id of the lane (1 for a single-engine export).
    pub pid: u32,
    /// Process name shown on the track (e.g. `job 3: pagerank`).
    pub name: String,
    /// Added to every time stamp of the lane: a job's engine clock starts at
    /// zero, the service timeline at the job's virtual start.
    pub offset: SimTime,
    /// Events of this lane, in recording order.
    pub events: &'a [EngineEvent],
    /// Lowering decisions of this lane (instant events on the jobs track).
    pub decisions: &'a [Decision],
}

/// Serialize lanes in the Chrome Trace Event Format (JSON array form),
/// loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Each [`ChromeLane`] becomes one Perfetto process with a thread per event
/// family: jobs, stages, shuffles, and driver/broadcast/spill I/O. An event
/// is drawn as its row of the event table says; decisions become instant
/// events on the jobs lane and memory peaks a counter track. Timestamps are
/// simulated microseconds on a shared timeline.
pub fn export_chrome_trace(lanes: &[ChromeLane<'_>]) -> String {
    let total: usize = lanes.iter().map(|l| l.events.len()).sum();
    let mut out = String::with_capacity(total * 128 + 1024);
    out.push_str("[\n");
    for lane in lanes {
        // Process/thread names (metadata events).
        let _ = writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}},",
            lane.pid,
            esc(&lane.name)
        );
        for (tid, name) in
            [(TID_JOBS, "jobs"), (TID_STAGES, "stages"), (TID_SHUFFLE, "shuffle"), (TID_IO, "io")]
        {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},",
                lane.pid
            );
        }
        write_chrome_lane(&mut out, lane);
    }
    // Trailing metadata event avoids dangling-comma bookkeeping.
    out.push_str("{\"name\":\"trace_end\",\"ph\":\"M\",\"pid\":1,\"args\":{}}\n]\n");
    out
}

/// Write one lane's events and decisions (no metadata, no array brackets).
///
/// An event with a mark in its row is a slice or an instant by its
/// [`When`]; the match below draws the rest: job starts paired with their
/// ends and the memory counter track. Every mark's `args` are the event's
/// [`fields`](EngineEvent::fields).
fn write_chrome_lane(out: &mut String, lane: &ChromeLane<'_>) {
    let (pid, offset) = (lane.pid, lane.offset);
    // One mark: a slice over a span or an instant at a point.
    let draw = |out: &mut String, ev: &EngineEvent, name: String, cat: &str, tid: u32, when| {
        let _ = write!(out, "{{\"name\":\"{}\",\"cat\":\"{cat}\",", esc(&name));
        let _ = match when {
            When::Span(start, end) => {
                let (start, end) = (micros(start + offset), micros(end + offset));
                let dur = (end - start).max(0.001);
                write!(
                    out,
                    "\"ph\":\"X\",\"ts\":{start:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid},"
                )
            }
            When::At(at) => {
                let at = micros(at + offset);
                write!(out, "\"ph\":\"i\",\"ts\":{at:.3},\"pid\":{pid},\"tid\":{tid},\"s\":\"t\",")
            }
        };
        out.push_str("\"args\":{");
        let mut sep = "";
        ev.fields(|name, value| {
            out.push_str(sep);
            sep = ",";
            write_field(out, name, value);
        });
        out.push_str("}},\n");
    };
    // Pair job starts with their ends to draw one slice per job.
    let mut open_jobs: Vec<(u64, &'static str, SimTime)> = Vec::new();
    // Pair service job-started events with their finish/cancel.
    let mut open_service: Vec<(u64, String, SimTime)> = Vec::new();
    for ev in lane.events {
        match ev {
            EngineEvent::JobStart { job, action, at } => open_jobs.push((*job, action, *at)),
            EngineEvent::JobEnd { job, at, .. } => {
                if let Some(pos) = open_jobs.iter().rposition(|(j, _, _)| j == job) {
                    let (j, action, start) = open_jobs.remove(pos);
                    let name = format!("job {j}: {action}");
                    draw(out, ev, name, "job", TID_JOBS, When::Span(start, *at));
                }
            }
            // A counter track: its `args` are the plotted series, so they
            // stay the single `bytes` value rather than the full field list.
            EngineEvent::MemoryPeak { operator, peak_bytes, at } => {
                let _ = writeln!(
                    out,
                    "{{\"name\":\"stage peak memory\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":{pid},\
                     \"args\":{{\"bytes\":{peak_bytes}}},\"cat\":\"memory\",\"id\":\"{}\"}},",
                    micros(*at + offset),
                    esc(operator)
                );
            }
            EngineEvent::JobStarted { job, pool, queue_wait, at } => {
                // Draw the queue wait as its own slice ending at the start.
                if queue_wait.as_nanos() > 0 {
                    let queued = at.saturating_sub(*queue_wait);
                    let name = format!("queued: job {job}");
                    draw(out, ev, name, "queue", TID_JOBS, When::Span(queued, *at));
                }
                open_service.push((*job, pool.clone(), *at));
            }
            // With no open start (cancelled in the queue, or the start was
            // evicted from the service's bounded event lane): an instant.
            EngineEvent::JobFinished { job, at, .. }
            | EngineEvent::JobCancelled { job, at, .. } => {
                let cancelled = matches!(ev, EngineEvent::JobCancelled { .. });
                if let Some(pos) = open_service.iter().rposition(|(j, _, _)| j == job) {
                    let (_, pool, start) = open_service.remove(pos);
                    let tail = if cancelled { " (cancelled)" } else { "" };
                    let name = format!("job {job} [{pool}]{tail}");
                    draw(out, ev, name, "service_job", TID_JOBS, When::Span(start, *at));
                } else {
                    let name =
                        format!("job {job} {}", if cancelled { "cancelled" } else { "finished" });
                    draw(out, ev, name, "service", TID_JOBS, When::At(*at));
                }
            }
            _ => {
                let (name, cat, tid) = ev.mark().expect("an event no arm draws has a mark");
                draw(out, ev, name, cat, tid, ev.when());
            }
        }
    }
    // An instant named after the decision's choice (the first field visited);
    // the other fields are its `args`, each followed by a `,` (the last popped).
    for d in lane.decisions {
        d.fields(|name, value| match value {
            FieldValue::Str(choice) if name == "choice" => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}: {}\",\"cat\":\"decision\",\"ph\":\"i\",\"ts\":{:.3},\
                     \"pid\":{pid},\"tid\":{TID_JOBS},\"s\":\"p\",\"args\":{{",
                    esc(d.site),
                    esc(choice),
                    micros(d.at + offset)
                );
            }
            _ => {
                write_field(out, name, value);
                out.push(',');
            }
        });
        out.pop();
        out.push_str("}},\n");
    }
}

/// One entry of the lowering-decision log: a physical choice the runtime
/// optimizer made from actual cardinality information (paper Sec. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Decision site: the [`Rule::site`] of `rule`.
    pub site: &'static str,
    /// The rule that chose, with the values it chose from.
    pub rule: Rule,
    /// Simulated time of the decision.
    pub at: SimTime,
}

/// The one meaning of each [`Rule`] field name, whichever rows use it.
#[rustfmt::skip]
macro_rules! rule_field_doc {
    (partitions) => { "A partition count: the one chosen, or the input's where the row says so." };
    (records) => { "Records (or tags) the choice was made from." };
    (bytes) => { "Modeled bytes the choice was made from." };
    (per_partition) => { "Target records per partition." };
    (by_records) => { "Partition count the records alone need." };
    (by_bytes) => { "Partition count the bytes alone need." };
    (choice) => { "The choice, where the row does not fix it." };
    (cores) => { "Cores of the cluster." };
    (cap) => { "Broadcast cap in bytes (a fraction of a worker's memory)." };
    (bag_bytes) => { "Estimated bytes of the flat bag." };
    (iteration) => { "Lifted-loop iteration, from 1." };
    (tags) => { "Tags that continue past the iteration (or would, at the cap)." };
    (live) => { "Tags live when the iteration started." };
    (max) => { "The loop's `max_iterations`." };
    (ops) => { "Composite name of the fused chain (`fused(map|filter)`)." };
    (fused) => { "Operators run in the one pass." };
    (elided) => { "Intermediate materializations elided." };
    (code) => { "Diagnostic code of the rewrite (`MAT093`, ...)." };
    (text) => { "The rewrite and its justification, as `Display` renders it." };
}

/// Defines [`Rule`] from the one table of decision rules — site, typed
/// fields, which fields are the decision's `cardinality` and `bytes`, and
/// the `choice` and `detail` templates (format strings over the fields) —
/// and derives [`Rule::SITES`], [`Rule::site`] and [`Decision::fields`], the
/// visitor both exporters render a decision through.
macro_rules! decision_rules {
    ($(
        $(#[doc = $doc:literal])*
        $(#[cfg($cfg:meta)])?
        $rule:ident = $site:literal { $($field:ident: $ty:ty),+ }
            ($cardinality:expr, $bytes:expr) => $choice:literal, $detail:literal;
    )+) => {
        /// A lowering-decision rule and the values it chose from: one variant
        /// per row of the rule table, rendered to text only at export.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Rule {
            $(#[doc = concat!("`", $site, "` chooses `", $choice, "`: \"", $detail, "\".")]
            $(#[doc = $doc])* $(#[cfg($cfg)])?
            $rule { $(#[doc = rule_field_doc!($field)] $field: $ty),+ },)+
        }

        impl Rule {
            /// The site of every rule, in table order.
            pub const SITES: &'static [&'static str] = &[$($(#[cfg($cfg)])? $site),+];

            /// The site this rule logs under.
            pub fn site(&self) -> &'static str {
                match self {
                    $($(#[cfg($cfg)])? Rule::$rule { .. } => $site,)+
                }
            }
        }

        impl Decision {
            /// Visit `choice`, `cardinality`, `bytes` and `detail`, rendered
            /// from the rule's row, in export order.
            pub fn fields(&self, mut visit: impl FnMut(&'static str, FieldValue<'_>)) {
                let (mut text, num) = (String::new(), |v: &u64| FieldValue::U64(*v));
                match &self.rule {
                    $($(#[cfg($cfg)])? Rule::$rule { $($field),+ } => {
                        let _ = write!(text, $choice);
                        visit("choice", FieldValue::Str(&text));
                        visit("cardinality", num(&$cardinality)); // a `&u64` field or a literal
                        visit("bytes", num(&$bytes));
                        text.clear();
                        let _ = write!(text, $detail);
                        visit("detail", FieldValue::Str(&text));
                    })+
                }
            }
        }
    };
}

// Name = "site" { fields } (cardinality, bytes) => "choice", "detail";
decision_rules! {
    TuningOff = "partition_tuning" { partitions: u64, records: u64, bytes: u64 }
        (records, bytes) => "{partitions}", "tuning disabled: default parallelism";
    TuningByRecords = "partition_tuning" { partitions: u64, records: u64, per_partition: u64 }
        (records, 0) => "{partitions}", "{records} records / {per_partition} per partition";
    TuningByRecordsAndBytes = "partition_tuning" {
        partitions: u64, records: u64, bytes: u64, by_records: u64, by_bytes: u64
    } (records, bytes) => "{partitions}", "max(by records: {by_records}, by bytes: {by_bytes})";
    TagJoinForced = "tag_join" { records: u64, bytes: u64, choice: &'static str }
        (records, bytes) => "{choice}", "forced by config";
    TagJoinWorkThreshold = "tag_join" { records: u64, bytes: u64, cores: u64 }
        (records, bytes) => "broadcast", "{records} records < 2 x {cores} cores";
    TagJoinOverCap = "tag_join" { records: u64, bytes: u64, cap: u64 }
        (records, bytes) => "repartition", "{bytes} bytes > broadcast cap {cap}";
    TagJoinUnderCap = "tag_join" { records: u64, bytes: u64, cap: u64 }
        (records, bytes) => "broadcast", "{bytes} bytes <= broadcast cap {cap}";
    /// In every `cross_product` row, `partitions` is the InnerScalar's.
    CrossForced = "cross_product" { partitions: u64, bytes: u64, choice: &'static str }
        (partitions, bytes) => "{choice}", "forced by config";
    CrossSinglePartition = "cross_product" { partitions: u64, bytes: u64, cap: u64 }
        (partitions, bytes) => "broadcast_scalar",
        "single-partition scalar of {bytes} bytes under cap {cap}";
    CrossBagSmaller = "cross_product" { partitions: u64, bytes: u64, bag_bytes: u64 }
        (partitions, bytes) => "broadcast_bag",
        "bag estimate {bag_bytes} bytes < scalar {bytes} bytes";
    CrossScalarSmaller = "cross_product" { partitions: u64, bytes: u64, bag_bytes: u64 }
        (partitions, bytes) => "broadcast_scalar",
        "scalar {bytes} bytes <= bag estimate {bag_bytes} bytes";
    CrossBagUnknown = "cross_product" { partitions: u64, bytes: u64 }
        (partitions, bytes) => "broadcast_scalar", "bag size unknown: ship the scalar";
    CoPartition = "co_partition" { partitions: u64, records: u64 } (records, 0) => "{partitions}",
        "pre-shuffle by (tag, key) at default parallelism for reuse across iterations";
    LiftedWhile = "lifted_while" { iteration: u64, tags: u64, live: u64, choice: &'static str }
        (tags, 0) => "{choice}", "iteration {iteration}: {tags} of {live} tags continue";
    LiftedWhileCapped = "lifted_while" { iteration: u64, tags: u64, live: u64, max: u64 }
        (tags, 0) => "exit", "iteration {iteration}: {tags} of {live} tags hit \
        max_iterations {max}";
    Checkpoint = "checkpoint" { iteration: u64, tags: u64 } (tags, 0) => "lifted_while",
        "iteration {iteration}: checkpoint loop state, {tags} live tags";
    NarrowFusion = "narrow_fusion" { ops: &'static str, fused: u64, partitions: u64, records: u64,
        elided: u64 } (records, 0) => "{ops}", "{fused} ops in one pass over {partitions} \
        partitions; {elided} intermediate materializations elided";
    /// The one row that keeps owned text, built once per applied rewrite.
    PlanRewrite = "plan_rewrite" { code: &'static str, text: String } (0, 0) => "{code}", "{text}";
    /// The exporters' golden-document fixture.
    #[cfg(test)]
    GoldenSample = "tag_join" { records: u64, bytes: u64 }
        (records, bytes) => "broadcast", "scalar smaller than 2 x cores";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample_events() -> Vec<EngineEvent> {
        vec![
            EngineEvent::JobStart { job: 0, action: "count", at: t(0) },
            EngineEvent::Stage {
                stage: 0,
                operator: "parallelize",
                tasks: 4,
                records: 10,
                scheduled: true,
                start: t(1),
                end: t(2),
                busy: t(3),
            },
            EngineEvent::Shuffle {
                operator: "reduce_by_key",
                records: 10,
                bytes: 80,
                start: t(2),
                end: t(3),
            },
            EngineEvent::Stage {
                stage: 1,
                operator: "reduce_by_key",
                tasks: 4,
                records: 7,
                scheduled: true,
                start: t(3),
                end: t(4),
                busy: t(2),
            },
            EngineEvent::Stage {
                stage: 2,
                operator: "map",
                tasks: 4,
                records: 7,
                scheduled: false,
                start: t(4),
                end: t(4),
                busy: SimTime::ZERO,
            },
            EngineEvent::Broadcast {
                operator: "broadcast_join",
                bytes: 64,
                start: t(4),
                end: t(5),
            },
            EngineEvent::Spill { operator: "group_by_key", bytes: 100, start: t(5), end: t(6) },
            EngineEvent::Collect { records: 5, bytes: 40, start: t(6), end: t(7) },
            EngineEvent::MemoryPeak { operator: "group_by_key", peak_bytes: 4096, at: t(6) },
            EngineEvent::MachineLost { machine: 1, stage: 1, partitions_lost: 2, at: t(4) },
            EngineEvent::PartitionRecomputed {
                machine: 1,
                stage: 1,
                partitions: 2,
                start: t(4),
                end: t(5),
            },
            EngineEvent::Checkpoint { operator: "checkpoint", bytes: 512, start: t(5), end: t(6) },
            EngineEvent::StageFused {
                ops: "fused(map|filter)",
                ops_fused: 2,
                intermediates_elided: 1,
                partitions: 4,
                at: t(4),
            },
            EngineEvent::PartitionStats {
                operator: "reduce_by_key",
                partitions: 4,
                records: 10,
                bytes: 80,
                p50_bytes: 16,
                p99_bytes: 40,
                max_bytes: 40,
                skew_ratio_milli: 2_000,
                at: t(3),
            },
            EngineEvent::Operator {
                op: "reduce_by_key",
                partitions: 4,
                records: 7,
                ok: true,
                at: t(4),
            },
            EngineEvent::JobEnd { job: 0, at: t(7), ok: true },
        ]
    }

    #[test]
    fn summary_aggregates_scheduled_stages_only() {
        let s = StatsSnapshot::from_events(&sample_events());
        let want = StatsSnapshot {
            jobs: 1,
            stages: 2, // narrow charges are not stages...
            tasks: 8,
            records: 24, // ...but their records count
            shuffle_bytes: 80,
            spill_bytes: 100,
            broadcast_bytes: 64,
            collected_records: 5,
            peak_memory_bytes: 4096,
            peak_partition_bytes: 40,
            peak_partition_skew_milli: 2_000,
            partitions_lost: 2,
            partitions_recomputed: 2,
            recompute_nanos: 1_000_000,
            checkpoint_bytes: 512,
            stages_fused: 1,
            intermediates_elided: 1,
            ..StatsSnapshot::default()
        };
        assert_eq!(s, want);
    }

    #[test]
    fn collector_is_inert_when_disabled() {
        let c = TraceCollector::new(false);
        c.keep(EngineEvent::JobEnd { job: 0, at: SimTime::ZERO, ok: true });
        assert!(c.events().is_empty(), "nothing is kept when tracing is off");
        let c = TraceCollector::new(true);
        c.keep(EngineEvent::JobEnd { job: 0, at: SimTime::ZERO, ok: true });
        assert_eq!(c.events().len(), 1);
    }

    fn service_events() -> Vec<EngineEvent> {
        vec![
            EngineEvent::JobQueued {
                job: 1,
                name: "wordcount".into(),
                pool: "batch".into(),
                at: t(0),
            },
            EngineEvent::JobStarted { job: 1, pool: "batch".into(), queue_wait: t(2), at: t(2) },
            EngineEvent::JobFinished { job: 1, ok: true, sim_nanos: 5_000_000, at: t(7) },
            EngineEvent::JobQueued { job: 2, name: "slow".into(), pool: "batch".into(), at: t(1) },
            EngineEvent::JobCancelled {
                job: 2,
                reason: "deadline exceeded in queue".into(),
                at: t(4),
            },
            EngineEvent::JobRejected { job: 3, reason: "queue full".into(), at: t(5) },
        ]
    }

    fn sample_decisions() -> Vec<Decision> {
        let rule = Rule::GoldenSample { records: 12, bytes: 96 };
        vec![Decision { site: rule.site(), rule, at: t(1) }]
    }

    /// Every variant once (engine events, then the service lifecycle): the
    /// stream the golden documents under `tests/golden/` were exported from.
    fn golden_events() -> Vec<EngineEvent> {
        let mut events = sample_events();
        events.extend(service_events());
        let kinds: std::collections::BTreeSet<_> = events.iter().map(EngineEvent::kind).collect();
        assert_eq!(kinds.len(), EngineEvent::SCHEMA.len(), "samples must cover every variant");
        events
    }

    /// The JSON export is a wire format: byte-identical to the committed
    /// document, which is re-pinned only on purpose (a new variant, field or
    /// counter).
    #[test]
    fn json_export_matches_the_golden_document() {
        assert_eq!(
            export_json(&golden_events(), &sample_decisions()),
            include_str!("../tests/golden/trace.json")
        );
    }

    /// The Chrome export is byte-identical to the committed document, `args`
    /// included, which is re-pinned only on purpose.
    #[test]
    fn chrome_export_keeps_the_golden_slices() {
        let (events, decisions) = (golden_events(), sample_decisions());
        let lane = ChromeLane {
            pid: 1,
            name: "simulated cluster".into(),
            offset: SimTime::ZERO,
            events: &events,
            decisions: &decisions,
        };
        assert_eq!(export_chrome_trace(&[lane]), include_str!("../tests/golden/trace.chrome.json"));
    }

    #[test]
    fn service_lifecycle_events_summarize() {
        let s = StatsSnapshot::from_events(&service_events());
        let want = StatsSnapshot {
            jobs_completed: 1,
            jobs_cancelled: 1,
            jobs_rejected: 1,
            queue_wait_nanos: 2_000_000,
            ..StatsSnapshot::default()
        };
        assert_eq!(s, want);
    }

    #[test]
    fn multi_lane_chrome_export_gives_each_job_its_own_pid() {
        let events = vec![
            EngineEvent::JobStart { job: 0, action: "count", at: t(0) },
            EngineEvent::JobEnd { job: 0, at: t(2), ok: true },
        ];
        let lane = |pid, name: &str, offset| ChromeLane {
            pid,
            name: name.into(),
            offset,
            events: &events,
            decisions: &[],
        };
        let chrome = export_chrome_trace(&[lane(2, "job 1: a", t(0)), lane(3, "job 2: b", t(5))]);
        assert!(chrome.contains("\"pid\":2"));
        assert!(chrome.contains("\"pid\":3"));
        assert!(chrome.contains("job 1: a"));
        assert_eq!(chrome.matches("process_name").count(), 2, "one process per lane");
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    }

    /// The service keeps only its newest events, so a long job's start can
    /// be evicted while its finish is kept: the finish is still drawn.
    #[test]
    fn a_finish_whose_start_was_evicted_is_an_instant() {
        let events = [EngineEvent::JobFinished { job: 4, ok: true, sim_nanos: 9, at: t(3) }];
        let lane = ChromeLane {
            pid: 1,
            name: "job service".into(),
            offset: SimTime::ZERO,
            events: &events,
            decisions: &[],
        };
        let chrome = export_chrome_trace(&[lane]);
        let mark = "{\"name\":\"job 4 finished\",\"cat\":\"service\",\"ph\":\"i\",\"ts\":3000.000,\
                    \"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"job\":4,\"ok\":true,\"sim_nanos\":9}},";
        assert!(chrome.lines().any(|l| l == mark), "{chrome}");
    }

    #[test]
    fn a_lane_offset_moves_interval_and_instant_timestamps() {
        let events = [
            EngineEvent::Stage {
                stage: 0,
                operator: "map",
                tasks: 1,
                records: 0,
                scheduled: true,
                start: t(1),
                end: t(2),
                busy: t(1),
            },
            EngineEvent::Operator { op: "map", partitions: 1, records: 0, ok: true, at: t(3) },
        ];
        let rule = Rule::GoldenSample { records: 12, bytes: 96 };
        let decisions = [Decision { site: rule.site(), rule, at: t(4) }];
        let lane = ChromeLane {
            pid: 2,
            name: "job".into(),
            offset: t(10),
            events: &events,
            decisions: &decisions,
        };
        let chrome = export_chrome_trace(&[lane]);
        assert!(chrome.contains("\"ts\":11000.000,\"dur\":1000.000"), "{chrome}");
        assert!(chrome.contains("\"busy_us\":1000.000"), "durations must not shift: {chrome}");
        assert!(chrome.contains("\"ph\":\"i\",\"ts\":13000.000"), "{chrome}");
        assert!(chrome.contains("\"ts\":14000.000"), "decisions shift too: {chrome}");
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
