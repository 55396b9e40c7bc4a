//! Execution statistics: jobs, stages, tasks, shuffled/spilled bytes.
//!
//! The experiment harnesses use these counters to explain *why* a strategy is
//! slow (e.g. inner-parallel launching thousands of jobs), mirroring the
//! paper's analysis in Sec. 9.2-9.3.
//!
//! A counter is never maintained beside the events: it is the fold of what
//! [`EngineEvent::effects`] says each event means. [`Stats`] folds events as
//! they are observed, [`StatsSnapshot::from_events`] folds a recorded stream,
//! and the two agree on every field by construction.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::EngineEvent;

/// How a counter combines the values events feed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Accumulates; [`StatsSnapshot::since`] subtracts the earlier value.
    Sum,
    /// High-water mark; [`StatsSnapshot::since`] carries the later value
    /// unchanged (the peak observed up to that point, which bounds the peak
    /// of the interval).
    Max,
}

impl Fold {
    fn since(self, later: u64, earlier: u64) -> u64 {
        match self {
            Fold::Sum => later - earlier,
            Fold::Max => later,
        }
    }
}

/// Defines the counters from the one table that lists them (name, fold,
/// documentation): the [`Counter`] enum, the [`StatsSnapshot`] struct with one
/// `pub u64` field each, and everything that would otherwise spell the fields
/// again ([`StatsSnapshot::FIELDS`], `fields`, `since`, [`Stats::snapshot`]).
macro_rules! counters {
    ($($(#[$meta:meta])* $variant:ident = $name:ident: $fold:ident,)+) => {
        /// Names one counter, for [`EngineEvent::effects`] to feed.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$meta])* $variant,)+
        }

        /// A point-in-time copy of the counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$meta])* pub $name: u64,)+
        }

        impl StatsSnapshot {
            /// Name and fold of every counter, in declaration (and export)
            /// order; indexed by `Counter as usize`.
            pub const FIELDS: &'static [(&'static str, Fold)] =
                &[$((stringify!($name), Fold::$fold)),+];

            /// The counters as `(name, value)` pairs, in
            /// [`StatsSnapshot::FIELDS`] order (what the JSON export's
            /// `summary` iterates).
            pub fn fields(&self) -> [(&'static str, u64); Self::FIELDS.len()] {
                [$((stringify!($name), self.$name)),+]
            }

            /// Difference since an earlier snapshot (for per-experiment
            /// deltas); see [`Fold`] for what each kind of counter carries.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($name: Fold::$fold.since(self.$name, earlier.$name),)+ }
            }
        }

        impl Stats {
            /// Take a snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $($name: self.get(Counter::$variant),)+ }
            }
        }
    };
}

counters! {
    /// Jobs launched (actions executed).
    Jobs = jobs: Sum,
    /// Jobs whose action returned an error (simulated OOM, exhausted
    /// lineage recovery, cancellation, ...).
    JobsFailed = jobs_failed: Sum,
    /// Stages executed (source + shuffle boundaries + result stages).
    Stages = stages: Sum,
    /// Tasks launched across all stages.
    Tasks = tasks: Sum,
    /// Records processed across all operators.
    Records = records: Sum,
    /// Bytes crossing shuffle boundaries.
    ShuffleBytes = shuffle_bytes: Sum,
    /// Bytes spilled to simulated disk.
    SpillBytes = spill_bytes: Sum,
    /// Bytes shipped for broadcast variables.
    BroadcastBytes = broadcast_bytes: Sum,
    /// Records moved to the driver by collect-like actions.
    CollectedRecords = collected_records: Sum,
    /// High-water mark of a single stage's peak concurrent working-set
    /// memory on the heaviest worker.
    PeakMemoryBytes = peak_memory_bytes: Max,
    /// High-water mark of a single post-shuffle partition's bytes.
    PeakPartitionBytes = peak_partition_bytes: Max,
    /// High-water mark of the per-shuffle partition skew ratio
    /// (max partition bytes over mean partition bytes), in thousandths.
    PeakPartitionSkewMilli = peak_partition_skew_milli: Max,
    /// Materialized partitions invalidated by simulated machine losses
    /// (`FaultConfig::machine_loss_rate`).
    PartitionsLost = partitions_lost: Sum,
    /// Partitions recomputed by lineage replay after a machine loss.
    PartitionsRecomputed = partitions_recomputed: Sum,
    /// Simulated nanoseconds spent replaying lineage to recompute lost
    /// partitions (already included in the simulated clock).
    RecomputeNanos = recompute_nanos: Sum,
    /// Modeled bytes written to replicated checkpoint storage by
    /// `Bag::checkpoint` (lineage truncation).
    CheckpointBytes = checkpoint_bytes: Sum,
    /// Narrow operator chains of two or more executed as one fused
    /// per-partition pass. Host-side only: fusion never changes the
    /// simulated clock or the other counters.
    StagesFused = stages_fused: Sum,
    /// Intermediate per-operator materializations elided by fusion (for a
    /// fused chain of `k` operators, `k - 1` intermediates are elided).
    IntermediatesElided = intermediates_elided: Sum,
    /// Service-level jobs that ran to an outcome, ok or failed (multi-tenant
    /// job service, `docs/SERVICE.md`). Always 0 for a directly-driven
    /// engine: the service accounts these on its own `Stats`, one per
    /// submitted program, not per engine action.
    JobsCompleted = jobs_completed: Sum,
    /// Service-level jobs cancelled (client request or missed deadline).
    JobsCancelled = jobs_cancelled: Sum,
    /// Service-level jobs rejected by admission control (queue saturated,
    /// unknown pool, or analysis errors).
    JobsRejected = jobs_rejected: Sum,
    /// Total simulated nanoseconds service-level jobs spent queued between
    /// admission and their first core-slot (scheduler virtual time).
    QueueWaitNanos = queue_wait_nanos: Sum,
}

impl StatsSnapshot {
    /// Fold a recorded event stream: what the [`Stats`] of an engine (or
    /// service) that observed exactly these events would snapshot to, on
    /// every field.
    pub fn from_events(events: &[EngineEvent]) -> StatsSnapshot {
        let stats = Stats::default();
        events.iter().for_each(|ev| stats.observe(ev));
        stats.snapshot()
    }
}

/// Shared, thread-safe counters. One instance lives in each `Engine` (and
/// one in the job service), fed only by [`Stats::observe`].
#[derive(Debug, Default)]
pub struct Stats([AtomicU64; StatsSnapshot::FIELDS.len()]);

impl Stats {
    /// Apply what `ev` means for the counters.
    pub fn observe(&self, ev: &EngineEvent) {
        ev.effects(|counter, v| {
            let cell = &self.0[counter as usize];
            match StatsSnapshot::FIELDS[counter as usize].1 {
                Fold::Sum => cell.fetch_add(v, Ordering::Relaxed),
                Fold::Max => cell.fetch_max(v, Ordering::Relaxed),
            };
        });
    }

    /// Current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTime;

    fn stage(tasks: u64, records: u64) -> EngineEvent {
        EngineEvent::Stage {
            stage: 0,
            operator: "map",
            tasks,
            records,
            scheduled: true,
            busy: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        }
    }

    fn job_start() -> EngineEvent {
        EngineEvent::JobStart { job: 0, action: "count", at: SimTime::ZERO }
    }

    fn memory_peak(peak_bytes: u64) -> EngineEvent {
        EngineEvent::MemoryPeak { operator: "map", peak_bytes, at: SimTime::ZERO }
    }

    #[test]
    fn counters_accumulate() {
        let events = [
            job_start(),
            job_start(),
            stage(10, 60),
            stage(5, 40),
            memory_peak(500),
            memory_peak(200),
        ];
        let s = Stats::default();
        events.iter().for_each(|ev| s.observe(ev));
        let snap = s.snapshot();
        assert_eq!(snap.jobs, 2);
        assert_eq!(snap.stages, 2);
        assert_eq!(snap.tasks, 15);
        assert_eq!(snap.records, 100);
        assert_eq!(snap.peak_memory_bytes, 500, "peak is a max, not a sum");
        assert_eq!(s.get(Counter::Tasks), 15);
        assert_eq!(snap, StatsSnapshot::from_events(&events));
    }

    #[test]
    fn since_computes_delta() {
        let s = Stats::default();
        s.observe(&job_start());
        s.observe(&memory_peak(300));
        let a = s.snapshot();
        s.observe(&job_start());
        s.observe(&stage(3, 0));
        let d = s.snapshot().since(&a);
        assert_eq!(d.jobs, 1);
        assert_eq!(d.tasks, 3);
        assert_eq!(d.peak_memory_bytes, 300, "a maximum is carried, not subtracted");
    }

    #[test]
    fn fields_lists_every_counter_in_table_order() {
        let snap = StatsSnapshot { jobs: 7, queue_wait_nanos: 9, ..Default::default() };
        let fields = snap.fields();
        assert_eq!(fields[Counter::Jobs as usize], ("jobs", 7));
        assert_eq!(fields.last(), Some(&("queue_wait_nanos", 9)));
        let names = fields.map(|(name, _)| name);
        assert_eq!(names.to_vec(), StatsSnapshot::FIELDS.iter().map(|f| f.0).collect::<Vec<_>>());
    }
}
