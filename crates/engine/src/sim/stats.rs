//! Execution statistics: jobs, stages, tasks, shuffled/spilled bytes.
//!
//! The experiment harnesses use these counters to explain *why* a strategy is
//! slow (e.g. inner-parallel launching thousands of jobs), mirroring the
//! paper's analysis in Sec. 9.2-9.3.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe counters. One instance lives in each `Engine`.
#[derive(Debug, Default)]
pub struct Stats {
    jobs: AtomicU64,
    stages: AtomicU64,
    tasks: AtomicU64,
    records: AtomicU64,
    shuffle_bytes: AtomicU64,
    spill_bytes: AtomicU64,
    broadcast_bytes: AtomicU64,
    peak_memory_bytes: AtomicU64,
    tasks_retried: AtomicU64,
    peak_partition_bytes: AtomicU64,
    peak_partition_skew_milli: AtomicU64,
    partitions_lost: AtomicU64,
    recompute_nanos: AtomicU64,
    checkpoint_bytes: AtomicU64,
    stages_fused: AtomicU64,
    intermediates_elided: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_rejected: AtomicU64,
    queue_wait_nanos: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Jobs launched (actions executed).
    pub jobs: u64,
    /// Stages executed (source + shuffle boundaries + result stages).
    pub stages: u64,
    /// Tasks launched across all stages.
    pub tasks: u64,
    /// Records processed across all operators.
    pub records: u64,
    /// Bytes crossing shuffle boundaries.
    pub shuffle_bytes: u64,
    /// Bytes spilled to simulated disk.
    pub spill_bytes: u64,
    /// Bytes shipped for broadcast variables.
    pub broadcast_bytes: u64,
    /// High-water mark of a single stage's peak concurrent working-set
    /// memory on the heaviest worker (a maximum, not an accumulating
    /// counter).
    pub peak_memory_bytes: u64,
    /// Task attempts re-run after a simulated fault (`FaultConfig`).
    pub tasks_retried: u64,
    /// High-water mark of a single post-shuffle partition's bytes (a
    /// maximum, like `peak_memory_bytes`).
    pub peak_partition_bytes: u64,
    /// High-water mark of the per-shuffle partition skew ratio
    /// (max partition bytes over mean partition bytes), in thousandths.
    pub peak_partition_skew_milli: u64,
    /// Materialized partitions invalidated by simulated machine losses
    /// (`FaultConfig::machine_loss_rate`).
    pub partitions_lost: u64,
    /// Simulated nanoseconds spent replaying lineage to recompute lost
    /// partitions (already included in the simulated clock).
    pub recompute_nanos: u64,
    /// Modeled bytes written to replicated checkpoint storage by
    /// `Bag::checkpoint` (lineage truncation).
    pub checkpoint_bytes: u64,
    /// Narrow operator chains of two or more executed as one fused
    /// per-partition pass. Host-side only: fusion never changes the
    /// simulated clock or the other counters.
    pub stages_fused: u64,
    /// Intermediate per-operator materializations elided by fusion (for a
    /// fused chain of `k` operators, `k - 1` intermediates are elided).
    pub intermediates_elided: u64,
    /// Service-level jobs that ran to completion (multi-tenant job service,
    /// `docs/SERVICE.md`). Always 0 for a directly-driven engine: the
    /// service accounts these on its own `Stats`, one per submitted program,
    /// not per engine action.
    pub jobs_completed: u64,
    /// Service-level jobs cancelled (client request or missed deadline).
    pub jobs_cancelled: u64,
    /// Service-level jobs rejected by admission control (queue saturated,
    /// unknown pool, or analysis errors).
    pub jobs_rejected: u64,
    /// Total simulated nanoseconds service-level jobs spent queued between
    /// admission and their first core-slot (scheduler virtual time).
    pub queue_wait_nanos: u64,
}

impl StatsSnapshot {
    /// Difference since an earlier snapshot (for per-experiment deltas).
    ///
    /// `peak_memory_bytes` is a high-water mark, not a counter: the delta
    /// carries the later snapshot's value unchanged (the peak observed up to
    /// that point, which bounds the peak of the interval).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            jobs: self.jobs - earlier.jobs,
            stages: self.stages - earlier.stages,
            tasks: self.tasks - earlier.tasks,
            records: self.records - earlier.records,
            shuffle_bytes: self.shuffle_bytes - earlier.shuffle_bytes,
            spill_bytes: self.spill_bytes - earlier.spill_bytes,
            broadcast_bytes: self.broadcast_bytes - earlier.broadcast_bytes,
            peak_memory_bytes: self.peak_memory_bytes,
            tasks_retried: self.tasks_retried - earlier.tasks_retried,
            peak_partition_bytes: self.peak_partition_bytes,
            peak_partition_skew_milli: self.peak_partition_skew_milli,
            partitions_lost: self.partitions_lost - earlier.partitions_lost,
            recompute_nanos: self.recompute_nanos - earlier.recompute_nanos,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
            stages_fused: self.stages_fused - earlier.stages_fused,
            intermediates_elided: self.intermediates_elided - earlier.intermediates_elided,
            jobs_completed: self.jobs_completed - earlier.jobs_completed,
            jobs_cancelled: self.jobs_cancelled - earlier.jobs_cancelled,
            jobs_rejected: self.jobs_rejected - earlier.jobs_rejected,
            queue_wait_nanos: self.queue_wait_nanos - earlier.queue_wait_nanos,
        }
    }
}

impl Stats {
    /// Count one job launch.
    pub fn add_job(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
    }
    /// Count one stage with `tasks` tasks.
    pub fn add_stage(&self, tasks: u64) {
        self.stages.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
    }
    /// Count processed records.
    pub fn add_records(&self, n: u64) {
        self.records.fetch_add(n, Ordering::Relaxed);
    }
    /// Count shuffled bytes.
    pub fn add_shuffle_bytes(&self, n: u64) {
        self.shuffle_bytes.fetch_add(n, Ordering::Relaxed);
    }
    /// Count spilled bytes.
    pub fn add_spill_bytes(&self, n: u64) {
        self.spill_bytes.fetch_add(n, Ordering::Relaxed);
    }
    /// Count broadcast bytes.
    pub fn add_broadcast_bytes(&self, n: u64) {
        self.broadcast_bytes.fetch_add(n, Ordering::Relaxed);
    }
    /// Raise the peak-memory high-water mark (no-op if `n` is below it).
    pub fn add_peak_memory(&self, n: u64) {
        self.peak_memory_bytes.fetch_max(n, Ordering::Relaxed);
    }
    /// Count one re-run task attempt (a fault-injection retry).
    pub fn add_task_retry(&self) {
        self.tasks_retried.fetch_add(1, Ordering::Relaxed);
    }
    /// Raise the partition-size and partition-skew high-water marks from one
    /// shuffle's map-output summary.
    pub fn add_partition_peaks(&self, max_bytes: u64, skew_milli: u64) {
        self.peak_partition_bytes.fetch_max(max_bytes, Ordering::Relaxed);
        self.peak_partition_skew_milli.fetch_max(skew_milli, Ordering::Relaxed);
    }
    /// Count partitions invalidated by a simulated machine loss.
    pub fn add_partitions_lost(&self, n: u64) {
        self.partitions_lost.fetch_add(n, Ordering::Relaxed);
    }
    /// Count simulated time spent replaying lineage after a machine loss.
    pub fn add_recompute_nanos(&self, n: u64) {
        self.recompute_nanos.fetch_add(n, Ordering::Relaxed);
    }
    /// Count bytes written to replicated checkpoint storage.
    pub fn add_checkpoint_bytes(&self, n: u64) {
        self.checkpoint_bytes.fetch_add(n, Ordering::Relaxed);
    }
    /// Count one fused narrow-chain execution that elided `intermediates`
    /// per-operator materializations.
    pub fn add_stage_fused(&self, intermediates: u64) {
        self.stages_fused.fetch_add(1, Ordering::Relaxed);
        self.intermediates_elided.fetch_add(intermediates, Ordering::Relaxed);
    }
    /// Count one service-level job that ran to completion.
    pub fn add_job_completed(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
    /// Count one service-level job cancelled (request or deadline).
    pub fn add_job_cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }
    /// Count one service-level job rejected by admission control.
    pub fn add_job_rejected(&self) {
        self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
    }
    /// Accumulate simulated queue-wait time of a service-level job.
    pub fn add_queue_wait_nanos(&self, n: u64) {
        self.queue_wait_nanos.fetch_add(n, Ordering::Relaxed);
    }

    /// Take a snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            jobs: self.jobs.load(Ordering::Relaxed),
            stages: self.stages.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            shuffle_bytes: self.shuffle_bytes.load(Ordering::Relaxed),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            broadcast_bytes: self.broadcast_bytes.load(Ordering::Relaxed),
            peak_memory_bytes: self.peak_memory_bytes.load(Ordering::Relaxed),
            tasks_retried: self.tasks_retried.load(Ordering::Relaxed),
            peak_partition_bytes: self.peak_partition_bytes.load(Ordering::Relaxed),
            peak_partition_skew_milli: self.peak_partition_skew_milli.load(Ordering::Relaxed),
            partitions_lost: self.partitions_lost.load(Ordering::Relaxed),
            recompute_nanos: self.recompute_nanos.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            stages_fused: self.stages_fused.load(Ordering::Relaxed),
            intermediates_elided: self.intermediates_elided.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            queue_wait_nanos: self.queue_wait_nanos.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::default();
        s.add_job();
        s.add_job();
        s.add_stage(10);
        s.add_stage(5);
        s.add_records(100);
        s.add_shuffle_bytes(42);
        s.add_spill_bytes(7);
        s.add_broadcast_bytes(3);
        s.add_peak_memory(500);
        s.add_peak_memory(200);
        s.add_task_retry();
        s.add_partition_peaks(900, 1_500);
        s.add_partition_peaks(600, 2_500);
        s.add_partitions_lost(4);
        s.add_recompute_nanos(1_000);
        s.add_checkpoint_bytes(256);
        s.add_stage_fused(2);
        s.add_stage_fused(4);
        s.add_job_completed();
        s.add_job_cancelled();
        s.add_job_rejected();
        s.add_job_rejected();
        s.add_queue_wait_nanos(7_000);
        let snap = s.snapshot();
        assert_eq!(snap.jobs, 2);
        assert_eq!(snap.stages, 2);
        assert_eq!(snap.tasks, 15);
        assert_eq!(snap.records, 100);
        assert_eq!(snap.shuffle_bytes, 42);
        assert_eq!(snap.spill_bytes, 7);
        assert_eq!(snap.broadcast_bytes, 3);
        assert_eq!(snap.peak_memory_bytes, 500, "peak is a max, not a sum");
        assert_eq!(snap.tasks_retried, 1);
        assert_eq!(snap.peak_partition_bytes, 900, "partition peak is a max");
        assert_eq!(snap.peak_partition_skew_milli, 2_500, "skew peak is a max");
        assert_eq!(snap.partitions_lost, 4);
        assert_eq!(snap.recompute_nanos, 1_000);
        assert_eq!(snap.checkpoint_bytes, 256);
        assert_eq!(snap.stages_fused, 2);
        assert_eq!(snap.intermediates_elided, 6);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.jobs_cancelled, 1);
        assert_eq!(snap.jobs_rejected, 2);
        assert_eq!(snap.queue_wait_nanos, 7_000);
    }

    #[test]
    fn since_computes_delta() {
        let s = Stats::default();
        s.add_job();
        let a = s.snapshot();
        s.add_job();
        s.add_stage(3);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.jobs, 1);
        assert_eq!(d.tasks, 3);
    }
}
