//! Cluster and cost-model configuration for the simulated dataflow engine.
//!
//! The engine executes programs for real (in-process, multi-threaded) while a
//! *simulated clock* accounts for what the same program would cost on a
//! Spark-like cluster: job-launch overhead, per-task scheduling and launch
//! overheads, per-record processing cost, shuffle network transfer, disk
//! spilling, and per-worker memory limits. The defaults below model the
//! cluster used in the paper's evaluation (Sec. 9.1): 25 machines, two 8-core
//! CPUs each, 22 GB of Spark memory per machine, and a 1 Gb network.

use crate::sim::SimTime;

/// Size units, for readability of configs.
pub const KB: u64 = 1 << 10;
/// One mebibyte.
pub const MB: u64 = 1 << 20;
/// One gibibyte.
pub const GB: u64 = 1 << 30;

/// Cost-model constants. All durations are simulated time.
///
/// The defaults are calibrated so that the *relative* effects reported by the
/// paper (job-launch overhead dominating inner-parallel, task scheduling
/// overhead growing with cluster size, spilling, OOM cliffs) reproduce at the
/// scaled-down data sizes used in this repository. Absolute values are in the
/// right ballpark for Spark 3.0 but are not calibrated against real hardware.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Driver-side overhead of launching one job (DAG scheduling, RPC
    /// round-trips). Charged once per action.
    pub job_launch: SimTime,
    /// Executor-side overhead of launching one task (deserialize closure,
    /// fetch task binary). Charged per task inside the simulated LPT schedule.
    pub task_launch: SimTime,
    /// Driver-side *serial* scheduling cost per task. This is the component
    /// that makes very high task counts expensive regardless of cluster size
    /// (Ousterhout et al., "The case for tiny tasks"; paper Sec. 9.3).
    pub task_schedule: SimTime,
    /// CPU cost per record, fixed component.
    pub per_record: SimTime,
    /// CPU cost per byte of record payload (covers (de)serialization and
    /// per-byte processing of large records).
    pub per_byte: SimTime,
    /// Extra CPU cost per record crossing a shuffle boundary (hash, serialize,
    /// write shuffle file).
    pub per_shuffle_record: SimTime,
    /// Expansion factor from on-disk record bytes to in-memory working-set
    /// bytes for materializing operators (group_by_key, hash-join build,
    /// distinct sets). Models deserialized JVM object overhead plus the
    /// intermediate structures a UDF builds over a materialized group.
    pub materialize_factor: f64,
    /// Fraction of a worker's memory usable by a stage's concurrently
    /// resident tasks before it starts spilling to disk.
    pub spill_fraction: f64,
    /// Fraction of a worker's memory beyond which a stage fails with a
    /// simulated OutOfMemory instead of spilling.
    pub oom_fraction: f64,
    /// Aggregate disk bandwidth per machine, bytes/sec (for spill I/O).
    pub disk_bandwidth: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            job_launch: SimTime::from_millis(300),
            task_launch: SimTime::from_millis(5),
            task_schedule: SimTime::from_micros(200),
            per_record: SimTime::from_nanos(60),
            per_byte: SimTime::from_nanos(2),
            per_shuffle_record: SimTime::from_nanos(150),
            materialize_factor: 3.0,
            spill_fraction: 0.35,
            oom_fraction: 1.0,
            disk_bandwidth: 400 * MB,
        }
    }
}

/// Fault-injection model: simulated whole-machine losses recovered by
/// lineage replay (see `docs/FAULTS.md`). Losses are deterministic per
/// (seed, stage, machine, attempt), so experiments are reproducible.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Determinism seed.
    pub seed: u64,
    /// Probability that any given machine is lost at any given stage
    /// boundary. A lost machine invalidates the materialized partitions
    /// placed on it; the engine replays their lineage on the surviving
    /// cluster, charging the recomputation to the simulated clock.
    pub machine_loss_rate: f64,
    /// Consecutive losses of the same machine tolerated at one stage
    /// boundary before the job fails with
    /// [`EngineError::RecoveryFailed`](crate::EngineError::RecoveryFailed).
    pub max_recovery_attempts: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig { seed: 0, machine_loss_rate: 0.0, max_recovery_attempts: 3 }
    }
}

/// Simulated cluster shape plus the cost model.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker machines.
    pub machines: usize,
    /// Cores (task slots) per machine.
    pub cores_per_machine: usize,
    /// Memory dedicated to the engine per machine, in bytes.
    pub memory_per_machine: u64,
    /// Network bandwidth per machine, bytes/sec. Aggregate shuffle bandwidth
    /// is `machines * network_bandwidth`.
    pub network_bandwidth: u64,
    /// Default number of partitions for sources and shuffles. The paper's
    /// setup uses 3x the total core count (Sec. 9.1).
    pub default_parallelism: usize,
    /// Cost-model constants.
    pub costs: CostModel,
    /// Fault injection (no failures by default).
    pub faults: FaultConfig,
    /// Collect structured [`EngineEvent`](crate::EngineEvent)s (job, stage,
    /// shuffle, broadcast, spill, collect, memory peaks) during execution.
    /// Off by default: when off, each would-be event costs one branch on a
    /// flag fixed when the engine is built, keeping untraced runs within
    /// measurement noise. An engine traces from its first charge or not at
    /// all.
    pub trace_events: bool,
}

impl ClusterConfig {
    /// The 25-machine cluster from the paper's main evaluation (Sec. 9.1):
    /// two 8-core AMD Opteron 6128 per machine, 22 GB Spark memory, 1 Gb
    /// network, parallelism 3x total cores.
    pub fn paper_small_cluster() -> Self {
        Self::with_machines(25)
    }

    /// The 36-machine cluster from the larger-dataset experiment (Sec. 9.7):
    /// two Xeon E5-2630V4 per machine (40 threads), 100 GB per worker.
    pub fn paper_large_cluster() -> Self {
        ClusterConfig {
            machines: 36,
            cores_per_machine: 40,
            memory_per_machine: 100 * GB,
            network_bandwidth: 10 * 125 * MB,
            default_parallelism: 3 * 36 * 40,
            costs: CostModel::default(),
            faults: FaultConfig::default(),
            trace_events: false,
        }
    }

    /// A paper-style cluster with a configurable machine count (for the
    /// scale-out experiment, Sec. 9.3).
    pub fn with_machines(machines: usize) -> Self {
        let cores = 16;
        ClusterConfig {
            machines,
            cores_per_machine: cores,
            memory_per_machine: 22 * GB,
            network_bandwidth: 125 * MB, // 1 Gb/s
            default_parallelism: 3 * machines * cores,
            costs: CostModel::default(),
            faults: FaultConfig::default(),
            trace_events: false,
        }
    }

    /// A tiny configuration for unit tests: fast to execute for real, few
    /// partitions, permissive memory.
    pub fn local_test() -> Self {
        ClusterConfig {
            machines: 2,
            cores_per_machine: 4,
            memory_per_machine: 4 * GB,
            network_bandwidth: GB,
            default_parallelism: 8,
            costs: CostModel::default(),
            faults: FaultConfig::default(),
            trace_events: false,
        }
    }

    /// Total core (task-slot) count across the cluster.
    pub fn total_cores(&self) -> usize {
        self.machines * self.cores_per_machine
    }

    /// Aggregate network bandwidth across the cluster, bytes/sec.
    pub fn aggregate_bandwidth(&self) -> u64 {
        self.network_bandwidth * self.machines as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_core_count_matches_setup() {
        let c = ClusterConfig::paper_small_cluster();
        assert_eq!(c.total_cores(), 25 * 16);
        assert_eq!(c.default_parallelism, 3 * 400);
    }

    #[test]
    fn large_cluster_has_more_threads() {
        let c = ClusterConfig::paper_large_cluster();
        assert_eq!(c.total_cores(), 36 * 40);
        assert!(c.memory_per_machine > ClusterConfig::paper_small_cluster().memory_per_machine);
    }

    #[test]
    fn aggregate_bandwidth_scales_with_machines() {
        let a = ClusterConfig::with_machines(5);
        let b = ClusterConfig::with_machines(10);
        assert_eq!(b.aggregate_bandwidth(), 2 * a.aggregate_bandwidth());
    }
}
