//! # matryoshka-tasks
//!
//! The four evaluation workloads of the Matryoshka paper (Sec. 9.1), each
//! implemented in every execution strategy the paper compares:
//!
//! | Task | Levels | Control flow | Strategies |
//! |---|---|---|---|
//! | [`bounce_rate`] (Sec. 2.1) | 2 | none | Matryoshka, outer, inner, DIQL-like |
//! | [`pagerank`] (per group, Sec. 9.1) | 2 | lifted `while` | Matryoshka, outer, inner |
//! | [`kmeans`] (multi-init, Sec. 2.3) | 2 | lifted `while` + half-lifted closure | Matryoshka, outer, inner |
//! | [`avg_distances`] (Sec. 2.2) | **3** | lifted `while` | Matryoshka, outer, inner |
//!
//! Every task module also ships a sequential `reference` oracle; the test
//! suite checks that all strategies compute identical results (the
//! correctness property of Sec. 7).

#![warn(missing_docs)]

pub mod avg_distances;
pub mod bounce_rate;
pub mod flat;
pub mod kmeans;
pub mod pagerank;
pub mod seq;

/// Partition count a dataflow engine would give an input of `total_bytes`
/// read from a distributed filesystem (one partition per 128 MB block,
/// capped by the configured parallelism). The inner-parallel workaround's
/// per-group inputs are sized this way: a small group is a small file with
/// few blocks.
pub fn hdfs_partitions(engine: &matryoshka_engine::Engine, total_bytes: f64) -> usize {
    const BLOCK: f64 = 128.0 * 1024.0 * 1024.0;
    ((total_bytes / BLOCK).ceil() as usize).clamp(1, engine.config().default_parallelism)
}
