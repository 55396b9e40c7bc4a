//! An additional ablation of a design choice called out in DESIGN.md, beyond
//! the paper's Fig. 8:
//!
//! - **Partition tuning (Sec. 8.1):** size-derived partition counts for
//!   InnerScalar-sized bags vs. always using the engine's default
//!   parallelism.

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::ClusterConfig;

use crate::figures::fig3;
use crate::harness::{run_case, Row};
use crate::profile::{gb, Profile};

/// Partition-tuning ablation on per-group PageRank at three group counts.
pub fn run(profile: Profile) -> Vec<Row> {
    let mut rows = Vec::new();
    for &groups in &profile.sweep(&[4, 64, 1024], &[4, 1024]) {
        let (edges, record_bytes) = fig3::pagerank_input(profile, groups, gb(20));
        for (label, tuning) in [("sized-partitions", true), ("default-parallelism", false)] {
            let cfg =
                MatryoshkaConfig { partition_tuning: tuning, ..MatryoshkaConfig::optimized() };
            let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
                fig3::run_pagerank_strategy(e, "matryoshka", &edges, record_bytes, cfg, 0.0)
            });
            rows.push(Row {
                figure: "ablation/partition-tuning-pagerank".into(),
                series: label.into(),
                x: groups,
                m,
            });
        }
    }
    rows
}
