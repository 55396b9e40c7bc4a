//! Recovery-overhead sweep (`docs/FAULTS.md`; methodology in
//! EXPERIMENTS.md): machine-loss rate × checkpoint interval on an iterative
//! lifted loop, emitted as `BENCH_recovery.json` by `cargo run --release
//! --bin recovery_sweep`.
//!
//! The workload is the lifted control-flow machinery itself: many per-tag
//! countdown loops run as one lifted do-while
//! ([`matryoshka_core::lifted_while`]), whose tag joins shuffle fat per-tag
//! state every iteration. Without checkpoints, each simulated machine loss
//! replays lineage all the way back to the sources, so recovery cost grows
//! with loop depth; checkpointing every K iterations
//! ([`MatryoshkaConfig::checkpoint_interval`]) truncates the replay at the
//! price of a modeled checkpoint write — the same snapshot-interval
//! trade-off Labyrinth (Gévay et al.) makes for iterative dataflows.

use matryoshka_core::{lifted_while, InnerScalar, LiftingContext, MatryoshkaConfig};
use matryoshka_engine::ClusterConfig;

use crate::harness::{run_case, Row};

/// Machine-loss rates swept, in per-mille (series `loss-<permille>`).
const LOSS_PERMILLE: &[u64] = &[0, 10, 30];

/// Lifted loop iterations: deep enough that un-checkpointed lineage replay
/// visibly dominates at the higher loss rate.
const ITERATIONS: i64 = 12;

/// Modeled bytes of each per-tag loop state record: fat enough that
/// checkpoint writes cost real simulated time (the trade-off has two sides).
const STATE_BYTES: f64 = (256 * 1024) as f64;

/// Tags (concurrent per-tag loops). Enough that Sec. 8.1 partition tuning
/// spreads the per-tag state over multiple partitions and the Auto join
/// picks repartition over broadcast — the lifted loop then crosses a real
/// shuffle boundary every iteration, which is where machines get lost.
const TAGS: u64 = 8_192;

/// Checkpoint intervals swept (x; 0 = never checkpoint).
const INTERVALS: &[u64] = &[0, 1, 4];

/// The simulated cluster for one sweep point.
fn cluster(loss_permille: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_small_cluster();
    cfg.faults.machine_loss_rate = loss_permille as f64 / 1000.0;
    cfg.faults.seed = 42;
    // The sweep measures recovery cost, not recovery failure: give the
    // pathological tail (several consecutive losses of one machine) room so
    // every point completes and the artifact stays comparable.
    cfg.faults.max_recovery_attempts = 5;
    cfg
}

/// One case: per-tag countdown loops lifted into a single dataflow, with
/// the loop state checkpointed every `interval` iterations (0 = never).
fn run_lifted_loop(e: &matryoshka_engine::Engine, interval: u64) -> matryoshka_engine::Result<()> {
    let mut cfg = MatryoshkaConfig::optimized();
    cfg.checkpoint_interval = interval as usize;
    let tag_bag = e.generate(TAGS, 16, |t| t);
    let ctx = LiftingContext::new(e.clone(), tag_bag, TAGS, cfg);
    let init = InnerScalar::from_repr(
        e.generate(TAGS, 16, |t| (t, ITERATIONS)).with_record_bytes(STATE_BYTES),
        ctx,
    );
    let out = lifted_while(
        &init,
        |s: &InnerScalar<u64, i64>| {
            let next = s.map(|x| x - 1);
            let cond = next.map(|x| *x > 0);
            Ok((next, cond))
        },
        None,
    )?;
    let n = out.repr().count()?;
    assert_eq!(n, TAGS, "every tag's loop must finish exactly once");
    Ok(())
}

/// The sweep: for each loss rate, simulated runtime across checkpoint
/// intervals. These are the rows of the committed `BENCH_recovery.json`.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for &permille in LOSS_PERMILLE {
        for &interval in INTERVALS {
            let m = run_case(cluster(permille), |e| run_lifted_loop(e, interval));
            rows.push(Row {
                figure: "recovery/loss-x-checkpoint".into(),
                series: format!("loss-{permille}"),
                x: interval,
                m,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Outcome;
    use crate::json::assert_committed;

    /// `BENCH_recovery.json` is this sweep's output, and the sweep measures
    /// what it is for: machines are lost only at a non-zero rate, only a
    /// non-zero interval writes checkpoints, and at every lossy rate each
    /// checkpointing interval replays less lineage than never checkpointing.
    #[test]
    fn bench_recovery_json_is_this_sweep() {
        let rows = run();
        assert!(rows.iter().all(|r| r.m.outcome == Outcome::Ok));
        let lossy = |r: &&Row| r.series != "loss-0";
        assert!(rows.iter().filter(|r| !lossy(r)).all(|r| r.m.stats.partitions_lost == 0));
        assert!(rows.iter().filter(lossy).any(|r| r.m.stats.partitions_lost > 0));
        assert!(rows.iter().all(|r| (r.x == 0) == (r.m.stats.checkpoint_bytes == 0)));
        for never in rows.iter().filter(|r| lossy(r) && r.x == 0) {
            for r in rows.iter().filter(|r| r.series == never.series && r.x > 0) {
                assert!(
                    r.m.stats.recompute_nanos < never.m.stats.recompute_nanos,
                    "{} interval {}: checkpointing must shrink lineage replay",
                    r.series,
                    r.x
                );
            }
        }
        assert_committed("BENCH_recovery.json", "recovery_sweep", &rows);
    }
}
