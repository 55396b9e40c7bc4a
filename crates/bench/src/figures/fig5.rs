//! Fig. 5 (paper Sec. 9.4): Bounce Rate — the task *without* control flow —
//! weak scaling over the number of inner computations at a 48 GB input,
//! plus scale-out at 256 inner computations. DIQL is included: it falls back
//! to the outer-parallel plan and runs out of memory at this input size.

use matryoshka_core::MatryoshkaConfig;
use matryoshka_datagen::{visit_log, KeyDist, VisitSpec};
use matryoshka_engine::{ClusterConfig, Engine};
use matryoshka_tasks::bounce_rate;

use crate::harness::{run_case, Row};
use crate::profile::{gb, Profile};

/// Real record count at the `Full` profile (modeled volume stays 48 GB).
const FULL_RECORDS: u64 = 1 << 19;

fn spec(records: u64, groups: u64, key_dist: KeyDist) -> VisitSpec {
    VisitSpec {
        visits: records,
        groups: groups as u32,
        visitors_per_group: (records / groups / 3).max(8),
        bounce_fraction: 0.3,
        key_dist,
        seed: 42,
    }
}

/// One Bounce Rate case on a fresh engine.
pub fn run_strategy(
    engine: &Engine,
    strategy: &str,
    visits: &[(u32, u64)],
    record_bytes: f64,
) -> matryoshka_engine::Result<()> {
    let bag = || {
        engine.parallelize_with_bytes(
            visits.to_vec(),
            engine.config().default_parallelism,
            record_bytes,
        )
    };
    match strategy {
        "matryoshka" => {
            bounce_rate::matryoshka(engine, &bag(), MatryoshkaConfig::optimized())?;
        }
        "outer-parallel" => {
            bounce_rate::outer_parallel(engine, &bag())?;
        }
        "inner-parallel" => {
            let groups = bounce_rate::split_by_group(visits);
            bounce_rate::inner_parallel(engine, &groups, record_bytes)?;
        }
        "diql" => {
            bounce_rate::diql_like(engine, &bag())?;
        }
        other => panic!("unknown strategy {other}"),
    }
    Ok(())
}

/// Weak scaling at a given modeled volume (Fig. 5 top uses 48 GB; Fig. 6
/// reuses this at 12 GB).
pub fn weak_scaling(
    profile: Profile,
    figure: &str,
    total_bytes: f64,
    groups_sweep: &[u64],
    strategies: &[&str],
) -> Vec<Row> {
    let records = profile.records(FULL_RECORDS);
    let record_bytes = total_bytes / records as f64;
    let mut rows = Vec::new();
    for &groups in groups_sweep {
        let visits = visit_log(&spec(records, groups, KeyDist::Uniform));
        for &strategy in strategies {
            let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
                run_strategy(e, strategy, &visits, record_bytes)
            });
            rows.push(Row {
                figure: figure.to_string(),
                series: strategy.to_string(),
                x: groups,
                m,
            });
        }
    }
    rows
}

/// The full Fig. 5: weak scaling at 48 GB plus scale-out at 256 groups.
pub fn run(profile: Profile) -> Vec<Row> {
    let mut rows = weak_scaling(
        profile,
        "fig5/bounce-rate/weak-scaling-48GB",
        gb(48),
        &profile.sweep(&[4, 8, 16, 32, 64, 128, 256], &[4, 32, 256]),
        &["matryoshka", "inner-parallel", "outer-parallel", "diql"],
    );
    // Scale-out: 256 inner computations, varying machine count.
    let records = profile.records(FULL_RECORDS);
    let record_bytes = gb(48) / records as f64;
    let visits = visit_log(&spec(records, 256, KeyDist::Uniform));
    for machines in profile.sweep(&[5, 10, 15, 20, 25], &[5, 25]) {
        for strategy in ["matryoshka", "inner-parallel", "outer-parallel", "diql"] {
            let m = run_case(ClusterConfig::with_machines(machines as usize), |e| {
                run_strategy(e, strategy, &visits, record_bytes)
            });
            rows.push(Row {
                figure: "fig5/bounce-rate/scale-out-256".to_string(),
                series: strategy.to_string(),
                x: machines,
                m,
            });
        }
    }
    rows
}
