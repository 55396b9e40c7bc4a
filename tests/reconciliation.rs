//! The reconciliation rule on real plans (`docs/OBSERVABILITY.md`): the fold
//! of a run's recorded events equals the engine's live `StatsSnapshot` as a
//! whole struct, and keeping the events is sim-transparent — a traced and an
//! untraced run of the same plan agree on the result, `sim_time()` and every
//! counter. Checked on the four paper workloads' `matryoshka` strategies
//! under two lowering configs on a faulty cluster, and on every shipped
//! `.mat` program the way the job service runs it. (The service's own
//! counters are checked next to its state, in `crates/service/src/service.rs`.)

mod workloads;

use matryoshka::engine::trace::assert_reconciles;
use matryoshka::engine::{ClusterConfig, Engine, SimTime, StatsSnapshot};
use workloads::{lowering_configs, paper_workloads, shipped_programs};

/// Run `plan` on a fresh traced and a fresh untraced engine over `cluster`:
/// the traced one must reconcile, and the two must be indistinguishable.
/// Returns the run's counters so callers can assert the plan exercised what
/// it was chosen for.
fn check(what: &str, cluster: &ClusterConfig, plan: impl Fn(&Engine) -> String) -> StatsSnapshot {
    let run = |trace_events: bool| -> (String, SimTime, StatsSnapshot, Engine) {
        let engine = Engine::new(ClusterConfig { trace_events, ..cluster.clone() });
        let out = plan(&engine);
        (out, engine.sim_time(), engine.stats(), engine)
    };
    let (traced_out, traced_time, traced_stats, traced) = run(true);
    let (plain_out, plain_time, plain_stats, plain) = run(false);
    assert!(plain.events().is_empty(), "{what}: nothing is kept when tracing is off");
    assert!(!traced.events().is_empty(), "{what}: the traced run kept its events");
    assert_reconciles(&traced);
    assert_eq!(traced_out, plain_out, "{what}: result");
    assert_eq!(traced_time, plain_time, "{what}: sim_time");
    assert_eq!(traced_stats, plain_stats, "{what}: StatsSnapshot");
    traced_stats
}

/// `local_test` with machine losses on. Every seeded run below survives
/// them; the rule is checked on a job the fault model kills in
/// `crates/engine/tests/recovery.rs`.
fn faulty_cluster() -> ClusterConfig {
    let mut cluster = ClusterConfig::local_test();
    cluster.faults.machine_loss_rate = 0.2;
    cluster
}

#[test]
fn paper_workloads_reconcile_and_tracing_is_sim_transparent() {
    let cluster = faulty_cluster();
    let mut total = StatsSnapshot::default();
    for (name, config) in lowering_configs() {
        for (workload, plan) in paper_workloads(&config) {
            let s = check(&format!("{workload}/{name}"), &cluster, plan);
            total.partitions_recomputed += s.partitions_recomputed;
            total.checkpoint_bytes += s.checkpoint_bytes;
            total.stages_fused += s.stages_fused;
            total.broadcast_bytes += s.broadcast_bytes;
        }
    }
    // The runs exercised the events the fault model, checkpointing, fusion
    // and the broadcast paths feed — not only jobs/stages/shuffles.
    assert!(total.partitions_recomputed > 0, "{total:?}");
    assert!(total.checkpoint_bytes > 0 && total.stages_fused > 0, "{total:?}");
    assert!(total.broadcast_bytes > 0, "{total:?}");
}

#[test]
fn shipped_programs_reconcile_and_tracing_is_sim_transparent() {
    for (name, plan) in shipped_programs() {
        let stats = check(&name, &ClusterConfig::local_test(), plan);
        assert!(stats.jobs > 0 && stats.records > 0, "{name}: {stats:?}");
    }
}
