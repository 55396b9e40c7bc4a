//! The reconciliation rule on real plans (`docs/OBSERVABILITY.md`): the fold
//! of a run's recorded events equals the engine's live `StatsSnapshot` as a
//! whole struct, and keeping the events is sim-transparent — a traced and an
//! untraced run of the same plan agree on the result, `sim_time()` and every
//! counter. Checked on the four paper workloads' `matryoshka` strategies
//! under three lowering configs on a faulty cluster, and on every shipped
//! `.mat` program the way the job service runs it. (The service's own
//! counters are checked next to its state, in `crates/service/src/service.rs`.)

use std::collections::HashMap;
use std::fmt::Debug;

use matryoshka::core::MatryoshkaConfig;
use matryoshka::datagen::*;
use matryoshka::engine::trace::assert_reconciles;
use matryoshka::engine::{ClusterConfig, Engine, SimTime, StatsSnapshot};
use matryoshka::ir::{prepare_program, Dialect, RtVal};
use matryoshka::service::datasets::source_bag;
use matryoshka::tasks::seq::{KmeansParams, PageRankParams};
use matryoshka::tasks::{avg_distances, bounce_rate, kmeans, pagerank};

/// Run `plan` on a fresh traced and a fresh untraced engine over `cluster`:
/// the traced one must reconcile, and the two must be indistinguishable.
/// Returns the run's counters so callers can assert the plan exercised what
/// it was chosen for.
fn check<R: Debug>(
    what: &str,
    cluster: &ClusterConfig,
    plan: impl Fn(&Engine) -> R,
) -> StatsSnapshot {
    let run = |trace_events: bool| -> (String, SimTime, StatsSnapshot, Engine) {
        let engine = Engine::new(ClusterConfig { trace_events, ..cluster.clone() });
        let out = format!("{:?}", plan(&engine));
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

/// `local_test` with both fault models on. Every seeded run below survives
/// them; the rule is checked on a job the fault model kills in
/// `crates/engine/src/exec.rs`.
fn faulty_cluster() -> ClusterConfig {
    let mut cluster = ClusterConfig::local_test();
    cluster.faults.machine_loss_rate = 0.2;
    cluster.faults.task_failure_rate = 0.1;
    cluster
}

fn lowering_configs() -> [(&'static str, MatryoshkaConfig); 3] {
    [
        ("optimized", MatryoshkaConfig::optimized()),
        ("adaptive", MatryoshkaConfig::adaptive()),
        (
            "checkpointing",
            MatryoshkaConfig { checkpoint_interval: 2, ..MatryoshkaConfig::optimized() },
        ),
    ]
}

#[test]
fn paper_workloads_reconcile_and_tracing_is_sim_transparent() {
    let cluster = faulty_cluster();
    let log = visit_log(&VisitSpec {
        visits: 6_000,
        groups: 16,
        visitors_per_group: 120,
        bounce_fraction: 0.25,
        key_dist: KeyDist::Zipf(1.0),
        seed: 11,
    });
    let edges = grouped_edges(&GroupedGraphSpec {
        total_edges: 1_500,
        groups: 8,
        vertices_per_group: 20,
        key_dist: KeyDist::Uniform,
        seed: 21,
    });
    let pr = PageRankParams { damping: 0.85, epsilon: 1e-3, max_iterations: 6 };
    let spec = KmeansSpec { points: 800, dim: 2, true_clusters: 3, k: 3, spread: 0.05, seed: 31 };
    let (points, configs) = (point_cloud(&spec), initial_centroid_configs(&spec, 4));
    let km = KmeansParams::default();
    let graph = component_graph(&ComponentGraphSpec {
        components: 4,
        vertices_per_component: 8,
        extra_edges_per_component: 4,
        seed: 41,
    });

    let mut total = StatsSnapshot::default();
    for (name, config) in lowering_configs() {
        let runs = [
            check(&format!("bounce_rate/{name}"), &cluster, |e| {
                bounce_rate::matryoshka(e, &e.parallelize(log.clone(), 8), config.clone()).unwrap()
            }),
            check(&format!("pagerank/{name}"), &cluster, |e| {
                let bag = e.parallelize(edges.clone(), 6);
                pagerank::matryoshka(e, &bag, &pr, config.clone(), 0.0).unwrap()
            }),
            check(&format!("kmeans/{name}"), &cluster, |e| {
                let (cb, pb) =
                    (e.parallelize(configs.clone(), 2), e.parallelize(points.clone(), 4));
                kmeans::matryoshka(e, &cb, &pb, &km, config.clone()).unwrap()
            }),
            check(&format!("avg_distances/{name}"), &cluster, |e| {
                let bag = e.parallelize(graph.clone(), 4);
                avg_distances::matryoshka(e, &bag, config.clone(), 32).unwrap()
            }),
        ];
        for s in runs {
            total.tasks_retried += s.tasks_retried;
            total.partitions_recomputed += s.partitions_recomputed;
            total.checkpoint_bytes += s.checkpoint_bytes;
            total.stages_fused += s.stages_fused;
            total.broadcast_bytes += s.broadcast_bytes;
        }
    }
    // The runs exercised the events the fault model, checkpointing, fusion
    // and the broadcast paths feed — not only jobs/stages/shuffles.
    assert!(total.tasks_retried > 0 && total.partitions_recomputed > 0, "{total:?}");
    assert!(total.checkpoint_bytes > 0 && total.stages_fused > 0, "{total:?}");
    assert!(total.broadcast_bytes > 0, "{total:?}");
}

#[test]
fn shipped_programs_reconcile_and_tracing_is_sim_transparent() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|x| x == "mat"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 9, "the shipped corpus: {paths:?}");
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let program =
            prepare_program(&std::fs::read_to_string(&path).unwrap(), Dialect::Matryoshka).unwrap();
        let stats = check(&name, &ClusterConfig::local_test(), |e| {
            let inputs: HashMap<_, _> =
                program.sources.iter().map(|s| (s.clone(), source_bag(e, 42, s))).collect();
            match program.run(e.clone(), MatryoshkaConfig::default(), &inputs).unwrap() {
                RtVal::Scalar(v) => v.to_string(),
                RtVal::Bag(b) => {
                    let mut rows = b.collect().unwrap();
                    rows.sort();
                    format!("{rows:?}")
                }
                RtVal::Nested(_) => "nested".to_string(),
            }
        });
        assert!(stats.jobs > 0 && stats.records > 0, "{name}: {stats:?}");
    }
}
