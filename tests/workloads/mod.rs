//! The plans `reconciliation.rs`, `golden_lifted.rs` and `docs.rs` run: the
//! four paper workloads' `matryoshka` strategies (K-means in both its
//! shared-points and its per-configuration-samples form) on small seeded
//! inputs under each lowering config, and every shipped `.mat` program the
//! way the job service runs it. A plan renders its result so that runs can be compared.

use std::collections::HashMap;
use std::fmt::Debug;

use matryoshka::core::MatryoshkaConfig;
use matryoshka::datagen::*;
use matryoshka::engine::Engine;
use matryoshka::ir::{prepare_program, Dialect, RtVal};
use matryoshka::service::datasets::source_bag;
use matryoshka::tasks::seq::{KmeansParams, PageRankParams};
use matryoshka::tasks::{avg_distances, bounce_rate, kmeans, pagerank};

/// One run of one workload on a fresh engine, rendered.
pub(crate) type Plan = Box<dyn Fn(&Engine) -> String>;

pub(crate) fn lowering_configs() -> [(&'static str, MatryoshkaConfig); 2] {
    [
        ("optimized", MatryoshkaConfig::optimized()),
        (
            "checkpointing",
            MatryoshkaConfig { checkpoint_interval: 2, ..MatryoshkaConfig::optimized() },
        ),
    ]
}

pub(crate) fn paper_workloads(config: &MatryoshkaConfig) -> Vec<(&'static str, Plan)> {
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
    // Per-configuration samples: the tag-join closure path (Sec. 5.1) with a
    // non-`Copy` closure value, where `kmeans` takes the cross product.
    let samples: Vec<(u32, Point)> =
        points.iter().enumerate().map(|(i, p)| (i as u32 % 4, p.clone())).collect();
    let grouped_configs = configs.clone();
    let km = KmeansParams::default();
    let graph = component_graph(&ComponentGraphSpec {
        components: 4,
        vertices_per_component: 8,
        extra_edges_per_component: 4,
        seed: 41,
    });
    vec![
        (
            "bounce_rate",
            plan(config, move |e, config| {
                bounce_rate::matryoshka(e, &e.parallelize(log.clone(), 8), config).unwrap()
            }),
        ),
        (
            "pagerank",
            plan(config, move |e, config| {
                let bag = e.parallelize(edges.clone(), 6);
                pagerank::matryoshka(e, &bag, &pr, config, 0.0).unwrap()
            }),
        ),
        (
            "kmeans",
            plan(config, move |e, config| {
                let (cb, pb) =
                    (e.parallelize(configs.clone(), 2), e.parallelize(points.clone(), 4));
                kmeans::matryoshka(e, &cb, &pb, &km, config).unwrap()
            }),
        ),
        (
            "kmeans_grouped",
            plan(config, move |e, config| {
                let (cb, sb) =
                    (e.parallelize(grouped_configs.clone(), 2), e.parallelize(samples.clone(), 4));
                kmeans::matryoshka_grouped(e, &cb, &sb, &km, config).unwrap()
            }),
        ),
        (
            "avg_distances",
            plan(config, move |e, config| {
                let bag = e.parallelize(graph.clone(), 4);
                avg_distances::matryoshka(e, &bag, config, 32).unwrap()
            }),
        ),
    ]
}

/// A plan that runs `run` under its own copy of `config` and renders the result.
fn plan<R: Debug>(
    config: &MatryoshkaConfig,
    run: impl Fn(&Engine, MatryoshkaConfig) -> R + 'static,
) -> Plan {
    let config = *config;
    Box::new(move |e| format!("{:?}", run(e, config)))
}

pub(crate) fn shipped_programs() -> Vec<(String, Plan)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|x| x == "mat"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 9, "the shipped corpus: {paths:?}");
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let program =
                prepare_program(&std::fs::read_to_string(&path).unwrap(), Dialect::Matryoshka)
                    .unwrap();
            let plan: Plan = Box::new(move |e| {
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
            (name, plan)
        })
        .collect()
}
