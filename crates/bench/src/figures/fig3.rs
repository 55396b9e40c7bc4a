//! Fig. 3 (paper Sec. 9.2): weak scaling of the *iterative* tasks (K-means,
//! per-group PageRank, Average Distances). The number of inner computations
//! and the per-computation input size vary inversely, so the total input is
//! constant and a nested-parallelism-aware system should be flat.

use matryoshka_core::MatryoshkaConfig;
use matryoshka_datagen::{
    component_graph, grouped_edges, ComponentGraphSpec, GroupedGraphSpec, KeyDist,
};
use matryoshka_engine::{ClusterConfig, Engine};
use matryoshka_tasks::seq::PageRankParams;
use matryoshka_tasks::{avg_distances, pagerank};

use crate::figures::fig1;
use crate::harness::{run_case, Row};
use crate::profile::{gb, Profile};

/// Real edge count for the PageRank weak-scaling input (models 20 GB).
const FULL_EDGES: u64 = 1 << 18;
/// Total vertices of the Average Distances graph at the `Full` profile.
const FULL_AVG_VERTICES: u64 = 2048;

/// Build the grouped PageRank input for `groups` inner computations.
pub fn pagerank_input(
    profile: Profile,
    groups: u64,
    total_bytes: f64,
) -> (Vec<(u32, (u64, u64))>, f64) {
    let edges = profile.records(FULL_EDGES);
    let spec = GroupedGraphSpec {
        total_edges: edges,
        groups: groups as u32,
        // Constant total vertex count: per-group vertices shrink as groups
        // grow (~10 edges per vertex).
        vertices_per_group: ((edges / groups) / 10).max(2) as u32,
        key_dist: KeyDist::Uniform,
        seed: 7,
    };
    (grouped_edges(&spec), total_bytes / edges as f64)
}

/// Paper-calibrated PageRank parameters for the experiments.
fn pagerank_params() -> PageRankParams {
    PageRankParams { damping: 0.85, epsilon: 1e-3, max_iterations: 12 }
}

/// One per-group PageRank case.
pub fn run_pagerank_strategy(
    engine: &Engine,
    strategy: &str,
    edges: &[(u32, (u64, u64))],
    record_bytes: f64,
    config: MatryoshkaConfig,
    per_group_scalar_bytes: f64,
) -> matryoshka_engine::Result<()> {
    let params = pagerank_params();
    let bag = || {
        engine.parallelize_with_bytes(
            edges.to_vec(),
            engine.config().default_parallelism,
            record_bytes,
        )
    };
    match strategy {
        "matryoshka" => {
            pagerank::matryoshka(engine, &bag(), &params, config, per_group_scalar_bytes)?;
        }
        "outer-parallel" => {
            pagerank::outer_parallel(engine, &bag(), &params)?;
        }
        "inner-parallel" => {
            let groups = pagerank::split_by_group(edges);
            pagerank::inner_parallel(engine, &groups, &params, record_bytes)?;
        }
        other => panic!("unknown strategy {other}"),
    }
    Ok(())
}

/// One Average Distances case (`components` inner computations at level 1).
pub fn run_avg_distances_strategy(
    engine: &Engine,
    strategy: &str,
    edges: &[(u64, u64)],
    record_bytes: f64,
) -> matryoshka_engine::Result<()> {
    let bag = || {
        engine.parallelize_with_bytes(
            edges.to_vec(),
            engine.config().default_parallelism,
            record_bytes,
        )
    };
    match strategy {
        "matryoshka" => {
            avg_distances::matryoshka(engine, &bag(), MatryoshkaConfig::optimized(), 64)?;
        }
        "outer-parallel" => {
            avg_distances::outer_parallel(engine, &bag())?;
        }
        "inner-parallel" => {
            let comps = avg_distances::split_by_component(edges);
            avg_distances::inner_parallel(engine, &comps, record_bytes)?;
        }
        other => panic!("unknown strategy {other}"),
    }
    Ok(())
}

/// Build the Average Distances input for `components` components with a
/// constant total vertex count.
pub fn avg_distances_input(
    profile: Profile,
    components: u64,
    total_bytes: f64,
) -> (Vec<(u64, u64)>, f64) {
    let total_vertices = match profile {
        Profile::Full => FULL_AVG_VERTICES,
        Profile::Quick => FULL_AVG_VERTICES / 4,
    };
    let spec = ComponentGraphSpec {
        components: components as u32,
        vertices_per_component: ((total_vertices / components) as u32).max(3),
        extra_edges_per_component: ((total_vertices / components) as u32 / 2).max(1),
        seed: 13,
    };
    let edges = component_graph(&spec);
    let record_bytes = total_bytes / edges.len() as f64;
    (edges, record_bytes)
}

/// The Fig. 3 sweeps, one sub-figure per task.
pub fn run(profile: Profile) -> Vec<Row> {
    let mut rows = Vec::new();
    let strategies = ["matryoshka", "inner-parallel", "outer-parallel"];

    // K-means (grouped samples), 6 GB total, like Fig. 1 but with the
    // Matryoshka line front and center.
    for &configs in &profile.sweep(&[4, 16, 64, 256, 1024], &[4, 64, 1024]) {
        let case = fig1::make_case(profile, configs, gb(6));
        for strategy in strategies {
            let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
                fig1::run_strategy(e, strategy, &case)
            });
            rows.push(Row { figure: "fig3/kmeans".into(), series: strategy.into(), x: configs, m });
        }
    }

    // Per-group PageRank, 20 GB total.
    for &groups in &profile.sweep(&[4, 16, 64, 256, 1024], &[4, 64, 1024]) {
        let (edges, record_bytes) = pagerank_input(profile, groups, gb(20));
        for strategy in strategies {
            let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
                run_pagerank_strategy(
                    e,
                    strategy,
                    &edges,
                    record_bytes,
                    MatryoshkaConfig::optimized(),
                    0.0,
                )
            });
            rows.push(Row {
                figure: "fig3/pagerank".into(),
                series: strategy.into(),
                x: groups,
                m,
            });
        }
    }

    // Average Distances (three levels), 2 GB total (the all-pairs-BFS inner
    // computation is compute-bound: graphs are small, records heavy).
    for &comps in &profile.sweep(&[4, 16, 64, 256], &[4, 64]) {
        let (edges, record_bytes) = avg_distances_input(profile, comps, gb(2));
        for strategy in strategies {
            let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
                run_avg_distances_strategy(e, strategy, &edges, record_bytes)
            });
            rows.push(Row {
                figure: "fig3/avg-distances".into(),
                series: strategy.into(),
                x: comps,
                m,
            });
        }
    }
    rows
}
