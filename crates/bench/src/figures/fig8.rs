//! Fig. 8 (paper Sec. 9.6): the optimizer ablations.
//!
//! **Left:** InnerBag-InnerScalar join strategy on per-group PageRank. Each
//! group (topic) carries a fixed-size auxiliary scalar (the topic descriptor
//! of Topic-Sensitive PageRank), so the InnerScalar's total bytes grow with
//! the number of inner computations: broadcast wins while it is small,
//! repartition wins once it is large, forced-broadcast eventually cannot fit
//! the InnerScalar on a single machine (OOM). The Auto series must track the
//! better strategy everywhere.
//!
//! **Right:** half-lifted `mapWithClosure` strategy on shared-points K-means.
//! The per-configuration centroid payload is substantial, so at many
//! configurations the InnerScalar outweighs the point set: broadcasting the
//! points wins there, broadcasting the scalar wins at few configurations,
//! and each forced strategy is badly wrong (or OOM) at one end.

use matryoshka_core::{CrossChoice, JoinChoice, MatryoshkaConfig};
use matryoshka_datagen::{initial_centroid_configs, point_cloud, KmeansSpec, Point};
use matryoshka_engine::{ClusterConfig, Engine, MB};
use matryoshka_tasks::kmeans;
use matryoshka_tasks::seq::KmeansParams;

use crate::figures::fig3;
use crate::harness::{run_case_named, Row};
use crate::profile::{gb, Profile};

/// Fixed per-group auxiliary scalar payload (topic descriptor), left panel.
const TOPIC_DESCRIPTOR_BYTES: f64 = (MB as f64) * 1.0;

/// Left panel: join-strategy ablation on PageRank at 160 GB.
fn run_join_ablation(profile: Profile) -> Vec<Row> {
    let sweep = profile.sweep(&[64, 256, 1024, 4096, 8192], &[64, 1024, 8192]);
    let mut rows = Vec::new();
    for &groups in &sweep {
        let (edges, record_bytes) = fig3::pagerank_input(profile, groups, gb(160));
        for (label, choice) in [
            ("auto", JoinChoice::Auto),
            ("broadcast", JoinChoice::ForceBroadcast),
            ("repartition", JoinChoice::ForceRepartition),
        ] {
            let cfg = MatryoshkaConfig { tag_join: choice, ..MatryoshkaConfig::optimized() };
            let name = format!("fig8-join-{label}-{groups}");
            let m = run_case_named(&name, ClusterConfig::paper_small_cluster(), |e| {
                fig3::run_pagerank_strategy(
                    e,
                    "matryoshka",
                    &edges,
                    record_bytes,
                    cfg,
                    TOPIC_DESCRIPTOR_BYTES,
                )
            });
            rows.push(Row {
                figure: "fig8/join-strategy-pagerank".into(),
                series: label.into(),
                x: groups,
                m,
            });
        }
    }
    rows
}

/// Modeled per-configuration centroid payload for the right panel (each
/// configuration also carries its preprocessing state).
const CONFIG_PAYLOAD_BYTES: f64 = (MB as f64) * 2.0;

fn shared_kmeans_case(profile: Profile, configs: u64) -> (Vec<Point>, Vec<(u32, Vec<Point>)>, f64) {
    let spec = KmeansSpec {
        points: profile.records(1 << 15),
        dim: 4,
        true_clusters: 8,
        k: 8,
        spread: 0.04,
        seed: 99,
    };
    let points = point_cloud(&spec);
    let config_list = initial_centroid_configs(&spec, configs as u32);
    let point_bytes = gb(2) / spec.points as f64;
    (points, config_list, point_bytes)
}

/// Right panel: half-lifted `mapWithClosure` ablation on shared-points
/// K-means.
fn run_half_lifted_ablation(profile: Profile) -> Vec<Row> {
    let sweep = profile.sweep(&[16, 64, 256, 1024, 4096], &[16, 256, 4096]);
    let params = KmeansParams { epsilon: 5e-3, max_iterations: 8 };
    let mut rows = Vec::new();
    for &configs in &sweep {
        let (points, config_list, point_bytes) = shared_kmeans_case(profile, configs);
        for (label, choice) in [
            ("auto", CrossChoice::Auto),
            ("broadcast-scalar", CrossChoice::ForceBroadcastScalar),
            ("broadcast-points", CrossChoice::ForceBroadcastBag),
        ] {
            let cfg = MatryoshkaConfig { cross: choice, ..MatryoshkaConfig::optimized() };
            let name = format!("fig8-half-lifted-{label}-{configs}");
            let m = run_case_named(&name, ClusterConfig::paper_small_cluster(), |e| {
                run_shared_kmeans(e, &points, &config_list, point_bytes, &params, cfg)
            });
            rows.push(Row {
                figure: "fig8/half-lifted-kmeans".into(),
                series: label.into(),
                x: configs,
                m,
            });
        }
    }
    rows
}

/// One shared-points K-means case with the given lowering config.
fn run_shared_kmeans(
    engine: &Engine,
    points: &[Point],
    configs: &[(u32, Vec<Point>)],
    point_bytes: f64,
    params: &KmeansParams,
    cfg: MatryoshkaConfig,
) -> matryoshka_engine::Result<()> {
    let point_bag = engine.parallelize_with_bytes(
        points.to_vec(),
        matryoshka_tasks::hdfs_partitions(engine, points.len() as f64 * point_bytes)
            .max(engine.total_cores()),
        point_bytes,
    );
    let config_bag =
        engine.parallelize(configs.to_vec(), 1).with_record_bytes(CONFIG_PAYLOAD_BYTES);
    kmeans::matryoshka(engine, &config_bag, &point_bag, params, cfg)?;
    Ok(())
}

/// Both panels.
pub fn run(profile: Profile) -> Vec<Row> {
    let mut rows = run_join_ablation(profile);
    rows.extend(run_half_lifted_ablation(profile));
    rows
}
