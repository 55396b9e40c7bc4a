//! Cross-crate integration tests: every execution strategy of every paper
//! workload computes the same answer (the correctness theorem of Sec. 7,
//! checked end-to-end), and the *cost structure* matches the paper's
//! analysis (Matryoshka's job count is independent of the number of inner
//! computations; the workarounds' costs are not).

use std::sync::Arc;

use matryoshka::core::MatryoshkaConfig;
use matryoshka::datagen::*;
use matryoshka::engine::{ClusterConfig, Engine};
use matryoshka::tasks::seq::{KmeansParams, PageRankParams};
use matryoshka::tasks::{avg_distances, bounce_rate, kmeans, pagerank};

fn engine() -> Engine {
    Engine::new(ClusterConfig::local_test())
}

#[test]
fn bounce_rate_all_strategies_agree_at_scale() {
    let log = visit_log(&VisitSpec {
        visits: 40_000,
        groups: 48,
        visitors_per_group: 300,
        bounce_fraction: 0.25,
        key_dist: KeyDist::Uniform,
        seed: 11,
    });
    let oracle = bounce_rate::reference(&log);
    let e = engine();
    let bag = e.parallelize(log.clone(), 8);
    let m = bounce_rate::matryoshka(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
    let o = bounce_rate::outer_parallel(&e, &bag).unwrap();
    let i = bounce_rate::inner_parallel(&e, &bounce_rate::split_by_group(&log), 8.0).unwrap();
    for other in [&m, &o, &i] {
        assert_eq!(other.len(), oracle.len());
        for ((d1, r1), (d2, r2)) in other.iter().zip(&oracle) {
            assert_eq!(d1, d2);
            assert!((r1 - r2).abs() < 1e-12);
        }
    }
}

#[test]
fn bounce_rate_under_skew_agrees() {
    let log = visit_log(&VisitSpec {
        visits: 30_000,
        groups: 64,
        visitors_per_group: 120,
        bounce_fraction: 0.4,
        key_dist: KeyDist::Zipf(1.0),
        seed: 12,
    });
    let oracle = bounce_rate::reference(&log);
    let e = engine();
    let bag = e.parallelize(log.clone(), 8);
    let m = bounce_rate::matryoshka(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
    assert_eq!(m.len(), oracle.len());
    for ((d1, r1), (d2, r2)) in m.iter().zip(&oracle) {
        assert_eq!(d1, d2);
        assert!((r1 - r2).abs() < 1e-12);
    }
}

#[test]
fn pagerank_strategies_agree_and_matryoshka_jobs_are_flat() {
    let params = PageRankParams { damping: 0.85, epsilon: 1e-3, max_iterations: 15 };
    let jobs_at = |groups: u32, key_dist: KeyDist| {
        let edges = grouped_edges(&GroupedGraphSpec {
            total_edges: 3_000,
            groups,
            vertices_per_group: (300 / groups).max(3),
            key_dist,
            seed: 21,
        });
        let oracle = pagerank::reference(&edges, &params);
        let e = engine();
        let bag = e.parallelize(edges.clone(), 6);
        let m =
            pagerank::matryoshka(&e, &bag, &params, MatryoshkaConfig::optimized(), 0.0).unwrap();
        assert_eq!(m.len(), oracle.len());
        for ((g1, (v1, r1)), (g2, (v2, r2))) in m.iter().zip(&oracle) {
            assert_eq!((g1, v1), (g2, v2));
            assert!((r1 - r2).abs() < 1e-4, "group {g1} vertex {v1}: {r1} vs {r2}");
        }
        e.stats().jobs
    };
    let j4 = jobs_at(4, KeyDist::Uniform);
    let j32 = jobs_at(32, KeyDist::Uniform);
    // Iteration counts can vary a little; an 8x group increase must not
    // show up in the job count.
    assert!(j32 < j4 * 3, "matryoshka jobs must not scale with groups: {j4} vs {j32}");
    // Zipf group sizes: a few giant groups and many tiny ones agree too.
    jobs_at(32, KeyDist::Zipf(1.2));
}

#[test]
fn inner_parallel_job_count_is_linear_in_groups() {
    let params = PageRankParams { damping: 0.85, epsilon: 1e-2, max_iterations: 5 };
    let jobs_at = |groups: u32| {
        let edges = grouped_edges(&GroupedGraphSpec {
            total_edges: 1_200,
            groups,
            vertices_per_group: 8,
            key_dist: KeyDist::Uniform,
            seed: 23,
        });
        let e = engine();
        let split = pagerank::split_by_group(&edges);
        pagerank::inner_parallel(&e, &split, &params, 8.0).unwrap();
        e.stats().jobs
    };
    let j4 = jobs_at(4);
    let j16 = jobs_at(16);
    assert!(
        j16 as f64 >= j4 as f64 * 2.5,
        "inner-parallel jobs must grow with groups: {j4} vs {j16}"
    );
}

#[test]
fn kmeans_shared_and_grouped_variants_agree_with_reference() {
    let spec = KmeansSpec { points: 3_000, dim: 3, true_clusters: 5, k: 5, spread: 0.03, seed: 31 };
    let points = point_cloud(&spec);
    let configs = initial_centroid_configs(&spec, 6);
    let params = KmeansParams::default();

    // Shared-points variant (half-lifted closure).
    let oracle = kmeans::reference(&configs, &points, &params);
    let e = engine();
    let cb = e.parallelize(configs.clone(), 2);
    let pb = e.parallelize(points.clone(), 6);
    let m = kmeans::matryoshka(&e, &cb, &pb, &params, MatryoshkaConfig::optimized()).unwrap();
    for ((i1, (_, c1)), (i2, (_, c2))) in m.iter().zip(&oracle) {
        assert_eq!(i1, i2);
        assert!((c1 - c2).abs() / c1.max(1e-9) < 1e-6);
    }

    // Grouped-samples variant (mapWithClosure tag join).
    let samples: Vec<(u32, Point)> =
        points.iter().enumerate().map(|(i, p)| ((i % 6) as u32, p.clone())).collect();
    let split = kmeans::split_samples(&samples);
    let oracle_g = kmeans::reference_grouped(&configs, &split, &params);
    let e2 = engine();
    let cb2 = e2.parallelize(configs.clone(), 2);
    let sb = e2.parallelize(samples, 6);
    let mg =
        kmeans::matryoshka_grouped(&e2, &cb2, &sb, &params, MatryoshkaConfig::optimized()).unwrap();
    for ((i1, (_, c1)), (i2, (_, c2))) in mg.iter().zip(&oracle_g) {
        assert_eq!(i1, i2);
        assert!((c1 - c2).abs() / c1.max(1e-9) < 1e-6);
    }
}

#[test]
fn avg_distances_three_levels_agree_at_scale() {
    let graph = component_graph(&ComponentGraphSpec {
        components: 6,
        vertices_per_component: 14,
        extra_edges_per_component: 8,
        seed: 41,
    });
    let oracle = avg_distances::reference(&graph);
    let e = engine();
    let bag = e.parallelize(graph.clone(), 6);
    let m = avg_distances::matryoshka(&e, &bag, MatryoshkaConfig::optimized(), 64).unwrap();
    let o = avg_distances::outer_parallel(&e, &bag).unwrap();
    for got in [&m, &o] {
        assert_eq!(got.len(), oracle.len());
        for ((c1, d1), (c2, d2)) in got.iter().zip(&oracle) {
            assert_eq!(c1, c2);
            assert!((d1 - d2).abs() < 1e-9);
        }
    }
}

#[test]
fn outer_parallel_oom_is_deterministic_and_only_under_pressure() {
    // The same workload OOMs on a small-memory cluster and succeeds on a
    // large one — the simulated memory model, not chance.
    let log = visit_log(&VisitSpec {
        visits: 20_000,
        groups: 4,
        visitors_per_group: 500,
        bounce_fraction: 0.3,
        key_dist: KeyDist::Uniform,
        seed: 51,
    });
    let record_bytes = (48u64 * (1 << 30)) as f64 / 20_000.0;

    let small = Engine::new(ClusterConfig::paper_small_cluster());
    let bag = small.parallelize_with_bytes(log.clone(), 1200, record_bytes);
    assert!(bounce_rate::outer_parallel(&small, &bag).is_err(), "48 GB / 4 groups must OOM");

    let e = engine(); // tiny data volume: must succeed
    let bag2 = e.parallelize(log.clone(), 8);
    assert!(bounce_rate::outer_parallel(&e, &bag2).is_ok());
}

#[test]
fn forced_optimizer_choices_never_change_results() {
    use matryoshka::core::{CrossChoice, JoinChoice};
    let spec = KmeansSpec { points: 800, dim: 2, true_clusters: 3, k: 3, spread: 0.05, seed: 61 };
    let points = point_cloud(&spec);
    let configs = initial_centroid_configs(&spec, 3);
    let params = KmeansParams::default();
    let oracle = kmeans::reference(&configs, &points, &params);
    for join in [JoinChoice::Auto, JoinChoice::ForceBroadcast, JoinChoice::ForceRepartition] {
        for cross in
            [CrossChoice::Auto, CrossChoice::ForceBroadcastScalar, CrossChoice::ForceBroadcastBag]
        {
            let cfg = MatryoshkaConfig { tag_join: join, cross, ..MatryoshkaConfig::optimized() };
            let e = engine();
            let cb = e.parallelize(configs.clone(), 1);
            let pb = e.parallelize(points.clone(), 4);
            let m = kmeans::matryoshka(&e, &cb, &pb, &params, cfg).unwrap();
            for ((i1, (_, c1)), (i2, (_, c2))) in m.iter().zip(&oracle) {
                assert_eq!(i1, i2);
                assert!((c1 - c2).abs() / c1.max(1e-9) < 1e-6, "{join:?}/{cross:?}");
            }
        }
    }
}

#[test]
fn outer_parallel_kmeans_matches_with_arc_shared_points() {
    let spec = KmeansSpec { points: 1_000, dim: 2, true_clusters: 4, k: 4, spread: 0.04, seed: 71 };
    let points = point_cloud(&spec);
    let configs = initial_centroid_configs(&spec, 4);
    let params = KmeansParams::default();
    let oracle = kmeans::reference(&configs, &points, &params);
    let e = engine();
    let o = kmeans::outer_parallel(&e, &configs, Arc::new(points), 16.0, &params).unwrap();
    assert_eq!(o, oracle);
}
