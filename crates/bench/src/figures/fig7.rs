//! Fig. 7 (paper Sec. 9.5): data skew. The grouping keys of Bounce Rate and
//! per-group PageRank are drawn from a Zipf distribution (1024 groups: a few
//! giant groups, many tiny ones). Outer-parallel fails with OOM (the giant
//! group is one giant task), inner-parallel pays 1024 jobs-worth of
//! overhead, and the paper reports Matryoshka within ~15% of its unskewed
//! runtime (measured here: `EXPERIMENTS.md`, Fig. 7).

use matryoshka_core::MatryoshkaConfig;
use matryoshka_datagen::{grouped_edges, visit_log, GroupedGraphSpec, KeyDist, VisitSpec};
use matryoshka_engine::ClusterConfig;

use crate::figures::{fig3, fig5};
use crate::harness::{run_case, Row};
use crate::profile::{gb, Profile};

const GROUPS: u64 = 1024;
const ZIPF_EXPONENT: f64 = 1.0;

/// Build the Fig. 7 grouped-PageRank edges at a given key distribution.
fn pagerank_edges(profile: Profile, dist: KeyDist) -> (Vec<(u32, (u64, u64))>, f64) {
    let edges_n = profile.records(1 << 18);
    let spec = GroupedGraphSpec {
        total_edges: edges_n,
        groups: GROUPS as u32,
        vertices_per_group: ((edges_n / GROUPS) / 10).max(2) as u32,
        key_dist: dist,
        seed: 7,
    };
    (grouped_edges(&spec), gb(20) / edges_n as f64)
}

/// The Fig. 7 cases: for each task, the three strategies on Zipf-skewed
/// keys, plus Matryoshka on unskewed data of the same size (x=0 row) — the
/// paper's "within 15% of running on unskewed data" check.
pub fn run(profile: Profile) -> Vec<Row> {
    let mut rows = Vec::new();

    // Bounce Rate, 24 GB, Zipf keys.
    let records = profile.records(1 << 19);
    let rb = gb(24) / records as f64;
    let mk_visits = |dist: KeyDist| {
        visit_log(&VisitSpec {
            visits: records,
            groups: GROUPS as u32,
            visitors_per_group: (records / GROUPS / 3).max(8),
            bounce_fraction: 0.3,
            key_dist: dist,
            seed: 42,
        })
    };
    let skewed = mk_visits(KeyDist::Zipf(ZIPF_EXPONENT));
    for strategy in ["matryoshka", "inner-parallel", "outer-parallel"] {
        let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
            fig5::run_strategy(e, strategy, &skewed, rb)
        });
        rows.push(Row { figure: "fig7/bounce-rate-zipf".into(), series: strategy.into(), x: 1, m });
    }
    let unskewed = mk_visits(KeyDist::Uniform);
    let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
        fig5::run_strategy(e, "matryoshka", &unskewed, rb)
    });
    rows.push(Row {
        figure: "fig7/bounce-rate-zipf".into(),
        series: "matryoshka-unskewed".into(),
        x: 1,
        m,
    });

    // Per-group PageRank, 20 GB, Zipf group sizes.
    let (skewed_edges, erb) = pagerank_edges(profile, KeyDist::Zipf(ZIPF_EXPONENT));
    for strategy in ["matryoshka", "inner-parallel", "outer-parallel"] {
        let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
            fig3::run_pagerank_strategy(
                e,
                strategy,
                &skewed_edges,
                erb,
                MatryoshkaConfig::optimized(),
                0.0,
            )
        });
        rows.push(Row { figure: "fig7/pagerank-zipf".into(), series: strategy.into(), x: 1, m });
    }
    let (unskewed_edges, erb) = pagerank_edges(profile, KeyDist::Uniform);
    let m = run_case(ClusterConfig::paper_small_cluster(), |e| {
        fig3::run_pagerank_strategy(
            e,
            "matryoshka",
            &unskewed_edges,
            erb,
            MatryoshkaConfig::optimized(),
            0.0,
        )
    });
    rows.push(Row {
        figure: "fig7/pagerank-zipf".into(),
        series: "matryoshka-unskewed".into(),
        x: 1,
        m,
    });
    rows
}
