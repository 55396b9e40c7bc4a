//! Flat-parallel implementations of single inner computations on the
//! engine.
//!
//! These are what the **inner-parallel** workaround launches once per inner
//! computation (paying a job launch per action per iteration), and what the
//! "ideal" line of the paper's Fig. 1 runs once on the full input.

use matryoshka_engine::{Bag, Engine, Result};

use matryoshka_datagen::Point;

use crate::seq::{nearest_centroid, KmeansParams, PageRankParams};

/// Flat dataflow PageRank over one edge list, with a per-iteration
/// convergence check (one job per iteration — the inner-parallel overhead).
pub fn pagerank(edges: &Bag<(u64, u64)>, params: &PageRankParams) -> Result<Vec<(u64, f64)>> {
    // Rank/contribution messages are small pairs; edge records carry the
    // data weight (see `pagerank::MSG_WEIGHT_FRACTION`).
    let msg_bytes = edges.record_bytes() * crate::pagerank::MSG_WEIGHT_FRACTION;
    let vertices = edges.flat_map(|&(s, d)| [s, d]).distinct().with_record_bytes(msg_bytes);
    let n = vertices.count()?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let nf = n as f64;
    let out_deg =
        edges.map(|(s, _)| (*s, 1u64)).with_record_bytes(msg_bytes).reduce_by_key(|a, b| a + b);
    let mut ranks = vertices.map(move |v| (*v, 1.0 / nf));
    let damping = params.damping;
    for _ in 0..params.max_iterations {
        // rank/out_deg along each edge.
        let with_deg = ranks.join(&out_deg);
        let contribs = with_deg
            .join(&edges.clone())
            .map(|(_, ((rank, deg), dst))| (*dst, rank / *deg as f64))
            .with_record_bytes(msg_bytes);
        let sums = contribs.union(&vertices.map(|v| (*v, 0.0))).reduce_by_key(|a, b| a + b);
        // Dangling mass: total rank minus mass that flowed along edges.
        let flowed = with_deg
            .filter(|(_, (_, deg))| *deg > 0)
            .map(|(_, (rank, _))| *rank)
            .fold(0.0, |a, r| a + r)?;
        let dangling = (1.0 - flowed).max(0.0);
        let base = (1.0 - damping) / nf + damping * dangling / nf;
        let new_ranks = sums.map(move |(v, s)| (*v, base + damping * s));
        let delta = new_ranks
            .join(&ranks)
            .map(|(_, (a, b))| (a - b).abs())
            .fold(0.0f64, |m, d| m.max(*d))?;
        ranks = new_ranks;
        if delta <= params.epsilon {
            break;
        }
    }
    ranks.collect()
}

/// Flat dataflow K-means from one initial configuration: per iteration, the
/// current centroids are broadcast, points are re-assigned and the new
/// centroids collected on the driver (one job per iteration).
pub fn kmeans(
    engine: &Engine,
    points: &Bag<Point>,
    init: &[Point],
    params: &KmeansParams,
) -> Result<(Vec<Point>, f64)> {
    let k = init.len();
    let dim = init.first().map(Vec::len).unwrap_or(0);
    let mut centroids: Vec<Point> = init.to_vec();
    let centroid_bytes = (k * dim * 8) as u64;
    for _ in 0..params.max_iterations {
        let bc = engine.broadcast(centroids.clone(), centroid_bytes)?;
        let sums = points
            .map(move |p| {
                let c = nearest_centroid(bc.value(), p);
                (c, (p.clone(), 1u64))
            })
            .reduce_by_key_partials(points.num_partitions(), 128.0, crate::kmeans::add_partial)
            .collect()?; // one job per iteration
        let mut shift: f64 = 0.0;
        for (c, (sum, count)) in sums {
            if count == 0 {
                continue;
            }
            let new: Point = sum.iter().map(|s| s / count as f64).collect();
            let d: f64 =
                new.iter().zip(&centroids[c]).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            shift = shift.max(d);
            centroids[c] = new;
        }
        if shift <= params.epsilon {
            break;
        }
    }
    let bc = engine.broadcast(centroids.clone(), centroid_bytes)?;
    let cost = points
        .map(move |p| {
            let c = nearest_centroid(bc.value(), p);
            bc.value()[c].iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
        })
        .fold(0.0, |a, x| a + x)?;
    Ok((centroids, cost))
}

/// Build the (cached, reusable) undirected adjacency for [`bfs`]: both edge
/// directions, co-partitioned so repeated BFS joins reuse its placement.
pub fn bfs_adjacency(edges: &Bag<(u64, u64)>) -> Bag<(u64, u64)> {
    let p = edges.engine().config().default_parallelism.min(edges.num_partitions() * 2);
    edges.flat_map(|&(u, v)| [(u, v), (v, u)]).partition_by_key(p)
}

/// Flat dataflow BFS from one source over a prepared adjacency
/// ([`bfs_adjacency`]): returns `(vertex, distance)` for every reachable
/// vertex. One job per BFS level (the third parallelism level of Average
/// Distances, which is all the inner-parallel workaround can parallelize
/// there).
pub fn bfs(engine: &Engine, adj: &Bag<(u64, u64)>, source: u64) -> Result<Vec<(u64, u64)>> {
    // BFS state records are small (vertex, distance) pairs regardless of
    // how heavy the edge records are.
    let msg_bytes = 16.0;
    let mut visited = engine.parallelize_with_bytes(vec![(source, 0u64)], 1, msg_bytes);
    let mut frontier = engine.parallelize_with_bytes(vec![source], 1, msg_bytes);
    let mut depth = 0u64;
    loop {
        depth += 1;
        let d = depth;
        let candidates = frontier
            .map(|v| (*v, ()))
            .join(adj)
            .map(move |(_, ((), dst))| (*dst, d))
            .with_record_bytes(msg_bytes);
        let new_visited = visited.union(&candidates).reduce_by_key(|a, b| *a.min(b));
        let new_frontier = new_visited.filter(move |(_, dist)| *dist == d).map(|(v, _)| *v);
        let grew = new_frontier.count()?; // one job per level
        visited = new_visited;
        frontier = new_frontier;
        if grew == 0 {
            break;
        }
    }
    visited.collect()
}

/// Flat dataflow connected components by min-label propagation. Returns
/// `(vertex, component_label)`; the label is the component's smallest
/// vertex id. Shared by all Average Distances strategies (it is the
/// outermost, non-nested part of the task).
pub fn connected_components(edges: &Bag<(u64, u64)>) -> Result<Vec<(u64, u64)>> {
    // Label messages are 16-byte pairs however heavy the edge records are;
    // the adjacency is co-partitioned once so each round only shuffles the
    // (small) label table.
    let msg_bytes = 16.0;
    let p = edges.engine().config().default_parallelism.min(edges.num_partitions() * 2);
    let adj = edges.flat_map(|&(u, v)| [(u, v), (v, u)]).partition_by_key(p);
    let vertices = adj.map(|(u, _)| *u).with_record_bytes(msg_bytes).distinct();
    let mut labels = vertices.map(|v| (*v, *v));
    loop {
        let msgs = labels
            .partition_by_key(p)
            .join_into(p, &adj)
            .map(|(_, (label, dst))| (*dst, *label))
            .with_record_bytes(msg_bytes);
        let new_labels = labels.union(&msgs).reduce_by_key_into(p, |a, b| *a.min(b));
        let changed = new_labels.join(&labels).filter(|(_, (a, b))| a != b).count()?; // one job per round
        labels = new_labels;
        if changed == 0 {
            break;
        }
    }
    labels.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use matryoshka_engine::Engine;

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn flat_pagerank_matches_sequential() {
        let e = Engine::local();
        let edges = vec![(0u64, 1u64), (1, 2), (2, 0), (2, 1), (3, 0)];
        let params = PageRankParams::default();
        let seq_r = seq::pagerank(&edges, &params).value;
        let flat_r = {
            let b = e.parallelize(edges, 3);
            let mut r = pagerank(&b, &params).unwrap();
            r.sort_by_key(|(v, _)| *v);
            r
        };
        assert_eq!(seq_r.len(), flat_r.len());
        for ((v1, p1), (v2, p2)) in seq_r.iter().zip(&flat_r) {
            assert_eq!(v1, v2);
            assert!((p1 - p2).abs() < 1e-6, "vertex {v1}: {p1} vs {p2}");
        }
    }

    #[test]
    fn flat_kmeans_matches_sequential() {
        let e = Engine::local();
        let spec = matryoshka_datagen::KmeansSpec::small();
        let pts = matryoshka_datagen::point_cloud(&spec);
        let init = matryoshka_datagen::initial_centroid_configs(&spec, 1).remove(0).1;
        let params = KmeansParams::default();
        let seq_r = seq::kmeans(&pts, &init, &params).value;
        let bag = e.parallelize(pts, 4);
        let (flat_c, flat_cost) = kmeans(&e, &bag, &init, &params).unwrap();
        assert!((seq_r.1 - flat_cost).abs() / seq_r.1.max(1e-12) < 1e-6);
        for (a, b) in seq_r.0.iter().zip(&flat_c) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn flat_bfs_computes_distances() {
        let e = Engine::local();
        // Path 0-1-2-3 plus chord 0-2.
        let edges = e.parallelize(vec![(0u64, 1u64), (1, 2), (2, 3), (0, 2)], 2);
        let adj = bfs_adjacency(&edges);
        let out = sorted(bfs(&e, &adj, 0).unwrap());
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 1), (3, 2)]);
    }

    #[test]
    fn flat_cc_matches_sequential() {
        let e = Engine::local();
        let edges = vec![(1u64, 2u64), (2, 3), (10, 11), (20, 21), (21, 22)];
        let expect = seq::connected_components(&edges);
        let bag = e.parallelize(edges, 3);
        let got = sorted(connected_components(&bag).unwrap());
        assert_eq!(got, expect);
    }

    #[test]
    fn flat_pagerank_jobs_scale_with_iterations() {
        let e = Engine::local();
        let edges = e.parallelize(vec![(0u64, 1u64), (1, 0)], 1);
        let s0 = e.stats();
        // epsilon < 0 never converges: exactly max_iterations run.
        pagerank(
            &edges,
            &PageRankParams { max_iterations: 5, epsilon: -1.0, ..Default::default() },
        )
        .unwrap();
        let d = e.stats().since(&s0);
        // >= 2 jobs per iteration (dangling fold + delta fold) plus setup.
        assert!(d.jobs >= 10, "expected at least 10 jobs, got {}", d.jobs);
    }
}
